"""Test support: deterministic fault injection (:mod:`repro.testing.faults`,
re-exported here) and the reference implementations the shipped
reachability providers are checked against (:mod:`repro.testing.oracles`)."""

from repro.testing.faults import (
    FakeClock,
    FaultSchedule,
    FlakyReachabilityProvider,
    corrupt_record,
)

__all__ = [
    "FakeClock",
    "FaultSchedule",
    "FlakyReachabilityProvider",
    "corrupt_record",
]
