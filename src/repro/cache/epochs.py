"""Epoch counters — the structural-invalidation primitive of ``repro.cache``.

An :class:`Epoch` is a monotone integer version owned by exactly one
mutable structure (the knowledgebase or the complemented KB's link
store).  Every mutator of the owning structure bumps it;
every cache entry derived from the structure records the epoch values it
was computed under and is valid **iff** they still match.  Invalidation
is therefore structural — a consequence of the mutation itself — never a
heuristic TTL or an explicit ``clear()`` someone has to remember to call.
``tests/test_invariants.py`` checks the "every mutator bumps" half of the
contract over the owners' source.
"""

from __future__ import annotations


class Epoch:
    """A monotone version counter owned by one mutable structure."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        if value < 0:
            raise ValueError(f"epoch value must be non-negative, got {value}")
        self.value = value

    def bump(self) -> int:
        """Advance the epoch; every dependent cache entry becomes stale."""
        self.value += 1
        return self.value

    # __slots__ classes pickle via __reduce_ex__ protocol 2, but an
    # explicit __getstate__/__setstate__ pair keeps the wire format
    # independent of slot layout.
    def __getstate__(self) -> int:
        return self.value

    def __setstate__(self, state: int) -> None:
        self.value = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Epoch({self.value})"
