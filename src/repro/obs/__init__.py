"""``repro.obs`` — structured tracing and metrics for the linking system.

Pure-stdlib modules, imported by name (the package re-exports nothing,
so an instrumented core module loads only what it records into):

* :mod:`repro.obs.trace` — a deterministic span-tree tracer (injected
  clocks, one root span per link request) behind the process-global
  ``TRACE``;
* :mod:`repro.obs.metrics` — the one registry, ``METRICS``: counters /
  gauges / fixed-bucket histograms, plus
  stage timers recorded only while its timing switch is on;
* :mod:`repro.obs.stage` — ``stage()``, the one wrap around a pipeline
  stage: a span to ``TRACE`` and a duration to ``METRICS``;
* :mod:`repro.obs.export` — the schema-stable JSON-lines trace document
  and its validator; the golden traces (``tests/golden/``) are
  byte-compared.
"""
