"""perfbench — the repo's end-to-end + per-layer benchmark.

Lives outside ``src/`` and drives the system only through its public
surfaces (``perfbench/tests/test_surface.py`` pins which).  See
``perfbench/README.md`` for the workload and metric glossary.
"""
