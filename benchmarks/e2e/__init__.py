"""The end-to-end benchmark: four workloads, twelve metrics, a traced run.

``BENCHMARK.json`` at the repository root names the command, the workloads
and every metric; ``README.md`` in this directory says why each exists.
Only :mod:`benchmarks.e2e.stack` imports the system under test.
"""
