"""The repository's one benchmark: unpaced, parity-checked, layer-attributed.

Entry points: ``python3 bench/run.py`` (what ``BENCHMARK.json`` names) or
``PYTHONPATH=src python -m bench.run``.  See ``bench/README.md``.
"""
