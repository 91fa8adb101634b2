"""The repository benchmark: four workloads driven through the public API.

Run it with ``python3 bench/run.py``; see ``bench/README.md``.
"""
