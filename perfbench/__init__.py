"""Layered benchmark of the reproduction: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload table2-cold --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
layer-to-metric map.
"""
