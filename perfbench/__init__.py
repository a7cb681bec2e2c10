"""Wall-clock benchmark of the serving and batch-study runtimes.

Run ``python3 perfbench/run.py --workload <name>`` from the repository
root; ``perfbench/README.md`` lists the workloads and metrics.
"""

#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("serve-steady", "serve-pileon", "gateway-overload", "study-cold")
