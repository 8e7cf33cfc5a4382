"""End-to-end and per-layer benchmark of the CluDistream reproduction.

``BENCHMARK.json`` at the repository root is the contract; README.md in
this directory defines every workload and metric and describes the
estimator.  Nothing here is collected by ``pytest benchmarks/`` except
``test_harness.py``: harness modules deliberately do not start with
``bench_``.

Run everything:   PYTHONPATH=src python -m benchmarks.e2e --seed 7
One workload:     python3 benchmarks/e2e/run.py --workload drift_merge \
                      --seed 7 --seconds 26 --trace 0
Compare reports:  python -m benchmarks.e2e compare A.json B.json
"""
