"""The reproduction of the paper's section 6, kept out of the system.

The 22 ``benchmarks/bench_*.py`` modules regenerate the paper's
figures and ablations; :mod:`benchmarks.paper.claims` checks their
seeded numbers against ``benchmarks/paper_claims.json``.
"""
