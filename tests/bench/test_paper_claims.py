"""The paper benches' claims file, checked without running a bench.

``benchmarks/paper_claims.json`` holds the seeded numbers of the 22
``benchmarks/bench_*.py`` modules (the reproduction of the paper's
section 6).  The benches compare against it when they run; this pins,
in seconds, that every bench still has a recorded entry and that the
comparison treats each kind of value the way the file promises.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from benchmarks.paper.claims import BENCH_DIR, load, mismatches, normalise

N_BENCHES = 22


def _is_scalar(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, (bool, int, str))


class TestClaimsFile:
    def test_one_non_empty_entry_per_bench_module(self):
        benches = sorted(path.stem for path in BENCH_DIR.glob("bench_*.py"))
        assert len(benches) == N_BENCHES
        claims = load()
        assert sorted(claims) == benches
        for bench, entry in claims.items():
            assert isinstance(entry, dict) and entry, bench

    def test_every_value_is_a_scalar_or_a_list_of_scalars(self):
        for bench, entry in load().items():
            for key, value in entry.items():
                items = value if isinstance(value, list) else [value]
                assert items and all(map(_is_scalar, items)), (bench, key)


class TestComparison:
    def test_floats_agree_to_the_relative_tolerance(self):
        assert mismatches({"q": -3.5}, {"q": -3.5 * (1 + 1e-12)}) == []
        assert mismatches({"q": -3.5}, {"q": -3.5 * (1 + 1e-6)}) != []

    def test_integers_strings_and_booleans_are_exact(self):
        assert mismatches({"n": 3}, {"n": 3.0}) == ["n: recorded 3, measured 3.0"]
        assert mismatches({"ok": True}, {"ok": 1}) != []
        assert mismatches({"s": "a"}, {"s": "a"}) == []

    def test_lists_compare_elementwise_and_by_length(self):
        assert mismatches({"xs": [1, 2.0]}, {"xs": [1, 2.0 + 1e-15]}) == []
        assert mismatches({"xs": [1, 2]}, {"xs": [1]}) != []

    def test_missing_and_extra_keys_are_reported(self):
        assert mismatches({"a": 1}, {"b": 1}) == [
            "a: not recorded",
            "b: not in the file",
        ]

    def test_numpy_values_normalise_to_json_scalars(self):
        assert normalise(np.int64(4)) == 4
        assert type(normalise(np.float64(0.5))) is float
        assert normalise(np.array([1.0, 2.0])) == [1.0, 2.0]
        assert normalise((np.bool_(True), 2)) == [True, 2]

    def test_nested_lists_and_non_finite_values_are_refused(self):
        with pytest.raises(TypeError):
            normalise([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            normalise(float("inf"))
