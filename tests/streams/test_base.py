"""Tests for the shared stream plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.streams.base import (
    LabeledStream,
    StreamSegment,
    interleave,
    take,
)


def segment(start: int, end: int, segment_id: int = 0) -> StreamSegment:
    mixture = GaussianMixture.single(Gaussian.spherical(np.zeros(1), 1.0))
    return StreamSegment(
        start=start, end=end, mixture=mixture, segment_id=segment_id
    )


class TestTakeAndCollect:
    def test_take_materialises_n_records(self):
        stream = iter(np.arange(10.0).reshape(10, 1))
        block = take(stream, 4)
        assert block.shape == (4, 1)
        assert block[3, 0] == 3.0

    def test_take_leaves_the_rest(self):
        stream = iter(np.arange(10.0).reshape(10, 1))
        take(stream, 4)
        assert next(stream)[0] == 4.0

    def test_take_raises_on_short_stream(self):
        with pytest.raises(ValueError, match="exhausted"):
            take(iter(np.zeros((2, 1))), 5)

    def test_take_rejects_non_positive_n(self):
        with pytest.raises(ValueError, match="positive"):
            take(iter([]), 0)

class TestInterleave:
    def test_round_robin_order(self):
        a = [np.array([1.0]), np.array([3.0])]
        b = [np.array([2.0]), np.array([4.0])]
        merged = [record[0] for record in interleave([a, b])]
        assert merged == [1.0, 2.0, 3.0, 4.0]

    def test_stops_at_shortest_stream(self):
        a = [np.array([1.0])] * 5
        b = [np.array([2.0])] * 2
        merged = list(interleave([a, b]))
        assert len(merged) == 5  # 2 full rounds + a's third record

    def test_empty_stream_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            list(interleave([]))


class TestLabeledStream:
    def test_segments_grow_as_consumed(self):
        stream = LabeledStream(iter(np.zeros((4, 1))))
        stream._note_segment(segment(0, 2, 0))
        assert len(stream.segments) == 1

    def test_segment_at_lookup(self):
        stream = LabeledStream(iter([]))
        stream._note_segment(segment(0, 100, 0))
        stream._note_segment(segment(100, 200, 1))
        assert stream.segment_at(50).segment_id == 0
        assert stream.segment_at(150).segment_id == 1
        assert stream.segment_at(500) is None
