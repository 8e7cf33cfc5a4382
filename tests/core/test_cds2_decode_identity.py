"""The stacked CDS2 codec is the per-component one, bit for bit.

The decoder reads every shipped component of a model update through one
structured ``np.frombuffer``, scatters the packed factors into one
``(m, d, d)`` stack and forms ``L Lᵀ`` as one stacked product.  None of
that may change a bit: driven by the same payloads, it and the
per-component reference kept in ``tests.core.cds2_decode_oracle`` must
build components with the same mean, covariance, Cholesky factor,
log-determinant and ``L⁻¹`` -- over snapshots and deltas, diagonal and
full covariances, every quantization, and factor diagonals small enough
to be lifted.  The encoder, which now computes the packed-factor indices
once per ``d``, must produce the same bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import serde
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import ModelUpdateMessage
from repro.core.serde import CodecConfig, get_codec
from tests.core.cds2_decode_oracle import decode_model_update, quantize_cov


def _component(
    rng: np.random.Generator, d: int, diagonal: bool, tiny_pivots: bool
) -> Gaussian:
    """A random component; ``tiny_pivots`` gives it a small scale and a
    trailing factor diagonal far under the decoder's ``1e-7`` lift."""
    factor = np.tril(rng.standard_normal((d, d)))
    factor[np.diag_indices(d)] = rng.uniform(0.2, 2.0, d)
    if tiny_pivots:
        factor *= 1e-2
        factor[-1, -1] = rng.uniform(2e-8, 8e-8)
    cov = factor @ factor.T
    if diagonal:
        cov = np.diag(np.diag(cov))
    return Gaussian(5.0 * rng.standard_normal(d), cov, diagonal=diagonal)


def _mixture(components) -> GaussianMixture:
    weights = np.arange(1.0, len(components) + 1.0)
    return GaussianMixture(weights, tuple(components))


def _update(mixture: GaussianMixture, model_id: int) -> ModelUpdateMessage:
    return ModelUpdateMessage(
        site_id=4, model_id=model_id, time=model_id, mixture=mixture,
        count=900 + model_id, reference_likelihood=-3.5,
    )


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_bit_identical(new: GaussianMixture, old: GaussianMixture) -> None:
    assert _same_bits(new.weights, old.weights)
    assert len(new.components) == len(old.components)
    for mine, theirs in zip(new.components, old.components):
        assert mine.diagonal == theirs.diagonal
        assert _same_bits(mine.mean, theirs.mean)
        assert _same_bits(mine.covariance, theirs.covariance)
        assert _same_bits(mine.factors.cholesky, theirs.factors.cholesky)
        assert _same_bits(
            np.float64(mine.log_det), np.float64(theirs.log_det)
        )
        assert _same_bits(
            mine.factors.inverse_cholesky(), theirs.factors.inverse_cholesky()
        )


def encode_both(config: CodecConfig, updates, acks):
    """Payloads of ``updates`` from today's encoder and from one whose
    covariance blocks come from the reference ``quantize_cov``."""
    payloads = []
    for reference in (False, True):
        sender = get_codec("cds2", config)
        with pytest.MonkeyPatch.context() as patch:
            if reference:
                patch.setattr(serde, "_quantize_cov", quantize_cov)
            sent = []
            for seq, update in enumerate(updates, start=1):
                sent.append(sender.encode(update))
                sender.note_sent(seq)
                if acks:
                    sender.note_acked(seq)
        payloads.append(sent)
    return payloads


def replay(payloads) -> None:
    """Decode ``payloads`` in order with both decoders, comparing each."""
    decoder, oracle = get_codec("cds2"), get_codec("cds2")
    for payload in payloads:
        new = decoder.decode(payload)
        old = decode_model_update(oracle, payload)
        assert (new.site_id, new.model_id, new.time, new.count) == (
            old.site_id, old.model_id, old.time, old.count
        )
        assert new.reference_likelihood == old.reference_likelihood
        assert_bit_identical(new.mixture, old.mixture)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 16),
    k=st.integers(1, 8),
    quantize=st.sampled_from(["f64", "f32", "f16"]),
    diagonal=st.booleans(),
    tiny_pivots=st.booleans(),
    moved=st.sets(st.integers(0, 7)),
    delta=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_codec_matches_the_per_component_oracle(
    d, k, quantize, diagonal, tiny_pivots, moved, delta, seed
):
    rng = np.random.default_rng(seed)
    first = [_component(rng, d, diagonal, tiny_pivots) for _ in range(k)]
    second = [
        _component(rng, d, diagonal, tiny_pivots) if i in moved else component
        for i, component in enumerate(first)
    ]
    updates = [_update(_mixture(first), 1), _update(_mixture(second), 2)]
    config = CodecConfig(quantize=quantize, delta=delta)
    payloads, reference = encode_both(config, updates, acks=True)
    assert payloads == reference
    replay(payloads)


def test_the_delta_path_ships_a_subset():
    """The property above reaches real deltas, not only snapshots."""
    rng = np.random.default_rng(3)
    first = [_component(rng, 3, False, False) for _ in range(4)]
    second = list(first)
    second[2] = _component(rng, 3, False, False)
    updates = [_update(_mixture(first), 1), _update(_mixture(second), 2)]
    payloads, reference = encode_both(
        CodecConfig(quantize="f32", delta=True), updates, acks=True
    )
    assert payloads == reference
    assert payloads[1][5] & 0x02 and len(payloads[1]) < len(payloads[0])
    replay(payloads)


def test_the_diagonal_lift_is_reached():
    """``tiny_pivots`` ships f32 factor diagonals under the ``1e-7``
    lift, so the property compares lifted factors too.  (Under f16 the
    encoder's clamp to float16's ``tiny`` keeps them above it.)"""
    rng = np.random.default_rng(5)
    components = [_component(rng, 5, False, True) for _ in range(3)]
    on_diagonal = np.equal(*np.tril_indices(5))
    for component in components:
        packed = np.frombuffer(quantize_cov(component, "f32"), dtype="<f4")
        assert packed[on_diagonal].min() < 1e-7
    payloads, reference = encode_both(
        CodecConfig(quantize="f32"), [_update(_mixture(components), 1)],
        acks=False,
    )
    assert payloads == reference
    replay(payloads)
