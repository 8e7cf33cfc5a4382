"""Property-based tests for the wire formats and missing-data marginals.

The serde matrix covers every codec cell: CDS1 and CDS2, full and
diagonal covariance modes (the mixture strategy draws both), exact and
quantized factors, delta and full snapshots -- plus the cross-version
guarantees (a CDS2 endpoint decodes CDS1 exactly; quantized CDS2 keeps
means/weights exact and covariances within the documented bound).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.gaussian import Gaussian
from repro.core.missing import (
    average_marginal_log_likelihood,
    marginal_log_pdf,
)
from repro.core.mixture import GaussianMixture
from repro.core.protocol import (
    DeletionMessage,
    ModelUpdateMessage,
    WeightUpdateMessage,
)
from repro.core.serde import CodecConfig, get_codec

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def wire_mixtures(draw):
    """Random encodable mixtures (uniform covariance mode).

    Diagonal components carry a diagonal matrix; full components carry a
    genuinely dense SPD covariance (``A Aᵀ`` plus a diagonal ridge), so
    the off-diagonal wire path is actually exercised.
    """
    dim = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=4))
    diagonal = draw(st.booleans())
    weights = draw(
        arrays(
            np.float64,
            (k,),
            elements=st.floats(min_value=0.05, max_value=1.0),
        )
    )
    components = []
    for _ in range(k):
        mean = draw(arrays(np.float64, (dim,), elements=finite_floats))
        variances = draw(
            arrays(
                np.float64,
                (dim,),
                elements=st.floats(min_value=0.1, max_value=20.0),
            )
        )
        if diagonal:
            covariance = np.diag(variances)
        else:
            factor = draw(
                arrays(
                    np.float64,
                    (dim, dim),
                    elements=st.floats(
                        min_value=-3.0,
                        max_value=3.0,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                )
            )
            covariance = factor @ factor.T + np.diag(variances)
        components.append(Gaussian(mean, covariance, diagonal=diagonal))
    return GaussianMixture(weights, tuple(components))


@st.composite
def model_updates(draw):
    return ModelUpdateMessage(
        site_id=draw(st.integers(min_value=0, max_value=10_000)),
        model_id=draw(st.integers(min_value=0, max_value=10_000)),
        time=draw(st.integers(min_value=0, max_value=10**12)),
        mixture=draw(wire_mixtures()),
        count=draw(st.integers(min_value=1, max_value=10**9)),
        reference_likelihood=draw(finite_floats),
    )


#: Unit roundoff of each quantization tier (DESIGN section 15).
_ROUNDOFF = {"f64": 0.0, "f32": 2.0**-24, "f16": 2.0**-11}


def assert_decodes_to(decoded, message, quantize="f64"):
    """Decoded equals sent: exactly at f64, within the bound otherwise.

    Weights are renormalised on mixture construction, which can shift
    the last bit when the stored sum is not exactly 1.0; means and
    metadata round-trip exactly at every tier, covariances only at f64.
    """
    assert decoded.site_id == message.site_id
    assert decoded.model_id == message.model_id
    assert decoded.time == message.time
    assert decoded.count == message.count
    assert decoded.reference_likelihood == message.reference_likelihood
    assert np.allclose(
        decoded.mixture.weights, message.mixture.weights, rtol=1e-15
    )
    if quantize == "f64":
        assert decoded.mixture.components == message.mixture.components
        return
    unit = _ROUNDOFF[quantize]
    for got, want in zip(
        decoded.mixture.components, message.mixture.components
    ):
        np.testing.assert_array_equal(got.mean, want.mean)
        assert got.diagonal == want.diagonal
        error = np.linalg.norm(got.covariance - want.covariance)
        assert error <= unit * (2.0 + unit) * np.trace(want.covariance)


def drift_one(mixture, index=0):
    """A copy of ``mixture`` where only component ``index`` moved."""
    from repro.core.gaussian import Gaussian as _Gaussian

    components = list(mixture.components)
    moved = components[index]
    components[index] = _Gaussian(
        moved.mean + 0.5,
        np.array(moved.covariance),
        diagonal=moved.diagonal,
    )
    return GaussianMixture(np.array(mixture.weights), tuple(components))


class KeptFactorTwin(Gaussian):
    """A component whose ``factors.cholesky`` is a fresh factorisation of
    its covariance -- what the CDS2 encoder used to compute per call."""

    @property
    def factors(self):
        kept = super().factors
        return type(kept)(
            kept.covariance, np.linalg.cholesky(kept.covariance), kept.log_det
        )

    def __init__(self, component: Gaussian) -> None:
        super().__init__(component.mean, component.covariance, component.diagonal)


class TestSerdeProperties:
    @pytest.mark.parametrize("codec_name", ["cds1", "cds2"])
    @given(model_updates())
    @settings(max_examples=60, deadline=None)
    def test_model_update_round_trip(self, codec_name, message):
        codec = get_codec(codec_name)
        assert_decodes_to(codec.decode(codec.encode(message)), message)

    @pytest.mark.parametrize("quantize", ["f32", "f16"])
    @given(model_updates())
    @settings(max_examples=40, deadline=None)
    def test_quantized_round_trip_within_bound(self, quantize, message):
        codec = get_codec("cds2", CodecConfig(quantize=quantize))
        decoded = codec.decode(codec.encode(message))
        assert_decodes_to(decoded, message, quantize=quantize)

    @pytest.mark.parametrize("quantize", ["f32", "f16"])
    @given(model_updates())
    @settings(max_examples=40, deadline=None)
    def test_quantized_encode_ships_the_kept_factor(self, quantize, message):
        """The encoder reads ``component.factors.cholesky`` and factors
        nothing: the payload is, byte for byte, the one a fresh
        ``cholesky`` of every shipped covariance would give."""
        refactored = []
        real = np.linalg.cholesky
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                np.linalg, "cholesky", lambda a: refactored.append(a) or real(a)
            )
            payload = get_codec("cds2", CodecConfig(quantize=quantize)).encode(
                message
            )
        assert refactored == []
        twin = ModelUpdateMessage(
            site_id=message.site_id,
            model_id=message.model_id,
            time=message.time,
            mixture=GaussianMixture(
                message.mixture.weights,
                tuple(
                    KeptFactorTwin(component)
                    for component in message.mixture.components
                ),
            ),
            count=message.count,
            reference_likelihood=message.reference_likelihood,
        )
        codec = get_codec("cds2", CodecConfig(quantize=quantize))
        assert codec.encode(twin) == payload

    @pytest.mark.parametrize("quantize", ["f64", "f32", "f16"])
    @given(model_updates())
    @settings(max_examples=40, deadline=None)
    def test_delta_round_trip_matches_snapshot_decode(
        self, quantize, message
    ):
        """After an acknowledged baseline, the delta-encoded successor
        decodes to exactly what a snapshot of it would decode to."""
        config = CodecConfig(quantize=quantize, delta=True)
        sender = get_codec("cds2", config)
        receiver = get_codec("cds2")
        receiver.decode(sender.encode(message))
        sender.note_sent(1)
        sender.note_acked(1)

        successor = ModelUpdateMessage(
            site_id=message.site_id,
            model_id=message.model_id + 1,
            time=message.time,
            mixture=drift_one(message.mixture),
            count=message.count,
            reference_likelihood=message.reference_likelihood,
        )
        via_delta = receiver.decode(sender.encode(successor))

        snapshot_codec = get_codec("cds2", CodecConfig(quantize=quantize))
        via_snapshot = snapshot_codec.decode(
            snapshot_codec.encode(successor)
        )
        assert via_delta.mixture.components == via_snapshot.mixture.components
        assert np.array_equal(
            via_delta.mixture.weights, via_snapshot.mixture.weights
        )
        assert_decodes_to(via_delta, successor, quantize=quantize)

    @given(model_updates())
    @settings(max_examples=40, deadline=None)
    def test_cds2_decodes_cds1_payloads_exactly(self, message):
        payload = get_codec("cds1").encode(message)
        assert_decodes_to(get_codec("cds2").decode(payload), message)

    @given(model_updates())
    @settings(max_examples=60, deadline=None)
    def test_encoded_size_is_exactly_accounted(self, message):
        assert len(get_codec("cds1").encode(message)) == message.payload_bytes()

    @pytest.mark.parametrize("codec_name", ["cds1", "cds2"])
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.booleans(),
    )
    def test_counter_messages_round_trip(
        self, codec_name, site_id, model_id, delta, is_deletion
    ):
        cls = DeletionMessage if is_deletion else WeightUpdateMessage
        message = cls(
            site_id=site_id, model_id=model_id, time=0, count_delta=delta
        )
        codec = get_codec(codec_name)
        assert codec.decode(codec.encode(message)) == message


class TestMarginalProperties:
    @given(wire_mixtures(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_complete_records_match_plain_likelihood(self, mixture, seed):
        data, _ = mixture.sample(20, np.random.default_rng(seed))
        assert average_marginal_log_likelihood(
            mixture, data
        ) == pytest.approx(mixture.average_log_likelihood(data), abs=1e-9)

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_marginalisation_consistency(self, dim, seed):
        """The marginal of a NaN-masked record equals the density of the
        explicitly marginalised Gaussian."""
        rng = np.random.default_rng(seed)
        mean = rng.normal(size=dim)
        raw = rng.normal(size=(dim, dim))
        cov = raw @ raw.T + np.eye(dim)
        gaussian = Gaussian(mean, cov)
        record = rng.normal(size=dim)
        masked = record.copy()
        missing = rng.random(dim) < 0.5
        if missing.all():
            missing[0] = False
        masked[missing] = np.nan
        observed = ~missing
        via_nan = marginal_log_pdf(gaussian, masked[None, :])[0]
        explicit = Gaussian(
            mean[observed], cov[np.ix_(observed, observed)]
        ).log_pdf(record[observed][None, :])[0]
        assert via_nan == pytest.approx(explicit, abs=1e-9)

    @given(wire_mixtures(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_masking_never_creates_nan_likelihoods(self, mixture, seed):
        rng = np.random.default_rng(seed)
        data, _ = mixture.sample(15, rng)
        mask = rng.random(data.shape) < 0.3
        full_rows = mask.all(axis=1)
        mask[full_rows, 0] = False
        data[mask] = np.nan
        value = average_marginal_log_likelihood(mixture, data)
        assert np.isfinite(value)
