"""Tests for the binary wire formats and the codec registry."""

from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import (
    DeletionMessage,
    Message,
    ModelUpdateMessage,
    WeightUpdateMessage,
)
from repro.core.serde import (
    BASELINE_DEPTH,
    CodecConfig,
    CodecError,
    WireCodec,
    available_codecs,
    get_codec,
    register_codec,
)


def full_mixture() -> GaussianMixture:
    return GaussianMixture(
        np.array([0.3, 0.7]),
        (
            Gaussian(
                np.array([1.0, -2.0, 0.5]),
                np.array(
                    [[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.8]]
                ),
            ),
            Gaussian.spherical(np.array([5.0, 5.0, 5.0]), 1.5),
        ),
    )


def diagonal_mixture() -> GaussianMixture:
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian(np.zeros(4), np.diag([1.0, 2.0, 0.5, 3.0]), diagonal=True),
            Gaussian(np.ones(4), np.diag([0.3, 0.4, 0.5, 0.6]), diagonal=True),
        ),
    )


def model_update(mixture: GaussianMixture) -> ModelUpdateMessage:
    return ModelUpdateMessage(
        site_id=3,
        model_id=7,
        time=12345,
        mixture=mixture,
        count=1567,
        reference_likelihood=-4.25,
    )


def drifted(mixture: GaussianMixture, index: int = 0) -> GaussianMixture:
    """A copy of ``mixture`` where only component ``index`` moved."""
    components = list(mixture.components)
    moved = components[index]
    components[index] = Gaussian(
        moved.mean + 0.25,
        np.array(moved.covariance),
        diagonal=moved.diagonal,
    )
    return GaussianMixture(np.array(mixture.weights), tuple(components))


class TestRoundTrip:
    def test_model_update_full_covariance(self):
        codec = get_codec("cds1")
        message = model_update(full_mixture())
        decoded = codec.decode(codec.encode(message))
        assert decoded == message

    def test_model_update_diagonal_covariance(self):
        codec = get_codec("cds1")
        message = model_update(diagonal_mixture())
        decoded = codec.decode(codec.encode(message))
        assert decoded == message
        assert all(c.diagonal for c in decoded.mixture.components)

    def test_weight_update(self):
        codec = get_codec("cds1")
        message = WeightUpdateMessage(
            site_id=1, model_id=2, time=99, count_delta=500
        )
        assert codec.decode(codec.encode(message)) == message

    def test_deletion(self):
        codec = get_codec("cds1")
        message = DeletionMessage(
            site_id=1, model_id=2, time=99, count_delta=250
        )
        assert codec.decode(codec.encode(message)) == message

    def test_negative_count_delta_survives(self):
        codec = get_codec("cds1")
        message = WeightUpdateMessage(
            site_id=0, model_id=0, time=0, count_delta=-321
        )
        assert codec.decode(codec.encode(message)).count_delta == -321


class TestSizeAccounting:
    @pytest.mark.parametrize(
        "message",
        [
            model_update(full_mixture()),
            model_update(diagonal_mixture()),
            WeightUpdateMessage(site_id=1, model_id=2, time=3, count_delta=4),
            DeletionMessage(site_id=1, model_id=2, time=3, count_delta=4),
        ],
        ids=["model-full", "model-diag", "weight", "deletion"],
    )
    def test_encoded_size_equals_payload_bytes(self, message):
        assert len(get_codec("cds1").encode(message)) == message.payload_bytes()


class TestValidation:
    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="cannot encode"):
            get_codec("cds1").encode(Message(site_id=0, model_id=0, time=0))

    def test_mixed_covariance_modes_rejected(self):
        mixed = GaussianMixture(
            np.array([0.5, 0.5]),
            (
                Gaussian.spherical(np.zeros(2), 1.0),
                Gaussian.spherical(np.ones(2), 1.0, diagonal=True),
            ),
        )
        with pytest.raises(ValueError, match="mixed"):
            get_codec("cds1").encode(model_update(mixed))

    def test_bad_magic_rejected(self):
        codec = get_codec("cds1")
        payload = codec.encode(
            WeightUpdateMessage(site_id=0, model_id=0, time=0, count_delta=1)
        )
        corrupted = b"XXXX" + payload[4:]
        with pytest.raises(ValueError, match="bad magic"):
            codec.decode(corrupted)

    def test_truncated_payload_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            get_codec("cds1").decode(b"CDS1")

    def test_trailing_garbage_rejected(self):
        codec = get_codec("cds1")
        payload = codec.encode(model_update(full_mixture()))
        # The body-length check names both sizes (it said "trailing").
        with pytest.raises(CodecError, match="is 232 bytes.*needs 224"):
            codec.decode(payload + b"\x00" * 8)

    def test_unknown_tag_rejected(self):
        codec = get_codec("cds1")
        payload = bytearray(
            codec.encode(
                WeightUpdateMessage(
                    site_id=0, model_id=0, time=0, count_delta=1
                )
            )
        )
        payload[4] = 200  # overwrite the tag byte
        with pytest.raises(ValueError, match="unknown message tag"):
            codec.decode(bytes(payload))


class TestRegistry:
    def test_builtin_codecs_registered(self):
        assert set(available_codecs()) >= {"cds1", "cds2"}

    def test_default_codec_is_cds1(self):
        assert get_codec().name == "cds1"
        assert get_codec().wire_id == 0

    def test_unknown_codec_rejected_with_available_list(self):
        with pytest.raises(ValueError, match="unknown wire codec.*cds1"):
            get_codec("zstd")

    def test_instances_are_fresh_per_edge(self):
        # Codec instances carry per-edge delta state and stats; the
        # registry must never hand the same instance to two edges.
        assert get_codec("cds2") is not get_codec("cds2")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_codec("cds1", lambda config: get_codec("cds1"))

    def test_codecs_satisfy_the_protocol(self):
        for name in ("cds1", "cds2"):
            assert isinstance(get_codec(name), WireCodec)

    def test_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            CodecConfig("f32")  # noqa: the 1.2.0 API is keyword-only

    def test_config_validates_quantize(self):
        with pytest.raises(ValueError, match="f16"):
            CodecConfig(quantize="f24")

    def test_cds1_rejects_quantization(self):
        with pytest.raises(ValueError, match="cds2"):
            get_codec("cds1", CodecConfig(quantize="f32"))

    def test_cds1_rejects_delta(self):
        with pytest.raises(ValueError, match="cds2"):
            get_codec("cds1", CodecConfig(delta=True))


class TestCDS2RoundTrip:
    @pytest.mark.parametrize(
        "mixture", [full_mixture(), diagonal_mixture()], ids=["full", "diag"]
    )
    def test_exact_f64_round_trip(self, mixture):
        codec = get_codec("cds2")
        message = model_update(mixture)
        decoded = codec.decode(codec.encode(message))
        assert decoded == message

    def test_counter_messages_round_trip(self):
        codec = get_codec("cds2")
        for cls in (WeightUpdateMessage, DeletionMessage):
            message = cls(site_id=9, model_id=4, time=7, count_delta=-55)
            assert codec.decode(codec.encode(message)) == message

    def test_cds2_decodes_cds1_exactly(self):
        # Every receiver decodes with CDS2, whatever its sender speaks.
        message = model_update(full_mixture())
        payload = get_codec("cds1").encode(message)
        assert get_codec("cds2").decode(payload) == message

    def test_cds1_rejects_cds2_with_negotiation_error(self):
        codec = get_codec("cds2")
        payload = codec.encode(model_update(full_mixture()))
        with pytest.raises(CodecError, match="bad magic b'CDS2'"):
            get_codec("cds1").decode(payload)


class TestCDS2Limits:
    def test_cds1_caps_k_at_255(self):
        big = GaussianMixture(
            np.full(300, 1.0 / 300),
            tuple(
                Gaussian.spherical(np.array([float(i), 0.0]), 1.0)
                for i in range(300)
            ),
        )
        with pytest.raises(ValueError, match="use the cds2 codec"):
            get_codec("cds1").encode(model_update(big))

    def test_cds2_lifts_the_k_limit(self):
        big = GaussianMixture(
            np.full(300, 1.0 / 300),
            tuple(
                Gaussian.spherical(np.array([float(i), 0.0]), 1.0)
                for i in range(300)
            ),
        )
        codec = get_codec("cds2")
        message = model_update(big)
        decoded = codec.decode(codec.encode(message))
        assert decoded.mixture.n_components == 300
        assert decoded == message

    def test_cds2_lifts_the_dim_limit(self):
        wide = GaussianMixture(
            np.array([1.0]),
            (
                Gaussian(
                    np.zeros(300), np.diag(np.ones(300)), diagonal=True
                ),
            ),
        )
        codec = get_codec("cds2")
        message = model_update(wide)
        decoded = codec.decode(codec.encode(message))
        assert decoded.mixture.dim == 300
        assert decoded == message


class TestQuantization:
    @pytest.mark.parametrize(
        "quantize,unit",
        [("f32", 2.0**-24), ("f16", 2.0**-11)],
        ids=["f32", "f16"],
    )
    def test_covariance_error_within_documented_bound(self, quantize, unit):
        """DESIGN section 15: quantizing the Cholesky factor L to a
        float with unit roundoff u reconstructs a covariance within
        ``u(2+u)*tr(cov)`` in Frobenius norm."""
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((6, 6))
        cov = raw @ raw.T + 2.0 * np.eye(6)
        message = model_update(
            GaussianMixture(
                np.array([1.0]), (Gaussian(rng.standard_normal(6), cov),)
            )
        )
        codec = get_codec("cds2", CodecConfig(quantize=quantize))
        decoded = codec.decode(codec.encode(message))
        error = np.linalg.norm(
            decoded.mixture.components[0].covariance - cov
        )
        assert error <= unit * (2.0 + unit) * np.trace(cov)

    def test_means_and_weights_stay_exact(self):
        message = model_update(full_mixture())
        codec = get_codec("cds2", CodecConfig(quantize="f16"))
        decoded = codec.decode(codec.encode(message))
        for got, want in zip(
            decoded.mixture.components, message.mixture.components
        ):
            np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_allclose(
            decoded.mixture.weights, message.mixture.weights, rtol=1e-15
        )

    def test_quantized_payload_is_smaller(self):
        message = model_update(full_mixture())
        full = len(get_codec("cds2").encode(message))
        f32 = len(
            get_codec("cds2", CodecConfig(quantize="f32")).encode(message)
        )
        f16 = len(
            get_codec("cds2", CodecConfig(quantize="f16")).encode(message)
        )
        assert f16 < f32 < full


class TestCDS2MalformedModelUpdate:
    """The header fixes a model update's body length; a body of any other
    length is a ``CodecError`` naming both sizes, before anything is read."""

    def payload(self) -> bytes:
        mixture = GaussianMixture(
            np.array([0.4, 0.6]),
            (
                Gaussian(np.zeros(4), np.eye(4)),
                Gaussian(np.ones(4), 2.0 * np.eye(4)),
            ),
        )
        codec = get_codec("cds2", CodecConfig(quantize="f32"))
        payload = codec.encode(model_update(mixture))
        assert len(payload) == 214  # 34 header + 180 body (K = 2, d = 4)
        return payload

    # Before the check: struct.error at 40 bytes, "buffer is smaller
    # than requested size" at 60 and 80, "buffer size must be a multiple
    # of element size" at 211.
    @pytest.mark.parametrize("cut", [40, 60, 80, 211])
    def test_truncated_body_raises_codec_error(self, cut):
        with pytest.raises(CodecError, match=f"is {cut - 34} bytes.*needs 180"):
            get_codec("cds2").decode(self.payload()[:cut])

    def test_trailing_bytes_raise_codec_error(self):
        with pytest.raises(CodecError, match="is 181 bytes.*needs 180"):
            get_codec("cds2").decode(self.payload() + b"\x00")

    def test_truncated_delta_mask_raises_codec_error(self):
        payload = bytearray(self.payload()[:34 + 20])
        payload[5] |= 0x02  # delta: baseline id and mask are missing
        with pytest.raises(CodecError, match="is 20 bytes.*needs"):
            get_codec("cds2").decode(bytes(payload))

    @pytest.mark.parametrize("field,offset", [("K", 6), ("d", 8)])
    def test_empty_shape_raises_codec_error(self, field, offset):
        payload = bytearray(self.payload())
        struct.pack_into("<H", payload, offset, 0)
        with pytest.raises(CodecError, match=f"{field} = 0"):
            get_codec("cds2").decode(bytes(payload))

    # Before the fix: the mixture / Gaussian constructors' bare
    # ValueError, and a RuntimeWarning from the factor product.
    @pytest.mark.parametrize(
        "offset,fmt,value,field",
        [
            (54, "<d", np.nan, "weights"),  # first weight
            (62, "<d", -0.6, "weights"),  # second weight
            (102, "<f", np.inf, "covariance"),  # first packed factor entry
        ],
        ids=["nan-weight", "negative-weight", "inf-factor"],
    )
    def test_rejected_parameters_raise_codec_error(self, offset, fmt, value, field):
        payload = bytearray(self.payload())
        struct.pack_into(fmt, payload, offset, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CodecError, match=f"rejected: {field}"):
                get_codec("cds2").decode(bytes(payload))

    def test_a_block_no_payload_can_hold_raises_codec_error(self):
        payload = bytearray(self.payload())
        payload[5] &= ~0x0C  # f64: a 65535² covariance block
        struct.pack_into("<H", payload, 8, 0xFFFF)
        with pytest.raises(CodecError, match="d = 65535"):
            get_codec("cds2").decode(bytes(payload))


class TestCDS1MalformedModelUpdate:
    """A CDS1 model update is held to the same checks: the header fixes
    the body length, and parameters the mixture constructor rejects are a
    ``CodecError`` naming the field -- on either codec, since a CDS2
    endpoint decodes CDS1 too."""

    def payload(self) -> bytes:
        mixture = GaussianMixture(
            np.array([0.4, 0.6]),
            (
                Gaussian(np.zeros(4), np.eye(4)),
                Gaussian(np.ones(4), 2.0 * np.eye(4)),
            ),
        )
        payload = get_codec("cds1").encode(model_update(mixture))
        assert len(payload) == 384  # 32 header + 352 body (K = 2, d = 4)
        return payload

    # Before the check: struct.error at 4 and 12 body bytes, "buffer is
    # smaller than requested size" at 20, 100 and 351.
    @pytest.mark.parametrize("codec", ["cds1", "cds2"])
    @pytest.mark.parametrize("body", [0, 4, 12, 20, 100, 351])
    def test_truncated_body_raises_codec_error(self, codec, body):
        with pytest.raises(CodecError, match=f"is {body} bytes.*needs 352"):
            get_codec(codec).decode(self.payload()[: 32 + body])

    @pytest.mark.parametrize("field,offset", [("K", 6), ("d", 7)])
    def test_empty_shape_raises_codec_error(self, field, offset):
        payload = bytearray(self.payload())
        payload[offset] = 0
        with pytest.raises(CodecError, match=f"{field} = 0"):
            get_codec("cds1").decode(bytes(payload))

    @pytest.mark.parametrize("codec", ["cds1", "cds2"])
    @pytest.mark.parametrize(
        "offset,value,field",
        [
            (48, np.nan, "weights"),  # first weight
            (56, -0.6, "weights"),  # second weight
            (96, np.inf, "covariance"),  # first covariance entry
        ],
        ids=["nan-weight", "negative-weight", "inf-covariance"],
    )
    def test_rejected_parameters_raise_codec_error(
        self, codec, offset, value, field
    ):
        payload = bytearray(self.payload())
        struct.pack_into("<d", payload, offset, value)
        with pytest.raises(CodecError, match=f"rejected: {field}"):
            get_codec(codec).decode(bytes(payload))


def _delta_flag(payload: bytes) -> bool:
    return bool(payload[5] & 0x02)


class TestCDS2Delta:
    """Sender/receiver delta state, driven without a transport.

    ``note_sent``/``note_acked`` are called by hand, standing in for
    the ARQ hooks :class:`repro.transport.wire.CodecSender` wires up.
    """

    def make_pair(self, **config):
        return (
            get_codec("cds2", CodecConfig(delta=True, **config)),
            get_codec("cds2"),
        )

    def test_first_update_is_a_snapshot(self):
        sender, _ = self.make_pair()
        payload = sender.encode(model_update(full_mixture()))
        assert not _delta_flag(payload)
        assert sender.stats.snapshot_updates == 1

    def test_acked_baseline_enables_delta(self):
        sender, receiver = self.make_pair()
        base = full_mixture()
        first = sender.encode(model_update(base))
        sender.note_sent(1)
        sender.note_acked(1)
        assert receiver.decode(first).mixture == base

        moved = drifted(base)
        second = sender.encode(model_update(moved))
        assert _delta_flag(second)
        assert len(second) < len(first)
        assert sender.stats.delta_updates == 1
        # Only the moved component shipped (1 of 2).
        assert sender.stats.components_shipped == 3
        decoded = receiver.decode(second)
        assert decoded.mixture == moved

    def test_unacked_baseline_is_never_referenced(self):
        sender, _ = self.make_pair()
        base = full_mixture()
        sender.encode(model_update(base))
        sender.note_sent(1)  # sent but never acknowledged
        second = sender.encode(model_update(drifted(base)))
        assert not _delta_flag(second)
        assert sender.stats.snapshot_updates == 2

    def test_stale_baseline_falls_back_to_snapshot(self):
        sender, receiver = self.make_pair()
        base = full_mixture()
        payload = sender.encode(model_update(base))
        sender.note_sent(1)
        sender.note_acked(1)
        receiver.decode(payload)
        mixture = base
        # Updates 1 .. BASELINE_DEPTH may delta against update 0; the
        # next is beyond the depth and must ship a full snapshot.
        for step in range(1, BASELINE_DEPTH + 2):
            mixture = drifted(mixture, 0)
            payload = sender.encode(model_update(mixture))
            assert _delta_flag(payload) == (step <= BASELINE_DEPTH)
            assert receiver.decode(payload).mixture == mixture
            sender.note_sent(step + 1)  # never acked: baseline stays at 0

    def test_cumulative_ack_promotes_the_newest_update(self):
        sender, receiver = self.make_pair()
        base = full_mixture()
        mixtures = [base, drifted(base, 0), drifted(drifted(base, 0), 1)]
        for seq, mixture in enumerate(mixtures, start=1):
            receiver.decode(sender.encode(model_update(mixture)))
            sender.note_sent(seq)
        sender.note_acked(3)  # cumulative: covers seqs 1..3
        final = drifted(mixtures[-1], 0)
        payload = sender.encode(model_update(final))
        assert _delta_flag(payload)
        assert receiver.decode(payload).mixture == final

    def test_identical_refit_ships_zero_components(self):
        sender, receiver = self.make_pair()
        base = full_mixture()
        receiver.decode(sender.encode(model_update(base)))
        sender.note_sent(1)
        sender.note_acked(1)
        payload = sender.encode(model_update(base))
        assert _delta_flag(payload)
        assert receiver.decode(payload).mixture == base
        assert sender.stats.components_shipped == 2  # only the snapshot's

    def test_receiver_without_baseline_rejects_the_delta(self):
        sender, _ = self.make_pair()
        base = full_mixture()
        sender.encode(model_update(base))
        sender.note_sent(1)
        sender.note_acked(1)
        second = sender.encode(model_update(drifted(base)))
        assert _delta_flag(second)
        # A decoder that never saw the baseline update cannot apply it.
        fresh = get_codec("cds2")
        with pytest.raises(CodecError, match="baseline"):
            fresh.decode(second)

    def test_delta_state_is_per_site(self):
        sender, receiver = self.make_pair()
        base = full_mixture()
        for seq, site in enumerate((1, 2), start=1):
            update = ModelUpdateMessage(
                site_id=site,
                model_id=seq,
                time=seq,
                mixture=base,
                count=100,
                reference_likelihood=-4.0,
            )
            receiver.decode(sender.encode(update))
            sender.note_sent(seq)
        sender.note_acked(2)
        # Site 2's next update deltas against *its own* baseline even
        # though site 1 sent in between.
        moved = drifted(base)
        payload = sender.encode(
            ModelUpdateMessage(
                site_id=2,
                model_id=3,
                time=3,
                mixture=moved,
                count=200,
                reference_likelihood=-4.0,
            )
        )
        assert _delta_flag(payload)
        assert receiver.decode(payload).mixture == moved

    def test_counter_messages_pass_through_cds2(self):
        sender, receiver = self.make_pair()
        message = WeightUpdateMessage(
            site_id=1, model_id=2, time=3, count_delta=44
        )
        payload = sender.encode(message)
        assert struct.unpack_from("<q", payload, 34)[0] == 44
        assert receiver.decode(payload) == message
