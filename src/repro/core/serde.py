"""Binary wire formats for synopsis messages, behind a codec registry.

The byte accounting in :mod:`repro.core.protocol` is only honest if the
messages actually fit in that many bytes.  This module provides the
encodings that prove it, organised as pluggable codecs:

* :class:`CDS1Codec` (``wire_id 0``) -- the paper-faithful format:
  every message serialises to *exactly* ``message.payload_bytes()``
  bytes and round-trips losslessly.  This is the default and the unit
  of the section-6 accounting.
* :class:`CDS2Codec` (``wire_id 2``) -- the communication-optimal
  generation: ``uint16`` component/dimension header fields (lifting the
  CDS1 ``K <= 255 / d <= 255`` limit), optional delta encoding of model
  updates (only components changed since the last *acknowledged*
  baseline go on the wire), and optional quantized covariance Cholesky
  factors (float32/float16).  See DESIGN.md section 15 for the byte
  layouts, the codec id announcement, baseline invariants, and the
  quantization error bound.

Codecs are obtained from the registry::

    codec = get_codec("cds2", CodecConfig(delta=True, quantize="f32"))
    payload = codec.encode(message)
    message = codec.decode(payload)

CDS1 layout (little endian):

==========  =====  =====================================================
field       bytes  notes
==========  =====  =====================================================
magic       4      ``b"CDS1"`` (format version 1)
tag         1      message type (:data:`TAG_BY_TYPE`)
flags       1      bit 0: diagonal covariances
K           1      mixture components (model updates; else 0)
d           1      dimensionality (model updates; else 0)
site_id     8      int64
model_id    8      int64
time        8      int64
==========  =====  =====================================================

-- 32 header bytes (``protocol.HEADER_BYTES``), then per type:

* ``ModelUpdateMessage``: ``count`` (int64), ``reference_likelihood``
  (float64), ``K`` weights, then per component ``d`` mean values and
  ``d²`` (full) or ``d`` (diagonal) covariance values -- all float64.
* ``WeightUpdateMessage`` / ``DeletionMessage``: ``count_delta``
  (int64).

Mixtures mixing diagonal and full-covariance components are rejected
(they never occur -- a mixture comes from one EM run with one
covariance mode) because their size could not match the accounting.
"""

from __future__ import annotations

import functools
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import (
    HEADER_BYTES,
    DeletionMessage,
    Message,
    ModelUpdateMessage,
    WeightUpdateMessage,
)

__all__ = [
    "CDS1Codec",
    "CDS2Codec",
    "CodecConfig",
    "CodecError",
    "CodecStats",
    "WireCodec",
    "available_codecs",
    "get_codec",
    "register_codec",
]

MAGIC = b"CDS1"
CDS2_MAGIC = b"CDS2"

#: Decoded updates per site each end keeps as delta baseline
#: candidates.  The sender never references a baseline older than this
#: many updates, so both ends agree by construction.
BASELINE_DEPTH = 8

TAG_MODEL_UPDATE = 1
TAG_WEIGHT_UPDATE = 2
TAG_DELETION = 3

TAG_BY_TYPE = {
    ModelUpdateMessage: TAG_MODEL_UPDATE,
    WeightUpdateMessage: TAG_WEIGHT_UPDATE,
    DeletionMessage: TAG_DELETION,
}

_HEADER = struct.Struct("<4sBBBBqqq")
assert _HEADER.size == HEADER_BYTES

#: CDS2 header: uint16 K and d lift the CDS1 255-component/255-dim cap.
_HEADER2 = struct.Struct("<4sBBHHqqq")
CDS2_HEADER_BYTES = _HEADER2.size  # 34

_FLAG2_DIAGONAL = 0x01
_FLAG2_DELTA = 0x02
_QUANT_SHIFT = 2
_QUANT_MASK = 0x03 << _QUANT_SHIFT

#: Quantization modes: transport dtype for covariance blocks.  ``f64``
#: ships raw covariances (exact); ``f32``/``f16`` ship packed
#: lower-triangular Cholesky factors in the reduced precision.
_QUANT_CODES = {"f64": 0, "f32": 1, "f16": 2}
_QUANT_NAMES = {code: name for name, code in _QUANT_CODES.items()}
_QUANT_DTYPES = {"f64": "<f8", "f32": "<f4", "f16": "<f2"}


class CodecError(ValueError):
    """A payload could not be decoded by this codec."""


@dataclass(frozen=True, kw_only=True)
class CodecConfig:
    """Knobs for a wire codec instance.

    Parameters
    ----------
    quantize:
        Covariance transport precision: ``"f64"`` ships raw float64
        covariances (bit-exact round trips), ``"f32"``/``"f16"`` ship
        packed Cholesky factors in the reduced precision (CDS2 only).
    delta:
        When ``True`` (CDS2 only) model updates ship only the
        components that changed since the last update the peer has
        *acknowledged*; a missing or stale baseline falls back to a
        full snapshot.
    """

    quantize: str = "f64"
    delta: bool = False

    def __post_init__(self) -> None:
        if self.quantize not in _QUANT_CODES:
            raise ValueError(
                f"unknown quantize mode {self.quantize!r}; "
                f"expected one of {sorted(_QUANT_CODES)}"
            )


@dataclass
class CodecStats:
    """Per-codec-instance wire accounting.

    ``bytes_snapshot`` is what the same messages would have cost as
    CDS1 full snapshots (``message.payload_bytes()``, the section-6
    unit), so ``bytes_saved`` is directly the wire win of the codec.
    """

    messages: int = 0
    model_updates: int = 0
    delta_updates: int = 0
    snapshot_updates: int = 0
    components_total: int = 0
    components_shipped: int = 0
    bytes_encoded: int = 0
    bytes_snapshot: int = 0

    @property
    def delta_hit_rate(self) -> float:
        """Fraction of model updates that went out as deltas."""
        if self.model_updates == 0:
            return 0.0
        return self.delta_updates / self.model_updates

    @property
    def bytes_saved(self) -> int:
        """Bytes the codec avoided vs CDS1 full snapshots."""
        return self.bytes_snapshot - self.bytes_encoded

    def as_dict(self) -> dict[str, float]:
        return {
            "messages": self.messages,
            "model_updates": self.model_updates,
            "delta_updates": self.delta_updates,
            "snapshot_updates": self.snapshot_updates,
            "components_total": self.components_total,
            "components_shipped": self.components_shipped,
            "bytes_encoded": self.bytes_encoded,
            "bytes_snapshot": self.bytes_snapshot,
            "bytes_saved": self.bytes_saved,
            "delta_hit_rate": self.delta_hit_rate,
        }


@runtime_checkable
class WireCodec(Protocol):
    """The pluggable codec surface.

    A codec instance owns one *edge* (one sender or one receiver side):
    delta codecs keep per-site baseline state, so instances must not be
    shared between unrelated connections.
    """

    name: str
    wire_id: int
    config: CodecConfig
    stats: CodecStats

    def encode(self, message: Message) -> bytes:
        """Serialise ``message`` for this edge."""
        ...

    def decode(self, payload: bytes) -> Message:
        """Inverse of :meth:`encode` (plus any formats this codec accepts)."""
        ...

    def note_sent(self, seq: int) -> None:
        """Bind the most recently encoded payload to an ARQ sequence number."""
        ...

    def note_acked(self, seq: int) -> None:
        """Cumulative acknowledgement: every payload up to ``seq`` arrived."""
        ...


# ----------------------------------------------------------------------
# CDS1 -- the paper-faithful v1 format
# ----------------------------------------------------------------------
def _mixture_mode(mixture: GaussianMixture) -> bool:
    """``True`` if all components are diagonal; raises on mixed modes."""
    modes = {component.diagonal for component in mixture.components}
    if len(modes) > 1:
        raise ValueError(
            "cannot encode a mixture with mixed diagonal/full components"
        )
    return modes.pop()


def _encode_cds1(message: Message) -> bytes:
    """Serialise ``message``; the result has ``payload_bytes()`` length."""
    tag = TAG_BY_TYPE.get(type(message))
    if tag is None:
        raise TypeError(f"cannot encode {type(message).__name__}")

    flags = 0
    k = d = 0
    body = b""
    if isinstance(message, ModelUpdateMessage):
        mixture = message.mixture
        diagonal = _mixture_mode(mixture)
        flags |= int(diagonal)
        k = mixture.n_components
        d = mixture.dim
        if k > 255 or d > 255:
            raise ValueError(
                "mixture too large for the wire format "
                "(CDS1 caps K and d at 255; use the cds2 codec)"
            )
        parts = [
            struct.pack("<q", message.count),
            struct.pack("<d", message.reference_likelihood),
            np.asarray(mixture.weights, dtype="<f8").tobytes(),
        ]
        for component in mixture.components:
            parts.append(np.asarray(component.mean, dtype="<f8").tobytes())
            if diagonal:
                parts.append(
                    np.ascontiguousarray(
                        np.diag(component.covariance), dtype="<f8"
                    ).tobytes()
                )
            else:
                parts.append(
                    np.ascontiguousarray(
                        component.covariance, dtype="<f8"
                    ).tobytes()
                )
        body = b"".join(parts)
    else:
        body = struct.pack("<q", message.count_delta)

    header = _HEADER.pack(
        MAGIC,
        tag,
        flags,
        k,
        d,
        message.site_id,
        message.model_id,
        message.time,
    )
    encoded = header + body
    if len(encoded) != message.payload_bytes():
        raise AssertionError(
            f"encoded size {len(encoded)} != accounted "
            f"{message.payload_bytes()}"
        )
    return encoded


def _decode_cds1(payload: bytes) -> Message:
    """Inverse of :func:`_encode_cds1`."""
    if len(payload) < HEADER_BYTES:
        raise CodecError("payload shorter than the message header")
    magic, tag, flags, k, d, site_id, model_id, time = _HEADER.unpack_from(
        payload
    )
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}; not a CDS1 message")
    body = payload[HEADER_BYTES:]

    if tag == TAG_MODEL_UPDATE:
        if k == 0 or d == 0:
            raise CodecError(f"model update header has K = {k}, d = {d}")
        diagonal = bool(flags & 1)
        cov_values = d if diagonal else d * d
        # The header fixes the body length; it is checked before any unpack.
        expected = 16 + 8 * k + 8 * k * (d + cov_values)
        if len(body) != expected:
            raise CodecError(
                f"CDS1 model update body is {len(body)} bytes; its header "
                f"(K = {k}, d = {d}) needs {expected}"
            )
        (count,) = struct.unpack_from("<q", body, 0)
        (reference,) = struct.unpack_from("<d", body, 8)
        weights = np.frombuffer(body, dtype="<f8", count=k, offset=16)
        # Per component: d mean values, then its covariance block.
        blocks = np.frombuffer(
            body, dtype="<f8", count=k * (d + cov_values), offset=16 + 8 * k
        ).reshape(k, d + cov_values)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                mixture = GaussianMixture.from_stacks(
                    weights.copy(),
                    blocks[:, :d],
                    blocks[:, d:] if diagonal else blocks[:, d:].reshape(k, d, d),
                    diagonal,
                )
        except ValueError as error:  # the constructor names the field
            raise CodecError(f"model update rejected: {error}") from None
        return ModelUpdateMessage(
            site_id=site_id,
            model_id=model_id,
            time=time,
            mixture=mixture,
            count=count,
            reference_likelihood=reference,
        )

    if tag in (TAG_WEIGHT_UPDATE, TAG_DELETION):
        return _decode_counter(tag, body, site_id, model_id, time)

    raise CodecError(f"unknown message tag {tag}")


def _decode_counter(
    tag: int, body: bytes, site_id: int, model_id: int, time: int
) -> Message:
    """A weight-update or deletion message; its body is the int64
    ``count_delta`` in both wire formats."""
    if len(body) != 8:
        raise CodecError("bad body size for a counter message")
    (count_delta,) = struct.unpack("<q", body)
    cls = WeightUpdateMessage if tag == TAG_WEIGHT_UPDATE else DeletionMessage
    return cls(
        site_id=site_id,
        model_id=model_id,
        time=time,
        count_delta=count_delta,
    )


class CDS1Codec:
    """The v1 codec: exact float64 snapshots, ``payload_bytes()`` sized.

    Stateless -- every model update is a full snapshot, and the encoded
    length equals the section-6 accounting byte for byte.
    """

    name = "cds1"
    wire_id = 0

    def __init__(self, config: CodecConfig | None = None) -> None:
        config = config or CodecConfig()
        if config.quantize != "f64":
            raise ValueError(
                "the cds1 codec is exact float64 only; "
                "quantization needs --wire-codec cds2"
            )
        if config.delta:
            raise ValueError(
                "the cds1 codec cannot delta-encode; "
                "delta needs --wire-codec cds2"
            )
        self.config = config
        self.stats = CodecStats()

    def encode(self, message: Message) -> bytes:
        payload = _encode_cds1(message)
        stats = self.stats
        stats.messages += 1
        stats.bytes_encoded += len(payload)
        stats.bytes_snapshot += len(payload)
        if isinstance(message, ModelUpdateMessage):
            stats.model_updates += 1
            stats.snapshot_updates += 1
            stats.components_total += message.mixture.n_components
            stats.components_shipped += message.mixture.n_components
        return payload

    def decode(self, payload: bytes) -> Message:
        return _decode_cds1(payload)

    def note_sent(self, seq: int) -> None:
        pass

    def note_acked(self, seq: int) -> None:
        pass


# ----------------------------------------------------------------------
# CDS2 -- uint16 shapes, delta synopses, quantized Cholesky factors
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=32)
def _tril(d: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.tril_indices(d)``, the packed factor's order, once per ``d``."""
    indices = np.tril_indices(d)
    for index in indices:
        index.setflags(write=False)  # one copy, shared by every caller
    return indices


@functools.lru_cache(maxsize=32)
def _block_dtype(d: int, diagonal: bool, quantize: str) -> np.dtype:
    """A shipped component: ``d`` f64 mean values, then its covariance block."""
    shape = (d,) if diagonal else (d, d) if quantize == "f64" else (d * (d + 1) // 2,)
    return np.dtype([("mean", "<f8", (d,)), ("cov", _QUANT_DTYPES[quantize], shape)])


def _quantize_cov(component: Gaussian, quantize: str) -> bytes:
    """Covariance transport block for one component."""
    dtype = _QUANT_DTYPES[quantize]
    if component.diagonal:
        values = np.diag(component.covariance)
    elif quantize == "f64":
        values = np.ascontiguousarray(component.covariance)
    else:
        # The factor that accepted this covariance: nothing to refactor.
        values = component.factors.cholesky[_tril(component.dim)]
    if quantize == "f16":
        # Clamp into float16's finite range so extreme variances
        # degrade instead of overflowing to inf.
        finfo = np.finfo(np.float16)
        values = np.clip(values, -float(finfo.max), float(finfo.max))
        values = np.where(
            (values > 0) & (values < float(finfo.tiny)),
            float(finfo.tiny),
            values,
        )
    return np.ascontiguousarray(values, dtype=dtype).tobytes()


def _dequantize(
    blocks: np.ndarray, diagonal: bool, quantize: str
) -> tuple[np.ndarray, np.ndarray]:
    """Means and covariances of a stack of :func:`_block_dtype` blocks:
    ``(m, d)`` per-axis variances when ``diagonal``, else ``(m, d, d)``."""
    means = blocks["mean"]
    values = blocks["cov"].astype(np.float64)
    if diagonal:
        return means, np.maximum(values, float(np.finfo(np.float64).tiny))
    if quantize == "f64":
        return means, values
    d = means.shape[1]
    factors = np.zeros((len(values), d, d))
    rows, cols = _tril(d)
    factors[:, rows, cols] = values
    # A factor diagonal rounded to zero would make the reconstruction
    # singular; the tiniest positive lift keeps it positive definite.
    diag = np.einsum("kii->ki", factors)
    floor = np.maximum(np.abs(diag).max(axis=1), 1.0) * 1e-7
    np.maximum(diag, floor[:, None], out=diag)
    # No ``(Σ + Σᵀ) / 2`` here: ``Gaussian.stack`` symmetrises, and twice
    # gives the bits of once.
    return means, factors @ factors.transpose(0, 2, 1)


class CDS2Codec:
    """The v2 codec: delta synopses and quantized factors.

    CDS2 header (little endian, 34 bytes)::

        magic     4   b"CDS2"
        tag       1   message type (CDS1 vocabulary)
        flags     1   bit 0 diagonal, bit 1 delta, bits 2-3 quantize
        K         2   uint16 components (model updates; else 0)
        d         2   uint16 dimensionality (model updates; else 0)
        site_id   8   int64
        model_id  8   int64
        time      8   int64

    Model-update bodies carry ``count`` (int64), ``reference_likelihood``
    (float64), ``update_id`` (uint32), then -- delta updates only --
    ``baseline_id`` (uint32) and a ceil(K/8)-byte changed-component
    bitmask; then all ``K`` weights (float64) and, for each shipped
    component, ``d`` float64 mean values plus the covariance transport
    block (raw float64, or a packed lower-triangular Cholesky factor in
    float32/float16).  Counter messages carry ``count_delta`` (int64).

    Delta baselines are keyed per sending site: an update may reference
    any of the previous :data:`BASELINE_DEPTH` updates from the same site,
    and the *sender* only references updates the receiver has
    cumulatively acknowledged (:meth:`note_acked`), so a baseline lost
    in transit can never be referenced -- the next update simply goes
    out as a full snapshot.
    """

    name = "cds2"
    wire_id = 2

    def __init__(self, config: CodecConfig | None = None) -> None:
        self.config = config or CodecConfig()
        self.stats = CodecStats()
        # Sender-side delta state, all keyed by site_id.
        self._next_update_id: dict[int, int] = {}
        self._unbound: tuple[int, int] | None = None  # (site_id, update_id)
        self._in_flight: OrderedDict[int, tuple[int, int]] = OrderedDict()
        self._sent_reps: dict[int, OrderedDict[int, tuple[bytes, ...]]] = {}
        self._baseline: dict[int, tuple[int, tuple[bytes, ...]]] = {}
        # Receiver-side baseline cache: site_id -> update_id -> mixture.
        self._rx: dict[int, OrderedDict[int, GaussianMixture]] = {}

    # -- ARQ hooks ------------------------------------------------------
    def note_sent(self, seq: int) -> None:
        if self._unbound is not None:
            self._in_flight[seq] = self._unbound
            self._unbound = None

    def note_acked(self, seq: int) -> None:
        while self._in_flight:
            first = next(iter(self._in_flight))
            if first > seq:
                break
            site_id, update_id = self._in_flight.pop(first)
            reps = self._sent_reps.get(site_id, {}).get(update_id)
            if reps is None:
                continue
            current = self._baseline.get(site_id)
            if current is None or update_id > current[0]:
                self._baseline[site_id] = (update_id, reps)

    # -- encoding -------------------------------------------------------
    def encode(self, message: Message) -> bytes:
        tag = TAG_BY_TYPE.get(type(message))
        if tag is None:
            raise TypeError(f"cannot encode {type(message).__name__}")
        stats = self.stats
        if not isinstance(message, ModelUpdateMessage):
            payload = self._encode_counter(message, tag)
            stats.messages += 1
            stats.bytes_encoded += len(payload)
            stats.bytes_snapshot += message.payload_bytes()
            return payload

        mixture = message.mixture
        diagonal = _mixture_mode(mixture)
        k = mixture.n_components
        d = mixture.dim
        if k > 0xFFFF or d > 0xFFFF:
            raise ValueError(
                "mixture too large even for CDS2 (K and d cap at 65535)"
            )
        quantize = self.config.quantize
        site_id = message.site_id

        update_id = self._next_update_id.get(site_id, 0)
        self._next_update_id[site_id] = (update_id + 1) & 0xFFFFFFFF

        reps = tuple(
            np.asarray(component.mean, dtype="<f8").tobytes()
            + _quantize_cov(component, quantize)
            + bytes([int(component.diagonal)])
            for component in mixture.components
        )

        baseline = self._baseline.get(site_id) if self.config.delta else None
        changed: list[int] | None = None
        baseline_id = 0
        if baseline is not None:
            baseline_id, baseline_reps = baseline
            stale = (
                update_id - baseline_id > BASELINE_DEPTH
                or len(baseline_reps) != k
            )
            if not stale:
                diff = [
                    i for i in range(k) if reps[i] != baseline_reps[i]
                ]
                # A delta that ships every component is strictly worse
                # than a snapshot (mask + baseline_id overhead).
                if len(diff) < k:
                    changed = diff

        flags = int(diagonal)
        flags |= _QUANT_CODES[quantize] << _QUANT_SHIFT
        if changed is not None:
            flags |= _FLAG2_DELTA

        parts = [
            _HEADER2.pack(
                CDS2_MAGIC,
                tag,
                flags,
                k,
                d,
                site_id,
                message.model_id,
                message.time,
            ),
            struct.pack("<q", message.count),
            struct.pack("<d", message.reference_likelihood),
            struct.pack("<I", update_id),
        ]
        shipped = range(k) if changed is None else changed
        if changed is not None:
            mask = bytearray((k + 7) // 8)
            for i in changed:
                mask[i // 8] |= 1 << (i % 8)
            parts.append(struct.pack("<I", baseline_id))
            parts.append(bytes(mask))
        parts.append(np.asarray(mixture.weights, dtype="<f8").tobytes())
        block = _block_dtype(d, diagonal, quantize).itemsize
        for i in shipped:
            parts.append(reps[i][:block])
        payload = b"".join(parts)

        # Remember what the receiver will hold for this update so later
        # deltas can reference it once it is acknowledged.
        per_site = self._sent_reps.setdefault(site_id, OrderedDict())
        per_site[update_id] = reps
        while len(per_site) > BASELINE_DEPTH + 1:
            per_site.popitem(last=False)
        self._unbound = (site_id, update_id)

        stats.messages += 1
        stats.model_updates += 1
        stats.components_total += k
        stats.components_shipped += len(tuple(shipped))
        if changed is None:
            stats.snapshot_updates += 1
        else:
            stats.delta_updates += 1
        stats.bytes_encoded += len(payload)
        stats.bytes_snapshot += message.payload_bytes()
        return payload

    def _encode_counter(self, message: Message, tag: int) -> bytes:
        return _HEADER2.pack(
            CDS2_MAGIC,
            tag,
            0,
            0,
            0,
            message.site_id,
            message.model_id,
            message.time,
        ) + struct.pack("<q", message.count_delta)

    # -- decoding -------------------------------------------------------
    def decode(self, payload: bytes) -> Message:
        if payload[:4] == MAGIC:
            # Every receiver decodes with this codec, so a CDS1 sender's
            # payloads land here and decode exactly.
            return _decode_cds1(payload)
        if len(payload) < CDS2_HEADER_BYTES:
            raise CodecError("payload shorter than the CDS2 message header")
        magic, tag, flags, k, d, site_id, model_id, time = _HEADER2.unpack_from(
            payload
        )
        if magic != CDS2_MAGIC:
            raise CodecError(f"bad magic {magic!r}; not a CDS1/CDS2 message")
        body = payload[CDS2_HEADER_BYTES:]

        if tag in (TAG_WEIGHT_UPDATE, TAG_DELETION):
            return _decode_counter(tag, body, site_id, model_id, time)
        if tag != TAG_MODEL_UPDATE:
            raise CodecError(f"unknown message tag {tag}")

        diagonal = bool(flags & _FLAG2_DIAGONAL)
        delta = bool(flags & _FLAG2_DELTA)
        quant_code = (flags & _QUANT_MASK) >> _QUANT_SHIFT
        quantize = _QUANT_NAMES.get(quant_code)
        if quantize is None:
            raise CodecError(f"unknown quantization code {quant_code}")
        if k == 0 or d == 0:
            raise CodecError(f"model update header has K = {k}, d = {d}")

        # The header and the changed-component mask fix the body length
        # exactly; it is checked before any field is unpacked.
        offset = 24 + (k + 7) // 8 if delta else 20
        shipped = np.arange(k)
        if delta:
            mask = np.frombuffer(body[24:offset], dtype=np.uint8)
            shipped = np.flatnonzero(np.unpackbits(mask, count=k, bitorder="little"))
        try:
            block = _block_dtype(d, diagonal, quantize)
        except ValueError:  # over numpy's 2 GiB cap: no payload holds one
            raise CodecError(f"model update header has d = {d}") from None
        expected = offset + 8 * k + len(shipped) * block.itemsize
        if len(body) != expected:
            raise CodecError(
                f"CDS2 model update body is {len(body)} bytes; its header "
                f"(K = {k}, d = {d}, {quantize}) needs {expected}"
            )
        count, reference, update_id = struct.unpack_from("<qdI", body)

        components: list[Gaussian | None] = [None] * k
        if delta:
            (baseline_id,) = struct.unpack_from("<I", body, 20)
            cached = self._rx.get(site_id, {}).get(baseline_id)
            if cached is None:
                raise CodecError(
                    f"delta update {update_id} from site {site_id} "
                    f"references baseline {baseline_id} which this "
                    "endpoint does not hold -- the sender violated the "
                    "acknowledged-baseline invariant"
                )
            if cached.n_components != k:
                raise CodecError(
                    "delta update component count does not match its baseline"
                )
            components = list(cached.components)

        weights = np.frombuffer(body, dtype="<f8", count=k, offset=offset)
        blocks = np.frombuffer(
            body, dtype=block, count=len(shipped), offset=offset + 8 * k
        )
        # Hostile values overflow on the way; the constructors reject them.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                means, covariances = _dequantize(blocks, diagonal, quantize)
                stack = Gaussian.stack(means, covariances, diagonal)[0]
            for i, component in zip(shipped.tolist(), stack):
                components[i] = component
            mixture = GaussianMixture(weights.copy(), tuple(components))
        except ValueError as error:  # the constructor names the field
            raise CodecError(f"model update rejected: {error}") from None
        per_site = self._rx.setdefault(site_id, OrderedDict())
        per_site[update_id] = mixture
        while len(per_site) > BASELINE_DEPTH + 1:
            per_site.popitem(last=False)
        return ModelUpdateMessage(
            site_id=site_id,
            model_id=model_id,
            time=time,
            mixture=mixture,
            count=count,
            reference_likelihood=reference,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[CodecConfig | None], WireCodec]] = {}


def register_codec(
    name: str, factory: Callable[[CodecConfig | None], WireCodec]
) -> None:
    """Register a codec factory under ``name``.

    The factory is called with a :class:`CodecConfig` (or ``None`` for
    defaults) and must return a fresh :class:`WireCodec` instance --
    codec instances carry per-edge state and are never shared.
    """
    if name in _REGISTRY:
        raise ValueError(f"codec {name!r} is already registered")
    _REGISTRY[name] = factory


def get_codec(
    name: str = "cds1", config: CodecConfig | None = None
) -> WireCodec:
    """Instantiate a registered codec for one edge."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown wire codec {name!r}; "
            f"available: {', '.join(available_codecs())}"
        ) from None
    return factory(config)


def available_codecs() -> tuple[str, ...]:
    """Names accepted by :func:`get_codec`, in registration order."""
    return tuple(_REGISTRY)


register_codec("cds1", CDS1Codec)
register_codec("cds2", CDS2Codec)

#: TPT1 envelope codec ids a receiver decodes: its ``CDS2Codec`` reads
#: CDS1 payloads too, so the sender alone picks the format.
WIRE_IDS = frozenset({CDS1Codec.wire_id, CDS2Codec.wire_id})

