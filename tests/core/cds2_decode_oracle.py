"""Reference CDS2 model-update codec arithmetic: one component at a time.

This is ``repro.core.serde``'s CDS2 covariance transport as it stood
before the decoder read whole stacks:

* ``quantize_cov`` packs one component's block, computing
  ``np.tril_indices(d)`` on every call;
* ``decode_model_update`` reads each shipped component's mean with its
  own ``np.frombuffer`` and reconstructs its covariance with
  ``_dequantize_cov`` -- a ``(d, d)`` scatter, the diagonal lift and one
  ``L Lᵀ`` product per component -- before the one ``Gaussian.stack``.

It is kept here, out of ``src/``, as the oracle of
``tests/core/test_cds2_decode_identity.py``: the stacked decoder must
build the same components bit for bit, and the encoder the same bytes.
"""

from __future__ import annotations

import struct
from collections import OrderedDict

import numpy as np

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import ModelUpdateMessage
from repro.core.serde import (
    _FLAG2_DELTA,
    _FLAG2_DIAGONAL,
    _HEADER2,
    _QUANT_CODES,
    _QUANT_DTYPES,
    _QUANT_MASK,
    _QUANT_SHIFT,
    BASELINE_DEPTH,
    CDS2_HEADER_BYTES,
    CDS2Codec,
    CodecError,
)

__all__ = ["decode_model_update", "quantize_cov"]


def quantize_cov(component: Gaussian, quantize: str) -> bytes:
    """Covariance transport block for one component."""
    dtype = _QUANT_DTYPES[quantize]
    if component.diagonal:
        values = np.diag(component.covariance)
    elif quantize == "f64":
        values = np.ascontiguousarray(component.covariance)
    else:
        values = component.factors.cholesky[np.tril_indices(component.dim)]
    if quantize == "f16":
        finfo = np.finfo(np.float16)
        values = np.clip(values, -float(finfo.max), float(finfo.max))
        values = np.where(
            (values > 0) & (values < float(finfo.tiny)),
            float(finfo.tiny),
            values,
        )
    return np.ascontiguousarray(values, dtype=dtype).tobytes()


def _dequantize_cov(
    blob: bytes, d: int, diagonal: bool, quantize: str
) -> np.ndarray:
    """Reconstruct a covariance matrix from its transport block."""
    dtype = _QUANT_DTYPES[quantize]
    values = np.frombuffer(blob, dtype=dtype).astype(np.float64)
    if diagonal:
        tiny = float(np.finfo(np.float64).tiny)
        return np.diag(np.maximum(values, tiny))
    if quantize == "f64":
        return values.reshape(d, d).copy()
    factor = np.zeros((d, d))
    factor[np.tril_indices(d)] = values
    # A factor diagonal rounded to zero would make the reconstruction
    # singular; the tiniest positive lift keeps it positive definite.
    diag = factor.diagonal().copy()
    floor = max(float(np.abs(diag).max()), 1.0) * 1e-7
    np.fill_diagonal(factor, np.maximum(diag, floor))
    cov = factor @ factor.T
    return (cov + cov.T) / 2.0


def _cov_block_bytes(d: int, diagonal: bool, quantize: str) -> int:
    width = np.dtype(_QUANT_DTYPES[quantize]).itemsize
    if diagonal:
        return width * d
    if quantize == "f64":
        return width * d * d
    return width * (d * (d + 1) // 2)


def decode_model_update(codec: CDS2Codec, payload: bytes) -> ModelUpdateMessage:
    """``CDS2Codec.decode`` of a well-formed model update, per component.

    Reads and updates ``codec``'s receiver-side baseline cache exactly as
    the decoder does, so a sequence of snapshots and deltas can be
    replayed through it.
    """
    magic, tag, flags, k, d, site_id, model_id, time = _HEADER2.unpack_from(
        payload
    )
    assert magic == b"CDS2" and tag == 1
    body = payload[CDS2_HEADER_BYTES:]
    diagonal = bool(flags & _FLAG2_DIAGONAL)
    delta = bool(flags & _FLAG2_DELTA)
    quant_code = (flags & _QUANT_MASK) >> _QUANT_SHIFT
    quantize = {v: n for n, v in _QUANT_CODES.items()}[quant_code]

    (count,) = struct.unpack_from("<q", body, 0)
    (reference,) = struct.unpack_from("<d", body, 8)
    (update_id,) = struct.unpack_from("<I", body, 16)
    offset = 20

    components: list[Gaussian | None] = [None] * k
    shipped = list(range(k))
    if delta:
        (baseline_id,) = struct.unpack_from("<I", body, offset)
        offset += 4
        mask = body[offset : offset + (k + 7) // 8]
        offset += (k + 7) // 8
        shipped = [i for i in shipped if mask[i // 8] & (1 << (i % 8))]
        cached = codec._rx.get(site_id, {}).get(baseline_id)
        if cached is None:
            raise CodecError(f"baseline {baseline_id} is not held")
        components = list(cached.components)

    weights = np.frombuffer(body, dtype="<f8", count=k, offset=offset)
    offset += 8 * k
    cov_bytes = _cov_block_bytes(d, diagonal, quantize)
    means = np.empty((len(shipped), d))
    covariances = np.empty((len(shipped), d, d))
    for mean, covariance in zip(means, covariances):
        mean[...] = np.frombuffer(body, dtype="<f8", count=d, offset=offset)
        offset += 8 * d
        covariance[...] = _dequantize_cov(
            body[offset : offset + cov_bytes], d, diagonal, quantize
        )
        offset += cov_bytes
    assert offset == len(body)
    for i, component in zip(
        shipped, Gaussian.stack(means, covariances, diagonal)[0]
    ):
        components[i] = component

    mixture = GaussianMixture(weights.copy(), tuple(components))
    per_site = codec._rx.setdefault(site_id, OrderedDict())
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
