"""Exact integer oracle for complementary sets, independent of golaykit.

A set of Gaussian-integer arrays is complementary when the sum of their
aperiodic autocorrelations is the total weight at zero shift and zero
at every other shift.  This module computes that sum as a product of
integer polynomials (Kronecker substitution): each array is laid out
flat with every row padded so that products never wrap, packed into one
Python integer with a 32-bit field per coefficient, and multiplied with
Python's exact big-integer arithmetic.  It uses no floating point and
no golaykit code, so it can judge golaykit's two exact routes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

_FIELD_BYTES = 4
_HALF = 1 << (8 * _FIELD_BYTES - 1)


@dataclass(frozen=True)
class Verdict:
    is_complementary: bool
    total_weight: int


def _planes(array) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) int64 planes from a golaykit Tensor or an (re, im) pair."""
    re, im = (array.re, array.im) if hasattr(array, "re") else array
    re = np.asarray(re, dtype=np.int64)
    im = np.asarray(im, dtype=np.int64)
    if re.shape != im.shape or re.ndim < 1:
        raise ValueError("planes must share one shape of rank at least 1")
    return re, im


def _pack(plane: np.ndarray) -> int:
    """The integer whose base-2^32 digits are the plane's entries, in
    C order, least significant first; negative entries subtract."""
    flat = plane.reshape(-1)
    pos = np.where(flat > 0, flat, 0).astype("<u4").tobytes()
    neg = np.where(flat < 0, -flat, 0).astype("<u4").tobytes()
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(value: int, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of _pack for coefficients strictly inside +-2^31."""
    n = int(np.prod(shape))
    offset = int.from_bytes(np.full(n, _HALF, dtype="<u4").tobytes(), "little")
    raw = (value + offset).to_bytes(_FIELD_BYTES * n, "little")
    digits = np.frombuffer(raw, dtype="<u4").astype(np.int64) - _HALF
    return digits.reshape(shape)


def autocorrelation_sum(arrays: Sequence):
    """Summed aperiodic autocorrelation of a set, as (re, im, weight).

    Arrays may differ in shape but not in rank; each is zero-padded at
    the high end to the common bound, which leaves autocorrelations
    unchanged.  Shift delta sits at index delta_k + bound_k - 1.
    """
    planes = [_planes(a) for a in arrays]
    if not planes:
        raise ValueError("no arrays given")
    rank = planes[0][0].ndim
    if any(re.ndim != rank for re, _ in planes):
        raise ValueError("arrays must share one rank")
    bound = tuple(max(re.shape[k] for re, _ in planes) for k in range(rank))
    out_shape = tuple(2 * s - 1 for s in bound)
    weight = sum(int(np.sum(re * re)) + int(np.sum(im * im))
                 for re, im in planes)
    # |R(delta)| <= weight, so every coefficient fits a signed field.
    if weight >= _HALF:
        raise ValueError("total weight too large for 32-bit fields")
    # Rows are padded to the output width on every axis but the first,
    # so index sums along those axes never carry into the next row.
    layout = (bound[0],) + out_shape[1:]
    flip = (slice(None, None, -1),) * rank

    def lay(plane):
        buf = np.zeros(layout, dtype=np.int64)
        buf[tuple(slice(0, s) for s in plane.shape)] = plane
        return _pack(buf)

    total_re = total_im = 0
    for re, im in planes:
        pad = [(0, b - s) for s, b in zip(re.shape, bound)]
        re, im = np.pad(re, pad), np.pad(im, pad)
        # The product with the conjugate flip is the autocorrelation.
        ar, ai = lay(re), lay(im)
        br, bi = lay(re[flip]), -lay(im[flip])
        total_re += ar * br - ai * bi
        total_im += ar * bi + ai * br
    return _unpack(total_re, out_shape), _unpack(total_im, out_shape), weight


def check_set(arrays: Sequence) -> Verdict:
    """Exact complementarity verdict for a set of arrays."""
    re, im, weight = autocorrelation_sum(arrays)
    center = tuple(s // 2 for s in re.shape)
    side = re.copy()
    side[center] = 0
    ok = int(re[center]) == weight and not np.any(side) and not np.any(im)
    return Verdict(bool(ok), weight)
