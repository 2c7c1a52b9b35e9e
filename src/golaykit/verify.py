"""Complementarity checks for sets of Gaussian-integer arrays.

Three routes are implemented and kept deliberately independent:

* `is_gca_set` sums exact aperiodic autocorrelations computed straight
  from the defining double sum and demands a delta at the center.
* `gca_check_polynomial` multiplies each array by its conjugate-flip
  under exact convolution and demands the constant total.
* `spectrum_flatness` samples the power spectrum on a unit-torus grid
  in floating point; it is a diagnostic, never the source of truth.

Constructions in this package re-verify their outputs through the two
exact routes, so a formula transcription error cannot ship a bad array.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptySet,
    NotBinary,
    NotComplementary,
    ShapeMismatch,
    Trivial,
)
from .tensor import GaussInt, Tensor, _needs_object, add, convolve, involute

__all__ = [
    "AutocorrResult",
    "GcaVerdict",
    "autocorrelation",
    "weight",
    "is_gca_set",
    "jointly_complementary",
    "gca_check_polynomial",
    "spectrum_flatness",
    "binary_pair_symmetry",
    "pad_to",
]


@dataclass(frozen=True)
class AutocorrResult:
    """Aperiodic autocorrelation values on the full shift range.

    `values` has dims 2*s_k - 1; shift delta lives at index
    delta_k + s_k - 1, so `center` is the zero-shift position.
    """

    values: Tensor
    center: tuple[int, ...]

    def at(self, delta: Sequence[int]) -> GaussInt:
        idx = tuple(d + c for d, c in zip(delta, self.center))
        return self.values[idx]


@dataclass(frozen=True)
class GcaVerdict:
    """Outcome of a complementarity check."""

    is_complementary: bool
    total_weight: int
    max_sidelobe_norm: int


def _corr1d(xr, xi, yr, yi):
    """Full cross-correlation sum_i x[i] * conj(y[i-d]), complex parts."""
    re = np.correlate(xr, yr, "full") + np.correlate(xi, yi, "full")
    im = np.correlate(xi, yr, "full") - np.correlate(xr, yi, "full")
    return re, im


def autocorrelation(a: Tensor) -> AutocorrResult:
    """R(delta) = sum_i a[i] * conj(a[i - delta]) for all shifts.

    Exact integers throughout; the inner axis runs through C-level
    integer correlation, outer shifts are accumulated per index pair.
    """
    if _needs_object(a):
        return _autocorrelation_bigint(a)
    shape = a.shape
    out_shape = tuple(2 * s - 1 for s in shape)
    out_re = np.zeros(out_shape, dtype=np.int64)
    out_im = np.zeros(out_shape, dtype=np.int64)
    lead = shape[:-1]
    re = a.re.reshape(-1, shape[-1])
    im = a.im.reshape(-1, shape[-1])
    centers = tuple(s - 1 for s in lead)
    lead_idx = list(np.ndindex(*lead)) if lead else [()]
    for p, ip in enumerate(lead_idx):
        for q, iq in enumerate(lead_idx):
            d = tuple(x - y + c for x, y, c in zip(ip, iq, centers))
            r, i = _corr1d(re[p], im[p], re[q], im[q])
            out_re[d] += r
            out_im[d] += i
    values = Tensor(out_re, out_im)
    return AutocorrResult(values, tuple(s - 1 for s in shape))


def _autocorrelation_bigint(a: Tensor) -> AutocorrResult:
    # big-entry fallback: the same double sum with Python integers
    shape = a.shape
    out_shape = tuple(2 * s - 1 for s in shape)
    out_re = np.zeros(out_shape, dtype=object)
    out_im = np.zeros(out_shape, dtype=object)
    entries = {
        idx: (int(a.re[idx]), int(a.im[idx]))
        for idx in np.ndindex(*shape)
        if a.re[idx] != 0 or a.im[idx] != 0
    }
    for i, (xr, xi) in entries.items():
        for j, (yr, yi) in entries.items():
            d = tuple(ii - jj + s - 1 for ii, jj, s in zip(i, j, shape))
            out_re[d] += xr * yr + xi * yi
            out_im[d] += xi * yr - xr * yi
    return AutocorrResult(Tensor(out_re, out_im), tuple(s - 1 for s in shape))


def weight(a: Tensor) -> int:
    """Sum of squared entry magnitudes."""
    if _needs_object(a):
        return sum(int(r) * int(r) + int(i) * int(i)
                   for r, i in zip(a.re.flat, a.im.flat))
    return int(np.sum(a.re * a.re) + np.sum(a.im * a.im))


def pad_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    """Zero-pad at the high end of each axis up to `shape`."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != a.rank:
        raise ShapeMismatch(f"cannot pad rank {a.rank} to shape {shape}")
    if any(t < s for s, t in zip(a.shape, shape)):
        raise ShapeMismatch(f"cannot pad {a.shape} down to {shape}")
    if shape == a.shape:
        return a
    widths = [(0, t - s) for s, t in zip(a.shape, shape)]
    return Tensor(np.pad(a.re, widths), np.pad(a.im, widths))


def is_gca_set(arrays: Sequence[Tensor]) -> GcaVerdict:
    """Definition check: autocorrelations must sum to weight * delta.

    All arrays must share one shape; ShapeMismatch otherwise.
    """
    arrays = list(arrays)
    if not arrays:
        raise EmptySet("no arrays given")
    shape = arrays[0].shape
    for a in arrays[1:]:
        if a.shape != shape:
            raise ShapeMismatch(f"mixed shapes in set: {shape} vs {a.shape}")
    total = autocorrelation(arrays[0]).values
    for a in arrays[1:]:
        total = add(total, autocorrelation(a).values)
    w = sum(weight(a) for a in arrays)
    center = tuple(s - 1 for s in shape)
    ok = total[center] == GaussInt(w, 0)
    side_re = total.re.copy()
    side_im = total.im.copy()
    side_re[center] = 0
    side_im[center] = 0
    norms = side_re.astype(object) ** 2 + side_im.astype(object) ** 2
    max_side = int(np.max(norms)) if norms.size else 0
    ok = ok and max_side == 0
    return GcaVerdict(bool(ok), w, max_side)


def jointly_complementary(arrays: Sequence[Tensor]) -> GcaVerdict:
    """is_gca_set after zero-padding mixed shapes to a common bound.

    Padding position does not affect autocorrelations, so this is the
    right reading of complementarity for size-mismatched quads.
    """
    arrays = list(arrays)
    if not arrays:
        raise EmptySet("no arrays given")
    rank = arrays[0].rank
    if any(a.rank != rank for a in arrays):
        raise ShapeMismatch("mixed ranks in set")
    bound = tuple(max(a.shape[k] for a in arrays) for k in range(rank))
    return is_gca_set([pad_to(a, bound) for a in arrays])


def gca_check_polynomial(arrays: Sequence[Tensor]) -> bool:
    """Product check: sum of a * involute(a) must be weight * delta.

    An independent route from `is_gca_set`: this one goes through the
    exact convolution of each array with its conjugate flip.
    """
    arrays = list(arrays)
    if not arrays:
        raise EmptySet("no arrays given")
    shape = arrays[0].shape
    for a in arrays[1:]:
        if a.shape != shape:
            raise ShapeMismatch(f"mixed shapes in set: {shape} vs {a.shape}")
    total = convolve(arrays[0], involute(arrays[0]))
    for a in arrays[1:]:
        total = add(total, convolve(a, involute(a)))
    w = sum(weight(a) for a in arrays)
    center = tuple(s - 1 for s in shape)
    if total[center] != GaussInt(w, 0):
        return False
    mask = np.ones(total.shape, dtype=bool)
    mask[center] = False
    return not (np.any(total.re[mask]) or np.any(total.im[mask]))


def spectrum_flatness(arrays: Sequence[Tensor], grid: int = 16) -> float:
    """Worst relative deviation of the summed power spectrum from flat.

    Samples z_k = exp(2*pi*i*m_k/grid) on all grid points per axis and
    returns max |sum_i |A_i(z)|^2 - W| / W in float64.  Diagnostic only;
    the exact checks above are authoritative.
    """
    arrays = list(arrays)
    if not arrays:
        raise EmptySet("no arrays given")
    if grid < 1:
        raise ShapeMismatch("grid must be positive")
    w = sum(weight(a) for a in arrays)
    if w == 0:
        raise EmptySet("zero total weight")
    power = None
    for a in arrays:
        vals = a.re.astype(np.complex128) + 1j * a.im.astype(np.complex128)
        for axis in range(a.rank):
            s = vals.shape[0]
            v = np.exp(-2j * np.pi * np.outer(np.arange(grid), np.arange(s)) / grid)
            vals = np.tensordot(v, vals, axes=([1], [0]))
            vals = np.moveaxis(vals, 0, a.rank - 1)
        p = np.abs(vals) ** 2
        power = p if power is None else power + p
    return float(np.max(np.abs(power - w)) / w)


def binary_pair_symmetry(a: Tensor, b: Tensor) -> bool:
    """End-to-end sign rule for binary complementary pairs.

    For every index i, a[s-1-i]*a[i]*b[s-1-i]*b[i] must equal -1,
    where s-1-i flips every dimension.  Raises NotBinary /
    NotComplementary / Trivial when the inputs are not a nontrivial
    binary complementary pair.
    """
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    for t in (a, b):
        if np.any(t.im != 0) or np.any(np.abs(t.re) != 1):
            raise NotBinary("entries outside {+1,-1}")
    if all(d == 1 for d in a.shape):
        raise Trivial("single-entry pair has no end-to-end rule")
    if not is_gca_set([a, b]).is_complementary:
        raise NotComplementary("not a complementary pair")
    ar = a.re.astype(np.int64)
    br = b.re.astype(np.int64)
    flip = (slice(None, None, -1),) * a.rank
    prod = ar[flip] * ar * br[flip] * br
    return bool(np.all(prod == -1))
