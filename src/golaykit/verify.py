"""Complementarity checks for sets of Gaussian-integer arrays.

Three routes are implemented and kept deliberately independent:

* `is_gca_set` sums exact aperiodic autocorrelations computed straight
  from the defining double sum and demands a delta at the center.  Its
  kernel, `autocorrelation`, correlates every pair of rows along the
  longest axis with integer `np.correlate`.
* `gca_check_polynomial` multiplies each array by its conjugate-flip
  under exact convolution and demands the constant total.  Its kernel,
  `tensor.convolve`, is a Kronecker substitution: one big-integer
  product per term, no numpy correlation.
* `spectrum_flatness` samples the power spectrum on a unit-torus grid
  in floating point; it is a diagnostic, never the source of truth.

Constructions in this package re-verify their outputs through the two
exact routes, so a formula transcription error cannot ship a bad array.
"""
from __future__ import annotations

import itertools
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
from .tensor import GaussInt, Tensor, _exact_dtype, convolve, involute

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


def _autocorr_bound(a: Tensor) -> int:
    """Bound on every autocorrelation component of `a`, and on its
    weight: a sum of at most `size` terms, each at most 2 * max**2."""
    return 2 * a.size * a.max_component() ** 2


def autocorrelation(a: Tensor) -> AutocorrResult:
    """R(delta) = sum_i a[i] * conj(a[i - delta]) for all shifts.

    Exact integers throughout (int64 when the output provably fits, else
    Python ints).  Rows run along the longest axis: each pair of rows is
    one C-level integer correlation added at its shift of the other
    axes, so the cost does not depend on the orientation of the array.
    A real array (all imaginary parts zero) needs one correlation per
    row pair instead of four.
    """
    dtype = _exact_dtype(_autocorr_bound(a))
    real = not np.any(a.im)
    axis = a.rank - 1 - a.shape[::-1].index(max(a.shape))
    out_re = np.zeros(tuple(2 * s - 1 for s in a.shape), dtype=dtype)
    out_im = np.zeros_like(out_re)
    acc_re, acc_im = (x.swapaxes(axis, -1) for x in (out_re, out_im))
    re, im = (x.astype(dtype).swapaxes(axis, -1) for x in (a.re, a.im))
    rows = re.shape[:-1]
    lead = list(itertools.product(*map(range, rows)))
    re, im = (x.reshape(len(lead), -1) for x in (re, im))
    for p, ip in enumerate(lead):
        for q, iq in enumerate(lead):
            # row p times conj(row q), full cross-correlation
            d = tuple(x - y + s - 1 for x, y, s in zip(ip, iq, rows))
            acc_re[d] += np.correlate(re[p], re[q], "full")
            if not real:
                acc_re[d] += np.correlate(im[p], im[q], "full")
                acc_im[d] += (np.correlate(im[p], re[q], "full")
                              - np.correlate(re[p], im[q], "full"))
    return AutocorrResult(Tensor(out_re, out_im), tuple(s - 1 for s in a.shape))


def weight(a: Tensor) -> int:
    """Sum of squared entry magnitudes."""
    dtype = _exact_dtype(_autocorr_bound(a))
    total = 0
    for x in (a.re, a.im):
        x = x.astype(dtype).ravel()
        total += int(np.dot(x, x))
    return total


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


def _verdict(arrays: Sequence[Tensor], kernel) -> GcaVerdict:
    """Sum kernel(a) over one-shape arrays, compare with weight * delta.
    The sum is in int64 only when the members' bounds add up to a value
    that fits.  Sidelobe norms (big ints) are computed only if a
    sidelobe is nonzero."""
    arrays = list(arrays)
    if not arrays:
        raise EmptySet("no arrays given")
    shape = arrays[0].shape
    for a in arrays[1:]:
        if a.shape != shape:
            raise ShapeMismatch(f"mixed shapes in set: {shape} vs {a.shape}")
    dtype = _exact_dtype(sum(_autocorr_bound(a) for a in arrays))
    total_re = np.zeros(tuple(2 * s - 1 for s in shape), dtype=dtype)
    total_im = np.zeros_like(total_re)
    for a in arrays:
        r = kernel(a)
        total_re += r.re
        total_im += r.im
        del r  # freed before the next member's output is made
    w = sum(weight(a) for a in arrays)
    center = tuple(s - 1 for s in shape)
    at_center = (int(total_re[center]), int(total_im[center]))
    # what is left once the center is cleared are the sidelobes
    total_re[center] = total_im[center] = 0
    max_side = 0
    if np.any(total_re) or np.any(total_im):
        max_side = int(np.max(total_re.astype(object) ** 2
                              + total_im.astype(object) ** 2))
    ok = at_center == (w, 0) and max_side == 0
    return GcaVerdict(ok, w, max_side)


def is_gca_set(arrays: Sequence[Tensor]) -> GcaVerdict:
    """Definition check: autocorrelations must sum to weight * delta.

    All arrays must share one shape; ShapeMismatch otherwise.
    """
    return _verdict(arrays, lambda a: autocorrelation(a).values)


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
    return _verdict(arrays, lambda a: convolve(a, involute(a))).is_complementary


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
