"""Complementarity checks for sets of Gaussian-integer arrays.

A set is complementary when its members' aperiodic autocorrelations
sum to W * delta, W the total weight, each member read as zero past its
own extent: members share a rank, not a shape (base sequences have
lengths m+1, m+1, m, m).  Both exact routes pad members to one shape.

Three routes are implemented and kept deliberately independent:

* `is_gca_set` tests the paper's flat-spectrum identity exactly: the
  summed power spectrum sum_i A_i(z) * conj(A_i)(1/z) must equal the
  total weight W at every point.  Its kernel is a number-theoretic
  transform (NTT) modulo primes p < 2**31 with p = 1 (mod n), n the
  power of two at or above prod(2*s_k - 1).  Each member is laid out
  in the row-major strides of the output shape 2*s - 1, so index sums
  never wrap; u = re + iota*im and the flip of v = re - iota*im
  (iota**2 = -1 mod p) of every member go through one stacked forward
  transform per set (a real set needs only u; a set of over 2**17
  residues is transformed a group of members at a time), and the set
  is accepted when sum U*V = W mod p at all n points for every prime.
  The primes are taken until their product P exceeds twice the bound
  B = sum 2*size*max**2 on every summed autocorrelation component;
  then a residue of zero at every shift makes re and im zero modulo P,
  hence exactly zero.  Only a rejection (and `autocorrelation`) pays
  to invert: the same forward transform, run on the spectrum and read
  at negated frequencies, then the split of re and im from c(d) and
  c(-d), and a CRT lift of the residues to the exact integers in
  (-P/2, P/2); it reuses the forward transform's tables.  Up to n =
  2**10 the transform is dense exact matrix products (`_dense`, the
  four-step transform of Bailey, 1990, over F_p): one product up to
  32 points, above it a 16-point product, twiddles and the rest on
  the rows; each matrix is held in 16-bit limbs, so with residues
  below 2**31 every int64 sum stays below 2**53.  The output is the
  butterflies', bit for bit; the two came even near 2**11 points.
  Above, Gentleman-Sande butterflies.  From n = 2**14 up, stages with
  short inner loops run on transposed quarters of the input, and
  reductions modulo p (save the residues of object planes) divide by
  each prime as a scalar, which numpy does by a multiply with its
  reciprocal; below, each is one `%`, a hardware divide per entry.
* `gca_check_polynomial` sums each array's exact convolution with its
  conjugate flip and demands the constant total.  It convolves real
  planes only: with u = re + im and P = re * flip(im), a complex
  member's product has real part u * flip(u) - P - flip(P) and
  imaginary part flip(P) - P (two real products), a real member's is
  re * flip(re) (one).  Its kernel, `tensor.convolve`, is a Kronecker
  substitution in integers (`_toom`): one product, or two of half the
  bits at +-B, per real convolution; from 2,000 bits a packed row,
  members of rank 2 and up go row by row, each row its own integer
  with no zero padding between rows, and the row lists are multiplied
  by Karatsuba-Ofman.  No modular arithmetic.
* `spectrum_flatness` samples the power spectrum on a unit-torus grid
  in floating point (one FFT of each member folded modulo the grid);
  it is a diagnostic, never the source of truth.

`construct.assemble` checks every set a construction makes, so a
formula transcription error cannot ship a bad array: by both exact
routes, except inside `planner.execute`, where each node's set is
checked by the direct route and the set returned by both.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptySet,
    GolayKitError,
    NotBinary,
    NotComplementary,
    RankMismatch,
    ShapeMismatch,
    Trivial,
)
from . import _dense
from ._dense import reversal as _reversal
from .tensor import GaussInt, Tensor, _exact_dtype, _is_zero, _layout, convolve

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


# the direct route's kernel: an exact number-theoretic transform ---------

_PRIME_LIMIT = 1 << 31  # so that 2p * p, a butterfly's product, fits int64
_KEPT_TABLES = 1 << 12  # transform lengths whose tables are kept
_GROUP = 1 << 17  # residues in one forward transform at most (1 MB)
_DENSE = 1 << 10  # n up to which the transform is `_dense` matrix products
_LONG_LOOPS = 1 << 14  # n from which short stages run transposed
_PAD_CAP = 1 << 20  # entries a padded member may have past the largest given


def _is_prime(p: int) -> bool:
    """Miller-Rabin to bases 2, 7 and 61, exact for odd 3 < p < 2**32."""
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, p)
        if a % p == 0 or x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _primes(step: int, count: int) -> tuple[int, ...]:
    """The `count` largest primes p < 2**31 with p = 1 (mod step), or
    all of them when there are fewer."""
    if count == 0:
        return ()
    found = _primes(step, count - 1)
    if len(found) < count - 1:
        return found
    c = ((found[-1] if found else _PRIME_LIMIT) - 2) // step
    while c > 0 and not _is_prime(c * step + 1):
        c -= 1
    return found + (c * step + 1,) if c > 0 else found


class _Moduli:
    """The primes for a transform of length n, each with an element of
    order n (`root`), iota (order 4), and the constants 1/(2n) and
    1/(2n*iota) that split n*c(d) and n*c(-d) into re and im.  Every
    table is a (primes, 1) int64 column."""

    def __init__(self, n: int, primes: tuple[int, ...]):
        self.n, self.primes = n, primes
        rows = []
        for p in primes:
            x = 2
            while pow(x, (p - 1) // 2, p) != p - 1:  # a non-residue
                x += 1
            w, iota = pow(x, (p - 1) // n, p), pow(x, (p - 1) // 4, p)
            rows.append((p, w, iota, pow(2 * n, -1, p), pow(2 * n * iota, -1, p)))
        (self.p, self.root, self.iota, self.split_re,
         self.split_im) = (np.array(c, dtype=np.int64)[:, None] for c in zip(*rows))


_moduli_of = functools.lru_cache(maxsize=None)(_Moduli)


def _moduli(shape: tuple[int, ...], bound: int) -> _Moduli:
    """Transform length and primes for a set of `shape` whose summed
    autocorrelation components are at most `bound`, checked before
    anything is allocated."""
    n = 1 << (math.prod(2 * s - 1 for s in shape) - 1).bit_length()
    count = 1
    while True:
        primes = _primes(max(n, 4), count)
        if len(primes) < count:
            if not primes:
                raise ShapeMismatch(
                    f"shape {shape} needs a transform of length {n}, and no "
                    f"prime below 2**31 supports one")
            raise GolayKitError(
                f"entries too large: shape {shape} needs a transform of "
                f"length {n}, and the {len(primes)} primes below 2**31 that "
                f"support one cannot hold a bound of {bound}")
        if math.prod(primes) > 2 * bound:
            return _moduli_of(n, primes)
        count += 1


def _twiddles(n: int, mod: _Moduli) -> np.ndarray:
    """Row k: mod.root[k]**j mod mod.primes[k] for j < n/2, by doubling."""
    roots = mod.root[:, 0].tolist()
    t = np.ones((len(mod.primes), 1), dtype=np.int64)
    while t.shape[1] < n // 2:
        step = [pow(w, t.shape[1], q) for w, q in zip(roots, mod.primes)]
        t = np.concatenate((t, t * np.array(step)[:, None] % mod.p), axis=1)
    return t


def _negation(rev: np.ndarray) -> np.ndarray:
    """For each position of the forward transform's bit-reversed output,
    rev the reversal, the position that holds the negated frequency."""
    return rev[-rev & (len(rev) - 1)]


class _Tables:
    """The tables of transforms of length mod.n modulo mod.primes: the
    butterflies' twiddles (above _DENSE points) or the dense products'
    matrices (up to it), and the bit reversal, each made when first used
    and then kept: a check makes its forward transform and, on a
    rejection, its inverse with the same tables."""

    def __init__(self, mod: _Moduli):
        self.mod = mod

    @functools.cached_property
    def twiddles(self) -> np.ndarray:
        return _twiddles(self.mod.n, self.mod)

    @functools.cached_property
    def reversal(self) -> np.ndarray:
        return _reversal(self.mod.n)

    @functools.cached_property
    def dense(self) -> tuple[list, np.ndarray]:
        return _dense.tables(_twiddles(2 * self.mod.n, self.mod))


_kept_tables = functools.lru_cache(maxsize=None)(_Tables)


def _tables(mod: _Moduli) -> _Tables:
    """The tables for `mod`: kept across checks for transform lengths up
    to _KEPT_TABLES (a few KB each), made for each check above."""
    return (_kept_tables if mod.n <= _KEPT_TABLES else _Tables)(mod)


def _mod(x: np.ndarray, p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.remainder(x, p, out) for a column p of primes, x[k] modulo the
    k-th, as x - (x // q) * q with q the prime as a scalar of x's dtype,
    one prime at a time: numpy divides contiguous runs by a scalar with
    a multiply by its reciprocal, where `%` makes a hardware divide per
    entry.  An x of one row serves every prime, as it broadcasts in
    np.remainder.  The quotients are built in `out`, which must not be
    x."""
    for k, q in enumerate(map(x.dtype.type, p.flat)):
        np.floor_divide(x[k % len(x)], q, out=out[k])
        out[k] *= q
        np.subtract(x[k % len(x)], out[k], out=out[k])
    return out


def _ntt(x: np.ndarray, tables: _Tables) -> np.ndarray:
    """The transform of x, shape (primes, rows, n) with entries in [0, p),
    along its last axis, modulo mod.primes[k] in x[k], mod = tables.mod:
    natural order in, bit-reversed order out.  Up to n = _DENSE, by
    `_dense.transform`, which leaves x as it is: int64 matrix products
    with tables.dense, each matrix in 16-bit limbs (lo < 2**16, hi <
    2**15), so every sum of products with residues below 2**31 stays
    below 2**53.  Per transform of 4 rows modulo one prime (best of 15)
    it took 12 us at n = 32 against the butterflies' 58, 77 against 151
    at 256 and 362 against 418 at 1024; at 2048, 8 rows took 1443
    against 1384, hence the gate.  Above it, in place in x, which is
    returned, by Gentleman-Sande butterflies with tables.twiddles.  From
    n = _LONG_LOOPS up, the stages of half-length h < sqrt(n), whose
    inner loops are short, run after the long stages on a quarter of
    their blocks at a time, copied transposed into x.size/4 entries of
    `spare` with the next x.size/8 as temporary, and every stage reduces
    through `_mod`: its contiguous runs, h >= sqrt(n) in place and h * 32
    or more in a quarter, are long enough for the scalar division to
    pay.  Below, every stage reduces by np.remainder."""
    n = x.shape[-1]
    if n <= _DENSE:
        return _dense.transform(x, tables.mod.p, tables.dense)
    table = tables.twiddles.view(np.uint64)[:, None, None, :]
    p = tables.mod.p.view(np.uint64)[:, :, None, None]
    y = x.view(np.uint64)
    spare = np.empty(y.size // 2, dtype=np.uint64)
    if n < _LONG_LOOPS:
        _stages(y, spare, table, p, 1, n, np.remainder)
        return x
    size = 1 << n.bit_length() // 2
    _stages(y, spare, table, p, size, n, _mod)
    quarter = spare[:y.size // 4].reshape(y.shape[:2] + (size, -1))
    blocks = y.reshape(y.shape[:2] + (4, -1, size))
    for q in range(4):
        np.copyto(quarter, blocks[:, :, q].swapaxes(2, 3))
        _stages(quarter, spare[y.size // 4:3 * y.size // 8], table[..., None],
                p[..., None], 1, size, _mod)
        np.copyto(blocks[:, :, q], quarter.swapaxes(2, 3))
    return x


# the two halves of each block of `_stages`'s y
_FRONT, _BACK = (slice(None),) * 3 + (0,), (slice(None),) * 3 + (1,)


def _stages(x: np.ndarray, spare: np.ndarray, table: np.ndarray,
            p: np.ndarray, low: int, high: int, reduce) -> None:
    """`_ntt`'s stages of half-lengths high/2 down to low along axis 2
    of x, (primes, rows, length) or (primes, rows, length, blocks), with
    `spare` the size of half of x.  The butterflies run in uint64, where
    a wrapped y - p is large, so min(y, y - p) reduces any y < 2p.  Each
    product is made in the spent sum and reduced back into place by
    `reduce(product, p, out)`: np.remainder or `_mod`."""
    h = high // 2
    while h >= low:
        y = x.reshape(x.shape[:2] + (-1, 2, h) + x.shape[3:])
        a, b = y[_FRONT], y[_BACK]
        t = spare.reshape(a.shape)
        np.add(a, b, out=t)
        np.subtract(p, b, out=b)
        b += a  # a - b + p, in (0, 2p)
        np.subtract(t, p, out=a)
        np.minimum(a, t, out=a)
        w = table[:, :, :, ::table.shape[3] // h]
        reduce(np.multiply(b, w, out=t), p, b)
        h //= 2


def _spectrum(arrays: list[Tensor], tables: _Tables) -> np.ndarray:
    """sum_i U_i * V_i mod each prime, shape (primes, n), bit-reversed:
    the transform of the summed autocorrelation under i -> iota.  The
    members go through one stacked transform or, past _GROUP residues,
    a group of members at a time.  A real set transforms only its
    members (u = v): V is U at the negated frequency.  From n =
    _LONG_LOOPS up, residues are taken by `_mod`, save those of object
    planes, each into an array that holds its quotients: the residues'
    own, or one the step has spent; below, each step is one `%`.  Above
    _DENSE points, the twiddles of `tables`, the tables for mod =
    tables.mod, are made first, before the planes are laid out; every
    group transforms with the same tables."""
    mod = tables.mod
    n, m = mod.n, len(arrays)
    if n > _DENSE:
        tables.twiddles  # made before anything else is allocated
    out = tuple(2 * s - 1 for s in arrays[0].shape)
    p = mod.p[:, :, None]
    reduce = _mod if n >= _LONG_LOOPS else np.remainder
    real = all(_is_zero(a.im) for a in arrays)
    planes = _layout([a.re for a in arrays] + [a.im for a in arrays if not real], out)
    if planes.dtype == object:
        planes = (planes % p.astype(object)).astype(np.int64)
    else:
        planes = reduce(planes[None], p,
                        np.empty((len(mod.primes),) + planes.shape, np.int64))
    re, im = planes[:, :m], planes[:, m:]
    if not real:
        im *= mod.iota[:, :, None]
    rows = 1 if real else 2
    group = max(1, _GROUP // (rows * n))
    total = 0
    for g in range(0, m, group):
        r, i = re[:, g:g + group], im[:, g:g + group]
        k = r.shape[1]
        x = np.zeros((len(mod.primes), rows * k, n), dtype=np.int64)
        if real:
            x[:, :, :r.shape[2]] = r
        else:
            # u at offsets 0..L-1, v at -j mod n: offset 0, then n-L+1..n-1;
            # v's residues are made at u's offsets, then moved
            v = reduce(r - i, p, x[:, :k, :r.shape[2]])
            x[:, k:, 0] = v[..., 0]
            x[:, k:, n - v.shape[2] + 1:] = v[..., :0:-1]
            reduce(r + i, p, v)
        x = _ntt(x, tables)
        u, v = (x, x[..., _negation(tables.reversal)]) if real else (x[:, :k], x[:, k:])
        u *= v
        total = total + reduce(u, p, v).sum(axis=1)
        del x, u, v  # freed before the next group's x is made
    return total % mod.p


def _lift(residues: np.ndarray, primes: tuple[int, ...], dtype) -> np.ndarray:
    """The integers in (-P/2, P/2), P = prod(primes), whose residues
    modulo primes[k] are residues[k] (Chinese remainder theorem, in
    Python ints when there are several primes)."""
    big = math.prod(primes)
    x = residues[0] if len(primes) == 1 else sum(
        r.astype(object) * (big // p * pow(big // p, -1, p))
        for r, p in zip(residues, primes)) % big
    return np.where(x > big // 2, x - big, x).astype(dtype)


def _correlations(spectrum: np.ndarray, tables: _Tables, shape: tuple[int, ...],
                  bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact re and im planes of the autocorrelation sum whose
    transform is `spectrum`, on the output shape 2*s - 1, with the
    forward transform's `tables`.  The forward transform of the spectrum
    in natural order is n * c(-d) at the bit-reversed position of d, so
    n * c(d) is read at that of -d.  From n = _LONG_LOOPS up, the split
    of re and im reduces by `_mod`; below, by `%`."""
    mod = tables.mod
    out = tuple(2 * s - 1 for s in shape)
    half = (math.prod(out) - 1) // 2
    rev = tables.reversal
    c = spectrum[:, rev].reshape(len(mod.primes), 1, -1)
    c = _ntt(c, tables)
    reduce = _mod if mod.n >= _LONG_LOOPS else np.remainder
    # n * c(d) for d = -half..half, read at the bit-reversed position of -d
    at = c[:, 0, rev[np.arange(half, -half - 1, -1) % mod.n]]
    flip = at[:, ::-1]  # n * c(-d)
    dtype = _exact_dtype(bound)
    x, y, planes = np.empty_like(at), np.empty_like(at), []
    for op, split in ((np.add, mod.split_re), (np.subtract, mod.split_im)):
        reduce(op(at, flip, out=x), mod.p, y)
        y *= split
        planes.append(_lift(reduce(y, mod.p, x), mod.primes, dtype).reshape(out))
    return tuple(planes)


def autocorrelation(a: Tensor) -> AutocorrResult:
    """R(delta) = sum_i a[i] * conj(a[i - delta]) for all shifts.

    Exact integers throughout (int64 when the output provably fits, else
    Python ints): the direct route's transform, once more on the
    spectrum to invert it, and a CRT lift over enough primes that their
    product exceeds twice the bound 2 * size * max**2.
    """
    bound = _autocorr_bound(a)
    tables = _tables(_moduli(a.shape, bound))
    re, im = _correlations(_spectrum([a], tables), tables, a.shape, bound)
    return AutocorrResult(Tensor(re, im), tuple(s - 1 for s in a.shape))


def weight(a: Tensor) -> int:
    """Sum of squared entry magnitudes."""
    return _weight(a, _autocorr_bound(a))


def _weight(a: Tensor, bound: int) -> int:
    """weight(a), summed in int64 when `bound`, at least the weight, fits."""
    total = 0
    for x in (a.re, a.im):
        x = x.astype(_exact_dtype(bound), copy=False).ravel()
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
    # a zero of the plane's own dtype: np.pad's default fills an object
    # plane with numpy int64 zeros, which Tensor refuses as entries
    return Tensor(*(np.pad(x, widths, constant_values=np.zeros((), x.dtype))
                    for x in (a.re, a.im)))


def _bounding_shape(arrays: Sequence[Tensor]) -> tuple[int, ...]:
    """The largest extent of the members along each axis."""
    return tuple(map(max, zip(*(a.shape for a in arrays))))


def _one_shape(arrays: Sequence[Tensor]) -> list[Tensor]:
    """The members zero-padded at the high end of each axis to the
    set's bounding shape.  Refuses an empty set, mixed ranks, and a
    bounding shape past every member and _PAD_CAP, as (n, 1), (1, n)."""
    arrays = list(arrays)
    if not arrays:
        raise EmptySet("no arrays given")
    rank = arrays[0].rank
    if any(a.rank != rank for a in arrays):
        raise RankMismatch(
            f"mixed ranks in set: {sorted({a.rank for a in arrays})}")
    bound = _bounding_shape(arrays)
    size = math.prod(bound)
    if size > max(_PAD_CAP, *(a.size for a in arrays)):
        raise ShapeMismatch(f"padding the set to its bounding shape {bound} "
                            f"makes members of {size} entries, over {_PAD_CAP}")
    return [pad_to(a, bound) for a in arrays]


def _judge(total_re: np.ndarray, total_im: np.ndarray, w: int) -> GcaVerdict:
    """Compare a summed autocorrelation with w * delta.  Sidelobe norms
    (big ints) are computed only if a sidelobe is nonzero."""
    center = tuple(s // 2 for s in total_re.shape)
    at_center = (int(total_re[center]), int(total_im[center]))
    # what is left once the center is cleared are the sidelobes
    total_re[center] = total_im[center] = 0
    max_side = 0
    if np.any(total_re) or np.any(total_im):
        max_side = int(np.max(total_re.astype(object) ** 2
                              + total_im.astype(object) ** 2))
    return GcaVerdict(at_center == (w, 0) and max_side == 0, w, max_side)


def is_gca_set(arrays: Sequence[Tensor]) -> GcaVerdict:
    """Definition check: autocorrelations must sum to weight * delta.

    Decided by the flat-spectrum identity in F_p: the set is accepted
    when its summed spectrum sum_i U_i * V_i is W mod p at every point
    of the transform, for every prime taken (see the module docstring:
    their product exceeds twice the bound on every summed component,
    which makes the test exact).  A rejection pays for the second
    transform and the CRT lift that give the exact max sidelobe norm.

    Members of mixed shapes are zero-padded to the set's bounding
    shape; an empty set is EmptySet, mixed ranks RankMismatch.  Padding
    past every member and past 2**20 entries, or a shape or entry size
    that no set of primes below 2**31 can serve, is refused
    (ShapeMismatch, GolayKitError) before anything is allocated.
    """
    arrays = _one_shape(arrays)
    shape = arrays[0].shape
    bounds = [_autocorr_bound(a) for a in arrays]
    bound = sum(bounds)
    tables = _tables(_moduli(shape, bound))
    w = sum(map(_weight, arrays, bounds))
    spectrum = _spectrum(arrays, tables)
    if all(np.all(s == w % p) for s, p in zip(spectrum, tables.mod.primes)):
        return GcaVerdict(True, w, 0)
    return _judge(*_correlations(spectrum, tables, shape, bound), w)


def jointly_complementary(arrays: Sequence[Tensor]) -> GcaVerdict:
    """The same verdict as `is_gca_set`, which zero-pads mixed shapes."""
    return is_gca_set(arrays)


def gca_check_polynomial(arrays: Sequence[Tensor]) -> bool:
    """Product check: sum of a * involute(a) must be weight * delta.

    An independent route from `is_gca_set`: exact convolutions of real
    planes, two per complex member and one per real member.  With
    a = re + i*im, u = re + im and P = re * flip(im), flip reversing
    every axis of the output, a * involute(a) has real part
    u * flip(u) - P - flip(P) and imaginary part flip(P) - P; a real
    member's product is re * flip(re).  The sums are kept in int64 only
    when a bound on them, 6 * size * max**2 per member, fits; each
    product is added on its own, in the sums' dtype.  Mixed shapes are
    zero-padded as in `is_gca_set`.
    """
    arrays = _one_shape(arrays)
    bounds = [_autocorr_bound(a) for a in arrays]
    total_re = np.zeros(tuple(2 * s - 1 for s in arrays[0].shape),
                        dtype=_exact_dtype(3 * sum(bounds)))
    total_im = np.zeros_like(total_re)
    flip = (slice(None, None, -1),) * arrays[0].rank

    def times_flip(x, y):
        """x * flip(y), for real planes x and y."""
        return convolve(Tensor._adopt(x), Tensor._adopt(y[flip])).re

    for a, bound in zip(arrays, bounds):
        if not np.count_nonzero(a.im):
            total_re += times_flip(a.re, a.re)
            continue
        u = np.add(a.re, a.im, dtype=_exact_dtype(bound))  # |u| <= 2 * max
        total_re += times_flip(u, u)
        del u  # freed, with each product, before the next is made
        p = times_flip(a.re, a.im)
        total_re -= p  # term by term: p + flip(p) may not fit p's dtype
        total_re -= p[flip]
        total_im += p[flip]
        total_im -= p
        del p
    w = sum(map(_weight, arrays, bounds))
    return _judge(total_re, total_im, w).is_complementary


_SPECTRUM_CAP = 10 ** 7  # grid points at most


def _fold(plane: np.ndarray, grid: int) -> np.ndarray:
    """plane summed modulo `grid` along every axis, exactly: shape
    (grid,) * rank, zero where an axis is shorter than the grid."""
    counts = [-(-s // grid) for s in plane.shape]
    padded = np.zeros([c * grid for c in counts], dtype=plane.dtype)
    padded[tuple(map(slice, plane.shape))] = plane
    split = [x for c in counts for x in (c, grid)]
    return padded.reshape(split).sum(axis=tuple(range(0, len(split), 2)))


def spectrum_flatness(arrays: Sequence[Tensor], grid: int = 16) -> float:
    """Worst relative deviation of the summed power spectrum from flat.

    Samples z_k = exp(2*pi*i*m_k/grid) on all grid points per axis and
    returns max |sum_i |A_i(z)|^2 - W| / W in float64.  On that grid
    A(z) is the grid**rank-point DFT of the array folded modulo grid on
    each axis, so each member is folded in exact integers and takes one
    FFT.  Diagnostic only; the exact checks above are authoritative.
    Sets are refused and padded as in `is_gca_set`.
    """
    arrays = _one_shape(arrays)
    if grid < 1:
        raise ShapeMismatch("grid must be positive")
    w = sum(weight(a) for a in arrays)
    if w == 0:
        raise EmptySet("zero total weight")
    # |A(z)|^2 <= size * weight, so below this bound nothing overflows
    if w * max(a.size for a in arrays) > 10 ** 300:
        raise GolayKitError("entries too large for a float64 spectrum")
    rank = arrays[0].rank
    if grid ** rank > _SPECTRUM_CAP:
        raise ShapeMismatch(f"a {grid}-point grid on rank {rank} "
                            f"needs over {_SPECTRUM_CAP} samples")
    power = 0
    for a in arrays:
        re, im = (_fold(x, grid).astype(np.float64) for x in (a.re, a.im))
        power = power + np.abs(np.fft.fftn(re + 1j * im)) ** 2
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
