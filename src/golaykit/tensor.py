"""Exact Gaussian-integer tensor arithmetic.

Multidimensional arrays over Z[i] with the operations needed to build
complementary arrays: negation, conjugate-flip involution, aperiodic
(full) convolution, Kronecker product, concatenation, interleaving and
checked superposition.  All arithmetic is integer-exact; no floating
point is used anywhere in this module.

Entries are stored as two integer ndarrays (real and imaginary parts)
in row-major order with the last index varying fastest.  Arrays are
immutable once constructed.  int64 storage is used when safe and a
Python-object (big-int) fallback keeps results exact otherwise: numpy
wraps int64 array arithmetic silently, so a sum or a negation that
would wrap is made again in Python ints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import _toom
from .errors import (
    Collision,
    HalvingError,
    NonPolyphase,
    ParseError,
    QuarteringError,
    RankMismatch,
    ShapeMismatch,
)

__all__ = [
    "GaussInt",
    "Alphabet",
    "Tensor",
    "add",
    "negate",
    "involute",
    "convolve",
    "kron",
    "concat",
    "interleave",
    "checked_superpose",
    "halve",
    "quarter",
    "upsample",
    "reshape_to_sequence",
    "embed",
    "supports_disjoint",
    "supports_conjoint",
    "quasi_symmetric",
    "alphabet_of",
    "tensor_to_obj",
    "tensor_from_obj",
]


@dataclass(frozen=True)
class GaussInt:
    """A Gaussian integer re + im*i."""

    re: int
    im: int = 0

    def conjugate(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        """Squared magnitude re**2 + im**2."""
        return self.re * self.re + self.im * self.im

    def is_unit(self) -> bool:
        return self.norm() == 1

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


class Alphabet(Enum):
    """Entry alphabets, from most to least restrictive."""

    BINARY = "binary"
    QUATERNARY = "quaternary"
    POLYPHASE4_WITH_ZEROS = "polyphase4-with-zeros"
    GENERAL = "general"

    @classmethod
    def from_tag(cls, tag: str) -> "Alphabet":
        for member in cls:
            if member.value == tag:
                return member
        raise ParseError(f"unknown alphabet tag: {tag!r}")

    def admits(self, other: "Alphabet") -> bool:
        """True when every array over `other` is also over this alphabet."""
        return _ALPHABET_ORDER[other] <= _ALPHABET_ORDER[self]


_ALPHABET_ORDER = {member: k for k, member in enumerate(Alphabet)}


_MAX_RANK = 32  # numpy 1.x's limit on array axes


def _is_shape(shape, rank: int | None = None) -> bool:
    """True for a list of positive integers (booleans excluded): `rank`
    of them, or 1 to _MAX_RANK when `rank` is None."""
    ranks = range(1, _MAX_RANK + 1) if rank is None else (rank,)
    return (type(shape) is list and len(shape) in ranks
            and all(type(size) is int and size >= 1 for size in shape))


def _validate_shape(shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ShapeMismatch("rank must be at least 1")
    if any(s < 1 for s in shape):
        raise ShapeMismatch(f"all dimensions must be positive, got {shape}")
    return shape


_INT64 = np.iinfo(np.int64)


def _as_plane(values: np.ndarray) -> np.ndarray:
    """Copy to int64 when it fits, else to object dtype, exactly."""
    arr = np.asarray(values)
    if arr.dtype == np.uint64:  # its upper half does not fit int64
        arr = arr.astype(object)
    if arr.dtype == object:
        if all(isinstance(v, int) for v in arr.flat):
            fits = all(_INT64.min <= v <= _INT64.max for v in arr.flat)
            return arr.astype(np.int64) if fits else arr.copy()
        raise ParseError("entries must be integers")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ParseError("entries must be integers")
    return arr.astype(np.int64)


class Tensor:
    """Immutable multidimensional array over Z[i].

    Stored as two same-shape integer ndarrays `re` and `im`, row-major
    with the last index varying fastest.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: np.ndarray, im: np.ndarray):
        re = _as_plane(re)
        im = _as_plane(im)
        if re.shape != im.shape:
            raise ShapeMismatch("real and imaginary parts must have equal shapes")
        _validate_shape(re.shape)
        re.flags.writeable = False
        im.flags.writeable = False
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.re.shape)

    @property
    def rank(self) -> int:
        return self.re.ndim

    @property
    def size(self) -> int:
        return int(self.re.size)

    @classmethod
    def from_entries(
        cls, shape: Sequence[int], entries: Iterable[GaussInt | int | complex | tuple]
    ) -> "Tensor":
        """Build from a flat row-major entry list."""
        shape = _validate_shape(shape)
        res, ims = [], []
        for e in entries:
            g = _coerce_entry(e)
            res.append(g.re)
            ims.append(g.im)
        n = int(np.prod(shape))
        if len(res) != n:
            raise ShapeMismatch(f"expected {n} entries for shape {shape}, got {len(res)}")
        re = np.array(res, dtype=object).reshape(shape)
        im = np.array(ims, dtype=object).reshape(shape)
        return cls(re, im)

    @classmethod
    def sequence(cls, values: Iterable[GaussInt | int | complex | tuple]) -> "Tensor":
        """1-D convenience constructor."""
        vals = list(values)
        return cls.from_entries((len(vals),), vals)

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "Tensor":
        shape = _validate_shape(shape)
        return cls(np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64))

    @classmethod
    def unit(cls, shape: Sequence[int]) -> "Tensor":
        """All-ones array (every entry 1)."""
        shape = _validate_shape(shape)
        return cls(np.ones(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64))

    @classmethod
    def _adopt(cls, re: np.ndarray, im: np.ndarray | None = None) -> "Tensor":
        """A Tensor on `re` and `im` as they are, without a copy or checks:
        for int64 planes, or object planes of Python ints, just made or
        viewed from a Tensor.  `im` defaults to a `_zeros` plane."""
        re = re.view()  # read-only views: the given arrays keep their flags
        im = _zeros(re.shape) if im is None else im.view()
        re.flags.writeable = im.flags.writeable = False
        t = object.__new__(cls)
        object.__setattr__(t, "re", re)
        object.__setattr__(t, "im", im)
        return t

    def __getitem__(self, idx) -> GaussInt:
        r = self.re[idx]
        i = self.im[idx]
        if isinstance(r, np.ndarray):
            raise IndexError("full multi-index required")
        return GaussInt(int(r), int(i))

    def entries(self) -> list[GaussInt]:
        """Row-major flat entry list."""
        return [GaussInt(int(r), int(i)) for r, i in zip(self.re.flat, self.im.flat)]

    def support(self) -> np.ndarray:
        """Boolean mask of nonzero positions."""
        return (self.re != 0) | (self.im != 0)

    def max_component(self) -> int:
        """Largest absolute value of any real or imaginary part, exactly."""
        re, im = self.re, self.im
        return max(int(re.max()), -int(re.min()), int(im.max()), -int(im.min()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.re, other.re)
            and np.array_equal(self.im, other.im)
        )

    def __hash__(self) -> int:
        return hash((self.shape, tuple(int(v) for v in self.re.flat),
                     tuple(int(v) for v in self.im.flat)))

    def __neg__(self) -> "Tensor":
        return negate(self)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return add(self, negate(other))

    def __repr__(self) -> str:
        if self.rank == 1 and self.size <= 16:
            return f"Tensor([{', '.join(map(repr, self.entries()))}])"
        return f"Tensor(shape={self.shape})"


def _part(x) -> int:
    """An int or numpy integer as int; booleans, floats, strings and the
    rest are refused, as in gca-tensor/1."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    raise ParseError(f"entry parts must be integers, got {x!r}")


def _coerce_entry(e) -> GaussInt:
    if isinstance(e, complex):
        if not (e.real.is_integer() and e.imag.is_integer()):
            raise ParseError(f"non-integer entry: {e}")
        return GaussInt(int(e.real), int(e.imag))
    if isinstance(e, GaussInt):
        re, im = e.re, e.im
    elif isinstance(e, (tuple, list)) and len(e) == 2:
        re, im = e
    else:
        re, im = e, 0
    return GaussInt(_part(re), _part(im))


def _same_shape(a: Tensor, b: Tensor) -> None:
    if a.rank != b.rank:
        raise RankMismatch(f"ranks differ: {a.rank} vs {b.rank}")
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")


def _sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y exactly: in Python ints when an int64 sum wraps, as it
    does where its sign differs from both terms'."""
    s = x + y
    if s.dtype == np.int64 and ((x ^ s) & (y ^ s)).min() < 0:
        return x.astype(object) + y
    return s


def _negative(x: np.ndarray) -> np.ndarray:
    """-x exactly: in Python ints when an int64 x holds -2**63."""
    if x.dtype == np.int64 and x.min() == _INT64.min:
        x = x.astype(object)
    return -x


def _made(re: np.ndarray, im: np.ndarray) -> Tensor:
    """A Tensor on planes just made from Tensor planes: int64 ones as
    they are, others through `Tensor`, which casts what fits to int64."""
    if re.dtype == im.dtype == np.int64:
        return Tensor._adopt(re, im)
    return Tensor(re, im)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Entrywise sum; shapes must match exactly."""
    _same_shape(a, b)
    return _made(_sum(a.re, b.re), _sum(a.im, b.im))


def negate(a: Tensor) -> Tensor:
    return _made(_negative(a.re), _negative(a.im))


def involute(a: Tensor) -> Tensor:
    """Conjugate every entry and reverse every axis.

    Self-inverse; the polynomial of the result is z^(s-1) * conj-poly,
    which is what makes products A * involute(A) encode autocorrelation.
    """
    rev = tuple(slice(None, None, -1) for _ in range(a.rank))
    return _made(a.re[rev], _negative(a.im[rev]))


def _zeros(shape: Sequence[int]) -> np.ndarray:
    """A read-only int64 zero plane of `shape` that takes no memory: one
    zero, every stride 0."""
    return np.ndarray(shape, dtype=np.int64, buffer=bytes(8), strides=(0,) * len(shape))


def _is_zero(plane: np.ndarray) -> bool:
    """Whether every entry of `plane` is 0: its one stored entry when
    every stride is 0, as in a `_zeros` plane, else a count."""
    if not any(plane.strides):
        return not plane.flat[0]
    return not np.count_nonzero(plane)


def _exact_dtype(bound: int):
    """int64 when `bound`, a bound on the absolute value of every number a
    computation makes, fits in int64; object dtype (Python ints) else."""
    return np.int64 if bound < 1 << 63 else object


def _layout(planes, out_shape: Sequence[int]) -> np.ndarray:
    """Same-shape `planes` (a sequence, or one array stacked on axis 0)
    laid out in the row-major strides of the larger `out_shape`, as
    (rows, L): every axis but the first is zero-padded to its width in
    `out_shape`.  Where out >= 2s - 1 on those axes, sums and differences
    of flat offsets never carry between axes.  The dtype is promoted
    over all planes; a stacked array that needs no padding comes back as
    a view, a sequence as a new array."""
    planes = np.asarray(planes)
    rows, shape = planes.shape[0], planes.shape[1:]
    # the row length is explicit: reshape cannot infer it with no rows
    length = shape[0] * math.prod(out_shape[1:])
    if shape[1:] == tuple(out_shape[1:]):
        return planes.reshape(rows, length)
    out = np.zeros((rows, shape[0]) + tuple(out_shape[1:]), dtype=planes.dtype)
    out[(slice(None),) + tuple(map(slice, shape))] = planes
    return out.reshape(rows, length)


def _offset(n: int, width: int) -> int:
    """The integer whose `n` base-2**(8*width) digits are all half a digit."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _digits(parts: np.ndarray, width: int, k: int = 1) -> list[int]:
    """Each row of `parts`, entries in [-2**(8*width-1), 2**(8*width-1)),
    as the integer whose base-2**(8*width) digits it holds, lowest first:
    the row plus half a digit, read as unsigned little-endian digits
    (byte views of uint64, or int.to_bytes), less `_offset`.  At k = 2
    (entries above -2**(8*width-1)) the rows follow once more with odd
    offsets negated, in place: as unsigned, x + half becomes
    2**(8*width) - (x + half) = -x + half.  An int64 `parts` is
    overwritten."""
    half, offset = 1 << (8 * width - 1), _offset(parts.shape[1], width)
    if width > 8:
        return [int.from_bytes(b"".join((half + (-v if j & odd else v)).to_bytes(width, "little")
                                        for j, v in enumerate(map(int, r))), "little") - offset
                for odd in range(k) for r in parts]
    biased = parts.astype("<i8", copy=False).view("<u8")
    biased += np.uint64(half)  # as unsigned: x + half, below 2**(8*width)
    raw = biased.view(np.uint8).reshape(len(parts), -1, 8)[..., :width]
    out = [int.from_bytes(r.tobytes(), "little") - offset for r in raw]
    if k == 2:
        np.negative(biased[:, 1::2], out=biased[:, 1::2])  # modulo 2**64
        out += [int.from_bytes(r.tobytes(), "little") - offset for r in raw]
    return out


def _signed_digits(values: list[int], n: int, width: int) -> np.ndarray:
    """Row k: the `n` digits of values[k] in base 2**(8*width), each in
    [-2**(8*width-1), 2**(8*width-1)), lowest first."""
    half, offset = 1 << (8 * width - 1), _offset(n, width)
    raw = b"".join((v + offset).to_bytes(n * width, "little") for v in values)
    if width > 8:
        return np.array([int.from_bytes(raw[k:k + width], "little") - half
                         for k in range(0, len(raw), width)],
                        dtype=object).reshape(len(values), n)
    digits = np.zeros((len(values) * n, 8), dtype=np.uint8)
    digits[:, :width] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)
    unsigned = digits.view("<u8")
    unsigned -= np.uint64(half)  # in place
    return unsigned.view(np.int64).reshape(len(values), n)


def convolve(a: Tensor, b: Tensor) -> Tensor:
    """Full aperiodic convolution; output dims are s_k + t_k - 1.

    Exact Kronecker substitution: each plane, every axis but the first
    padded to its output width so that index sums never carry, becomes
    the signed digits of one integer, and big-integer products hold the
    output entries as digits: four products in general, one when both
    operands are real (only their `re` planes are packed, and the
    output's `im` is a `_zeros` plane).  The digit width comes from an
    exact bound on the output: min(size) * ma * mb per product term, ma
    and mb the largest components of the packed planes.  From
    `_toom._HALVE` bits of output, when half the width still holds every
    input part, each plane is packed at half the width, once as it is
    and once with odd flat offsets negated (its value at -B), and
    `_toom.products` splits the two products into the even- and
    odd-offset entries, as digits of twice the half width.
    """
    if a.rank != b.rank:
        raise RankMismatch(f"ranks differ: {a.rank} vs {b.rank}")
    out_shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))
    real = _is_zero(a.im) and _is_zero(b.im)
    rows = [_layout((t.re,) if real else (t.re, t.im), out_shape) for t in (a, b)]
    ma, mb = (max(int(r.max()), -int(r.min())) for r in rows)
    terms = 1 if real else 2
    # every output entry, and every input entry, fits in a signed digit
    width = (max(terms * min(a.size, b.size) * ma * mb, ma, mb).bit_length() + 8) // 8
    n = math.prod(out_shape)
    k = _toom.point_count(width, n, max(ma, mb))
    width = -(-width // k)  # at +-B of half the width from k = 2 points
    packed = [_digits(r, width, k) for r in rows]
    del rows
    values = _toom.products(*packed, k, 8 * width)
    if k == 1:
        return Tensor._adopt(*_signed_digits(values, n, width).reshape((terms,) + out_shape))
    # E and O of each plane, one at a time: the entries at even and odd flat offsets
    out = np.empty((terms, n), dtype=np.int64 if width <= 4 else object)
    for j, v in enumerate(values):
        out[j // 2, j % 2::2] = _signed_digits([v], (n + 1 - j % 2) // 2, 2 * width)[0]
    return Tensor._adopt(*out.reshape((terms,) + out_shape))


def kron(a: Tensor, b: Tensor) -> Tensor:
    """Kronecker product; index k_l = i_l * t_l + j_l, dims multiply.

    One broadcast product per pair of planes: `a` as (s1, 1, s2, 1, ...)
    times `b` as (1, t1, 1, t2, ...), read row-major as (s1 t1, s2 t2,
    ...).  Two real operands make one product and a `_zeros` imaginary
    plane; their `im` planes are neither bounded nor cast.  int64
    results are adopted without a copy; object results (a bound past
    int64) go through `Tensor`, so planes come back int64 whenever their
    entries fit.  Sizes are capped where a recipe is parsed."""
    if a.rank != b.rank:
        raise RankMismatch(f"ranks differ: {a.rank} vs {b.rank}")
    out = tuple(s * t for s, t in zip(a.shape, b.shape))
    real = _is_zero(a.im) and _is_zero(b.im)
    # only the planes multiplied are bounded and cast: an output entry
    # is one product of their entries, or a sum of two
    pa, pb = ((t.re,) if real else (t.re, t.im) for t in (a, b))
    ma, mb = (max(max(int(p.max()), -int(p.min())) for p in ps) for ps in (pa, pb))
    dtype = _exact_dtype(len(pa) * ma * mb)
    sa = [d for s in a.shape for d in (s, 1)]
    sb = [d for t in b.shape for d in (1, t)]
    x = [p.astype(dtype, copy=False).reshape(sa) for p in pa]
    y = [p.astype(dtype, copy=False).reshape(sb) for p in pb]
    if real:
        planes = [(x[0] * y[0]).reshape(out), _zeros(out)]
    else:
        (xr, xi), (yr, yi) = x, y
        planes = [(xr * yr - xi * yi).reshape(out), (xr * yi + xi * yr).reshape(out)]
    return Tensor(*planes) if dtype is object else Tensor._adopt(*planes)


def _joinable(a: Tensor, b: Tensor, dim: int, what: str) -> None:
    """Refuse to join a and b along `dim` unless they share a rank, dim
    is one of its axes, and their sizes agree off it."""
    if a.rank != b.rank:
        raise RankMismatch(f"ranks differ: {a.rank} vs {b.rank}")
    if not 0 <= dim < a.rank:
        raise ShapeMismatch(f"dim {dim} out of range for rank {a.rank}")
    if any(k != dim and a.shape[k] != b.shape[k] for k in range(a.rank)):
        raise ShapeMismatch(
            f"shapes {a.shape} and {b.shape} differ off the {what} axis")


def _placed(shape: Sequence[int], *parts: tuple[tuple, Tensor]) -> Tensor:
    """Zeros of `shape` with each (lanes, tensor) of `parts` assigned at
    its lanes, an index of strided slices; object planes if any tensor
    has them."""
    dtype = object if any(t.re.dtype == object for _, t in parts) else np.int64
    re, im = np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype)
    for lanes, t in parts:
        re[lanes], im[lanes] = t.re, t.im
    return Tensor(re, im)


def concat(a: Tensor, b: Tensor, dim: int) -> Tensor:
    """Concatenate along axis `dim`; other dims must agree."""
    _joinable(a, b, dim, "concat")
    return Tensor(
        np.concatenate([a.re, b.re], axis=dim),
        np.concatenate([a.im, b.im], axis=dim),
    )


def interleave(a: Tensor, b: Tensor, dim: int) -> Tensor:
    """Alternate entries of a and b along `dim`, a first.

    Sizes along `dim` must be equal (result 2s) or differ by one with a
    longer (result 2s+1, pattern a b a b ... a).
    """
    _joinable(a, b, dim, "interleave")
    sa, sb = a.shape[dim], b.shape[dim]
    if sa not in (sb, sb + 1):
        raise ShapeMismatch(
            f"interleave needs sizes s,s or s+1,s along dim {dim}; got {sa},{sb}"
        )
    out_shape = a.shape[:dim] + (sa + sb,) + a.shape[dim + 1:]
    lanes = [(slice(None),) * dim + (slice(k, None, 2),) for k in (0, 1)]
    return _placed(out_shape, (lanes[0], a), (lanes[1], b))


def checked_superpose(*terms: Tensor) -> Tensor:
    """Sum of same-shape terms whose supports must not overlap.

    Raises Collision with the first offending position (row-major) if
    any two terms are simultaneously nonzero somewhere.
    """
    if not terms:
        raise ShapeMismatch("checked_superpose needs at least one term")
    first = terms[0]
    for t in terms[1:]:
        _same_shape(first, t)
    counts = np.zeros(first.shape, dtype=np.int64)
    for t in terms:
        counts += t.support().astype(np.int64)
    if np.any(counts > 1):
        pos = np.argwhere(counts > 1)[0]
        raise Collision(tuple(int(p) for p in pos))
    out = terms[0]
    for t in terms[1:]:
        out = add(out, t)
    return out


def _exact_div(a: Tensor, k: int, err) -> Tensor:
    for plane in (a.re, a.im):
        rem = plane % k
        if np.any(rem != 0):
            pos = np.argwhere(rem != 0)[0]
            raise err(f"entry at {tuple(int(p) for p in pos)} not divisible by {k}")
    return Tensor(a.re // k, a.im // k)


def halve(a: Tensor) -> Tensor:
    """Exact division by 2; HalvingError if any component is odd."""
    return _exact_div(a, 2, HalvingError)


def quarter(a: Tensor) -> Tensor:
    """Exact division by 4; QuarteringError on any non-multiple of 4."""
    return _exact_div(a, 4, QuarteringError)


def upsample(a: Tensor, factors: Sequence[int]) -> Tensor:
    """Insert factors[k]-1 zeros between entries along each axis.

    Output dims are (s_k - 1) * factors[k] + 1, so that
    convolve(upsample(a, t.shape), t) == kron(a, t).
    """
    factors = tuple(int(f) for f in factors)
    if len(factors) != a.rank:
        raise RankMismatch("one factor per axis required")
    if any(f < 1 for f in factors):
        raise ShapeMismatch("factors must be positive")
    out_shape = tuple((s - 1) * f + 1 for s, f in zip(a.shape, factors))
    return _placed(out_shape, (tuple(slice(None, None, f) for f in factors), a))


def reshape_to_sequence(a: Tensor) -> Tensor:
    """Read a rank-2 array out column by column as one sequence.

    Entry (i, j) lands at position i + j * s1.  Complementarity is
    preserved for pairs whose first dimension matches the column length.
    """
    if a.rank != 2:
        raise RankMismatch(f"expected rank 2, got {a.rank}")
    return Tensor(a.re.ravel(order="F"), a.im.ravel(order="F"))


def embed(a: Tensor, rank: int, axis: int) -> Tensor:
    """Place a 1-D tensor along `axis` of a rank-`rank` array of 1s elsewhere."""
    if a.rank != 1:
        raise RankMismatch("embed expects a 1-D tensor")
    if not 0 <= axis < rank:
        raise ShapeMismatch(f"axis {axis} out of range for rank {rank}")
    shape = [1] * rank
    shape[axis] = a.shape[0]
    return Tensor(a.re.reshape(shape), a.im.reshape(shape))


def supports_disjoint(a: Tensor, b: Tensor) -> bool:
    """True when a and b are never both nonzero at the same position."""
    _same_shape(a, b)
    return not np.any(a.support() & b.support())


def supports_conjoint(a: Tensor, b: Tensor) -> bool:
    """True when a and b have identical supports."""
    _same_shape(a, b)
    return bool(np.array_equal(a.support(), b.support()))


def quasi_symmetric(a: Tensor) -> bool:
    """True when the support is invariant under reversing every axis."""
    rev = tuple(slice(None, None, -1) for _ in range(a.rank))
    s = a.support()
    return bool(np.array_equal(s, s[rev]))


def alphabet_of(a: Tensor) -> Alphabet:
    """Most restrictive alphabet the entries satisfy."""
    re, im = a.re, a.im
    zero = (re == 0) & (im == 0)
    real_unit = (np.abs(re) == 1) & (im == 0)
    imag_unit = (re == 0) & (np.abs(im) == 1)
    if bool(np.all(real_unit)):
        return Alphabet.BINARY
    if bool(np.all(real_unit | imag_unit)):
        return Alphabet.QUATERNARY
    if bool(np.all(real_unit | imag_unit | zero)):
        return Alphabet.POLYPHASE4_WITH_ZEROS
    return Alphabet.GENERAL


def tensor_to_obj(a: Tensor) -> dict:
    """Plain-dict form of the gca-tensor/1 wire format."""
    return {
        "format": "gca-tensor/1",
        "shape": list(a.shape),
        "order": "row-major-last-fastest",
        "entries": np.stack([a.re, a.im], axis=-1).reshape(-1, 2).tolist(),
        "alphabet": alphabet_of(a).value,
    }


def tensor_from_obj(obj: dict) -> Tensor:
    """Parse the gca-tensor/1 wire format; ParseError on any mismatch.

    `shape` is a list of 1 to _MAX_RANK positive ints and `entries` a
    list of [re, im] pairs of ints, one per position: no booleans, no
    floats, no strings.
    """
    if not isinstance(obj, dict):
        raise ParseError("tensor document must be an object")
    if obj.get("format") != "gca-tensor/1":
        raise ParseError(f"unsupported format: {obj.get('format')!r}")
    order = obj.get("order", "row-major-last-fastest")
    if order != "row-major-last-fastest":
        raise ParseError(f"unsupported entry order: {order!r}")
    shape, entries = obj.get("shape"), obj.get("entries")
    if not _is_shape(shape):
        raise ParseError(f"shape must be a list of 1 to {_MAX_RANK} "
                         f"positive integers, got {shape!r}")
    n = math.prod(shape)
    if type(entries) is not list or len(entries) != n:
        raise ParseError(f"shape {shape} needs a list of {n} entries")
    for e in entries:
        if (type(e) is not list or len(e) != 2
                or type(e[0]) is not int or type(e[1]) is not int):
            raise ParseError(f"an entry must be [re, im], two integers; "
                             f"got {e!r}")
    planes = []
    for part in (0, 1):
        values = [e[part] for e in entries]
        try:
            plane = np.array(values, dtype=np.int64)
        except OverflowError:
            plane = np.array(values, dtype=object)
        planes.append(plane.reshape(shape))
    t = Tensor._adopt(*planes)  # fresh planes of checked integers
    tag = obj.get("alphabet")
    if tag is not None:
        declared = Alphabet.from_tag(tag)
        if not declared.admits(alphabet_of(t)):
            raise ParseError(
                f"entries do not satisfy declared alphabet {declared.value!r}"
            )
    return t
