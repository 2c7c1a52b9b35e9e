"""Exact Gaussian-integer tensor arithmetic.

Multidimensional arrays over Z[i] with the operations needed to build
complementary arrays: negation, conjugate-flip involution, aperiodic
(full) convolution, Kronecker product, concatenation, interleaving and
checked superposition.  All arithmetic is integer-exact; no floating
point is used anywhere in this module.

Entries are stored as two integer ndarrays (real and imaginary parts)
in row-major order with the last index varying fastest.  Arrays are
immutable once constructed.  int64 storage is used when safe and a
Python-object (big-int) fallback keeps results exact otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

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


def _as_plane(values: np.ndarray) -> np.ndarray:
    """Copy to int64 when it fits, else to object dtype, exactly."""
    arr = np.asarray(values)
    if arr.dtype == object:
        if all(isinstance(v, int) for v in arr.flat):
            big = any(abs(v) > np.iinfo(np.int64).max for v in arr.flat)
            return arr.copy() if big else arr.astype(np.int64)
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


def _coerce_entry(e) -> GaussInt:
    if isinstance(e, GaussInt):
        return e
    if isinstance(e, (int, np.integer)):
        return GaussInt(int(e), 0)
    if isinstance(e, complex):
        if e.real != int(e.real) or e.imag != int(e.imag):
            raise ParseError(f"non-integer entry: {e}")
        return GaussInt(int(e.real), int(e.imag))
    if isinstance(e, (tuple, list)) and len(e) == 2:
        return GaussInt(int(e[0]), int(e[1]))
    raise ParseError(f"cannot interpret entry: {e!r}")


def _same_shape(a: Tensor, b: Tensor) -> None:
    if a.rank != b.rank:
        raise RankMismatch(f"ranks differ: {a.rank} vs {b.rank}")
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Entrywise sum; shapes must match exactly."""
    _same_shape(a, b)
    return Tensor(a.re + b.re, a.im + b.im)


def negate(a: Tensor) -> Tensor:
    return Tensor(-a.re, -a.im)


def involute(a: Tensor) -> Tensor:
    """Conjugate every entry and reverse every axis.

    Self-inverse; the polynomial of the result is z^(s-1) * conj-poly,
    which is what makes products A * involute(A) encode autocorrelation.
    """
    rev = tuple(slice(None, None, -1) for _ in range(a.rank))
    return Tensor(a.re[rev], -a.im[rev])


def _exact_dtype(bound: int):
    """int64 when `bound`, a bound on the absolute value of every number a
    computation makes, fits in int64; object dtype (Python ints) else."""
    return np.int64 if bound < 1 << 63 else object


def _digits(parts: np.ndarray, width: int) -> list[int]:
    """Each row of nonnegative `parts` as the integer whose little-endian
    `width`-byte digits it holds: byte views of int64, or int.to_bytes."""
    if width <= 8:
        raw = parts.view(np.uint8).reshape(len(parts), -1, 8)[..., :width]
        return [int.from_bytes(r.tobytes(), "little") for r in raw]
    return [int.from_bytes(b"".join(int(v).to_bytes(width, "little") for v in r),
                           "little") for r in parts]


def _signed_digits(values: list[int], n: int, width: int) -> np.ndarray:
    """Row k: the `n` digits of values[k] in base 2**(8*width), each in
    [-2**(8*width-1), 2**(8*width-1)), lowest first."""
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    raw = b"".join((v + offset).to_bytes(n * width, "little") for v in values)
    if width > 8:
        return np.array([int.from_bytes(raw[k:k + width], "little") - half
                         for k in range(0, len(raw), width)],
                        dtype=object).reshape(len(values), n)
    digits = np.zeros((len(values) * n, 8), dtype=np.uint8)
    digits[:, :width] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)
    return (digits.view("<u8") - np.uint64(half)).view(np.int64).reshape(len(values), n)


def convolve(a: Tensor, b: Tensor) -> Tensor:
    """Full aperiodic convolution; output dims are s_k + t_k - 1.

    Exact Kronecker substitution: each plane, every axis but the first
    padded to its output width so that index sums never carry, becomes
    the digits of one integer (positive and negative parts apart), and
    big-integer products hold the output entries as digits.  The digit
    width comes from an exact bound on the output.
    """
    if a.rank != b.rank:
        raise RankMismatch(f"ranks differ: {a.rank} vs {b.rank}")
    out_shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))
    ma, mb = a.max_component(), b.max_component()
    # every output entry, and every input entry, fits in a signed digit
    width = (max(2 * min(a.size, b.size) * ma * mb, ma, mb).bit_length() + 8) // 8
    packed = []
    for t in (a, b):
        parts = np.zeros((4, t.shape[0]) + out_shape[1:],
                         dtype="<i8" if width <= 8 else object)
        parts[(slice(2),) + tuple(map(slice, t.shape))] = t.re, t.im
        np.negative(parts[:2], out=parts[2:])
        np.maximum(parts, 0, out=parts)
        pos_re, pos_im, neg_re, neg_im = _digits(parts.reshape(4, -1), width)
        packed.append((pos_re - neg_re, pos_im - neg_im))
    (ar, ai), (br, bi) = packed
    re, im = _signed_digits([ar * br - ai * bi, ar * bi + ai * br],
                            math.prod(out_shape), width)
    return Tensor(re.reshape(out_shape), im.reshape(out_shape))


def kron(a: Tensor, b: Tensor) -> Tensor:
    """Kronecker product; index k_l = i_l * t_l + j_l, dims multiply."""
    if a.rank != b.rank:
        raise RankMismatch(f"ranks differ: {a.rank} vs {b.rank}")
    # an output entry is a sum of two products of entries
    dtype = _exact_dtype(2 * a.max_component() * b.max_component())
    a_re, a_im, b_re, b_im = (p.astype(dtype) for p in (a.re, a.im, b.re, b.im))
    return Tensor(
        np.kron(a_re, b_re) - np.kron(a_im, b_im),
        np.kron(a_re, b_im) + np.kron(a_im, b_re),
    )


def concat(a: Tensor, b: Tensor, dim: int) -> Tensor:
    """Concatenate along axis `dim`; other dims must agree."""
    if a.rank != b.rank:
        raise RankMismatch(f"ranks differ: {a.rank} vs {b.rank}")
    if not 0 <= dim < a.rank:
        raise ShapeMismatch(f"dim {dim} out of range for rank {a.rank}")
    for k in range(a.rank):
        if k != dim and a.shape[k] != b.shape[k]:
            raise ShapeMismatch(
                f"shapes {a.shape} and {b.shape} differ off the concat axis"
            )
    return Tensor(
        np.concatenate([a.re, b.re], axis=dim),
        np.concatenate([a.im, b.im], axis=dim),
    )


def interleave(a: Tensor, b: Tensor, dim: int) -> Tensor:
    """Alternate entries of a and b along `dim`, a first.

    Sizes along `dim` must be equal (result 2s) or differ by one with a
    longer (result 2s+1, pattern a b a b ... a).
    """
    if a.rank != b.rank:
        raise RankMismatch(f"ranks differ: {a.rank} vs {b.rank}")
    if not 0 <= dim < a.rank:
        raise ShapeMismatch(f"dim {dim} out of range for rank {a.rank}")
    for k in range(a.rank):
        if k != dim and a.shape[k] != b.shape[k]:
            raise ShapeMismatch(
                f"shapes {a.shape} and {b.shape} differ off the interleave axis"
            )
    sa, sb = a.shape[dim], b.shape[dim]
    if sa not in (sb, sb + 1):
        raise ShapeMismatch(
            f"interleave needs sizes s,s or s+1,s along dim {dim}; got {sa},{sb}"
        )
    out_shape = list(a.shape)
    out_shape[dim] = sa + sb
    dtype = object if (a.re.dtype == object or b.re.dtype == object) else np.int64
    out_re = np.zeros(out_shape, dtype=dtype)
    out_im = np.zeros(out_shape, dtype=dtype)

    def lanes(start):
        sl = [slice(None)] * a.rank
        sl[dim] = slice(start, None, 2)
        return tuple(sl)

    out_re[lanes(0)] = a.re
    out_im[lanes(0)] = a.im
    out_re[lanes(1)] = b.re
    out_im[lanes(1)] = b.im
    return Tensor(out_re, out_im)


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
    dtype = object if a.re.dtype == object else np.int64
    out_re = np.zeros(out_shape, dtype=dtype)
    out_im = np.zeros(out_shape, dtype=dtype)
    lanes = tuple(slice(None, None, f) for f in factors)
    out_re[lanes] = a.re
    out_im[lanes] = a.im
    return Tensor(out_re, out_im)


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


def tensor_to_obj(a: Tensor, alphabet: Alphabet | None = None) -> dict:
    """Plain-dict form of the gca-tensor/1 wire format."""
    if alphabet is None:
        alphabet = alphabet_of(a)
    return {
        "format": "gca-tensor/1",
        "shape": list(a.shape),
        "order": "row-major-last-fastest",
        "entries": np.stack([a.re, a.im], axis=-1).reshape(-1, 2).tolist(),
        "alphabet": alphabet.value,
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
    t = Tensor(*planes)
    tag = obj.get("alphabet")
    if tag is not None:
        declared = Alphabet.from_tag(tag)
        if not declared.admits(alphabet_of(t)):
            raise ParseError(
                f"entries do not satisfy declared alphabet {declared.value!r}"
            )
    return t
