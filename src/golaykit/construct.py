"""Recursive constructions of Golay complementary arrays.

Each set is checked once: `assemble` checks each set it makes and
marks it, and every operation returns through it, so a slip in any
formula raises VerificationFailed instead of propagating a bad array.
An operation assembles only the set it returns: intermediates (the
mask and middle pairs of `glue_pair`) stay plain arrays, which the
output's check covers, so inside `planner.execute` the check runs once
per recipe node.  Outside `execute` it takes both exact verification
routes; inside it (`_direct_only`, set only there), the direct route,
and `execute` runs the product route on the set it returns.  Only
unmarked sets (a GcaSet built directly, or parsed with verify=False)
are checked again.  Sizes are capped when a recipe is parsed.

A set is its arrays (GcaSet): its alphabet, role and shape are read
from them, and a construction that needs a support pattern checks the
arrays themselves, as its consumer: a tile's pattern is checked by
`lagrange_quad`, not by the operation that lays the tile out.

Pairs and quads come from two ring identities, each written once (~ is
`involute`, x is `kron`): Turyn's two-term product (X x I + Y x J,
~Y x I - ~X x J) in `_turyn`, and its binder-flipped twin
(X x I + Y x J, X x ~J - Y x ~I) in `_binder_turyn`.  Disjoint halves
and mask quarters come from one sum/difference split, `_split`.
"""
from __future__ import annotations

import contextvars
import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    NonPolyphase,
    NotBinary,
    NotComplementary,
    NotDisjoint,
    ParseError,
    RankMismatch,
    ShapeMismatch,
    StructureFailed,
    Trivial,
    VerificationFailed,
)
from .tensor import (
    Alphabet,
    Tensor,
    add,
    alphabet_of,
    checked_superpose,
    concat,
    halve,
    interleave,
    involute,
    kron,
    negate,
    quarter,
    quasi_symmetric,
    supports_conjoint,
    supports_disjoint,
    tensor_from_obj,
    tensor_to_obj,
)
from .verify import (
    _bounding_shape,
    binary_pair_symmetry,
    gca_check_polynomial,
    is_gca_set,
    jointly_complementary,
    weight,
)

__all__ = [
    "GcaSet",
    "pair",
    "quad",
    "binary_turyn_pair",
    "concat_pair",
    "disjoint_mask_pair",
    "disjoint_from_pair",
    "glue_pair",
    "cross_set",
    "interleave_quad",
    "concat_zero_quad",
    "lagrange_quad",
    "expand_quad",
    "compromise_quad",
    "set_to_obj",
    "set_from_obj",
]


@dataclass(frozen=True)
class GcaSet:
    """A complementary set of Gaussian-integer arrays.

    Only the arrays and their lineage are stored: the alphabet, the role
    ("pair", "quad" or "set-n" by member count) and the shape (the
    bounding shape the verification routes pad to) are read from the
    arrays.  Only `assemble` sets `verified`, once its check passes:
    both exact routes, or the direct route alone for a set built inside
    `planner.execute`, which checks the set it returns by both.  The
    constructor and `dataclasses.replace` give an unmarked set, which
    consumers check again.
    """

    arrays: tuple[Tensor, ...]
    lineage: str = ""
    verified: bool = field(default=False, init=False, compare=False,
                           repr=False)

    def __post_init__(self):
        object.__setattr__(self, "arrays", tuple(self.arrays))

    @functools.cached_property
    def alphabet(self) -> Alphabet:
        """The most restrictive alphabet that admits every member."""
        return max(map(alphabet_of, self.arrays), key=list(Alphabet).index)

    @property
    def role(self) -> str:
        return _role_for(len(self.arrays))

    @property
    def shape(self) -> tuple[int, ...]:
        return _bounding_shape(self.arrays)

    @property
    def rank(self) -> int:
        return self.arrays[0].rank

    def uniform_shape(self) -> bool:
        return len({a.shape for a in self.arrays}) == 1

    def total_weight(self) -> int:
        return sum(weight(a) for a in self.arrays)


def _role_for(n: int) -> str:
    return {2: "pair", 4: "quad"}.get(n, f"set-{n}")


_direct_only = contextvars.ContextVar("_direct_only", default=False)


def assemble(arrays: Sequence[Tensor], lineage: str) -> GcaSet:
    """Check a set of arrays by both exact routes (which zero-pad mixed
    shapes) and wrap it, with its lineage, as a set marked verified.
    With `_direct_only` set (inside `planner.execute`) only the direct
    route runs here."""
    arrays = tuple(arrays)
    where = lineage or "assemble"
    verdict = is_gca_set(arrays)
    if not verdict.is_complementary:
        raise VerificationFailed(
            f"{where}: autocorrelation check failed "
            f"(max sidelobe norm {verdict.max_sidelobe_norm})"
        )
    if not _direct_only.get() and not gca_check_polynomial(arrays):
        raise VerificationFailed(f"{where}: polynomial product check failed")
    out = GcaSet(arrays, lineage)
    object.__setattr__(out, "verified", True)
    return out


def pair(a: Tensor, b: Tensor, lineage: str = "pair") -> GcaSet:
    return assemble([a, b], lineage)


def quad(a: Tensor, b: Tensor, c: Tensor, d: Tensor,
         lineage: str = "quad") -> GcaSet:
    return assemble([a, b, c, d], lineage)


def _require_role(gs: GcaSet, role: str, what: str) -> None:
    if gs.role != role:
        raise ShapeMismatch(f"{what} must be a {role}, got {gs.role}")


def _require_binary(gs: GcaSet, what: str) -> None:
    if gs.alphabet is not Alphabet.BINARY:
        raise NotBinary(f"{what} must be binary, is {gs.alphabet.value}")


def _require_same_rank(*sets: GcaSet) -> int:
    rank = sets[0].rank
    for s in sets[1:]:
        if s.rank != rank:
            raise RankMismatch(
                f"inputs have different ranks: {[x.rank for x in sets]}"
            )
    return rank


def _polyphase(gs: GcaSet) -> bool:
    return gs.alphabet in (Alphabet.BINARY, Alphabet.QUATERNARY)


# the identities ------------------------------------------------------------

def _turyn(x: Tensor, y: Tensor, i: Tensor, j: Tensor,
           join=checked_superpose) -> tuple[Tensor, Tensor]:
    """Turyn's two-term product (X x I + Y x J, ~Y x I - ~X x J), each
    sum formed by `join`."""
    return (join(kron(x, i), kron(y, j)),
            join(kron(involute(y), i), negate(kron(involute(x), j))))


def _binder_turyn(x: Tensor, y: Tensor, i: Tensor,
                  j: Tensor) -> tuple[Tensor, Tensor]:
    """The binder-flipped twin (X x I + Y x J, X x ~J - Y x ~I)."""
    return (checked_superpose(kron(x, i), kron(y, j)),
            checked_superpose(kron(x, involute(j)), negate(kron(y, involute(i)))))


def _split(x: Tensor, y: Tensor, divide) -> tuple[Tensor, Tensor]:
    """The sum/difference split (divide(x + y), divide(x - y))."""
    return divide(add(x, y)), divide(x - y)


# pair constructions -------------------------------------------------------

def binary_turyn_pair(ab: GcaSet, cd: GcaSet) -> GcaSet:
    """Binary pair of dims s_k * t_k from two binary pairs.

    The second pair is split into disjoint halves (C+D)/2 and (C-D)/2,
    which tile the output so every entry stays +-1.
    """
    _require_role(ab, "pair", "first input")
    _require_role(cd, "pair", "second input")
    _require_binary(ab, "first input")
    _require_binary(cd, "second input")
    _require_same_rank(ab, cd)
    out = assemble(_turyn(*ab.arrays, *_split(*cd.arrays, halve)),
                   "binary_turyn_pair")
    if out.alphabet is not Alphabet.BINARY:
        raise NonPolyphase("binary_turyn_pair: a zero or non-binary entry survived")
    return out


def concat_pair(ab: GcaSet, cd: GcaSet, dim: int) -> GcaSet:
    """Pair with 2 s_i t_i along `dim` by concatenating two products."""
    _require_role(ab, "pair", "first input")
    _require_role(cd, "pair", "second input")
    rank = _require_same_rank(ab, cd)
    if not 0 <= dim < rank:
        raise ShapeMismatch(f"dim {dim} out of range for rank {rank}")
    return assemble(_turyn(*ab.arrays, *cd.arrays,
                           lambda u, v: concat(u, v, dim)), "concat_pair")


def _mask_arrays(ab: GcaSet) -> tuple[Tensor, Tensor]:
    """The arrays of `disjoint_mask_pair(ab)`, not assembled."""
    _require_role(ab, "pair", "input")
    _require_binary(ab, "input")
    a, b = ab.arrays
    if a.size == 1:
        raise Trivial("single-entry pair has no mask pair")
    if a.rank == 1 and not ab.verified and not binary_pair_symmetry(a, b):
        raise NotComplementary("end-to-end sign rule failed")
    p, q = _split(add(a, b), involute(b) - involute(a), quarter)
    counts = sum(t.support().astype(np.int64)
                 for t in (p, q, involute(p), involute(q)))
    if not np.all(counts == 1):
        pos = np.argwhere(counts != 1)[0]
        raise StructureFailed(
            f"mask rule violated at {tuple(int(x) for x in pos)}"
        )
    return p, q


def disjoint_mask_pair(ab: GcaSet) -> GcaSet:
    """Zero-or-sign mask pair (A+B+(B*-A*))/4, (A+B-(B*-A*))/4.

    Requires a nontrivial binary pair, checked for the end-to-end sign
    rule when 1-D and unmarked; the output satisfies the
    exactly-one-of-four support rule that the gluing construction
    relies on, re-checked here.
    """
    return assemble(_mask_arrays(ab), "disjoint_mask_pair")


def disjoint_from_pair(cd: GcaSet) -> GcaSet:
    """Disjoint half-sum pair (C+D)/2, (C-D)/2 from a binary pair."""
    _require_role(cd, "pair", "input")
    _require_binary(cd, "input")
    i_half, j_half = _split(*cd.arrays, halve)
    if not supports_disjoint(i_half, j_half):
        raise NotDisjoint("halves unexpectedly overlap")
    return assemble([i_half, j_half], "disjoint_from_pair")


def glue_pair(binder: GcaSet, cd: GcaSet, ef: GcaSet) -> GcaSet:
    """Pair of dims s_k t_k u_k gluing two pairs with a binary binder.

    The binder is reduced to a mask pair (P, Q); X = P*C + Q*D and
    Y = Q'*C - P'*D interleave the two middle pairs on disjoint
    supports, and a product step with the last pair fills every cell.
    """
    _require_role(cd, "pair", "second input")
    _require_role(ef, "pair", "third input")
    _require_same_rank(binder, cd, ef)
    middle = _turyn(*_mask_arrays(binder), *cd.arrays)
    out = assemble(_turyn(*middle, *ef.arrays), "glue_pair")
    if not _polyphase(out):
        raise NonPolyphase("glue_pair: a zero survived")
    return out


# set products -------------------------------------------------------------

def cross_set(first: GcaSet, second: GcaSet) -> GcaSet:
    """All pairwise Kronecker products; cardinalities multiply."""
    _require_same_rank(first, second)
    if not first.uniform_shape() or not second.uniform_shape():
        raise ShapeMismatch("cross_set inputs must have uniform shapes")
    products = [kron(a, b) for a in first.arrays for b in second.arrays]
    return assemble(products, "cross_set")


# quad constructions -------------------------------------------------------

def _split_quad_input(first: GcaSet, second: GcaSet | None, op: str,
                      dim: int):
    """Two pairs, or one quad split 2 + 2, to be laid side by side along
    `dim`: each pair has one shape, the two agree off `dim`, and the four
    arrays are jointly complementary (checked if an input is unmarked)."""
    if second is None:
        _require_role(first, "quad", f"{op} single input")
        a, b, c, d = first.arrays
    else:
        _require_role(first, "pair", f"{op} first input")
        _require_role(second, "pair", f"{op} second input")
        _require_same_rank(first, second)
        (a, b), (c, d) = first.arrays, second.arrays
    rank = a.rank
    if not 0 <= dim < rank:
        raise ShapeMismatch(f"dim {dim} out of range for rank {rank}")
    if a.shape != b.shape or c.shape != d.shape:
        raise ShapeMismatch("each input pair must have uniform shape")
    if any(k != dim and a.shape[k] != c.shape[k] for k in range(rank)):
        raise ShapeMismatch(f"{op}: input sizes differ off dim {dim}")
    marked = first.verified and (second is None or second.verified)
    if not marked and not jointly_complementary([a, b, c, d]).is_complementary:
        raise NotComplementary(
            "the four input arrays are not jointly complementary")
    return (a, b), (c, d)


def interleave_quad(first: GcaSet, second: GcaSet | None = None, *,
                    dim: int) -> GcaSet:
    """Odd-size quad: lace one pair with zeros between entries of the other.

    Sizes along `dim` must be s+1 and s; output size is 2s+1 there.
    With `second` omitted and a size-1 first pair, the degenerate quad
    {A, 0, B, 0} of the same size is produced (the s = 0 case).
    """
    if second is None and first.role == "pair":
        a, b = first.arrays
        if not 0 <= dim < a.rank:
            raise ShapeMismatch(f"dim {dim} out of range for rank {a.rank}")
        if a.shape[dim] != 1:
            raise ShapeMismatch(
                "single-pair form needs size 1 along dim; give the second pair"
            )
        z = Tensor.zeros(a.shape)
        return quad(a, z, b, z, "interleave_quad")
    (a, b), (c, d) = _split_quad_input(first, second, "interleave_quad", dim)
    if a.shape[dim] != c.shape[dim] + 1:
        raise ShapeMismatch(
            f"sizes along dim {dim} must differ by one: "
            f"{a.shape[dim]} vs {c.shape[dim]}"
        )
    za, zc = Tensor.zeros(a.shape), Tensor.zeros(c.shape)
    e, g = (interleave(t, zc, dim) for t in (a, b))
    f, h = (interleave(za, t, dim) for t in (c, d))
    return quad(e, f, g, h, "interleave_quad")


def concat_zero_quad(first: GcaSet, second: GcaSet | None = None, *,
                     dim: int) -> GcaSet:
    """Even-size quad A|0|0|B, 0|C|D|0 variants along `dim`.

    Input sizes g and g' along `dim` give output size 2(g+g');
    the outer blocks carry the first pair, the inner blocks the second.
    """
    (a, b), (c, d) = _split_quad_input(first, second, "concat_zero_quad", dim)
    za, zc = Tensor.zeros(a.shape), Tensor.zeros(c.shape)

    def chain(*blocks):
        return functools.reduce(lambda u, v: concat(u, v, dim), blocks)

    e = chain(a, zc, zc, b)
    g = chain(a, zc, zc, negate(b))
    f = chain(za, c, d, za)
    h = chain(za, c, negate(d), za)
    return quad(e, f, g, h, "concat_zero_quad")


def _require_tiling_structure(q: GcaSet, consumer: str) -> None:
    """Support pattern needed for the four-term product construction.

    Checked from the arrays themselves: all quasi-symmetric, members
    0/2 and 1/3 share supports, 0/1 are disjoint, and together the two
    supports cover every position.
    """
    _require_role(q, "quad", f"{consumer} input")
    if not q.uniform_shape():
        raise ShapeMismatch(f"{consumer}: quad members must share one shape")
    e, f, g, h = q.arrays
    for idx, t in enumerate(q.arrays):
        if not quasi_symmetric(t):
            raise StructureFailed(f"{consumer}: member {idx} not quasi-symmetric")
    if not supports_conjoint(e, g):
        raise StructureFailed(f"{consumer}: members 0 and 2 differ in support")
    if not supports_conjoint(f, h):
        raise StructureFailed(f"{consumer}: members 1 and 3 differ in support")
    if not supports_disjoint(e, f):
        raise StructureFailed(f"{consumer}: members 0 and 1 overlap")
    union = e.support() | f.support()
    if not bool(np.all(union)):
        raise StructureFailed(f"{consumer}: supports do not cover the array")


def lagrange_quad(q1: GcaSet, q2: GcaSet) -> GcaSet:
    """Polyphase quad of dims s_k t_k from two tiling-structured quads.

    Four-term quadratic recombination; the support structure of both
    inputs (checked here, and only here, whatever their lineage) makes
    the sixteen products tile the output with no collision and no hole.
    """
    _require_same_rank(q1, q2)
    _require_tiling_structure(q1, "lagrange_quad")
    _require_tiling_structure(q2, "lagrange_quad")
    a, b, c, d = q1.arrays
    e, f, g, h = q2.arrays
    st = involute
    p_out = checked_superpose(
        kron(a, st(f)), negate(kron(st(b), e)), kron(c, g), kron(d, h)
    )
    q_out = checked_superpose(
        kron(st(a), e), kron(b, st(f)), negate(kron(c, st(h))), kron(d, st(g))
    )
    r_out = checked_superpose(
        kron(st(c), e), negate(kron(d, f)), kron(a, st(h)), kron(b, g)
    )
    s_out = checked_superpose(
        negate(kron(c, f)), negate(kron(st(d), e)), kron(a, st(g)),
        negate(kron(b, h))
    )
    out = quad(p_out, q_out, r_out, s_out, "lagrange_quad")
    if not _polyphase(out):
        raise NonPolyphase("lagrange_quad: a zero survived")
    return out


def expand_quad(q1: GcaSet, ij: GcaSet) -> GcaSet:
    """Polyphase quad of dims s_k t_k from a quad and a disjoint pair."""
    _require_role(q1, "quad", "first input")
    _require_role(ij, "pair", "second input")
    _require_same_rank(q1, ij)
    if not _polyphase(q1):
        raise NonPolyphase("expand_quad: input quad must be polyphase")
    i_t, j_t = ij.arrays
    if not supports_disjoint(i_t, j_t):
        raise NotDisjoint("expand_quad: supports overlap")
    if not bool(np.all(i_t.support() | j_t.support())):
        raise NotDisjoint("expand_quad: supports do not cover the array")
    p, q, r, s = q1.arrays
    out = quad(*_binder_turyn(p, q, i_t, j_t), *_binder_turyn(r, s, i_t, j_t),
               "expand_quad")
    if not _polyphase(out):
        raise NonPolyphase("expand_quad: a zero survived")
    return out


def compromise_quad(ab: GcaSet, cd: GcaSet | None, dim: int,
                    ij: GcaSet) -> GcaSet:
    """Quad of size (s_i + s'_i) t_i along `dim` from two pairs + binder.

    The two pairs (equal sizes except along `dim`) are zero-extended to
    a common size, then combined with the binder pair {I, J} by the
    two-term product rule in each of the four outputs.
    """
    _require_role(ij, "pair", "binder")
    if ij.rank != ab.rank:
        raise RankMismatch("binder rank differs from pair rank")
    (a, b), (c, d) = _split_quad_input(ab, cd, "compromise_quad", dim)
    i_t, j_t = ij.arrays
    za, zc = Tensor.zeros(a.shape), Tensor.zeros(c.shape)
    a_ext, b_ext = (concat(t, zc, dim) for t in (a, b))
    c_ext, d_ext = (concat(za, t, dim) for t in (c, d))
    out = quad(*_binder_turyn(a_ext, c_ext, i_t, j_t),
               *_binder_turyn(b_ext, d_ext, i_t, j_t), "compromise_quad")
    if _polyphase(ij) and not _polyphase(out):
        raise NonPolyphase("compromise_quad: a zero survived")
    return out


# wire format --------------------------------------------------------------

def set_to_obj(gs: GcaSet) -> dict:
    """Plain-dict form of the gca-set/1 wire format."""
    return {
        "format": "gca-set/1",
        "role": gs.role,
        "alphabet": gs.alphabet.value,
        "arrays": [tensor_to_obj(a) for a in gs.arrays],
        "lineage": gs.lineage,
    }


def set_from_obj(obj: dict, verify: bool = True) -> GcaSet:
    """Parse gca-set/1; with verify=True it returns through `assemble`.
    A declared role or alphabet must be the one the arrays give or admit."""
    if not isinstance(obj, dict):
        raise ParseError("set document must be an object")
    if obj.get("format") != "gca-set/1":
        raise ParseError(f"unsupported format: {obj.get('format')!r}")
    try:
        arrays = tuple(tensor_from_obj(t) for t in obj["arrays"])
    except (KeyError, TypeError) as e:
        raise ParseError(f"malformed set document: {e}") from None
    if not arrays:
        raise ParseError("set document has no arrays")
    lineage = obj.get("lineage", "")
    # older files carry a "structure" object of support tags: read past
    if (not isinstance(lineage, str)
            or not isinstance(obj.get("structure") or {}, dict)):
        raise ParseError("set lineage must be a string, structure an object")
    gs = GcaSet(arrays, lineage)
    role, tag = obj.get("role"), obj.get("alphabet")
    if role is not None and role != gs.role:
        raise ParseError(f"declared role {role!r}, but {len(arrays)} arrays "
                         f"make a {gs.role}")
    if tag is not None and not Alphabet.from_tag(tag).admits(gs.alphabet):
        raise ParseError(f"entries do not satisfy declared alphabet {tag!r}")
    return assemble(arrays, lineage) if verify else gs
