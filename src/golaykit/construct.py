"""Recursive constructions of Golay complementary arrays.

Each set is checked once: `assemble` checks each set it makes by both
exact verification routes and marks it, and every operation returns
through it, so a slip in any formula raises VerificationFailed instead
of propagating a bad array.  Only unmarked sets (a GcaSet built
directly, or parsed with verify=False) are checked again.

Array sets are value objects (GcaSet).  Quads built by the interleaving
and concat-with-zeros constructions carry support-structure tags; the
product construction re-validates those tags from scratch instead of
trusting lineage.
"""
from __future__ import annotations

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
    VerificationFailed,
)
from .tensor import (
    Alphabet,
    Tensor,
    add,
    alphabet_of,
    checked_superpose,
    concat,
    embed,
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
    gca_check_polynomial,
    is_gca_set,
    jointly_complementary,
    pad_to,
)

__all__ = [
    "GcaSet",
    "pair",
    "quad",
    "binary_turyn_pair",
    "rank1_pair",
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

def _combined_alphabet(arrays: Sequence[Tensor]) -> Alphabet:
    best = Alphabet.BINARY
    for a in arrays:
        cand = alphabet_of(a)
        if not best.admits(cand):
            best = cand
    return best


@dataclass(frozen=True)
class GcaSet:
    """A complementary set of Gaussian-integer arrays.

    Only `assemble` sets `verified`, once both exact routes pass; the
    constructor and `dataclasses.replace` give an unmarked set, which
    consumers check again.  `structure` carries optional support claims:
    index pairs under "disjoint"/"conjoint", a "quasi_symmetric" flag,
    a "mask" flag for exactly-one-of-four pairs.  Claims are advisory;
    consumers that rely on them re-validate.
    """

    arrays: tuple[Tensor, ...]
    alphabet: Alphabet
    role: str
    lineage: str = ""
    structure: dict = field(default_factory=dict)
    verified: bool = field(default=False, init=False, compare=False,
                           repr=False)

    def __post_init__(self):
        object.__setattr__(self, "arrays", tuple(self.arrays))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.arrays[0].shape

    @property
    def rank(self) -> int:
        return self.arrays[0].rank

    def uniform_shape(self) -> bool:
        return all(a.shape == self.shape for a in self.arrays)

    def total_weight(self) -> int:
        from .verify import weight

        return sum(weight(a) for a in self.arrays)


def _role_for(n: int) -> str:
    return {2: "pair", 4: "quad"}.get(n, f"set-{n}")


def assemble(
    arrays: Sequence[Tensor],
    lineage: str,
    structure: dict | None = None,
) -> GcaSet:
    """Check a set of arrays, zero-padded to one shape, by both exact
    routes, and wrap it as a set marked verified."""
    arrays = tuple(arrays)
    where = lineage or "assemble"
    rank = arrays[0].rank
    if any(a.rank != rank for a in arrays):
        raise RankMismatch(f"{where}: mixed ranks in output")
    bound = tuple(max(a.shape[k] for a in arrays) for k in range(rank))
    padded = [pad_to(a, bound) for a in arrays]
    verdict = is_gca_set(padded)
    if not verdict.is_complementary:
        raise VerificationFailed(
            f"{where}: autocorrelation check failed "
            f"(max sidelobe norm {verdict.max_sidelobe_norm})"
        )
    if not gca_check_polynomial(padded):
        raise VerificationFailed(f"{where}: polynomial product check failed")
    out = GcaSet(
        arrays=arrays,
        alphabet=_combined_alphabet(arrays),
        role=_role_for(len(arrays)),
        lineage=lineage,
        structure=dict(structure or {}),
    )
    object.__setattr__(out, "verified", True)
    return out


def pair(a: Tensor, b: Tensor, lineage: str = "pair") -> GcaSet:
    return assemble([a, b], lineage)


def quad(a: Tensor, b: Tensor, c: Tensor, d: Tensor,
         lineage: str = "quad", structure: dict | None = None) -> GcaSet:
    return assemble([a, b, c, d], lineage, structure)


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
    a, b = ab.arrays
    c, d = cd.arrays
    i_half = halve(add(c, d))
    j_half = halve(c - d)
    e = checked_superpose(kron(a, i_half), kron(b, j_half))
    f = checked_superpose(kron(involute(b), i_half),
                          negate(kron(involute(a), j_half)))
    out = assemble([e, f], "binary_turyn_pair")
    if out.alphabet is not Alphabet.BINARY:
        raise NonPolyphase("binary_turyn_pair: a zero or non-binary entry survived")
    return out


def rank1_pair(ab: GcaSet, cd: GcaSet) -> GcaSet:
    """Stacked outer-product pair of size 2L x M from two 1-D pairs."""
    _require_role(ab, "pair", "first input")
    _require_role(cd, "pair", "second input")
    if ab.rank != 1 or cd.rank != 1:
        raise RankMismatch("rank1_pair expects 1-D pairs")
    a, b = ab.arrays
    c, d = cd.arrays

    def outer(col: Tensor, row: Tensor) -> Tensor:
        return kron(embed(col, 2, 0), embed(row, 2, 1))

    top_a = outer(a, c)
    bot_a = outer(b, d)
    top_b = negate(outer(a, involute(d)))
    bot_b = outer(b, involute(c))
    e = concat(top_a, bot_a, 0)
    f = concat(top_b, bot_b, 0)
    return assemble([e, f], "rank1_pair")


def concat_pair(ab: GcaSet, cd: GcaSet, dim: int) -> GcaSet:
    """Pair with 2 s_i t_i along `dim` by concatenating two products."""
    _require_role(ab, "pair", "first input")
    _require_role(cd, "pair", "second input")
    rank = _require_same_rank(ab, cd)
    if not 0 <= dim < rank:
        raise ShapeMismatch(f"dim {dim} out of range for rank {rank}")
    a, b = ab.arrays
    c, d = cd.arrays
    e = concat(kron(a, c), kron(b, d), dim)
    f = concat(kron(involute(b), c), negate(kron(involute(a), d)), dim)
    return assemble([e, f], "concat_pair")


def disjoint_mask_pair(ab: GcaSet) -> GcaSet:
    """Zero-or-sign mask pair (A+B+(B*-A*))/4, (A+B-(B*-A*))/4.

    Requires a nontrivial binary pair; the output satisfies the
    exactly-one-of-four support rule that the gluing construction
    relies on, re-checked here.
    """
    from .verify import binary_pair_symmetry

    _require_role(ab, "pair", "input")
    _require_binary(ab, "input")
    a, b = ab.arrays
    if a.rank == 1:
        if not binary_pair_symmetry(a, b):
            raise NotComplementary("end-to-end sign rule failed")
    base = add(a, b)
    delta = involute(b) - involute(a)
    p = quarter(add(base, delta))
    q = quarter(base - delta)
    counts = (
        p.support().astype(np.int64)
        + q.support().astype(np.int64)
        + involute(p).support().astype(np.int64)
        + involute(q).support().astype(np.int64)
    )
    if not np.all(counts == 1):
        pos = np.argwhere(counts != 1)[0]
        raise StructureFailed(
            f"mask rule violated at {tuple(int(x) for x in pos)}"
        )
    return assemble([p, q], "disjoint_mask_pair",
                    {"mask": True, "disjoint": [[0, 1]]})


def disjoint_from_pair(cd: GcaSet) -> GcaSet:
    """Disjoint half-sum pair (C+D)/2, (C-D)/2 from a binary pair."""
    _require_role(cd, "pair", "input")
    _require_binary(cd, "input")
    c, d = cd.arrays
    i_half = halve(add(c, d))
    j_half = halve(c - d)
    if not supports_disjoint(i_half, j_half):
        raise NotDisjoint("halves unexpectedly overlap")
    return assemble([i_half, j_half], "disjoint_from_pair",
                    {"disjoint": [[0, 1]]})


def glue_pair(binder: GcaSet, cd: GcaSet, ef: GcaSet) -> GcaSet:
    """Pair of dims s_k t_k u_k gluing two pairs with a binary binder.

    The binder is reduced to a mask pair (P, Q); X = P*C + Q*D and
    Y = Q'*C - P'*D interleave the two middle pairs on disjoint
    supports, and a product step with the last pair fills every cell.
    """
    _require_role(cd, "pair", "second input")
    _require_role(ef, "pair", "third input")
    _require_same_rank(binder, cd, ef)
    mask = disjoint_mask_pair(binder)
    p, q = mask.arrays
    c, d = cd.arrays
    e, f = ef.arrays
    x = checked_superpose(kron(p, c), kron(q, d))
    y = checked_superpose(kron(involute(q), c), negate(kron(involute(p), d)))
    assemble([x, y], "glue_pair/middle")  # the intermediate must verify too
    g = checked_superpose(kron(x, e), kron(y, f))
    h = checked_superpose(kron(involute(y), e), negate(kron(involute(x), f)))
    out = assemble([g, h], "glue_pair")
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
        e, f, g, h = a, z, b, z
        return _tag_interleaved(e, f, g, h, "interleave_quad")
    (a, b), (c, d) = _split_quad_input(first, second, "interleave_quad", dim)
    if a.shape[dim] != c.shape[dim] + 1:
        raise ShapeMismatch(
            f"sizes along dim {dim} must differ by one: "
            f"{a.shape[dim]} vs {c.shape[dim]}"
        )
    za = Tensor.zeros(a.shape)
    zc = Tensor.zeros(c.shape)
    e = interleave(a, zc, dim)
    g = interleave(b, zc, dim)
    f = interleave(za, c, dim)
    h = interleave(za, d, dim)
    return _tag_interleaved(e, f, g, h, "interleave_quad")


def concat_zero_quad(first: GcaSet, second: GcaSet | None = None, *,
                     dim: int) -> GcaSet:
    """Even-size quad A|0|0|B, 0|C|D|0 variants along `dim`.

    Input sizes g and g' along `dim` give output size 2(g+g');
    the outer blocks carry the first pair, the inner blocks the second.
    """
    (a, b), (c, d) = _split_quad_input(first, second, "concat_zero_quad", dim)
    za = Tensor.zeros(a.shape)
    zc = Tensor.zeros(c.shape)

    def chain(*blocks):
        out = blocks[0]
        for blk in blocks[1:]:
            out = concat(out, blk, dim)
        return out

    e = chain(a, zc, zc, b)
    g = chain(a, zc, zc, negate(b))
    f = chain(za, c, d, za)
    h = chain(za, c, negate(d), za)
    return _tag_interleaved(e, f, g, h, "concat_zero_quad")


def _tag_interleaved(e, f, g, h, lineage: str) -> GcaSet:
    out = quad(e, f, g, h, lineage, {
        "conjoint": [[0, 2], [1, 3]],
        "disjoint": [[0, 1], [0, 3], [1, 2], [2, 3]],
        "quasi_symmetric": True,
        "weight_deficient": True,
    })
    _require_tiling_structure(out, lineage)
    return out


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
    inputs (re-validated here, whatever their lineage) makes the
    sixteen products tile the output with no collision and no hole.
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
    if not ij.structure.get("disjoint"):
        raise NotDisjoint("expand_quad: pair lacks the disjoint tag")
    i_t, j_t = ij.arrays
    if not supports_disjoint(i_t, j_t):
        raise NotDisjoint("expand_quad: supports overlap")
    if not bool(np.all(i_t.support() | j_t.support())):
        raise NotDisjoint("expand_quad: supports do not cover the array")
    p, q1_, r, s = q1.arrays
    st = involute
    p2 = checked_superpose(kron(p, i_t), kron(q1_, j_t))
    q2 = checked_superpose(kron(p, st(j_t)), negate(kron(q1_, st(i_t))))
    r2 = checked_superpose(kron(r, i_t), kron(s, j_t))
    s2 = checked_superpose(kron(r, st(j_t)), negate(kron(s, st(i_t))))
    out = quad(p2, q2, r2, s2, "expand_quad")
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
    za = Tensor.zeros(a.shape)
    zc = Tensor.zeros(c.shape)
    a_ext = concat(a, zc, dim)
    b_ext = concat(b, zc, dim)
    c_ext = concat(za, c, dim)
    d_ext = concat(za, d, dim)
    st = involute
    e = checked_superpose(kron(a_ext, i_t), kron(c_ext, j_t))
    f = checked_superpose(kron(a_ext, st(j_t)), negate(kron(c_ext, st(i_t))))
    g = checked_superpose(kron(b_ext, i_t), kron(d_ext, j_t))
    h = checked_superpose(kron(b_ext, st(j_t)), negate(kron(d_ext, st(i_t))))
    out = quad(e, f, g, h, "compromise_quad")
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
        "structure": gs.structure,
    }


def set_from_obj(obj: dict, verify: bool = True) -> GcaSet:
    """Parse gca-set/1; with verify=True it returns through `assemble`."""
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
    structure = obj.get("structure") or {}
    if not isinstance(lineage, str) or not isinstance(structure, dict):
        raise ParseError("set lineage must be a string, structure an object")
    if verify:
        return assemble(arrays, lineage, structure)
    return GcaSet(
        arrays=arrays,
        alphabet=_combined_alphabet(arrays),
        role=_role_for(len(arrays)),
        lineage=lineage,
        structure=dict(structure),
    )
