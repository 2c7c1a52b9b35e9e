"""Feasible-size arithmetic and recipe synthesis for complementary sets.

Answers three questions about a requested array size: is it reachable
with the recursive constructions in this package, by which tree of
construction steps grounded in which registry seeds, and what does the
reachable-size landscape look like in bulk.

Pair planning rests on multiplicative block arithmetic.  A length is
reachable when it factors into seed blocks: binary blocks 2, 10, 26 and
quaternary blocks 3, 5, 11, 13.  Binary blocks act as binders, and a
pair plan needs at least one binder per extra quaternary block, so each
dimension contributes a surplus (binders minus quaternary blocks) and a
shape is plannable when the total surplus is at least -1.  The glued
blocks 10 and 26 count as binders but each must land inside a single
dimension.

Quad planning tries five rules in order: products of two planned
pairs or of two zero-tiled quads, sum-extension with a binder pair,
expansion of a smaller planned quad by a disjoint binary pair, and a
tile times a smaller planned quad zero-concatenated along the other
axis; the last two recurse on a depth budget.  Every recipe this
module returns has been checked against the registry for seed
availability.  `execute` builds every node through `assemble`, which
checks each set it makes by both exact routes and marks it; only an
unmarked root is checked again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

from .construct import (
    GcaSet,
    binary_turyn_pair,
    compromise_quad,
    concat_pair,
    concat_zero_quad,
    cross_set,
    disjoint_from_pair,
    expand_quad,
    glue_pair,
    interleave_quad,
    lagrange_quad,
    pair as make_pair,
    quad as make_quad,
)
from .errors import (
    GolayKitError,
    MissingSeed,
    ParseError,
    ShapeMismatch,
    VerificationFailed,
)
from .seeds import SeedRegistry, load_bundled
from .tensor import _MAX_RANK, Alphabet, _is_shape, embed
from .verify import is_gca_set

__all__ = [
    "GolayWitness",
    "Recipe",
    "FeasibilityReport",
    "is_binary_golay_number",
    "is_quaternary_golay_number",
    "enumerate_golay_numbers",
    "plan_pair",
    "plan_quad",
    "execute",
    "coverage_scan",
    "recipe_to_obj",
    "recipe_from_obj",
    "report_to_obj",
]

RECIPE_FORMAT = "gca-recipe/1"

# Seed block lengths and their binder/consumer score.  Binary blocks
# glue, quaternary blocks need gluing.
_BINARY_BLOCKS = (2, 10, 26)
_QUATERNARY_BLOCKS = (3, 5, 11, 13)
_BLOCK_ORDER = _BINARY_BLOCKS + _QUATERNARY_BLOCKS
_BLOCK_SCORE = {2: 1, 10: 1, 26: 1, 3: -1, 5: -1, 11: -1, 13: -1}

_PRODUCT_CAP = 10 ** 7
_MAX_NESTING = 100  # the deepest plan (binary pair 2^23) has 23 levels


# witnesses ----------------------------------------------------------------

@dataclass(frozen=True, order=True)
class GolayWitness:
    """Exponent certificate that a number is a reachable pair length.

    Binary: n = 2^a 10^b 26^c.  Quaternary: n = 2^(a+u) 3^b 5^c 11^d
    13^e with b+c+d+e <= a+2u+1 and u <= c+e, where u counts glued
    10/26 blocks.  Ordering is lexicographic on the exponent tuple so
    ties break the same way everywhere.
    """

    a: int
    b: int
    c: int
    d: int = 0
    e: int = 0
    u: int = 0
    alphabet: Alphabet = field(default=Alphabet.BINARY, compare=False)

    @property
    def n(self) -> int:
        if self.alphabet is Alphabet.BINARY:
            return 2 ** self.a * 10 ** self.b * 26 ** self.c
        return (2 ** (self.a + self.u) * 3 ** self.b * 5 ** self.c
                * 11 ** self.d * 13 ** self.e)


@lru_cache(maxsize=None)
def is_binary_golay_number(n: int) -> GolayWitness | None:
    """Smallest-exponent witness n = 2^a 10^b 26^c, or None."""
    if n < 1:
        return None
    best = None
    b = 0
    while 10 ** b <= n:
        c = 0
        while 10 ** b * 26 ** c <= n:
            block = 10 ** b * 26 ** c
            if n % block == 0:
                rest = n // block
                if rest & (rest - 1) == 0:
                    wit = GolayWitness(rest.bit_length() - 1, b, c)
                    if best is None or wit < best:
                        best = wit
            c += 1
        b += 1
    return best


@lru_cache(maxsize=None)
def is_quaternary_golay_number(n: int) -> GolayWitness | None:
    """Smallest-exponent witness for the quaternary length form, or None."""
    if n < 1:
        return None
    rest = n
    exps = {}
    for p in (2, 3, 5, 11, 13):
        k = 0
        while rest % p == 0:
            rest //= p
            k += 1
        exps[p] = k
    if rest != 1:
        return None
    v2, b, c, d, e = exps[2], exps[3], exps[5], exps[11], exps[13]
    best = None
    for u in range(min(v2, c + e) + 1):
        a = v2 - u
        if b + c + d + e <= a + 2 * u + 1:
            wit = GolayWitness(a, b, c, d, e, u, alphabet=Alphabet.QUATERNARY)
            if best is None or wit < best:
                best = wit
    return best


def enumerate_golay_numbers(alphabet: Alphabet, limit: int) -> list[int]:
    """All reachable pair lengths <= limit, ascending."""
    if limit < 1:
        raise ShapeMismatch("limit must be at least 1")
    if alphabet is Alphabet.BINARY:
        pred = is_binary_golay_number
    elif alphabet is Alphabet.QUATERNARY:
        pred = is_quaternary_golay_number
    else:
        raise ShapeMismatch(f"no length form for alphabet {alphabet.value}")
    return [n for n in range(1, limit + 1) if pred(n) is not None]


# block assignment ---------------------------------------------------------

@lru_cache(maxsize=None)
def _best_blocks(s: int) -> tuple[int, tuple[int, ...]] | None:
    """Factor s into seed blocks maximizing binder surplus.

    Returns (surplus, blocks) for the best factorization, or None when
    s has a prime factor outside {2, 3, 5, 11, 13}.  Block order is
    fixed, so the chosen factorization is deterministic.
    """
    if s == 1:
        return (0, ())
    best = None
    for g in _BLOCK_ORDER:
        if s % g == 0:
            sub = _best_blocks(s // g)
            if sub is None:
                continue
            cand = (sub[0] + _BLOCK_SCORE[g], (g,) + sub[1])
            if best is None or cand[0] > best[0]:
                best = cand
    return best


def _decomposable(s: int) -> bool:
    return _best_blocks(s) is not None


# recipes ------------------------------------------------------------------

class _Op(NamedTuple):
    """A recipe op: its construction, the child counts and the params
    it accepts."""

    run: Callable[[list[GcaSet], int | None], GcaSet] | None
    arity: tuple[int, ...]
    params: frozenset[str]


_SHAPE_ONLY = frozenset({"shape"})
_ALONG_DIM = frozenset({"dim", "shape"})

# Every construction is looked up by its module-level name when it runs,
# so a rebinding of that name (a tracer, say) is seen by `execute`.
_OPS = {
    "seed": _Op(None, (0,), frozenset({"axis", "rank", "shape"})),
    "binary_turyn_pair": _Op(lambda kids, dim: binary_turyn_pair(*kids),
                             (2,), _SHAPE_ONLY),
    "concat_pair": _Op(lambda kids, dim: concat_pair(*kids, dim),
                       (2,), _ALONG_DIM),
    "glue_pair": _Op(lambda kids, dim: glue_pair(*kids), (3,), _SHAPE_ONLY),
    "cross_set": _Op(lambda kids, dim: cross_set(*kids), (2,), _SHAPE_ONLY),
    "interleave_quad": _Op(lambda kids, dim: interleave_quad(*kids, dim=dim),
                           (1,), _ALONG_DIM),
    "concat_zero_quad": _Op(
        lambda kids, dim: concat_zero_quad(*kids, dim=dim), (1, 2),
        _ALONG_DIM),
    "lagrange_quad": _Op(lambda kids, dim: lagrange_quad(*kids),
                         (2,), _SHAPE_ONLY),
    "expand_quad": _Op(lambda kids, dim: expand_quad(*kids),
                       (2,), _SHAPE_ONLY),
    "compromise_quad": _Op(
        lambda kids, dim: compromise_quad(kids[0], kids[1], dim, kids[2]),
        (3,), _ALONG_DIM),
    "disjoint_from_pair": _Op(lambda kids, dim: disjoint_from_pair(*kids),
                              (1,), _SHAPE_ONLY),
}


@dataclass
class Recipe:
    """One node of an executable construction tree.

    Leaves are `seed` nodes naming a registry key plus the axis and
    rank to orient the stored 1-D arrays along.  Inner nodes name a
    construction and hold its inputs as children.  `params` may carry
    a declared output shape that `execute` cross-checks.  Each node is
    checked against the op table when it is built, so a malformed
    document fails with ParseError before anything runs.
    """

    op: str
    params: dict = field(default_factory=dict)
    children: list["Recipe"] = field(default_factory=list)
    seed: str | None = None
    rank: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # `type(x) is int` also turns away JSON booleans
        op, params = self.op, self.params
        spec = _OPS.get(op)
        if spec is None:
            raise ParseError(f"unknown recipe op: {op}")
        if len(self.children) not in spec.arity:
            counts = " or ".join(str(n) for n in spec.arity)
            raise ParseError(f"{op} takes {counts} children, "
                             f"got {len(self.children)}")
        if not spec.params.issuperset(params):
            stray = sorted(set(params) - spec.params)
            raise ParseError(f"{op} does not accept params {stray}")
        if op == "seed":
            if not self.seed:
                raise ParseError("seed node without a key")
            rank = params.get("rank", 1)
            if type(rank) is not int or not 1 <= rank <= _MAX_RANK:
                raise ParseError(f"seed rank must be an integer in "
                                 f"[1, {_MAX_RANK}], got {rank!r}")
        else:
            if self.seed is not None:
                raise ParseError(f"{op} node carries a seed key; "
                                 f"only seed leaves do")
            rank = self.children[0].rank
            for child in self.children:
                if child.rank != rank:
                    raise ParseError(f"{op} children have different ranks")
        self.rank = rank
        if "dim" in spec.params and "dim" not in params:
            raise ParseError(f"{op} needs a dim param")
        for name in ("dim", "axis"):
            value = params.get(name, 0)
            if type(value) is not int or not 0 <= value < rank:
                raise ParseError(f"{op} {name} must be an integer in "
                                 f"[0, {rank}), got {value!r}")
        shape = params.get("shape")
        if shape is not None and not _is_shape(shape, rank):
            raise ParseError(f"{op} shape must be a list of {rank} "
                             f"positive integers, got {shape!r}")


def recipe_to_obj(recipe: Recipe, _top: bool = True) -> dict:
    obj: dict = {"format": RECIPE_FORMAT} if _top else {}
    obj["op"] = recipe.op
    if recipe.params:
        obj["params"] = dict(recipe.params)
    if recipe.seed is not None:
        obj["seed"] = recipe.seed
    if recipe.children:
        obj["children"] = [recipe_to_obj(ch, _top=False)
                           for ch in recipe.children]
    return obj


def recipe_from_obj(obj, _level: int = 1) -> Recipe:
    if _level > _MAX_NESTING:
        raise ParseError(f"recipe nests deeper than {_MAX_NESTING} levels")
    if not isinstance(obj, dict):
        raise ParseError("recipe node must be an object")
    if _level == 1 and obj.get("format") != RECIPE_FORMAT:
        raise ParseError(f"expected format {RECIPE_FORMAT!r}")
    if not isinstance(obj.get("op"), str):
        raise ParseError("recipe node needs a string op")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ParseError("recipe params must be an object")
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise ParseError("recipe children must be a list")
    seed = obj.get("seed")
    if seed is not None and not isinstance(seed, str):
        raise ParseError("recipe seed must be a string key")
    return Recipe(
        op=obj["op"],
        params=dict(params),
        children=[recipe_from_obj(ch, _level + 1) for ch in children],
        seed=seed,
    )


# feasibility reports ------------------------------------------------------

@dataclass
class FeasibilityReport:
    """Outcome of planning one shape.

    `witness` holds the arithmetic certificate: per-dimension length
    witnesses for binary pairs, a block assignment for quaternary
    pairs, a strategy description for quads.  `nonexistent` marks the
    bundled impossibility facts as opposed to mere method failure.
    """

    feasible: bool
    alphabet: Alphabet
    shape: tuple[int, ...]
    witness: object = None
    recipe: Recipe | None = None
    reason: str = ""
    nonexistent: bool = False


def _witness_obj(w):
    if w is None:
        return None
    if isinstance(w, GolayWitness):
        out = {"a": w.a, "b": w.b, "c": w.c}
        if w.alphabet is Alphabet.QUATERNARY:
            out.update({"d": w.d, "e": w.e, "u": w.u})
        return out
    if isinstance(w, dict):
        return {k: _witness_obj(v) for k, v in w.items()}
    if isinstance(w, (list, tuple)):
        return [_witness_obj(x) for x in w]
    return w


def report_to_obj(report: FeasibilityReport) -> dict:
    obj = {
        "feasible": report.feasible,
        "alphabet": report.alphabet.value,
        "shape": list(report.shape),
        "witness": _witness_obj(report.witness),
        "known_nonexistent": report.nonexistent,
    }
    if report.reason:
        obj["reason"] = report.reason
    if report.recipe is not None:
        obj["recipe"] = recipe_to_obj(report.recipe)
    return obj


# pair planning ------------------------------------------------------------

def _check_shape(role: str, alphabet: Alphabet, shape: Sequence[int]
                 ) -> tuple[tuple[int, ...], FeasibilityReport | None]:
    """The shape as a tuple, plus a refusal for requests that planning
    does not cover, made before any search: other alphabets, and
    products above the planning cap."""
    shape = tuple(map(int, shape))
    if len(shape) < 1:
        raise ShapeMismatch("shape must have at least one dimension")
    if min(shape) < 1:
        raise ShapeMismatch(f"dimensions must be positive: {shape}")
    if alphabet not in (Alphabet.BINARY, Alphabet.QUATERNARY):
        reason = (f"{role} planning covers binary and quaternary "
                  f"alphabets, not {alphabet.value}")
    elif math.prod(shape) > _PRODUCT_CAP:
        reason = (f"product {math.prod(shape)} exceeds the planning cap "
                  f"{_PRODUCT_CAP}")
    else:
        return shape, None
    return shape, FeasibilityReport(False, alphabet, shape, reason=reason)


def _seed_leaf(alphabet: Alphabet, length: int, axis: int,
               rank: int, shape: tuple[int, ...]) -> Recipe:
    key = SeedRegistry.pair_key(alphabet, length)
    return Recipe("seed", {"axis": axis, "rank": rank, "shape": list(shape)},
                  seed=key)


def _oriented(rank: int, axis: int, size: int) -> tuple[int, ...]:
    shape = [1] * rank
    shape[axis] = size
    return tuple(shape)


def _trivial_leaf(rank: int) -> Recipe:
    return _seed_leaf(Alphabet.BINARY, 1, 0, rank, (1,) * rank)


def _merge_shapes(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [x * y for x, y in zip(a, b)]


def plan_pair(alphabet: Alphabet, shape: Sequence[int]) -> FeasibilityReport:
    """Decide whether a pair of the given shape is plannable.

    Binary shapes need every dimension to be a binary Golay number.
    Quaternary shapes need each dimension to factor into seed blocks
    with total binder surplus >= -1; glued 10/26 blocks must fit inside
    single dimensions.  Feasible reports carry an executable recipe.
    """
    shape, refusal = _check_shape("pair", alphabet, shape)
    if refusal is not None:
        return refusal
    if alphabet is Alphabet.BINARY:
        return _plan_pair_binary(shape)
    return _plan_pair_quaternary(shape)


_RULED_OUT_PAIR_SHAPES = ((2, 5), (2, 13))


def _plan_pair_binary(shape: tuple[int, ...]) -> FeasibilityReport:
    wits = []
    for s in shape:
        wit = is_binary_golay_number(s)
        if wit is None:
            ruled_out = tuple(sorted(shape)) in _RULED_OUT_PAIR_SHAPES
            reason = (f"dimension {s} is not a binary Golay number "
                      f"(2^a 10^b 26^c)")
            if ruled_out:
                reason += ("; this exact shape is exhaustively ruled out, "
                           "no binary pair of it exists")
            return FeasibilityReport(
                False, Alphabet.BINARY, shape,
                reason=reason, nonexistent=ruled_out,
            )
        wits.append(wit)
    leaves = []
    for axis, wit in enumerate(wits):
        blocks = [2] * wit.a + [10] * wit.b + [26] * wit.c
        for g in sorted(blocks):
            leaves.append(_seed_leaf(
                Alphabet.BINARY, g, axis, len(shape),
                _oriented(len(shape), axis, g)))
    recipe = _turyn_chain(leaves, len(shape))
    return FeasibilityReport(
        True, Alphabet.BINARY, shape, witness=tuple(wits), recipe=recipe,
    )


def _plan_pair_quaternary(shape: tuple[int, ...]) -> FeasibilityReport:
    n = math.prod(shape)
    product_wit = is_quaternary_golay_number(n)
    per_dim = [_best_blocks(s) for s in shape]
    assignable = all(p is not None for p in per_dim)
    surplus = sum(p[0] for p in per_dim) if assignable else None
    if not assignable or surplus < -1:
        if product_wit is None:
            return FeasibilityReport(
                False, Alphabet.QUATERNARY, shape, nonexistent=True,
                reason=(f"product {n} is not a quaternary Golay number "
                        f"(2^(a+u) 3^b 5^c 11^d 13^e with "
                        f"b+c+d+e <= a+2u+1, u <= c+e)"),
            )
        glued = [g for g in (10, 26) if n % g == 0]
        stuck = [g for g in glued if not any(s % g == 0 for s in shape)]
        if stuck:
            names = " or ".join(str(g) for g in stuck)
            reason = (f"product {n} is a quaternary Golay number only with "
                      f"a glued factor {names}, but {names} divides no "
                      f"single dimension of {shape}; the factor {stuck[0]} "
                      f"block would be split across different dimensions")
        else:
            reason = (f"best per-dimension block factorization has binder "
                      f"surplus {surplus}, below the -1 needed to glue the "
                      f"quaternary blocks together")
        return FeasibilityReport(
            False, Alphabet.QUATERNARY, shape, witness=product_wit,
            reason=reason,
        )
    rank = len(shape)
    blocks_per_dim = [sorted(p[1]) for p in per_dim]
    quater, binders = [], []
    for axis, blocks in enumerate(blocks_per_dim):
        for g in blocks:
            alph = (Alphabet.BINARY if g in _BINARY_BLOCKS
                    else Alphabet.QUATERNARY)
            leaf = _seed_leaf(alph, g, axis, rank, _oriented(rank, axis, g))
            (binders if alph is Alphabet.BINARY else quater).append(
                (axis, g, leaf))
    quater.sort(key=lambda t: t[:2])
    binders.sort(key=lambda t: t[:2])
    witness = {
        "product": product_wit,
        "blocks_per_dimension": blocks_per_dim,
        "surplus": surplus,
    }
    recipe = _assemble_glue_tree(quater, binders, rank)
    return FeasibilityReport(
        True, Alphabet.QUATERNARY, shape, witness=witness, recipe=recipe,
    )


def _turyn_chain(leaves: list[Recipe], rank: int) -> Recipe:
    """Left-deep product of binary seed leaves, or the trivial pair."""
    if not leaves:
        return _trivial_leaf(rank)
    recipe = leaves[0]
    for leaf in leaves[1:]:
        out_shape = _merge_shapes(recipe.params["shape"],
                                  leaf.params["shape"])
        recipe = Recipe("binary_turyn_pair", {"shape": out_shape},
                        [recipe, leaf])
    return recipe


def _assemble_glue_tree(quater, binders, rank: int) -> Recipe:
    """Left-deep tree: quaternary seeds glued by binary binders.

    A length-2 binder degenerates to concat_pair along its axis; the
    binders left over once every quaternary seed is glued in multiply
    in against a trivial pair.
    """
    if not quater:
        return _turyn_chain([leaf for _, _, leaf in binders], rank)
    current = quater[0][2]
    partners = [qleaf for _, _, qleaf in quater[1:]]
    partners += [_trivial_leaf(rank)
                 for _ in range(len(binders) - len(partners))]
    for (axis, g, leaf), partner in zip(binders, partners):
        merged = _merge_shapes(current.params["shape"],
                               partner.params["shape"])
        if g == 2:
            merged[axis] *= 2
            current = Recipe("concat_pair", {"dim": axis, "shape": merged},
                             [current, partner])
        else:
            merged = _merge_shapes(merged, leaf.params["shape"])
            current = Recipe("glue_pair", {"shape": merged},
                             [leaf, current, partner])
    return current


# quad planning ------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _divisor_tuples(shape: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All elementwise-divisor tuples of `shape`, ascending lex."""
    if not shape:
        yield ()
        return
    for d in _divisors(shape[0]):
        for rest in _divisor_tuples(shape[1:]):
            yield (d,) + rest


def plan_quad(alphabet: Alphabet, shape: Sequence[int],
              registry: SeedRegistry | None = None, *,
              _depth: int = 2) -> FeasibilityReport:
    """Decide whether a quad of the given 1-D or 2-D shape is plannable.

    Rules are tried in a fixed order: product of two planned pairs,
    product of two zero-tiled quads, sum-extension with a binder pair,
    expansion by a disjoint binary pair, and a tile times a
    zero-concatenated planned quad.  The first hit wins; `registry`
    (bundled by default) gates which base-sequence tiles are available.
    """
    shape, refusal = _check_shape("quad", alphabet, shape)
    if refusal is not None:
        return refusal
    if len(shape) > 2:
        return FeasibilityReport(
            False, alphabet, shape,
            reason="quad planning covers 1-D and 2-D shapes",
        )
    if registry is None:
        registry = load_bundled()
    misses: list[str] = []
    strategies = (_quad_cross, _quad_lagrange, _quad_compromise,
                  _quad_expand, _quad_tile_concat)
    for strategy in strategies:
        hit = strategy(alphabet, shape, registry, misses, _depth)
        if hit is not None:
            recipe, witness = hit
            return FeasibilityReport(
                True, alphabet, shape, witness=witness, recipe=recipe,
            )
    reason = ("no product, zero-tiling, sum-extension, expansion, or "
              "tile-times-zero-concatenation strategy applies")
    if misses:
        missing = ", ".join(sorted(set(misses)))
        reason += f"; missing seeds that would unlock a recipe: {missing}"
    return FeasibilityReport(False, alphabet, shape, reason=reason)


def _quad_cross(alphabet, shape, registry, misses, depth):
    """Product of two planned pairs; balanced splits first."""
    splits = []
    for u in _divisor_tuples(shape):
        v = tuple(s // x for s, x in zip(shape, u))
        key = (sum(abs(a - b) for a, b in zip(u, v)), u, v)
        splits.append(key)
    for _, u, v in sorted(splits):
        left = plan_pair(alphabet, u)
        if not left.feasible:
            continue
        right = plan_pair(alphabet, v)
        if not right.feasible:
            continue
        recipe = Recipe("cross_set", {"shape": list(shape)},
                        [left.recipe, right.recipe])
        return recipe, {"strategy": "pair-product", "left": list(u),
                        "right": list(v)}
    return None


def _tile_quad(size: int, axis: int, rank: int, alphabet,
               registry, misses) -> tuple[Recipe, dict] | None:
    """A zero-tiled quad of `size` along `axis`, trivial elsewhere.

    Size 1 comes from the degenerate interleaving of the length-1
    pair, odd sizes 2s+1 from interleaving stored base sequences with
    index s, and even sizes 2(g+g') from zero-padded concatenation of
    two binary pairs.
    """
    if size == 1:
        child = _trivial_leaf(rank)
        recipe = Recipe("interleave_quad",
                        {"dim": axis, "shape": [1] * rank}, [child])
        return recipe, {"tile": 1}
    shape = list(_oriented(rank, axis, size))
    if size % 2 == 1:
        s = (size - 1) // 2
        if registry.find_base_sequences(s) is None:
            misses.append(SeedRegistry.base_key(s))
            return None
        child = Recipe("seed", {"axis": axis, "rank": rank},
                       seed=SeedRegistry.base_key(s))
        recipe = Recipe("interleave_quad", {"dim": axis, "shape": shape},
                        [child])
        return recipe, {"tile": size, "base_index": s}
    half = size // 2
    for g in range(1, half // 2 + 1):
        g2 = half - g
        if (is_binary_golay_number(g) is None
                or is_binary_golay_number(g2) is None):
            continue
        p1 = _plan_pair_binary(_oriented(rank, axis, g))
        p2 = _plan_pair_binary(_oriented(rank, axis, g2))
        recipe = Recipe("concat_zero_quad", {"dim": axis, "shape": shape},
                        [p1.recipe, p2.recipe])
        return recipe, {"tile": size, "halves": [g, g2]}
    return None


def _quad_lagrange(alphabet, shape, registry, misses, depth):
    """Product of two zero-tiled quads, one tile per factor."""
    rank = len(shape)
    layouts: list[tuple[tuple[int, int], tuple[int, int]]] = []
    if rank == 2:
        m, n = shape
        layouts.append(((m, 0), (n, 1)))
        if m == 1:
            layouts.extend((((o, 1), (n // o, 1))
                            for o in _divisors(n) if o > 1 and o < n))
        if n == 1 and m > 1:
            layouts.extend((((o, 0), (m // o, 0))
                            for o in _divisors(m) if o > 1 and o < m))
    else:
        (n,) = shape
        layouts.extend((((o, 0), (n // o, 0)) for o in _divisors(n)))
    for (size1, ax1), (size2, ax2) in layouts:
        t1 = _tile_quad(size1, ax1, rank, alphabet, registry, misses)
        if t1 is None:
            continue
        t2 = _tile_quad(size2, ax2, rank, alphabet, registry, misses)
        if t2 is None:
            continue
        recipe = Recipe("lagrange_quad", {"shape": list(shape)},
                        [t1[0], t2[0]])
        return recipe, {"strategy": "tile-product",
                        "tiles": [t1[1], t2[1]]}
    return None


def _quad_compromise(alphabet, shape, registry, misses, depth):
    """Sum-extension: two pairs sharing one dimension, plus a binder."""
    rank = len(shape)
    for j in range(rank):
        total_j = shape[j]
        for t_j in _divisors(total_j):
            summed = total_j // t_j
            if summed < 2:
                continue
            for s2 in range(1, summed // 2 + 1):
                s3 = summed - s2
                if not _decomposable(s2) or not _decomposable(s3):
                    continue
                if rank == 1:
                    off_choices = [(1, 1)]
                else:
                    o = 1 - j
                    off_choices = [(t_o, shape[o] // t_o)
                                   for t_o in _divisors(shape[o])]

                def put(at_j: int, off: int) -> tuple[int, ...]:
                    if rank == 1:
                        return (at_j,)
                    return (at_j, off) if j == 0 else (off, at_j)

                for t_off, s_off in off_choices:
                    pshape2 = put(s2, s_off)
                    pshape3 = put(s3, s_off)
                    bshape = put(t_j, t_off)
                    r2 = plan_pair(alphabet, pshape2)
                    if not r2.feasible:
                        continue
                    r3 = plan_pair(alphabet, pshape3)
                    if not r3.feasible:
                        continue
                    rb = plan_pair(alphabet, bshape)
                    if not rb.feasible:
                        continue
                    recipe = Recipe(
                        "compromise_quad",
                        {"dim": j, "shape": list(shape)},
                        [r2.recipe, r3.recipe, rb.recipe])
                    return recipe, {
                        "strategy": "sum-extension",
                        "sum_axis": j,
                        "pair_shapes": [list(pshape2), list(pshape3)],
                        "binder_shape": list(bshape),
                    }
    return None


def _quad_expand(alphabet, shape, registry, misses, depth):
    """Shrink by a binary-Golay divisor tuple and recurse."""
    if depth <= 0:
        return None
    for t in _divisor_tuples(shape):
        if all(x == 1 for x in t):
            continue
        binder = _plan_pair_binary(t)
        if not binder.feasible:
            continue
        inner = tuple(s // x for s, x in zip(shape, t))
        sub = plan_quad(alphabet, inner, registry, _depth=depth - 1)
        if not sub.feasible:
            continue
        dis = Recipe("disjoint_from_pair", {"shape": list(t)},
                     [binder.recipe])
        recipe = Recipe("expand_quad", {"shape": list(shape)},
                        [sub.recipe, dis])
        return recipe, {"strategy": "expansion", "factor": list(t),
                        "inner": sub.witness}
    return None


def _quad_tile_concat(alphabet, shape, registry, misses, depth):
    """A size-t tile along axis j times the quad planned at the shape
    divided by t along j and by 4 along the other axis, zero-concatenated
    back to full size; smallest t first.  A missing tile names no seed,
    as the inner quad may not exist either.
    """
    if depth <= 0 or len(shape) != 2:
        return None
    for j in (0, 1):
        o = 1 - j
        if shape[o] % 4 != 0:
            continue
        for t in _divisors(shape[j])[1:]:
            tile = _tile_quad(t, j, 2, alphabet, registry, [])
            if tile is None:
                continue
            inner = list(shape)
            inner[j] //= t
            inner[o] //= 4
            sub = plan_quad(alphabet, inner, registry, _depth=depth - 1)
            if not sub.feasible:
                continue
            inner[o] = shape[o]
            wide = Recipe("concat_zero_quad", {"dim": o, "shape": inner},
                          [sub.recipe])
            recipe = Recipe("lagrange_quad", {"shape": list(shape)},
                            [tile[0], wide])
            return recipe, {"strategy": "tile-zero-concat", "tile_axis": j,
                            "tile": tile[1], "inner": sub.witness}
    return None


# execution ----------------------------------------------------------------

def _resolve_seed(recipe: Recipe, registry: SeedRegistry,
                  path: str) -> GcaSet:
    key = recipe.seed
    record = registry.records.get(key)
    if record is None:
        raise MissingSeed(key, path)
    rank = recipe.rank
    axis = recipe.params.get("axis", 0)
    tensors = [embed(t, rank, axis) if rank > 1 else t
               for t in record.tensors]
    if len(tensors) == 2:
        return make_pair(*tensors, lineage=f"seed:{key}")
    return make_quad(*tensors, lineage=f"seed:{key}")


def _exec_node(recipe: Recipe, registry: SeedRegistry, path: str) -> GcaSet:
    kids = [
        _exec_node(ch, registry, f"{path}/{ch.op}[{i}]")
        for i, ch in enumerate(recipe.children)
    ]
    try:
        if recipe.op == "seed":
            out = _resolve_seed(recipe, registry, path)
        else:
            out = _OPS[recipe.op].run(kids, recipe.params.get("dim"))
    except MissingSeed:
        raise
    except GolayKitError as err:
        if not getattr(err, "recipe_path", None):
            err.recipe_path = path
            err.args = (f"{err.args[0] if err.args else err}"
                        f" [recipe node {path}]",) + err.args[1:]
        raise
    declared = recipe.params.get("shape")
    if declared is not None and list(out.shape) != list(declared):
        raise ShapeMismatch(
            f"recipe node {path} declared shape {declared} but produced "
            f"{list(out.shape)}"
        )
    return out


def execute(recipe: Recipe, registry: SeedRegistry | None = None) -> GcaSet:
    """Run a recipe bottom-up against a seed registry.

    Every node is built through `assemble`, which checks each set it
    makes by both exact routes and marks it; only an unmarked root (a
    rebound construction can return one) is checked again here.
    Execution is deterministic: the same recipe and registry give
    identical arrays.
    """
    if registry is None:
        registry = load_bundled()
    out = _exec_node(recipe, registry, path=recipe.op)
    if not out.verified:
        verdict = is_gca_set(out.arrays)
        if not verdict.is_complementary:
            raise VerificationFailed(
                f"executed recipe failed final verification: {verdict}")
    return out


# coverage -----------------------------------------------------------------

def coverage_scan(kind: str, limit: int,
                  alphabet: Alphabet | None = None) -> dict:
    """Bulk reachability report, a pure function of its arguments.

    kind "golay-count": enumerate pair lengths <= limit for `alphabet`.
    kind "quad-sum-coverage": for each n <= limit, ask whether a quad
    with n in one dimension is reachable as a sum n = s2 + s3 of two
    block-decomposable pair sizes sharing their other dimension
    (n block-decomposable by itself counts via the pair-product route).
    """
    if limit < 1:
        raise ShapeMismatch("limit must be at least 1")
    if kind == "golay-count":
        if alphabet is None:
            raise ShapeMismatch("golay-count needs an alphabet")
        numbers = enumerate_golay_numbers(alphabet, limit)
        return {
            "kind": kind,
            "alphabet": alphabet.value,
            "limit": limit,
            "count": len(numbers),
            "numbers": numbers,
        }
    if kind == "quad-sum-coverage":
        # The shared dimension is unconstrained, so a split works as
        # soon as both parts factor into seed blocks: a tall enough
        # stack of 2-blocks absorbs any binder deficit.
        good = [n for n in range(1, limit + 1) if _decomposable(n)]
        good_set = set(good)
        uncovered = []
        for n in range(1, limit + 1):
            if n in good_set:
                continue
            if any(s in good_set and (n - s) in good_set
                   for s in range(1, n // 2 + 1)):
                continue
            uncovered.append(n)
        return {
            "kind": kind,
            "limit": limit,
            "uncovered": uncovered,
            "covered": limit - len(uncovered),
        }
    raise ShapeMismatch(f"unknown scan kind: {kind}")
