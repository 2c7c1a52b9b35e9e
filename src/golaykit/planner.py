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
dimension.  One rule gives every length answer from the exponents
(v2, v3, v5, v11, v13) of n: glue u = min(v2, v5 + v13) of the 2s to
5s (as 10s first) and 13s; n is a binary Golay number when v3 = v11 = 0
and u = v5 + v13, and a quaternary one when v3 + v5 + v11 + v13 <=
v2 + u + 1, that is when its best blocks have surplus at least -1.
Feasibility first, recipe for the winner: one rule,
`_pair_feasibility`, gives a shape's witnesses or its refusal and builds
no recipe; the quad rules test every candidate split with it and call
`plan_pair`, which adds the recipe, only for the split that wins.

Quad planning tries five rules in order: products of two planned
pairs or of two zero-tiled quads, sum-extension with a binder pair,
expansion of a smaller planned quad by a disjoint binary pair, and a
tile times a smaller planned quad zero-concatenated along the other
axis; the last two recurse on a depth budget.  Every recipe this
module returns has been checked against the registry for seed
availability.  `execute` builds every node through `assemble`, which
checks each set it makes by the direct route and marks it (an unmarked
set is checked at its node); the set it returns is checked by the
product route as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import _shapes
from .construct import (
    GcaSet,
    _direct_only,
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
from .seeds import SeedRegistry, _key_shapes, load_bundled
from .tensor import _MAX_RANK, Alphabet, _is_shape, _validate_shape, embed
from .verify import gca_check_polynomial, is_gca_set

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

# Seed block lengths: binary blocks glue, quaternary blocks need gluing.
_BINARY_BLOCKS = (2, 10, 26)
_QUATERNARY_BLOCKS = (3, 5, 11, 13)
_BLOCK_ORDER = _BINARY_BLOCKS + _QUATERNARY_BLOCKS
_BLOCK_PRIMES = (2, 3, 5, 11, 13)

_PRODUCT_CAP = 10 ** 7
_MAX_NESTING = 100  # the deepest plan (binary pair 2^23) has 23 levels


# witnesses ----------------------------------------------------------------

@dataclass(frozen=True, order=True)
class GolayWitness:
    """Exponent certificate that a number is a reachable pair length.

    Binary: n = 2^a 10^b 26^c.  Quaternary: n = 2^(a+u) 3^b 5^c 11^d
    13^e with b+c+d+e <= a+2u+1 and u <= c+e, where u counts glued
    10/26 blocks.  Both are read off the exponents of n, so each n has
    one witness: the binary one is unique, and the quaternary one takes
    the largest u, the smallest a.
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


def _exponents(n: int) -> tuple[int, int, int, int, int] | None:
    """(v2, v3, v5, v11, v13), the exponents of _BLOCK_PRIMES in n, or
    None when n < 1 or another prime divides n."""
    if n < 1:  # at n = 0, n % p == 0 never stops
        return None
    exps = []
    for p in _BLOCK_PRIMES:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        exps.append(k)
    return tuple(exps) if n == 1 else None


@lru_cache(maxsize=None)
def is_binary_golay_number(n: int) -> GolayWitness | None:
    """The witness n = 2^a 10^b 26^c, or None: n has no factor 3 or 11,
    and its 2s cover one per 5 and per 13."""
    exps = _exponents(n)
    if exps is None:
        return None
    v2, v3, v5, v11, v13 = exps
    if v3 or v11 or v2 < v5 + v13:
        return None
    return GolayWitness(v2 - v5 - v13, v5, v13)


@lru_cache(maxsize=None)
def is_quaternary_golay_number(n: int) -> GolayWitness | None:
    """The quaternary length witness, or None: u = min(v2, v5 + v13)
    glued 10/26 blocks and a = v2 - u.  The bound a + 2u + 1 grows with
    u, so this u is valid when any is, and its witness is the smallest."""
    exps = _exponents(n)
    if exps is None:
        return None
    v2, v3, v5, v11, v13 = exps
    u = min(v2, v5 + v13)
    a = v2 - u
    if v3 + v5 + v11 + v13 > a + 2 * u + 1:
        return None
    return GolayWitness(a, v3, v5, v11, v13, u, alphabet=Alphabet.QUATERNARY)


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
    return [n for n in _smooth_numbers(limit) if pred(n) is not None]


def _smooth_numbers(limit: int) -> list[int]:
    """Every n <= limit with no prime factor outside _BLOCK_PRIMES, in
    order: the only pair lengths and block products (10,358 to 10**9)."""
    numbers = [1]
    for p in _BLOCK_PRIMES:
        for n in numbers:  # reads what it appends, so n * p**k for all k
            if n * p <= limit:
                numbers.append(n * p)
    return sorted(numbers)


# block assignment ---------------------------------------------------------

@lru_cache(maxsize=None)
def _best_blocks(s: int) -> tuple[int, tuple[int, ...]] | None:
    """Factor s into seed blocks maximizing binder surplus (binary
    blocks minus quaternary blocks).

    Returns (surplus, blocks), the blocks listed in _BLOCK_ORDER, or
    None when s has a prime factor outside {2, 3, 5, 11, 13}.  A 2
    glued to a 5 or 13 scores +1 where the two apart score 0, so as
    many 2s as can go into 10s, then into 26s.
    """
    exps = _exponents(s)
    if exps is None:
        return None
    v2, v3, v5, v11, v13 = exps
    tens = min(v2, v5)
    twenty_sixes = min(v2 - tens, v13)
    counts = (v2 - tens - twenty_sixes, tens, twenty_sixes,
              v3, v5 - tens, v11, v13 - twenty_sixes)
    blocks = tuple(g for g, k in zip(_BLOCK_ORDER, counts) for _ in range(k))
    return sum(counts[:3]) - sum(counts[3:]), blocks


# recipes ------------------------------------------------------------------

class _Op(NamedTuple):
    """A recipe op: its construction, the child counts, the params it
    accepts and its member shapes (a `_shapes` rule)."""

    run: Callable[[list[GcaSet], int | None], GcaSet] | None
    arity: tuple[int, ...]
    params: frozenset[str]
    shapes: Callable


_SHAPE_ONLY = frozenset({"shape"})
_ALONG_DIM = frozenset({"dim", "shape"})

# Every construction is looked up by its module-level name when it runs,
# so a rebinding of that name (a tracer, say) is seen by `execute`.
_OPS = {
    "seed": _Op(None, (0,), frozenset({"axis", "rank", "shape"}),
                _shapes.seed),
    "binary_turyn_pair": _Op(lambda kids, dim: binary_turyn_pair(*kids),
                             (2,), _SHAPE_ONLY, _shapes.pair_product),
    "concat_pair": _Op(lambda kids, dim: concat_pair(*kids, dim),
                       (2,), _ALONG_DIM, _shapes.concat_pair),
    "glue_pair": _Op(lambda kids, dim: glue_pair(*kids), (3,), _SHAPE_ONLY,
                     _shapes.pair_product),
    "cross_set": _Op(lambda kids, dim: cross_set(*kids), (2,), _SHAPE_ONLY,
                     _shapes.cross_set),
    "interleave_quad": _Op(lambda kids, dim: interleave_quad(*kids, dim=dim),
                           (1,), _ALONG_DIM, _shapes.interleave_quad),
    "concat_zero_quad": _Op(
        lambda kids, dim: concat_zero_quad(*kids, dim=dim), (1, 2),
        _ALONG_DIM, _shapes.concat_zero_quad),
    "lagrange_quad": _Op(lambda kids, dim: lagrange_quad(*kids),
                         (2,), _SHAPE_ONLY, _shapes.lagrange_quad),
    "expand_quad": _Op(lambda kids, dim: expand_quad(*kids),
                       (2,), _SHAPE_ONLY, _shapes.expand_quad),
    "compromise_quad": _Op(
        lambda kids, dim: compromise_quad(kids[0], kids[1], dim, kids[2]),
        (3,), _ALONG_DIM, _shapes.compromise_quad),
    "disjoint_from_pair": _Op(lambda kids, dim: disjoint_from_pair(*kids),
                              (1,), _SHAPE_ONLY, _shapes.disjoint_from_pair),
}


@dataclass
class Recipe:
    """One node of an executable construction tree.

    Leaves are `seed` nodes naming a registry key, which ends in their
    member shapes: 1-D ones are laid along `axis` at `rank`, k-D ones
    used as stored.  Inner nodes name a construction and hold its inputs.
    Each node is checked against the op table when it is built, and its
    `shapes` (per member) come from the op's rule: a declared `shape`
    other than their bounding `shape`, or over `_PRODUCT_CAP` entries,
    is a ShapeMismatch, and any other fault a ParseError.
    """

    op: str
    params: dict = field(default_factory=dict)
    children: list["Recipe"] = field(default_factory=list)
    seed: str | None = None
    rank: int = field(init=False, repr=False, compare=False)
    shapes: tuple = field(init=False, repr=False, compare=False)
    shape: list[int] = field(init=False, repr=False, compare=False)

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
            stored = _key_shapes(self.seed)
            rank = params.get("rank", len(stored[0]))
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
        kids = [ch.shapes for ch in self.children]
        self.shapes = (spec.shapes(kids, params.get("dim")) if kids
                       else spec.shapes(stored, rank, params.get("axis", 0)))
        self.shape = bound = list(map(max, zip(*self.shapes)))
        shape = params.get("shape")
        if shape is not None and not _is_shape(shape, rank):
            raise ParseError(f"{op} shape must be a list of {rank} "
                             f"positive integers, got {shape!r}")
        if shape not in (None, bound):
            raise ShapeMismatch(f"{op} declared shape {shape}, not {bound}")
        if math.prod(bound) > _PRODUCT_CAP:
            raise ShapeMismatch(f"{op} node of shape {bound} has more than "
                                f"{_PRODUCT_CAP} entries")


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

def _refusal(role: str, alphabet: Alphabet, shape: tuple[int, ...]
             ) -> FeasibilityReport | None:
    """The refusal of a request that planning does not cover, made
    before any search: other alphabets, and products above the planning
    cap."""
    if alphabet not in (Alphabet.BINARY, Alphabet.QUATERNARY):
        reason = (f"{role} planning covers binary and quaternary "
                  f"alphabets, not {alphabet.value}")
    elif math.prod(shape) > _PRODUCT_CAP:
        reason = (f"product {math.prod(shape)} exceeds the planning cap "
                  f"{_PRODUCT_CAP}")
    else:
        return None
    return FeasibilityReport(False, alphabet, shape, reason=reason)


def _node(op, children, seed=None, **params) -> Recipe:
    """A recipe node that declares the shape the op table gives it."""
    node = Recipe(op, params, children, seed)
    params["shape"] = node.shape
    return node


def _seed_leaf(alphabet: Alphabet, length: int, axis: int,
               rank: int) -> Recipe:
    return _node("seed", [], SeedRegistry.pair_key(alphabet, length),
                 axis=axis, rank=rank)


def _oriented(rank: int, axis: int, size: int) -> tuple[int, ...]:
    shape = [1] * rank
    shape[axis] = size
    return tuple(shape)


def _trivial_leaf(rank: int) -> Recipe:
    return _seed_leaf(Alphabet.BINARY, 1, 0, rank)


def plan_pair(alphabet: Alphabet, shape: Sequence[int]) -> FeasibilityReport:
    """Decide whether a pair of the given shape is plannable.

    Binary shapes need every dimension to be a binary Golay number.
    Quaternary shapes need each dimension to factor into seed blocks
    with total binder surplus >= -1; glued 10/26 blocks must fit inside
    single dimensions.  Feasible reports carry an executable recipe.
    """
    report = _pair_feasibility(alphabet, _validate_shape(shape))
    if report.feasible:
        report.recipe = _pair_recipe([sorted(_best_blocks(s)[1])
                                      for s in report.shape])
    return report


_RULED_OUT_PAIR_SHAPES = ((2, 5), (2, 13))


def _pair_feasibility(alphabet: Alphabet, shape: tuple[int, ...],
                      explain: bool = True) -> FeasibilityReport:
    """The pair feasibility rule: `plan_pair`'s report without the
    recipe.  A feasible report's witness holds the per-dimension
    witnesses (binary) or block assignment (quaternary); the recipe
    follows from those alone, so quad rules test candidate splits here
    and call `plan_pair` only for the one that wins.  The quad rules read
    only `feasible` and pass `explain=False`: a refusal's reason is
    written only for a report that leaves the planner."""
    refusal = _refusal("pair", alphabet, shape)
    if refusal is not None:
        return refusal
    if alphabet is Alphabet.BINARY:
        wits = tuple(map(is_binary_golay_number, shape))
        if all(wits):
            return FeasibilityReport(True, alphabet, shape, witness=wits)
        ruled_out = tuple(sorted(shape)) in _RULED_OUT_PAIR_SHAPES
        reason = ""
        if explain:
            s = next(s for s, w in zip(shape, wits) if w is None)
            reason = (f"dimension {s} is not a binary Golay number "
                      f"(2^a 10^b 26^c)")
            if ruled_out:
                reason += ("; this exact shape is exhaustively ruled out, "
                           "no binary pair of it exists")
        return FeasibilityReport(False, alphabet, shape, reason=reason,
                                 nonexistent=ruled_out)
    n = math.prod(shape)
    product_wit = is_quaternary_golay_number(n)
    per_dim = [_best_blocks(s) for s in shape]
    assignable = None not in per_dim
    surplus = sum(p[0] for p in per_dim) if assignable else None
    if assignable and surplus >= -1:
        return FeasibilityReport(True, alphabet, shape, witness={
            "product": product_wit,
            "blocks_per_dimension": [sorted(p[1]) for p in per_dim],
            "surplus": surplus,
        })
    if product_wit is None:
        return FeasibilityReport(
            False, alphabet, shape, nonexistent=True,
            reason=(f"product {n} is not a quaternary Golay number "
                    f"(2^(a+u) 3^b 5^c 11^d 13^e with "
                    f"b+c+d+e <= a+2u+1, u <= c+e)") if explain else "",
        )
    if not explain:
        return FeasibilityReport(False, alphabet, shape, witness=product_wit)
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
    return FeasibilityReport(False, alphabet, shape, witness=product_wit,
                             reason=reason)


def _pair_recipe(blocks: list[list[int]]) -> Recipe:
    """The recipe for sorted seed blocks per dimension: quaternary blocks
    glued by binary binders, each leaf along its own axis."""
    rank = len(blocks)
    quater, binders = [], []  # (axis, block, leaf), ascending
    for axis, dim_blocks in enumerate(blocks):
        for g in dim_blocks:
            alph = (Alphabet.BINARY if g in _BINARY_BLOCKS
                    else Alphabet.QUATERNARY)
            leaf = _seed_leaf(alph, g, axis, rank)
            (binders if alph is Alphabet.BINARY else quater).append(
                (axis, g, leaf))
    return _assemble_glue_tree(quater, binders, rank)


def _turyn_chain(leaves: list[Recipe], rank: int) -> Recipe:
    """Left-deep product of binary seed leaves, or the trivial pair."""
    if not leaves:
        return _trivial_leaf(rank)
    recipe = leaves[0]
    for leaf in leaves[1:]:
        recipe = _node("binary_turyn_pair", [recipe, leaf])
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
        if g == 2:
            current = _node("concat_pair", [current, partner], dim=axis)
        else:
            current = _node("glue_pair", [leaf, current, partner])
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
    shape = _validate_shape(shape)
    refusal = _refusal("quad", alphabet, shape)
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
        if not (_pair_feasibility(alphabet, u, explain=False).feasible
                and _pair_feasibility(alphabet, v, explain=False).feasible):
            continue
        recipe = _node("cross_set", [plan_pair(alphabet, u).recipe,
                                     plan_pair(alphabet, v).recipe])
        return recipe, {"strategy": "pair-product", "left": list(u),
                        "right": list(v)}
    return None


def _tile_quad(size: int, axis: int, rank: int, registry,
               misses) -> tuple[Recipe, dict] | None:
    """A zero-tiled quad of `size` along `axis`, trivial elsewhere.

    Size 1 comes from the degenerate interleaving of the length-1
    pair, odd sizes 2s+1 from interleaving stored base sequences with
    index s, and even sizes 2(g+g') from zero-padded concatenation of
    two binary pairs.
    """
    if size == 1:
        return _node("interleave_quad", [_trivial_leaf(rank)],
                     dim=axis), {"tile": 1}
    if size % 2 == 1:
        s = (size - 1) // 2
        if registry.find_base_sequences(s) is None:
            misses.append(SeedRegistry.base_key(s))
            return None
        child = Recipe("seed", {"axis": axis, "rank": rank},
                       seed=SeedRegistry.base_key(s))
        recipe = _node("interleave_quad", [child], dim=axis)
        return recipe, {"tile": size, "base_index": s}
    half = size // 2
    for g in range(1, half // 2 + 1):
        g2 = half - g
        if (is_binary_golay_number(g) is None
                or is_binary_golay_number(g2) is None):
            continue
        p1 = plan_pair(Alphabet.BINARY, _oriented(rank, axis, g))
        p2 = plan_pair(Alphabet.BINARY, _oriented(rank, axis, g2))
        recipe = _node("concat_zero_quad", [p1.recipe, p2.recipe], dim=axis)
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
        t1 = _tile_quad(size1, ax1, rank, registry, misses)
        if t1 is None:
            continue
        t2 = _tile_quad(size2, ax2, rank, registry, misses)
        if t2 is None:
            continue
        recipe = _node("lagrange_quad", [t1[0], t2[0]])
        return recipe, {"strategy": "tile-product",
                        "tiles": [t1[1], t2[1]]}
    return None


def _quad_compromise(alphabet, shape, registry, misses, depth):
    """Sum-extension: two pairs sharing one dimension, plus a binder.
    Each binder shape is tested once per split of the summed axis."""
    rank = len(shape)

    def feasible(pshape: tuple[int, ...]) -> bool:
        return _pair_feasibility(alphabet, pshape, explain=False).feasible

    for j in range(rank):
        def put(at_j: int, off: int) -> tuple[int, ...]:
            if rank == 1:
                return (at_j,)
            return (at_j, off) if j == 0 else (off, at_j)

        if rank == 1:
            off_choices = [(1, 1)]
        else:
            o = 1 - j
            off_choices = [(t_o, shape[o] // t_o)
                           for t_o in _divisors(shape[o])]
        for t_j in _divisors(shape[j]):
            summed = shape[j] // t_j
            if summed < 2:
                continue
            binders = [(t_off, s_off) for t_off, s_off in off_choices
                       if feasible(put(t_j, t_off))]
            for s2 in range(1, summed // 2 + 1):
                s3 = summed - s2
                if _best_blocks(s2) is None or _best_blocks(s3) is None:
                    continue
                for t_off, s_off in binders:
                    parts = (put(s2, s_off), put(s3, s_off), put(t_j, t_off))
                    if not (feasible(parts[0]) and feasible(parts[1])):
                        continue
                    recipe = _node(
                        "compromise_quad",
                        [plan_pair(alphabet, p).recipe for p in parts], dim=j)
                    return recipe, {
                        "strategy": "sum-extension",
                        "sum_axis": j,
                        "pair_shapes": [list(parts[0]), list(parts[1])],
                        "binder_shape": list(parts[2]),
                    }
    return None


def _quad_expand(alphabet, shape, registry, misses, depth):
    """Shrink by a binary-Golay divisor tuple and recurse."""
    if depth <= 0:
        return None
    for t in _divisor_tuples(shape):
        if all(x == 1 for x in t):
            continue
        if not _pair_feasibility(Alphabet.BINARY, t, explain=False).feasible:
            continue
        inner = tuple(s // x for s, x in zip(shape, t))
        sub = plan_quad(alphabet, inner, registry, _depth=depth - 1)
        if not sub.feasible:
            continue
        dis = _node("disjoint_from_pair",
                    [plan_pair(Alphabet.BINARY, t).recipe])
        recipe = _node("expand_quad", [sub.recipe, dis])
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
            tile = _tile_quad(t, j, 2, registry, [])
            if tile is None:
                continue
            inner = list(shape)
            inner[j] //= t
            inner[o] //= 4
            sub = plan_quad(alphabet, inner, registry, _depth=depth - 1)
            if not sub.feasible:
                continue
            wide = _node("concat_zero_quad", [sub.recipe], dim=o)
            recipe = _node("lagrange_quad", [tile[0], wide])
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
    tensors = [embed(t, rank, axis) if t.rank < rank else t
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
        if not out.verified:
            # a rebound construction can return an unmarked set: check
            # it where it is made, so the error names this node
            verdict = is_gca_set(out.arrays)
            if not verdict.is_complementary:
                raise VerificationFailed(
                    f"executed recipe failed final verification: {verdict}")
    except MissingSeed:
        raise
    except GolayKitError as err:
        if not getattr(err, "recipe_path", None):
            err.recipe_path = path
            err.args = (f"{err.args[0] if err.args else err}"
                        f" [recipe node {path}]",) + err.args[1:]
        raise
    return out


def execute(recipe: Recipe, registry: SeedRegistry | None = None) -> GcaSet:
    """Run a recipe bottom-up against a seed registry.

    Each node's set is checked once, by the direct route: in `assemble`,
    or at the node when a rebound construction returns an unmarked set,
    so a wrong set is named where it is made.  The set returned is then
    checked by the product route too.  Every size was fixed when the
    recipe was built: no node, and so no Kronecker product a
    construction makes for it, has more than `_PRODUCT_CAP` entries.
    Execution is deterministic: the same recipe and registry give
    identical arrays.
    """
    if registry is None:
        registry = load_bundled()
    token = _direct_only.set(True)
    try:
        out = _exec_node(recipe, registry, path=recipe.op)
    finally:
        _direct_only.reset(token)
    if not gca_check_polynomial(out.arrays):
        raise VerificationFailed("executed recipe failed final verification: "
                                 "polynomial product check failed")
    return out


# coverage -----------------------------------------------------------------

def coverage_scan(kind: str, limit: int,
                  alphabet: Alphabet | None = None) -> dict:
    """Bulk reachability report, a pure function of its arguments.

    kind "golay-count": enumerate pair lengths <= limit for `alphabet`.
    kind "quad-sum-coverage": for each n <= limit, ask whether a quad
    with n in one dimension is reachable as a sum n = s2 + s3 of two
    smooth pair sizes sharing their other dimension (n smooth by itself
    counts via the pair-product route), for limits up to the planning
    cap; every smooth size factors into seed blocks.  Only
    _smooth_numbers are judged.
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
        if limit > _PRODUCT_CAP:
            raise ShapeMismatch(f"quad-sum-coverage lists every uncovered n, "
                                f"so its limit is at most {_PRODUCT_CAP}")
        # The shared dimension is unconstrained, so a split works as
        # soon as both parts factor into seed blocks, as every smooth
        # number does: a tall enough stack of 2-blocks absorbs any
        # binder deficit.
        good = np.array(_smooth_numbers(limit))
        covered = np.zeros(limit + 1, dtype=bool)
        covered[good] = True
        for s in good[:np.searchsorted(good, limit // 2, "right")]:
            covered[s + good[:np.searchsorted(good, limit - s, "right")]] = True
        uncovered = (np.flatnonzero(~covered[1:]) + 1).tolist()
        return {
            "kind": kind,
            "limit": limit,
            "uncovered": uncovered,
            "covered": limit - len(uncovered),
        }
    raise ShapeMismatch(f"unknown scan kind: {kind}")
