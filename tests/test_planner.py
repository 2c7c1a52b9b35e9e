"""Feasibility arithmetic, recipe planning and execution."""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from golaykit import construct, planner, verify
from golaykit.construct import GcaSet
from golaykit.errors import (
    GolayKitError,
    MissingSeed,
    ParseError,
    ShapeMismatch,
    VerificationFailed,
)
from golaykit.planner import (
    FeasibilityReport,
    GolayWitness,
    Recipe,
    coverage_scan,
    enumerate_golay_numbers,
    execute,
    is_binary_golay_number,
    is_quaternary_golay_number,
    plan_pair,
    plan_quad,
    recipe_from_obj,
    recipe_to_obj,
    report_to_obj,
)
from golaykit.seeds import PAIR_KIND, SeedRecord, SeedRegistry, load_bundled
from golaykit.tensor import Alphabet, Tensor
from golaykit.verify import gca_check_polynomial, is_gca_set

from . import oracles

B, Q = Alphabet.BINARY, Alphabet.QUATERNARY


def _leaf(length=2, axis=0, rank=1, **extra):
    return {"op": "seed", "seed": f"golay-pair/binary/{length};{length}",
            "params": {"axis": axis, "rank": rank}, **extra}


def _doc(op, children, **params):
    return {"format": "gca-recipe/1", "op": op, "params": params,
            "children": children}


SQUARE = "golay-pair/binary/2x2;2x2"


def _turyn_tower(levels: int, key: str = "golay-pair/binary/2;2") -> dict:
    """A gca-recipe/1 document of `levels` nested binary_turyn_pair nodes
    over the pair `key`: each level squares every size."""
    node = {"op": "seed", "seed": key}
    for _ in range(levels):
        node = {"op": "binary_turyn_pair", "children": [node, node]}
    return {"format": "gca-recipe/1", **node}


# Documents that must fail with ParseError when parsed, before any
# construction runs.
MALFORMED_RECIPES = [
    pytest.param(_doc("glue_pair", [_leaf(), _leaf(), _leaf()], dim=0),
                 id="dim-on-glue-pair"),
    pytest.param(_doc("concat_pair", [_leaf(), _leaf()], dim="x"),
                 id="dim-not-integer"),
    pytest.param(_doc("concat_pair", [_leaf()], dim=0),
                 id="missing-child"),
    pytest.param({"format": "gca-recipe/1", **_leaf(children=[_leaf()])},
                 id="seed-with-child"),
    pytest.param(_doc("binary_turyn_pair",
                      [_leaf(axis=5, rank=2), _leaf(axis=1, rank=2)]),
                 id="axis-outside-rank"),
    pytest.param(_doc("concat_pair", [_leaf(rank=2), _leaf(rank=2)], dim=2),
                 id="dim-outside-rank"),
    pytest.param(_doc("binary_turyn_pair", [_leaf(rank=1), _leaf(rank=2)]),
                 id="mixed-rank-children"),
    pytest.param(_doc("binary_turyn_pair", [_leaf(), _leaf()], shape="abc"),
                 id="shape-not-list"),
    pytest.param(_doc("concat_pair", [_leaf(), _leaf()]), id="dim-missing"),
    pytest.param(_doc("cross_set", [_leaf(), _leaf()]) | {"seed": "x"},
                 id="seed-key-on-inner-node"),
    pytest.param(_doc(["cross_set"], [_leaf(), _leaf()]), id="op-not-string"),
    pytest.param(_doc("rank1_pair", [_leaf(), _leaf()]), id="rank1-pair"),
    pytest.param(_doc("disjoint_mask_pair", [_leaf()]),
                 id="disjoint-mask-pair"),
    pytest.param(_doc("reshape", [_leaf(rank=2)]), id="reshape"),
    pytest.param({"format": "gca-recipe/1", **_leaf(rank=100)},
                 id="rank-over-numpy-limit"),
    pytest.param({"format": "gca-recipe/1", "op": "seed", "seed": SQUARE,
                  "params": {"rank": 1}}, id="2d-seed-at-rank-1"),
    pytest.param({"format": "gca-recipe/1", "op": "seed", "seed": SQUARE,
                  "params": {"rank": 3}}, id="2d-seed-at-rank-3"),
    pytest.param({"format": "gca-recipe/1", "op": "seed", "seed": SQUARE,
                  "params": {"axis": 1}}, id="2d-seed-along-axis-1"),
    pytest.param(_doc("cross_set", [_leaf(), {"op": "seed", "seed": "x"}]),
                 id="seed-key-without-shapes"),
    pytest.param({"format": "gca-recipe/1", "op": "seed",
                  "seed": "golay-pair/binary/2x2;2"}, id="seed-key-mixed-rank"),
]


def _chain_text(levels: int) -> str:
    """A gca-recipe/1 document of `levels` nested nodes, built as text:
    json.dumps itself recurses out at the depths this is used for."""
    text = json.dumps(_leaf())
    for _ in range(levels - 1):
        text = f'{{"op": "disjoint_from_pair", "children": [{text}]}}'
    return '{"format": "gca-recipe/1", ' + text[1:]


@pytest.fixture(scope="module")
def registry():
    return load_bundled()


class TestGolayNumbers:
    def test_binary_list(self):
        assert enumerate_golay_numbers(B, 100) == [
            1, 2, 4, 8, 10, 16, 20, 26, 32, 40, 52, 64, 80, 100]

    def test_quaternary_list(self):
        assert enumerate_golay_numbers(Q, 28) == [
            1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 16, 18, 20, 22, 24, 26]

    def test_binary_witnesses(self):
        w = is_binary_golay_number(20)
        assert (w.a, w.b, w.c) == (1, 1, 0) and w.n == 20
        w = is_binary_golay_number(52)
        assert (w.a, w.b, w.c) == (1, 0, 1) and w.n == 52
        assert is_binary_golay_number(3) is None
        assert is_binary_golay_number(14) is None

    def test_quaternary_witnesses(self):
        w = is_quaternary_golay_number(18)
        assert (w.a, w.b) == (1, 2) and w.n == 18
        w = is_quaternary_golay_number(26)
        # 26 needs a glued block: u counts 10/26 factors reused as binders
        assert (w.e, w.u) == (1, 1) and w.n == 26
        assert is_quaternary_golay_number(15) is None
        assert is_quaternary_golay_number(33) is None

    def test_odd_quaternary_lengths(self):
        odd = [n for n in enumerate_golay_numbers(Q, 28) if n % 2]
        assert odd == [1, 3, 5, 11, 13]

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=200, deadline=None)
    def test_witness_product_matches(self, n):
        w = is_binary_golay_number(n)
        if w is not None:
            assert 2 ** w.a * 10 ** w.b * 26 ** w.c == n
        w = is_quaternary_golay_number(n)
        if w is not None:
            assert w.n == n
            assert w.b + w.c + w.d + w.e <= w.a + 2 * w.u + 1
            assert w.u <= w.c + w.e

    @given(st.integers(min_value=1, max_value=200),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_binary_closed_under_product(self, m, n):
        if is_binary_golay_number(m) and is_binary_golay_number(n):
            assert is_binary_golay_number(m * n) is not None


class TestBlockDecomposition:
    """Per-dimension factorization into seed blocks with a binder
    surplus score; the shape is pair-feasible iff the scores sum to
    at least -1."""

    def test_frozen_tables(self):
        assert planner._best_blocks(90) == (-1, (10, 3, 3))
        assert planner._best_blocks(20) == (2, (2, 10))
        assert planner._best_blocks(78) == (0, (26, 3))
        assert planner._best_blocks(132) == (0, (2, 2, 3, 11))
        assert planner._best_blocks(7) is None
        assert planner._best_blocks(1) == (0, ())

    def test_block_products(self):
        for s in (6, 12, 30, 44, 66, 100, 130):
            surplus, blocks = planner._best_blocks(s)
            assert int(np.prod(blocks)) == s if blocks else s == 1


def _smooth(limit: int) -> list[int]:
    numbers = [1]
    for p in (2, 3, 5, 11, 13):
        numbers = [n * p ** k for n in numbers
                   for k in range(limit.bit_length()) if n * p ** k <= limit]
    return numbers


class TestClosedForms:
    """The exponent rule against the definitions in tests/oracles.py:
    witnesses by searching every exponent choice, blocks by every
    factorization."""

    @staticmethod
    def _check(n):
        w = is_binary_golay_number(n)
        assert (w and (w.a, w.b, w.c)) == oracles.binary_golay_witness(n)
        w = is_quaternary_golay_number(n)
        assert ((w and (w.a, w.b, w.c, w.d, w.e, w.u))
                == oracles.quaternary_golay_witness(n))
        blocks = planner._best_blocks(n)
        assert blocks == oracles.best_blocks(n)
        # 1-D: the blocks glue into a pair exactly at quaternary lengths
        assert (blocks is not None and blocks[0] >= -1) == (w is not None)

    def test_every_smooth_length(self):
        numbers = _smooth(10 ** 9)
        assert len(numbers) == 10358
        for n in numbers:
            self._check(n)

    def test_other_lengths(self):
        for n in [*range(-30, 3001), 7 * 2 ** 25, 17 * 10 ** 5, 10 ** 9 + 7]:
            self._check(n)


class TestPlanPair:
    def test_feasible_binary(self, registry):
        for shape in [(4,), (20,), (2, 10), (4, 26)]:
            rep = plan_pair(B, shape)
            assert rep.feasible, rep.reason
            gs = execute(rep.recipe, registry)
            assert gs.shape == shape
            assert gs.role == "pair"

    def test_feasible_quaternary(self, registry):
        for shape, top in [((6, 3), "concat_pair"), ((9, 10), "glue_pair"),
                           ((13,), "seed")]:
            rep = plan_pair(Q, shape)
            assert rep.feasible and rep.recipe.op == top
            gs = execute(rep.recipe, registry)
            assert gs.shape == shape

    def test_glued_block_split_across_dims(self):
        # the product 90 is reachable only by reusing a factor-10 block
        # as a binder, which must sit inside one dimension
        rep = plan_pair(Q, (18, 5))
        assert not rep.feasible and not rep.nonexistent
        assert "glued factor 10" in rep.reason
        assert "split across different dimensions" in rep.reason
        assert plan_pair(Q, (9, 10)).feasible
        assert plan_pair(Q, (90,)).feasible

    def test_known_nonexistent(self):
        rep = plan_pair(Q, (15,))
        assert not rep.feasible and rep.nonexistent
        for shape in [(2, 5), (2, 13)]:
            rep = plan_pair(B, shape)
            assert not rep.feasible and rep.nonexistent
        # 1-D binary non-Golay lengths are merely out of reach
        rep = plan_pair(B, (3,))
        assert not rep.feasible and not rep.nonexistent

    def test_pair_witness_serialized_per_dimension(self):
        obj = report_to_obj(plan_pair(B, (20,)))
        assert obj["feasible"] is True
        assert obj["witness"] == [{"a": 1, "b": 1, "c": 0}]

    @given(st.sampled_from(enumerate_golay_numbers(Q, 26)))
    @settings(max_examples=20, deadline=None)
    def test_every_quaternary_length_planable(self, n):
        assert plan_pair(Q, (n,)).feasible

    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=100, deadline=None)
    def test_feasible_product_is_golay(self, m, n):
        # binder budgets can rule a shape out even when each dimension
        # is fine by itself, but never the other way around
        if plan_pair(Q, (m, n)).feasible:
            assert is_quaternary_golay_number(m * n) is not None


class TestPlanQuad:
    def test_strategy_ladder_tops(self, registry):
        cases = [
            (Q, (3, 3), "cross_set"),
            (Q, (9, 36), "cross_set"),
            (Q, (36, 87), "compromise_quad"),
            (B, (3, 3), "lagrange_quad"),
            (B, (2, 7), "expand_quad"),
        ]
        for alph, shape, top in cases:
            rep = plan_quad(alph, shape, registry)
            assert rep.feasible, (shape, rep.reason)
            assert rep.recipe.op == top, (shape, rep.recipe.op)

    def test_executions_verify(self, registry):
        for alph, shape in [(Q, (3, 3)), (B, (3, 3)), (B, (2, 7)),
                            (Q, (9, 36))]:
            rep = plan_quad(alph, shape, registry)
            gs = execute(rep.recipe, registry)
            assert gs.role == "quad" and len(gs.arrays) == 4
            assert gs.shape == shape
            assert gs.total_weight() == 4 * int(np.prod(shape))

    def test_quad_witness_describes_strategy(self, registry):
        obj = report_to_obj(plan_quad(Q, (3, 3), registry))
        assert obj["witness"] == {
            "strategy": "pair-product", "left": [1, 3], "right": [3, 1]}

    def test_sum_extension_shape(self, registry):
        # 87 = 9 + 78 with both parts block-decomposable
        rep = plan_quad(Q, (36, 87), registry)
        gs = execute(rep.recipe, registry)
        assert gs.shape == (36, 87)
        assert gs.total_weight() == 4 * 36 * 87

    def test_missing_seeds_named_in_reason(self, registry):
        rep = plan_quad(Q, (1, 799), registry)
        assert not rep.feasible
        assert "base-sequences/binary/24;24;23;23" in rep.reason

    def test_infeasible_without_seeds(self, registry):
        rep = plan_quad(B, (3, 3), SeedRegistry())
        assert not rep.feasible
        assert "missing seeds" in rep.reason


class TestTileConcat:
    """A tile times a zero-concatenated planned quad."""

    def test_12x959_executes(self, registry):
        rep = plan_quad(Q, (12, 959), registry)
        assert rep.feasible and rep.recipe.op == "lagrange_quad"
        gs = execute(rep.recipe, registry)
        assert gs.shape == (12, 959)
        assert gs.total_weight() == 4 * 12 * 959

    def test_12x959_recipe(self, registry):
        # tile 7 from base sequences m=3 times the 3x137 sum-extension
        # quad, zero-concatenated to 12x137
        rec = plan_quad(Q, (12, 959), registry).recipe
        tile, wide = rec.children
        assert (rec.op, tile.op, wide.op) == (
            "lagrange_quad", "interleave_quad", "concat_zero_quad")
        assert tile.params == {"dim": 1, "shape": [1, 7]}
        (base,) = tile.children
        assert base.seed == SeedRegistry.base_key(3)
        assert wide.params == {"dim": 0, "shape": [12, 137]}
        (inner,) = wide.children
        assert inner.op == "compromise_quad"
        assert inner.params["shape"] == [3, 137]

    def test_plan_shape_only(self, registry):
        # planning is cheap even when execution is not
        rep = plan_quad(Q, (4, 959), registry)
        assert rep.feasible
        assert rep.witness["strategy"] == "tile-zero-concat"

    def test_spends_one_level_of_depth(self, registry):
        assert plan_quad(Q, (12, 959), registry, _depth=1).feasible
        rep = plan_quad(Q, (12, 959), registry, _depth=0)
        assert not rep.feasible
        assert "tile-times-zero-concatenation" in rep.reason

    def test_binary_12x33_builds(self, registry):
        rep = plan_quad(B, (12, 33), registry)
        assert rep.feasible, rep.reason
        assert rep.witness["strategy"] == "tile-zero-concat"
        gs = execute(rep.recipe, registry)
        assert gs.shape == (12, 33) and gs.alphabet is B
        assert is_gca_set(gs.arrays).is_complementary
        assert gca_check_polynomial(gs.arrays)


# sha256 prefixes of the sorted-key recipe_to_obj JSON of the plans the
# benchmark ladder builds, frozen when the 959 pipeline became a rule
PINNED_PLANS = [
    (plan_pair, Q, (9, 10), "cdfb5702cc4a10fb"),
    (plan_pair, B, (16384,), "3cf1a575c497f14a"),
    (plan_quad, Q, (36, 87), "07e84d17bf2bc505"),
    (plan_quad, Q, (12, 959), "22f7f5ef432bb76a"),
    (plan_quad, Q, (300, 12), "792fbee29681b103"),
    (plan_quad, Q, (12, 300), "c7084f79242131e6"),
    (plan_quad, Q, (4, 959), "ae5a98d008bd3f58"),
]


@pytest.mark.parametrize("plan, alphabet, shape, digest", PINNED_PLANS)
def test_benchmark_plans_pinned(plan, alphabet, shape, digest):
    text = json.dumps(recipe_to_obj(plan(alphabet, shape).recipe),
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# sha256 of the sorted-key report_to_obj JSON lines of every quad
# m x n, 1 <= m <= n <= 40, binary then quaternary: reasons, witnesses
# and recipes alike, frozen before pair feasibility was split from
# recipe building
QUAD_REPORTS_40 = (
    "4c92f8a293e543785fd01253515f1a65e24efcf0c092032b3fd262f7aeab95c2")


def test_quad_reports_pinned(registry):
    h = hashlib.sha256()
    for alphabet in (B, Q):
        for m in range(1, 41):
            for n in range(m, 41):
                rep = plan_quad(alphabet, (m, n), registry)
                h.update(json.dumps(report_to_obj(rep),
                                    sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == QUAD_REPORTS_40


# The shapes the benchmark catalog builds for seed 1, by role and
# alphabet, in draw order: every one is on the frozen feasible list.
CATALOG_SEED_1_BUILDS = {
    ("quad", Q): """
        2x190 1x353 4x13 10x34 13x27 43 1x271 1x228 2x95 1x89 2x14 2x10
        2x117 2x27 239 9x24 1x193 6x37 245 5x45 1x138 218 1x213 13x13 30
        98 4x20 369 2x34 1x306 299 18x22 1x246 3x122 3x123 5x21 3x62 6x39
        10x32 2x175 2x55 2x61 3x124 133 136""",
    ("quad", B): """
        201 3x64 96 1x192 14x16 22 2x21 57 221 100 4x5 7x26 3x10 132 2x41
        7x21 2x88 2x8 2x121 1x154 1x2 8x34 6x13 7x30 4x34 4x64 300 10x39
        9x42 340 8x49 4x80 2x12 3x36 5x7 1x204 8x21 1x234 1x388 1x390
        1x228 4x96 1x364 8x41 396""",
    ("pair", B): """
        1x40 8 40 2x2 80 1x10 2x32 128 4x20 200 4x26 64 2x8 208 2 1x400
        4x16 2x64 8x8 1x4 10x32 8x16 10x40 1x32 1x52 8x40 16 1x260 4x80
        4x32""",
    ("pair", Q): """
        6x48 2x18 1x256 8x8 1x26 2x66 3 2x33 8x18 3x20 2x52 16x16 16x20
        5x40 1x96 390 12x18 72 1x18 2x50 8x32 5x22 3x80 13x16 1x120 1x286
        1x156 2x121 6x12 5x12 50 3x60 1x110 8x25 13x22 1x100 1x264 8x13
        10x33 10x12""",
}


def _built_digest(sets) -> str:
    h = hashlib.sha256()
    for gs in sets:
        for a in gs.arrays:
            h.update(repr(a.shape).encode())
            for plane in (a.re, a.im):
                h.update(repr(plane.tolist()).encode())
    return h.hexdigest()[:32]


# sha256 prefixes of the arrays `execute` builds, shapes and entries,
# frozen before intermediate sets were checked by one route
PINNED_BUILDS = [
    (plan_pair, Q, (9, 10), "770224672bfaf5378eda5e26984c700e"),
    (plan_quad, Q, (36, 87), "cdd7087bc33ee94c121b6618df8cf3aa"),
    (plan_quad, Q, (12, 300), "fb7d92712d1119233a9b9aba14a5becd"),
    (plan_pair, B, (16384,), "f45ab1efe403a977f6b5924b2beba9a4"),
]
CATALOG_SEED_1_DIGEST = "f8d77354abe142d10f10d2064461adb8"


@pytest.mark.parametrize("plan, alphabet, shape, digest", PINNED_BUILDS)
def test_benchmark_builds_pinned(registry, plan, alphabet, shape, digest):
    rep = (plan_pair(alphabet, shape) if plan is plan_pair
           else plan_quad(alphabet, shape, registry))
    assert _built_digest([execute(rep.recipe, registry)]) == digest


def test_catalog_builds_pinned(registry):
    sets = []
    for (role, alphabet), text in CATALOG_SEED_1_BUILDS.items():
        for word in text.split():
            shape = tuple(int(s) for s in word.split("x"))
            rep = (plan_pair(alphabet, shape) if role == "pair"
                   else plan_quad(alphabet, shape, registry))
            assert rep.feasible, (role, alphabet, shape)
            sets.append(execute(rep.recipe, registry))
    assert len(sets) == 160
    assert _built_digest(sets) == CATALOG_SEED_1_DIGEST


class TestPairFeasibilityRule:
    """`_pair_feasibility` is `plan_pair` without the recipe; the quad
    rules ask it about every candidate and plan only the winner."""

    SHAPES = ([(m, n) for m in range(1, 79) for n in range(m, 79)]
              + [(n,) for n in range(1, 1001)]
              + [(10 ** 4, 10 ** 4), (2 ** 24,)])  # the last two over the cap

    @pytest.mark.parametrize("alphabet", [B, Q])
    def test_agrees_with_plan_pair(self, alphabet):
        for shape in self.SHAPES:
            rule = planner._pair_feasibility(alphabet, shape)
            rep = plan_pair(alphabet, shape)
            assert rule.feasible == rep.feasible, shape
            assert rule.recipe is None and (rep.recipe is not None) == rep.feasible
            with_recipe = report_to_obj(rep)
            with_recipe.pop("recipe", None)
            assert report_to_obj(rule) == with_recipe, shape

    @pytest.mark.parametrize("alphabet", [B, Q])
    def test_quiet_calls_give_the_verdict(self, alphabet, monkeypatch):
        # the quad rules' quiet calls: the same verdict as a bool, with
        # no report made below the cap (a capped shape is refused by
        # the cap check shared with plan_quad)
        verdicts = [planner._pair_feasibility(alphabet, shape).feasible
                    for shape in self.SHAPES]

        def refuse(*args, **kwargs):
            raise AssertionError("a quiet call made a report")

        for shape, feasible in zip(self.SHAPES, verdicts):
            capped = math.prod(shape) > planner._PRODUCT_CAP
            with monkeypatch.context() as patch:
                if not capped:
                    patch.setattr(planner, "FeasibilityReport", refuse)
                quiet = planner._pair_feasibility(alphabet, shape, explain=False)
            assert quiet is feasible and not (capped and quiet), shape

    @pytest.mark.parametrize("alphabet", [B, Q])
    def test_quads_plan_only_winning_pairs(self, alphabet, registry,
                                           monkeypatch):
        verdicts = []
        plan = planner.plan_pair

        def spy(*args):
            rep = plan(*args)
            verdicts.append(rep.feasible)
            return rep

        monkeypatch.setattr(planner, "plan_pair", spy)
        for m in range(1, 25):
            for n in range(m, 25):
                plan_quad(alphabet, (m, n), registry)
        assert verdicts and all(verdicts)


class TestSizeCap:
    @pytest.mark.parametrize("plan, alphabet, shape", [
        (plan_pair, B, (2 ** 40,)),
        (plan_pair, Q, (2 ** 20, 2 ** 20)),
        (plan_quad, B, (2 ** 24,)),
        (plan_quad, Q, (2 ** 40,)),
    ])
    def test_refused_before_planning(self, registry, plan, alphabet, shape):
        args = (registry,) if plan is plan_quad else ()
        rep = plan(alphabet, shape, *args)
        assert not rep.feasible
        assert "exceeds the planning cap" in rep.reason


class TestRecipeSerialization:
    def test_round_trip(self, registry):
        rec = plan_quad(Q, (3, 3), registry).recipe
        obj = recipe_to_obj(rec)
        assert obj["format"] == "gca-recipe/1"
        assert all("format" not in c for c in obj["children"])
        assert recipe_from_obj(obj) == rec

    def test_rejects_bad_documents(self):
        with pytest.raises(ParseError):
            recipe_from_obj({"format": "gca-recipe/2", "op": "seed",
                             "params": {}})
        with pytest.raises(ParseError):
            recipe_from_obj({"format": "gca-recipe/1", "op": "mystery",
                             "params": {}})
        with pytest.raises(ParseError):
            recipe_from_obj("nope")

    def test_nesting_bounded(self):
        assert recipe_from_obj(json.loads(_chain_text(100))).op == (
            "disjoint_from_pair")
        with pytest.raises(ParseError, match="deeper than 100"):
            recipe_from_obj(json.loads(_chain_text(101)))
        # the deepest plan under the product cap parses back
        deep = plan_pair(B, (2 ** 23,)).recipe
        assert recipe_from_obj(recipe_to_obj(deep)) == deep

    def test_unknown_op_rejected_at_build(self):
        with pytest.raises(ParseError):
            Recipe("transmogrify", {}, ())

    @pytest.mark.parametrize("doc", MALFORMED_RECIPES)
    def test_malformed_rejected_at_parse(self, doc):
        with pytest.raises(ParseError):
            recipe_from_obj(doc)

    def test_table_arities_all_emitted(self, registry):
        # every (op, child count) the op table allows is one the
        # planner emits for some shape below
        plans = [plan_pair(B, (1, 4)), plan_pair(Q, (1, 6)),
                 plan_pair(Q, (1, 30))]
        plans += [plan_quad(B, (1, n), registry) for n in (1, 3, 6, 14, 38)]
        plans.append(plan_quad(Q, (4, 959), registry))
        emitted = set()

        def walk(node):
            emitted.add((node.op, len(node.children)))
            for child in node.children:
                walk(child)

        for rep in plans:
            assert rep.feasible, rep.reason
            walk(rep.recipe)
        allowed = {(op, n) for op, spec in planner._OPS.items()
                   for n in spec.arity}
        assert emitted == allowed

    def test_declared_shape_cross_checked(self):
        obj = recipe_to_obj(plan_pair(Q, (9, 10)).recipe)
        obj["params"]["shape"] = [9, 11]
        with pytest.raises(ShapeMismatch) as exc:
            recipe_from_obj(obj)
        assert "declared shape" in str(exc.value)

    def test_execute_deterministic(self, registry):
        rec = plan_pair(Q, (9, 10)).recipe
        first = execute(rec, registry).arrays
        second = execute(rec, registry).arrays
        for x, y in zip(first, second):
            assert np.array_equal(x.re, y.re)
            assert np.array_equal(x.im, y.im)

    def test_final_check_raises_verification_failed(self, registry,
                                                     monkeypatch):
        # the op table looks constructions up by name when it runs, so
        # a rebound name reaches execute; its unverified output must
        # then fail the final check
        ones = Tensor(np.ones(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
        monkeypatch.setattr(planner, "binary_turyn_pair",
                            lambda ab, cd: GcaSet((ones, ones)))
        with pytest.raises(VerificationFailed):
            execute(plan_pair(B, (4,)).recipe, registry)

    def test_missing_seed_carries_recipe_path(self, registry):
        rec = plan_pair(Q, (9, 10)).recipe
        with pytest.raises(MissingSeed) as exc:
            execute(rec, SeedRegistry())
        assert exc.value.key == "golay-pair/binary/10;10"
        assert "glue_pair/seed[0]" in str(exc.value)


def _digest(arrays) -> str:
    """Content digest of an array set, as the benchmark's tracer takes it."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(repr(a.shape).encode())
        for plane in (a.re, a.im):
            h.update(repr(plane.tolist()).encode())
    return h.hexdigest()


class TestOneCheckPerSet:
    """`is_gca_set` sees exactly the sets that `assemble` makes, once per
    set made: no consumer and no final check goes over a marked set again.
    A seed leaf or subtree that a recipe holds twice is made twice, so
    its content is counted once per copy on both sides."""

    @pytest.mark.parametrize("role, shape", [("pair", (9, 10)),
                                             ("quad", (36, 87)),
                                             ("pair", (30,))])
    def test_execute_checks_each_set_once(self, registry, monkeypatch,
                                          role, shape):
        report = (plan_pair(Q, shape) if role == "pair"
                  else plan_quad(Q, shape, registry))
        checked, made = Counter(), Counter()
        check, assemble = verify.is_gca_set, construct.assemble

        def counted_check(arrays):
            checked[_digest(arrays)] += 1
            return check(arrays)

        def counted_assemble(arrays, *args, **kwargs):
            out = assemble(arrays, *args, **kwargs)
            bound = tuple(map(max, zip(*(a.shape for a in out.arrays))))
            made[_digest([verify.pad_to(a, bound) for a in out.arrays])] += 1
            return out

        for module in (verify, construct, planner):
            monkeypatch.setattr(module, "is_gca_set", counted_check)
        monkeypatch.setattr(construct, "assemble", counted_assemble)
        out = execute(report.recipe, registry)
        assert out.verified
        assert checked == made
        assert len(made) > 1


def _nodes(recipe: Recipe) -> int:
    return 1 + sum(map(_nodes, recipe.children))


def _catalog_seed_1_recipes(registry):
    for (role, alphabet), text in CATALOG_SEED_1_BUILDS.items():
        for word in text.split():
            shape = tuple(int(s) for s in word.split("x"))
            yield (plan_pair(alphabet, shape) if role == "pair"
                   else plan_quad(alphabet, shape, registry)).recipe


@pytest.fixture
def direct_calls(monkeypatch):
    """One entry per `is_gca_set` call, under every name a module
    holds it by."""
    calls = []
    check = verify.is_gca_set

    def counted(arrays):
        calls.append(1)
        return check(arrays)

    for module in (verify, construct, planner):
        monkeypatch.setattr(module, "is_gca_set", counted)
    return calls


class TestOneCheckPerNode:
    """Inside `execute` the direct route runs once per recipe node: a
    construction assembles only the set it returns (`glue_pair` makes
    its mask and middle pairs as plain arrays), and a marked binder is
    not checked again.  A tile's support pattern is checked once, by
    `lagrange_quad`, the one construction that needs it."""

    @pytest.mark.parametrize("plan, alphabet, shape, digest", PINNED_PLANS)
    def test_pinned_plans(self, registry, direct_calls, plan, alphabet,
                          shape, digest):
        recipe = (plan_pair(alphabet, shape) if plan is plan_pair
                  else plan_quad(alphabet, shape, registry)).recipe
        execute(recipe, registry)
        assert len(direct_calls) == _nodes(recipe)

    def test_catalog_builds(self, registry, direct_calls):
        nodes = 0
        for recipe in _catalog_seed_1_recipes(registry):
            before = len(direct_calls)
            execute(recipe, registry)
            assert len(direct_calls) - before == _nodes(recipe), recipe.op
            nodes += _nodes(recipe)
        assert nodes == 1367

    def test_tiling_checked_once_per_lagrange_input(self, registry,
                                                   monkeypatch):
        checked, inputs = [], []
        require, lagrange = (construct._require_tiling_structure,
                             planner.lagrange_quad)

        def counted_require(q, consumer):
            checked.append(consumer)
            return require(q, consumer)

        def counted_lagrange(q1, q2):
            inputs.extend((q1, q2))
            return lagrange(q1, q2)

        monkeypatch.setattr(construct, "_require_tiling_structure",
                            counted_require)
        monkeypatch.setattr(planner, "lagrange_quad", counted_lagrange)
        for recipe in _catalog_seed_1_recipes(registry):
            execute(recipe, registry)
        assert len(inputs) == 86
        assert checked == ["lagrange_quad"] * len(inputs)


@pytest.fixture
def product_calls(monkeypatch):
    """Digests of the sets the product route is asked about, under every
    name a module holds it by."""
    calls = []
    check = verify.gca_check_polynomial

    def counted(arrays):
        calls.append(_digest(arrays))
        return check(arrays)

    for module in (verify, construct, planner):
        monkeypatch.setattr(module, "gca_check_polynomial", counted)
    return calls


def _seed_pair(registry, key):
    return construct.pair(*registry.records[key].tensors)


def _flip_first_entry(gs: GcaSet) -> GcaSet:
    """An unmarked copy of `gs` with one entry of its first member
    negated: no longer complementary."""
    first = gs.arrays[0]
    re, im = first.re.copy(), first.im.copy()
    re.flat[0], im.flat[0] = -re.flat[0], -im.flat[0]
    return GcaSet((Tensor(re, im),) + gs.arrays[1:])


class TestProductRouteOnRoot:
    """Inside `execute` the product route runs once, on the set returned;
    outside it every construction still runs both routes."""

    @pytest.mark.parametrize("role, shape", [("pair", (9, 10)),
                                             ("quad", (36, 87))])
    def test_execute_checks_root_once(self, registry, product_calls,
                                      role, shape):
        report = (plan_pair(Q, shape) if role == "pair"
                  else plan_quad(Q, shape, registry))
        out = execute(report.recipe, registry)
        assert product_calls == [_digest(out.arrays)]

    def test_direct_constructions_run_both_routes(self, registry,
                                                  product_calls):
        seed = _seed_pair(registry, "golay-pair/binary/2;2")
        assert product_calls == [_digest(seed.arrays)]
        out = construct.binary_turyn_pair(seed, seed)
        assert out.verified
        assert product_calls[1:] == [_digest(out.arrays)]

    def test_wrong_unmarked_intermediate_named(self, registry, monkeypatch):
        # glue_pair is one inner node of the 36x87 plan; its rebound
        # copy returns a wrong set that no construction checked
        glue = construct.glue_pair
        monkeypatch.setattr(planner, "glue_pair",
                            lambda *sets: _flip_first_entry(glue(*sets)))
        recipe = plan_quad(Q, (36, 87), registry).recipe
        assert recipe.children[1].op == "glue_pair"
        with pytest.raises(VerificationFailed) as exc:
            execute(recipe, registry)
        assert exc.value.recipe_path == "compromise_quad/glue_pair[1]"

    def test_product_route_rejects_root(self, registry, monkeypatch):
        monkeypatch.setattr(planner, "gca_check_polynomial",
                            lambda arrays: False)
        with pytest.raises(VerificationFailed,
                           match="failed final verification"):
            execute(plan_pair(Q, (9, 10)).recipe, registry)

    def test_switch_reset_after_missing_seed(self, registry, product_calls):
        # the 36x87 plan first needs the binary 1 seed in its second
        # child, after the first child's subtree is built
        key = "golay-pair/binary/1;1"
        partial = SeedRegistry({k: r for k, r in registry.records.items()
                                if k != key})
        with pytest.raises(MissingSeed) as exc:
            execute(plan_quad(Q, (36, 87), registry).recipe, partial)
        assert exc.value.key == key
        assert product_calls == []
        _seed_pair(registry, "golay-pair/binary/2;2")
        assert len(product_calls) == 1

    def test_switch_reset_after_shape_mismatch(self, registry,
                                               product_calls):
        # a declared shape is refused at parse now; cross_set refuses
        # the mixed lengths of base sequences inside execute
        base = {"op": "seed", "seed": SeedRegistry.base_key(1)}
        recipe = recipe_from_obj(_doc("cross_set", [base, base]))
        with pytest.raises(ShapeMismatch, match="uniform shapes"):
            execute(recipe, registry)
        assert product_calls == []
        _seed_pair(registry, "golay-pair/quaternary/3;3")
        assert len(product_calls) == 1


def _square_registry(registry) -> SeedRegistry:
    """The bundled records plus a 2x2 binary pair, as a seeds file may
    hold one."""
    square = execute(plan_pair(B, (2, 2)).recipe, registry)
    out = SeedRegistry(dict(registry.records))
    out.add(SeedRecord(PAIR_KIND, B, square.arrays, "2 x 2 Turyn product"))
    assert SQUARE in out
    return out


def _built_nodes(recipe, registry) -> list:
    """(node, set) for every node `execute` builds, children first."""
    built, inner = [], planner._exec_node

    def recorded(node, reg, path):
        out = inner(node, reg, path)
        built.append((node, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "_exec_node", recorded)
        execute(recipe, registry)
    return built


def _assert_shapes_built(recipe, registry) -> None:
    for node, out in _built_nodes(recipe, registry):
        assert node.shapes == tuple(a.shape for a in out.arrays), node.op
        assert node.shape == list(out.shape), node.op


_LENGTHS = {a: enumerate_golay_numbers(a, 24) for a in (B, Q)}


class TestShapeColumn:
    """The op table's shape column gives each node's member shapes when
    the recipe is parsed, and the sets `execute` builds have them."""

    @settings(max_examples=100, deadline=None)
    @given(alphabet=st.sampled_from([B, Q]), data=st.data())
    def test_planned_shapes_are_built(self, registry, alphabet, data):
        rank = data.draw(st.integers(1, 2))
        if data.draw(st.booleans()):
            shape = tuple(data.draw(st.sampled_from(_LENGTHS[alphabet]))
                          for _ in range(rank))
            report = plan_pair(alphabet, shape)
        else:
            shape = tuple(data.draw(st.integers(1, 24)) for _ in range(rank))
            report = plan_quad(alphabet, shape, registry)
        assume(report.feasible)
        _assert_shapes_built(report.recipe, registry)

    @settings(max_examples=30, deadline=None)
    @given(op=st.sampled_from(["expand_quad", "interleave_quad",
                               "concat_zero_quad"]),
           m=st.integers(1, 14), binder=st.sampled_from([1, 2, 4, 10]),
           rank=st.integers(1, 2), data=st.data())
    def test_base_sequence_leaves(self, registry, op, m, binder, rank, data):
        # base-sequence members differ in length (m+1, m+1, m, m)
        axis = data.draw(st.integers(0, rank - 1))
        base = {"op": "seed", "seed": SeedRegistry.base_key(m),
                "params": {"axis": axis, "rank": rank}}
        if op == "expand_quad":
            pair = plan_pair(B, (1,) * (rank - 1) + (binder,)).recipe
            disjoint = {"op": "disjoint_from_pair",
                        "children": [recipe_to_obj(pair, _top=False)]}
            doc = _doc(op, [base, disjoint])
        else:
            doc = _doc(op, [base], dim=axis)
        _assert_shapes_built(recipe_from_obj(doc), registry)

    def test_expand_quad_over_bs_4_3(self, registry):
        pair = recipe_to_obj(plan_pair(B, (2,)).recipe, _top=False)
        recipe = recipe_from_obj(_doc("expand_quad", [
            {"op": "seed", "seed": SeedRegistry.base_key(3)},
            {"op": "disjoint_from_pair", "children": [pair]}]))
        assert recipe.shapes == ((8,), (8,), (6,), (6,))
        assert recipe.shape == [8]
        _assert_shapes_built(recipe, registry)

    @pytest.mark.parametrize("plan, alphabet, shape, digest", PINNED_PLANS)
    def test_products_within_their_node(self, registry, monkeypatch, plan,
                                        alphabet, shape, digest):
        # every Kronecker product a construction makes is no larger than
        # the set of the node it serves, so a cap on nodes caps products
        products, served = [], []
        kron, inner = construct.kron, planner._exec_node

        def counted_kron(a, b):
            out = kron(a, b)
            products.append(math.prod(out.shape))
            return out

        def recorded(node, reg, path):
            out = inner(node, reg, path)  # the children take theirs
            served.append((math.prod(out.shape), products[:]))
            products.clear()
            return out

        monkeypatch.setattr(construct, "kron", counted_kron)
        monkeypatch.setattr(planner, "_exec_node", recorded)
        report = (plan_pair(alphabet, shape) if plan is plan_pair
                  else plan_quad(alphabet, shape, registry))
        execute(report.recipe, registry)
        assert sum(len(mine) for _, mine in served) > 0
        for size, mine in served:
            assert max(mine, default=0) <= size

    def test_tower_refused_before_anything_is_built(self, monkeypatch):
        made = []
        assemble = construct.assemble
        monkeypatch.setattr(construct, "assemble",
                            lambda *args: made.append(args) or assemble(*args))
        with pytest.raises(ShapeMismatch) as exc:
            recipe_from_obj(_turyn_tower(6))
        assert str(exc.value) == ("binary_turyn_pair node of shape "
                                  "[4294967296] has more than 10000000 "
                                  "entries")
        assert made == []

    def test_cap_is_on_the_node(self, monkeypatch):
        monkeypatch.setattr(planner, "_PRODUCT_CAP", 256)
        assert recipe_from_obj(_turyn_tower(3)).shape == [256]
        monkeypatch.setattr(planner, "_PRODUCT_CAP", 255)
        with pytest.raises(ShapeMismatch, match=r"shape \[256\]"):
            recipe_from_obj(_turyn_tower(3))


class TestMultiDimensionalSeed:
    """A k-D record is used as stored, at rank k, its rank and shapes
    read from its key."""

    def test_rank_from_key(self):
        leaf = recipe_from_obj({"format": "gca-recipe/1", "op": "seed",
                                "seed": SQUARE})
        assert (leaf.rank, leaf.shapes) == (2, ((2, 2), (2, 2)))

    @pytest.mark.parametrize("dim, shape", [(0, (8, 4)), (1, (4, 8))])
    def test_concat_along_either_axis(self, registry, dim, shape):
        leaf = {"op": "seed", "seed": SQUARE, "params": {"rank": 2}}
        recipe = recipe_from_obj(_doc("concat_pair", [leaf, leaf], dim=dim))
        assert recipe.shape == list(shape)
        square = _square_registry(registry)
        out = execute(recipe, square)
        assert out.shape == shape and out.alphabet is B
        _assert_shapes_built(recipe, square)

    def test_missing_record_is_missing_seed(self, registry):
        recipe = recipe_from_obj(_turyn_tower(1, SQUARE))
        with pytest.raises(MissingSeed) as exc:
            execute(recipe, registry)
        assert exc.value.key == SQUARE

    def test_tower_refused_at_parse(self):
        # sizes 4, 16, 256, then 65536 x 65536 at the fourth level
        assert recipe_from_obj(_turyn_tower(3, SQUARE)).shape == [256, 256]
        with pytest.raises(ShapeMismatch, match=r"shape \[65536, 65536\]"):
            recipe_from_obj(_turyn_tower(4, SQUARE))


class TestCoverage:
    def test_golay_count(self):
        rep = coverage_scan("golay-count", 100, B)
        assert rep["count"] == 14
        assert rep["numbers"] == enumerate_golay_numbers(B, 100)

    def test_quad_sum_gaps(self):
        rep = coverage_scan("quad-sum-coverage", 1000)
        assert rep["uncovered"] == [799, 959]
        assert rep["covered"] == 998

    def test_every_limit_matches_brute_force(self):
        # the definitions, tested on every n: pair lengths by the
        # predicates, and sums of two block-decomposable sizes
        top = 3000
        golay = {a: [n for n in range(1, top + 1) if pred(n) is not None]
                 for a, pred in ((B, is_binary_golay_number),
                                 (Q, is_quaternary_golay_number))}
        good = {n for n in range(1, top + 1)
                if oracles.best_blocks(n) is not None}
        uncovered = [n for n in range(1, top + 1) if n not in good and not any(
            s in good and n - s in good for s in range(1, n // 2 + 1))]
        for limit in range(1, top + 1):
            for a, numbers in golay.items():
                want = [n for n in numbers if n <= limit]
                assert coverage_scan("golay-count", limit, a)["numbers"] == want
            rep = coverage_scan("quad-sum-coverage", limit)
            assert rep["uncovered"] == [n for n in uncovered if n <= limit]

    def test_cost_follows_the_answer(self):
        # only {2, 3, 5, 11, 13}-smooth lengths are judged, so a scan to
        # 10**9 fills the caches with 10,358 entries, not 10**9
        caches = (is_binary_golay_number, is_quaternary_golay_number,
                  planner._best_blocks)
        for cache in caches:
            cache.cache_clear()
        binary = coverage_scan("golay-count", 10 ** 9, B)["numbers"]
        assert len(binary) == sum(
            1 for a in range(30) for b in range(10) for c in range(7)
            if 2 ** a * 10 ** b * 26 ** c <= 10 ** 9)
        quaternary = coverage_scan("golay-count", 10 ** 9, Q)["numbers"]
        assert set(binary) < set(quaternary)
        assert quaternary == sorted(quaternary)
        assert coverage_scan("quad-sum-coverage", 10 ** 6)["covered"] > 0
        assert all(cache.cache_info().currsize <= 10358 for cache in caches)

    def test_bad_arguments(self):
        with pytest.raises(ShapeMismatch):
            coverage_scan("golay-count", 10)
        with pytest.raises(ShapeMismatch):
            coverage_scan("unknown-kind", 10)
        with pytest.raises(ShapeMismatch):
            coverage_scan("golay-count", 0, B)
        with pytest.raises(ShapeMismatch):
            coverage_scan("quad-sum-coverage", 10 ** 7 + 1)


class TestReportShape:
    def test_feasible_keys(self, registry):
        obj = report_to_obj(plan_quad(Q, (3, 3), registry))
        assert sorted(obj) == ["alphabet", "feasible", "known_nonexistent",
                               "recipe", "shape", "witness"]

    def test_infeasible_keys(self):
        obj = report_to_obj(plan_pair(Q, (18, 5)))
        assert sorted(obj) == ["alphabet", "feasible", "known_nonexistent",
                               "reason", "shape", "witness"]
        assert obj["known_nonexistent"] is False
