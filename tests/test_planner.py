"""Feasibility arithmetic, recipe planning and execution."""
from __future__ import annotations

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
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
from golaykit.seeds import SeedRegistry, load_bundled
from golaykit.tensor import Alphabet, Tensor
from golaykit.verify import gca_check_polynomial, is_gca_set

B, Q = Alphabet.BINARY, Alphabet.QUATERNARY


def _leaf(length=2, axis=0, rank=1, **extra):
    return {"op": "seed", "seed": f"golay-pair/binary/{length};{length}",
            "params": {"axis": axis, "rank": rank}, **extra}


def _doc(op, children, **params):
    return {"format": "gca-recipe/1", "op": op, "params": params,
            "children": children}


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

    @pytest.mark.slow
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

    def test_declared_shape_cross_checked(self, registry):
        obj = recipe_to_obj(plan_pair(Q, (9, 10)).recipe)
        obj["params"]["shape"] = [9, 11]
        with pytest.raises(ShapeMismatch) as exc:
            execute(recipe_from_obj(obj), registry)
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
                            lambda ab, cd: GcaSet((ones, ones), B, "pair"))
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
                                             ("quad", (36, 87))])
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


class TestCoverage:
    def test_golay_count(self):
        rep = coverage_scan("golay-count", 100, B)
        assert rep["count"] == 14
        assert rep["numbers"] == enumerate_golay_numbers(B, 100)

    def test_quad_sum_gaps(self):
        rep = coverage_scan("quad-sum-coverage", 1000)
        assert rep["uncovered"] == [799, 959]
        assert rep["covered"] == 998

    def test_bad_arguments(self):
        with pytest.raises(ShapeMismatch):
            coverage_scan("golay-count", 10)
        with pytest.raises(ShapeMismatch):
            coverage_scan("unknown-kind", 10)
        with pytest.raises(ShapeMismatch):
            coverage_scan("golay-count", 0, B)


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
