"""Command-line exit codes and stream contract: JSON on stdout,
summaries on stderr."""
from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from golaykit import cli, construct, planner
from golaykit.construct import GcaSet
from golaykit.seeds import load_bundled, registry_to_obj
from golaykit.tensor import Alphabet, Tensor

from .test_planner import MALFORMED_RECIPES, _chain_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestPlan:
    def test_feasible_pair(self, capsys):
        code, obj, err = run_json(
            capsys, "plan", "--alphabet", "binary", "--role", "pair",
            "--shape", "2x10")
        assert code == 0
        assert obj["feasible"] is True
        assert obj["recipe"]["format"] == "gca-recipe/1"
        assert "feasible" in err

    def test_infeasible_exit_2(self, capsys):
        code, obj, err = run_json(
            capsys, "plan", "--alphabet", "quaternary", "--role", "pair",
            "--shape", "18x5")
        assert code == 2
        assert obj["feasible"] is False
        assert "glued factor 10" in obj["reason"]

    def test_nonexistent_flagged(self, capsys):
        code, obj, _ = run_json(
            capsys, "plan", "--alphabet", "binary", "--role", "pair",
            "--shape", "2x5")
        assert code == 2
        assert obj["known_nonexistent"] is True

    def test_writes_recipe_file(self, capsys, tmp_path):
        out = tmp_path / "recipe.json"
        code, _, _ = run(
            capsys, "plan", "--alphabet", "quaternary", "--role", "quad",
            "--shape", "3x3", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["format"] == "gca-recipe/1"


class TestGenerateVerifyRoundTrip:
    def test_full_pipeline(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.json"
        out_set = tmp_path / "set.json"
        assert run(capsys, "plan", "--alphabet", "quaternary", "--role",
                   "pair", "--shape", "9x10", "--out", str(recipe))[0] == 0
        code, _, err = run(capsys, "generate", "--recipe", str(recipe),
                           "--out", str(out_set))
        assert code == 0
        assert "total weight 180" in err
        code, obj, _ = run_json(capsys, "verify", str(out_set))
        assert code == 0
        assert obj["complementary"] is True
        assert obj["polynomial_route"] is True
        assert obj["max_sidelobe_norm"] == 0
        assert obj["spectrum_deviation"] < 1e-9

    def test_generate_from_plan_args(self, capsys):
        code, obj, _ = run_json(
            capsys, "generate", "--alphabet", "quaternary", "--role", "quad",
            "--shape", "3x3")
        assert code == 0
        assert obj["format"] == "gca-set/1"
        assert len(obj["arrays"]) == 4

    def test_generate_infeasible(self, capsys):
        code, obj, _ = run_json(
            capsys, "generate", "--alphabet", "quaternary", "--role", "pair",
            "--shape", "18x5")
        assert code == 2

    def test_missing_seed_exit_3(self, capsys, tmp_path):
        empty = tmp_path / "none.json"
        empty.write_text("[]")
        code, _, err = run(
            capsys, "generate", "--alphabet", "binary", "--role", "pair",
            "--shape", "2x10", "--seeds", str(empty))
        assert code == 3
        assert "seed not in registry" in err

    def test_bad_recipe_exit_65(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "bogus/9", "op": "seed"}')
        assert run(capsys, "generate", "--recipe", str(bad))[0] == 65

    @pytest.mark.parametrize("doc", MALFORMED_RECIPES)
    def test_malformed_recipe_exit_65(self, capsys, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "generate", "--recipe", str(bad))
        assert code == 65
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("levels", [600, 2000])
    def test_deep_recipe_exit_65(self, capsys, tmp_path, levels):
        deep = tmp_path / "deep.json"
        deep.write_text(_chain_text(levels))
        code, out, err = run(capsys, "generate", "--recipe", str(deep))
        assert code == 65
        assert out == ""
        assert "Traceback" not in err

    def test_deep_seed_file_exit_65(self, capsys, tmp_path):
        deep = tmp_path / "seeds.json"
        deep.write_text("[" * 3000 + "]" * 3000)
        code, out, err = run(capsys, "plan", "--alphabet", "binary",
                             "--role", "quad", "--shape", "3x3",
                             "--seeds", str(deep))
        assert code == 65
        assert out == ""
        assert "Traceback" not in err

    def test_construction_refusing_input_exit_65(self, capsys, tmp_path):
        # a disjoint_from_pair over a disjoint_from_pair: the outer op
        # refuses a non-binary input before anything is verified
        bad = tmp_path / "bad.json"
        bad.write_text(_chain_text(3))
        code, out, err = run(capsys, "generate", "--recipe", str(bad))
        assert code == 65
        assert out == ""
        assert "Traceback" not in err
        assert "must be binary" in err

    @pytest.mark.parametrize("role", ["pair", "quad"])
    def test_over_cap_exit_2(self, capsys, role):
        code, obj, _ = run_json(
            capsys, "generate", "--alphabet", "binary", "--role", role,
            "--shape", str(2 ** 40))
        assert code == 2
        assert "exceeds the planning cap" in obj["reason"]

    def test_final_check_failure_exit_4(self, capsys, monkeypatch):
        ones = Tensor(np.ones(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
        monkeypatch.setattr(
            planner, "binary_turyn_pair",
            lambda ab, cd: GcaSet((ones, ones), Alphabet.BINARY, "pair"))
        code, _, err = run(capsys, "generate", "--alphabet", "binary",
                           "--role", "pair", "--shape", "4")
        assert code == 4
        assert "failed final verification" in err


class TestVerifyFailures:
    def _write_set(self, capsys, tmp_path):
        out_set = tmp_path / "set.json"
        run(capsys, "generate", "--alphabet", "binary", "--role", "pair",
            "--shape", "10", "--out", str(out_set))
        return out_set

    def test_perturbed_entry_exit_4(self, capsys, tmp_path):
        path = self._write_set(capsys, tmp_path)
        doc = json.loads(path.read_text())
        ent = doc["arrays"][0]["entries"]
        ent[0] = [-ent[0][0], -ent[0][1]]
        path.write_text(json.dumps(doc))
        code, obj, err = run_json(capsys, "verify", str(path))
        assert code == 4
        assert obj["complementary"] is False
        assert "NOT complementary" in err

    def test_unreadable_exit_65(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert run(capsys, "verify", str(missing))[0] == 65
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json")
        assert run(capsys, "verify", str(garbage))[0] == 65

    def test_empty_set_exit_65(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(
            {"format": "gca-set/1", "alphabet": "binary", "arrays": []}))
        assert run(capsys, "verify", str(empty))[0] == 65

    @pytest.mark.parametrize("path, value", [
        (("entries", 0), [1.5, 0]),
        (("entries", 0), [True, 0]),
        (("shape",), "10"),
        (("shape",), [True, 10]),
        (("shape",), [1] * 98 + [10]),
    ], ids=["float-entry", "bool-entry", "string-shape", "bool-shape",
            "99-axis-shape"])
    def test_malformed_member_exit_65(self, capsys, tmp_path, path, value):
        set_path = self._write_set(capsys, tmp_path)
        doc = json.loads(set_path.read_text())
        node = doc["arrays"][0]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        set_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(set_path))
        assert code == 65
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize("shape, entry, grid", [
        ([1] * 12 + [10], [1, 0], "16"),
        ([10], [10 ** 200, 0], "16"),
        ([10], [1, 0], "100000000"),
    ], ids=["rank-13", "huge-entry", "huge-grid"])
    def test_spectrum_refuses_before_allocating(self, capsys, tmp_path,
                                                shape, entry, grid):
        set_path = self._write_set(capsys, tmp_path)
        doc = json.loads(set_path.read_text())
        for member in doc["arrays"]:
            member["shape"] = shape
            del member["alphabet"]
        doc["arrays"][0]["entries"][0] = entry
        set_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(set_path), "--grid", grid)
        assert code == 65
        assert out == "" and "Traceback" not in err

    def test_spectrum_diagnostic(self, capsys, tmp_path):
        path = self._write_set(capsys, tmp_path)
        code, obj, _ = run_json(capsys, "spectrum", str(path), "--grid", "8")
        assert code == 0
        assert obj["spectrum_deviation"] < 1e-9
        assert obj["grid"] == 8


class TestSeedSearch:
    def test_found_exit_0(self, capsys):
        code, obj, _ = run_json(
            capsys, "seed", "search", "--kind", "pair", "--alphabet",
            "binary", "--shape", "10")
        assert code == 0
        assert obj["status"] == "found"
        assert obj["record"]["kind"] == "golay-pair"

    def test_exhausted_exit_1(self, capsys):
        code, obj, _ = run_json(
            capsys, "seed", "search", "--kind", "pair", "--alphabet",
            "binary", "--shape", "5")
        assert code == 1
        assert obj["status"] == "exhausted"
        assert obj["record"] is None

    def test_budget_exit_5(self, capsys):
        code, obj, _ = run_json(
            capsys, "seed", "search", "--kind", "base", "--m", "6",
            "--budget", "10")
        assert code == 5
        assert obj["status"] == "budget-exceeded"

    def test_base_found(self, capsys):
        code, obj, _ = run_json(
            capsys, "seed", "search", "--kind", "base", "--m", "2")
        assert code == 0
        assert obj["record"]["kind"] == "base-sequences"


class TestCoverage:
    def test_golay_count(self, capsys):
        code, obj, _ = run_json(
            capsys, "coverage", "--kind", "golay-count", "--alphabet",
            "binary", "--limit", "100")
        assert code == 0
        assert obj["count"] == 14

    def test_quad_sum_gaps(self, capsys):
        code, obj, err = run_json(
            capsys, "coverage", "--kind", "quad-sum-coverage",
            "--limit", "1000")
        assert code == 0
        assert obj["uncovered"] == [799, 959]
        assert "799" in err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        (),
        ("frobnicate",),
        ("plan", "--alphabet", "binary", "--role", "pair"),
        ("plan", "--alphabet", "binary", "--role", "pair", "--shape", "9xx"),
        ("plan", "--alphabet", "binary", "--role", "pair", "--shape", "0x4"),
        ("generate", "--role", "pair", "--shape", "4"),
        ("coverage", "--kind", "golay-count", "--limit", "10"),
        ("seed", "search", "--kind", "pair"),
        ("seed", "search", "--kind", "base"),
        ("seed", "search", "--kind", "base", "--m", "0"),
        ("seed", "search", "--kind", "base", "--m", "6", "--budget", "-5"),
        ("coverage", "--kind", "golay-count", "--alphabet", "binary",
         "--limit", "0"),
        ("verify", "set.json", "--grid", "0"),
        ("spectrum", "set.json", "--grid", "-3"),
    ])
    def test_exit_64(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 64
        assert "Traceback" not in err

    def test_stdout_stays_machine_readable(self, capsys):
        # human text goes to stderr even on failure paths
        code, out, err = run(capsys, "plan", "--alphabet", "quaternary",
                             "--role", "pair", "--shape", "18x5")
        json.loads(out)
        assert err.strip()


# small valid gca-recipe/1 documents, one per role and alphabet, as
# starting points for the mutations below
def _valid_recipes():
    registry = load_bundled()
    reports = [planner.plan_pair(Alphabet.BINARY, (2, 10)),
               planner.plan_pair(Alphabet.QUATERNARY, (3, 10)),
               planner.plan_quad(Alphabet.BINARY, (1, 6), registry),
               planner.plan_quad(Alphabet.QUATERNARY, (3, 3), registry)]
    return [planner.recipe_to_obj(r.recipe) for r in reports]


_VALID_RECIPES = _valid_recipes()
_BAD_VALUES = st.one_of(
    st.integers(-2, 40), st.booleans(), st.none(), st.text(max_size=2),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(-1, 12), max_size=3))
_SEED_KEYS = ["golay-pair/binary/10;10", "golay-pair/quaternary/3;3",
              "base-sequences/binary/3;3;2;2", "golay-pair/binary/7;7", ""]


def _paths(node, path=()):
    yield path
    for i, child in enumerate(node.get("children", [])):
        yield from _paths(child, path + (i,))


def _node_at(doc, path):
    for i in path:
        doc = doc["children"][i]
    return doc


@st.composite
def mutated_recipes(draw):
    """A valid recipe after one to three mutations: another op, a child
    dropped or added, a bad dim/axis/shape/rank, or another seed key."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_RECIPES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        node = _node_at(doc, draw(st.sampled_from(paths)))
        kind = draw(st.sampled_from(["op", "drop", "add", "param", "seed"]))
        if kind == "op":
            node["op"] = draw(st.sampled_from(sorted(planner._OPS) + ["bogus"]))
        elif kind == "drop" and node.get("children"):
            del node["children"][draw(
                st.integers(0, len(node["children"]) - 1))]
        elif kind == "add":
            donor = _node_at(doc, draw(st.sampled_from(paths)))
            node.setdefault("children", []).append(copy.deepcopy(donor))
        elif kind == "param":
            name = draw(st.sampled_from(["dim", "axis", "shape", "rank"]))
            node.setdefault("params", {})[name] = draw(_BAD_VALUES)
        elif kind == "seed":
            node["seed"] = draw(st.sampled_from(_SEED_KEYS))
    return doc


class TestRecipeFuzz:
    @given(doc=mutated_recipes())
    # each example loads and re-verifies the bundled registry
    @settings(max_examples=100, deadline=None)
    def test_documented_exit_code(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("fuzz") / "recipe.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["generate", "--recipe", str(path)])
        assert code in (0, 3, 4, 65), err.getvalue()
        if code != 0:
            assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()


# gca-set/1 and gca-seeds/1 documents ---------------------------------------

def _valid_sets():
    registry = load_bundled()
    reports = [planner.plan_pair(Alphabet.BINARY, (2,)),
               planner.plan_pair(Alphabet.QUATERNARY, (3,)),
               planner.plan_quad(Alphabet.BINARY, (3,), registry)]
    return [construct.set_to_obj(planner.execute(r.recipe, registry))
            for r in reports]


def _valid_seeds():
    registry = load_bundled()
    keep = ["golay-pair/binary/1;1", "golay-pair/binary/2;2",
            "golay-pair/quaternary/3;3", "base-sequences/binary/2;2;1;1"]
    registry.records = {k: registry.records[k] for k in keep}
    return registry_to_obj(registry)


_VALID_SETS = _valid_sets()
_VALID_SEEDS = _valid_seeds()
_BAD_ENTRIES = st.one_of(
    st.sampled_from([[-1, 0], [0, 1]]),
    st.lists(st.integers(-2, 2), min_size=2, max_size=2),
    st.tuples(st.floats(allow_nan=False), st.integers(-1, 1)).map(list),
    st.tuples(st.booleans(), st.booleans()).map(list),
    st.tuples(st.integers(2 ** 63, 2 ** 1100), st.integers(-1, 1)).map(list),
    st.lists(st.integers(-1, 1), min_size=3, max_size=3),
    st.integers(-1, 1), st.text(max_size=2), st.none())
_BAD_SHAPES = st.one_of(
    st.text(max_size=3), st.booleans(), st.integers(-1, 3),
    st.just([0]), st.just([1] * 40), st.lists(st.booleans(), max_size=3),
    st.lists(st.integers(0, 4), max_size=3))


def _objects_in(value) -> list:
    """The dicts held by `value` when it is a list, which mutations edit."""
    if not isinstance(value, list):
        return []
    return [t for t in value if isinstance(t, dict)]


@st.composite
def mutated_members(draw, tensors):
    """Mutate tensor documents in place: a bad entry, a bad shape, the
    same entries under another rank, or a dropped field."""
    tensor = draw(st.sampled_from(tensors))
    kind = draw(st.sampled_from(["entry", "shape", "rank", "drop"]))
    if kind == "entry" and isinstance(tensor.get("entries"), list):
        entries = tensor["entries"]
        if entries:
            entries[draw(st.integers(0, len(entries) - 1))] = draw(_BAD_ENTRIES)
    elif kind == "shape":
        tensor["shape"] = draw(_BAD_SHAPES)
    elif kind == "rank" and isinstance(tensor.get("entries"), list):
        ones = draw(st.integers(0, 32))
        tensor["shape"] = [1] * ones + [max(len(tensor["entries"]), 1)]
    elif kind == "drop" and tensor:
        del tensor[draw(st.sampled_from(sorted(tensor)))]


@st.composite
def mutated_sets(draw):
    """A valid gca-set/1 document after one to three mutations of a
    member, a dropped top-level field, or a bad lineage or structure."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_SETS)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["member", "drop", "field"]))
        members = _objects_in(doc.get("arrays"))
        if kind == "member" and members:
            draw(mutated_members(members))
        elif kind == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif kind == "field":
            name = draw(st.sampled_from(["lineage", "structure", "arrays"]))
            doc[name] = draw(_BAD_VALUES)
    return doc


@st.composite
def mutated_seeds(draw):
    """A valid gca-seeds/1 list after one to three mutations of a record's
    tensor, a dropped record field, or a bad record field."""
    doc = copy.deepcopy(_VALID_SEEDS)
    for _ in range(draw(st.integers(1, 3))):
        record = draw(st.sampled_from(doc))
        kind = draw(st.sampled_from(["member", "drop", "field"]))
        tensors = _objects_in(record.get("tensors"))
        if kind == "member" and tensors:
            draw(mutated_members(tensors))
        elif kind == "drop" and record:
            del record[draw(st.sampled_from(sorted(record)))]
        elif kind == "field":
            name = draw(st.sampled_from(
                ["kind", "alphabet", "tensors", "provenance"]))
            record[name] = draw(_BAD_VALUES)
    return doc


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestDocumentFuzz:
    @given(doc=mutated_sets())
    @settings(max_examples=150, deadline=None)
    def test_verify_documented_exit_code(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("fuzz") / "set.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run_quietly(["verify", str(path)])
        assert code in (0, 4, 65), err
        if code == 65:
            assert out == ""
        else:
            json.loads(out)
        assert "Traceback" not in err

    @given(doc=mutated_seeds())
    @settings(max_examples=100, deadline=None)
    def test_plan_with_seeds_documented_exit_code(self, tmp_path_factory,
                                                  doc):
        path = tmp_path_factory.mktemp("fuzz") / "seeds.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run_quietly(
            ["plan", "--alphabet", "binary", "--role", "quad",
             "--shape", "3x3", "--seeds", str(path)])
        assert code in (0, 2, 65), err
        if code != 65:
            json.loads(out)
        assert "Traceback" not in err
