"""Command-line exit codes and stream contract: JSON on stdout,
summaries on stderr."""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import golaykit
from golaykit import cli, construct, planner, seeds
from golaykit.construct import GcaSet
from golaykit.seeds import load_bundled, registry_to_obj
from golaykit.tensor import Alphabet, Tensor

from .test_planner import (MALFORMED_RECIPES, SQUARE, _chain_text,
                           _square_registry, _turyn_tower)


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

    def test_oversized_product_refused_before_allocation(self, capsys, tmp_path,
                                                         monkeypatch):
        # each level squares the length (4, 16, 256): with the cap at 100
        # the third level's node is refused when the recipe is parsed, as
        # six levels are at the real cap (2**32 entries at the fifth)
        monkeypatch.setattr(planner, "_PRODUCT_CAP", 100)
        tower = tmp_path / "tower.json"
        tower.write_text(json.dumps(_turyn_tower(3)))
        code, out, err = run(capsys, "generate", "--recipe", str(tower))
        assert code == 65
        assert out == ""
        assert "Traceback" not in err
        assert err == ("input rejected: binary_turyn_pair node of shape "
                       "[256] has more than 100 entries\n")
        monkeypatch.setattr(planner, "_PRODUCT_CAP", 256)
        code, _, _ = run(capsys, "generate", "--recipe", str(tower))
        assert code == 0

    @pytest.mark.parametrize("levels", [1, 6])
    def test_recipe_parsed_before_seeds_are_read(self, capsys, tmp_path,
                                                 levels):
        # a recipe refused at parse costs no seed file read, so a missing
        # one goes unnoticed; the one-level tower reaches the seed file
        tower = tmp_path / "tower.json"
        tower.write_text(json.dumps(_turyn_tower(levels)))
        code, out, err = run(capsys, "generate", "--recipe", str(tower),
                             "--seeds", str(tmp_path / "missing.json"))
        assert (code, out) == (65, "")
        assert "Traceback" not in err
        assert ("has more than 10000000 entries" in err) == (levels == 6)
        assert ("cannot read" in err) == (levels == 1)

    def test_square_seed_tower(self, capsys, tmp_path):
        # a 2x2 record from a seeds file: one level builds a 4x4 pair,
        # four levels (65536 x 65536 at the fourth) are refused at parse
        seeds_file = tmp_path / "square.json"
        seeds_file.write_text(json.dumps(
            registry_to_obj(_square_registry(load_bundled()))))
        towers = []
        for levels in (1, 4):
            towers.append(tmp_path / f"tower{levels}.json")
            towers[-1].write_text(json.dumps(_turyn_tower(levels, SQUARE)))
        code, obj, _ = run_json(capsys, "generate", "--recipe", str(towers[0]),
                                "--seeds", str(seeds_file))
        assert code == 0
        assert [a["shape"] for a in obj["arrays"]] == [[4, 4], [4, 4]]
        code, out, err = run(capsys, "generate", "--recipe", str(towers[1]),
                             "--seeds", str(seeds_file))
        assert (code, out) == (65, "")
        assert err == ("input rejected: binary_turyn_pair node of shape "
                       "[65536, 65536] has more than 10000000 entries\n")

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
            lambda ab, cd: GcaSet((ones, ones)))
        code, _, err = run(capsys, "generate", "--alphabet", "binary",
                           "--role", "pair", "--shape", "4")
        assert code == 4
        assert "failed final verification" in err

    def test_product_route_failure_exit_4(self, capsys, monkeypatch):
        # every node passes the direct route; the set execute returns
        # is the one the product route checks
        monkeypatch.setattr(planner, "gca_check_polynomial",
                            lambda arrays: False)
        code, out, err = run(capsys, "generate", "--alphabet", "quaternary",
                             "--role", "pair", "--shape", "9x10")
        assert code == 4
        assert "failed final verification" in err
        assert "polynomial product check failed" in err
        assert out == ""


class TestFileErrors:
    """An input file that cannot be read or decoded is rejected (65), an
    --out that cannot be written is a usage error (64); neither is exit
    1, which means a search ran out."""

    def test_missing_seed_file_exit_65(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, out, err = run(capsys, "plan", "--alphabet", "binary",
                             "--role", "quad", "--shape", "4x4",
                             "--seeds", str(missing))
        assert code == 65
        assert out == ""
        assert str(missing) in err

    @pytest.mark.parametrize("argv", [
        ("plan", "--alphabet", "binary", "--role", "quad", "--shape", "4x4",
         "--seeds"),
        ("generate", "--recipe"),
        ("verify",),
    ], ids=["seeds", "recipe", "verify"])
    def test_not_utf8_exit_65(self, capsys, tmp_path, argv):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('["caf\xe9"]'.encode("latin-1"))
        code, out, err = run(capsys, *argv, str(latin1))
        assert code == 65
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("plan", "--alphabet", "quaternary", "--role", "pair",
         "--shape", "9x10"),
        ("generate", "--alphabet", "binary", "--role", "pair", "--shape", "4"),
    ], ids=["plan", "generate"])
    def test_unwritable_out_exit_64(self, capsys, tmp_path, argv):
        target = tmp_path / "no-such-dir" / "out.json"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 64
        assert out == ""
        assert str(target) in err

    @pytest.mark.parametrize("argv", [
        ("plan", "--alphabet", "quaternary", "--role", "quad",
         "--shape", "12x959"),
        ("generate", "--alphabet", "quaternary", "--role", "quad",
         "--shape", "12x959"),
    ], ids=["plan", "generate"])
    @pytest.mark.parametrize("where", ["no-such-dir", "a-file"])
    def test_out_refused_before_any_work(self, capsys, tmp_path, monkeypatch,
                                         argv, where):
        def refuse(*args, **kwargs):
            raise AssertionError("work done before --out was checked")

        for owner, name in [(seeds, "load_bundled"), (planner, "plan_quad"),
                            (planner, "execute")]:
            monkeypatch.setattr(owner, name, refuse)
        (tmp_path / "a-file").write_text("")
        target = tmp_path / where / "out.json"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 64
        assert out == ""
        assert str(target) in err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """A reader that closes stdout early (`golaykit ... | head -c 1`)
    costs no traceback, and the command keeps its own exit code."""

    @pytest.mark.parametrize("argv, want", [
        (("coverage", "--kind", "golay-count", "--alphabet", "quaternary",
          "--limit", "1000"), 0),
        (("seed", "search", "--kind", "pair", "--alphabet", "binary",
          "--shape", "5"), 1),
        (("plan", "--alphabet", "quaternary", "--role", "pair",
          "--shape", "18x5"), 2),
    ], ids=["ok", "exhausted", "infeasible"])
    def test_exit_code_kept(self, capsys, monkeypatch, argv, want):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert cli.main(list(argv)) == want
        print("later output")  # now goes to os.devnull
        sys.stdout.close()
        assert capsys.readouterr().err.strip()

    def test_closed_pipe_process(self):
        # a real pipe, read end closed: the flush at exit must not fail
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(golaykit.__file__)))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "golaykit", "coverage", "--kind",
                 "golay-count", "--alphabet", "quaternary", "--limit", "1000"],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 0
        assert b"reachable lengths" in proc.stderr
        assert b"Traceback" not in proc.stderr
        assert b"Exception ignored" not in proc.stderr


class TestRegistryLoadedOnce:
    """`generate` plans a quad against the registry it builds from."""

    def test_bundled_loaded_once(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counted():
            calls.append(1)
            return load_bundled()

        monkeypatch.setattr(seeds, "load_bundled", counted)
        monkeypatch.setattr(planner, "load_bundled", counted)
        code, _, _ = run(capsys, "generate", "--alphabet", "quaternary",
                         "--role", "quad", "--shape", "4x5",
                         "--out", str(tmp_path / "q45.json"))
        assert code == 0
        assert len(calls) == 1

    def test_seed_file_rejects_noted_once(self, capsys, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps(registry_to_obj(load_bundled())
                                   + [{"kind": "bogus"}]))
        code, _, err = run(capsys, "generate", "--alphabet", "quaternary",
                           "--role", "quad", "--shape", "4x5",
                           "--seeds", str(path),
                           "--out", str(tmp_path / "q45.json"))
        assert code == 0
        assert err.count("rejected at load") == 1


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


class TestMixedShapeSets:
    """A base-sequence quad (lengths 3, 3, 2, 2) from a one-node recipe:
    what `generate` builds and checks, `verify` accepts."""

    def _write_base_set(self, capsys, tmp_path):
        recipe = tmp_path / "recipe.json"
        recipe.write_text(json.dumps({
            "format": "gca-recipe/1", "op": "seed",
            "seed": "base-sequences/binary/3;3;2;2"}))
        out_set = tmp_path / "set.json"
        code, _, err = run(capsys, "generate", "--recipe", str(recipe),
                           "--out", str(out_set))
        assert code == 0, err
        assert ("verified quad of member shapes 3, 3, 2, 2, "
                "alphabet binary") in err
        return out_set

    def test_generated_base_sequences_verify(self, capsys, tmp_path):
        path = self._write_base_set(capsys, tmp_path)
        doc = json.loads(path.read_text())
        assert [a["shape"] for a in doc["arrays"]] == [[3], [3], [2], [2]]
        code, obj, err = run_json(capsys, "verify", str(path))
        assert code == 0
        assert (obj["complementary"], obj["polynomial_route"]) == (True, True)
        assert obj["total_weight"] == 10
        assert obj["shape"] == [3]
        assert obj["shapes"] == [[3], [3], [2], [2]]
        assert err.strip() == "complementary"

    def test_spectrum_reports_every_shape(self, capsys, tmp_path):
        path = self._write_base_set(capsys, tmp_path)
        code, obj, _ = run_json(capsys, "spectrum", str(path))
        assert code == 0
        assert (obj["members"], obj["shape"], obj["shapes"]) == (
            4, [3], [[3], [3], [2], [2]])

    def test_legacy_structure_ignored(self, capsys, tmp_path):
        path = self._write_base_set(capsys, tmp_path)
        doc = json.loads(path.read_text())
        assert "structure" not in doc
        doc["structure"] = {"disjoint": [[0, 1]], "quasi_symmetric": True}
        path.write_text(json.dumps(doc))
        code, obj, _ = run_json(capsys, "verify", str(path))
        assert code == 0 and obj["complementary"] is True

    @pytest.mark.parametrize("field,value", [
        ("role", 5), ("role", "pair"), ("alphabet", "nonsense"),
        ("alphabet", "quaternary-ish"), ("structure", "tags")])
    def test_declared_field_contradicted_exit_65(self, capsys, tmp_path,
                                                 field, value):
        path = self._write_base_set(capsys, tmp_path)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        for command in ("verify", "spectrum"):
            code, out, err = run(capsys, command, str(path))
            assert code == 65
            assert out == "" and "Traceback" not in err

    def test_declared_wider_alphabet_accepted(self, capsys, tmp_path):
        path = self._write_base_set(capsys, tmp_path)
        doc = json.loads(path.read_text())
        doc["alphabet"] = "quaternary"
        path.write_text(json.dumps(doc))
        code, obj, _ = run_json(capsys, "verify", str(path))
        assert code == 0 and obj["complementary"] is True

    def test_corrupted_entry_exit_4(self, capsys, tmp_path):
        path = self._write_base_set(capsys, tmp_path)
        doc = json.loads(path.read_text())
        doc["arrays"][2]["entries"][1][0] *= -1
        path.write_text(json.dumps(doc))
        code, obj, err = run_json(capsys, "verify", str(path))
        assert code == 4
        assert obj["complementary"] is False
        assert "NOT complementary" in err

    def test_mixed_ranks_exit_65(self, capsys, tmp_path):
        path = self._write_base_set(capsys, tmp_path)
        doc = json.loads(path.read_text())
        doc["arrays"][3]["shape"] = [2, 1]
        path.write_text(json.dumps(doc))
        for command in ("verify", "spectrum"):
            code, out, err = run(capsys, command, str(path))
            assert code == 65
            assert out == "" and "Traceback" not in err
            assert "mixed ranks" in err


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

    def test_budget_zero_counts_no_node(self, capsys):
        code, obj, err = run_json(
            capsys, "seed", "search", "--kind", "pair", "--alphabet",
            "binary", "--shape", "3", "--budget", "0")
        assert code == 5
        assert (obj["status"], obj["nodes"]) == ("budget-exceeded", 0)
        assert "after 0 nodes" in err

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

    def test_unreachable_multidimensional_pair_exit_65(self, capsys):
        # 4**11 rows are over the table cap and the DFS is 1-D only: no
        # budget was given, so no budget can have been exceeded
        code, out, err = run(
            capsys, "seed", "search", "--kind", "pair", "--alphabet",
            "quaternary", "--shape", "3x4")
        assert code == 65
        assert out == "" and "Traceback" not in err


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
    member, a dropped top-level field, or a bad lineage, structure,
    role or alphabet."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_SETS)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["member", "drop", "field"]))
        members = _objects_in(doc.get("arrays"))
        if kind == "member" and members:
            draw(mutated_members(members))
        elif kind == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif kind == "field":
            name = draw(st.sampled_from(
                ["lineage", "structure", "arrays", "role", "alphabet"]))
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
