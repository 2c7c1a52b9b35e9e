"""Seed records and the registry: verification at the door, lookup
fallback, corruption isolation and the bundled data file."""
from __future__ import annotations

import json

import pytest

from golaykit.errors import (MissingSeed, NotBinary, ParseError,
                             VerificationFailed)
from golaykit.seeds import (
    BASE_KIND,
    PAIR_KIND,
    SeedRecord,
    SeedRegistry,
    _key_shapes,
    load_bundled,
    load_registry,
    record_from_obj,
    record_to_obj,
    registry_to_obj,
    search_base_sequences,
    search_golay_pair,
)
from golaykit.search import SearchStatus
from golaykit.tensor import Alphabet, Tensor


def seq(*vals):
    return Tensor.sequence(vals)


@pytest.fixture
def pair2():
    return SeedRecord(PAIR_KIND, Alphabet.BINARY, (seq(1, 1), seq(1, -1)))


@pytest.fixture
def base1():
    return SeedRecord(BASE_KIND, Alphabet.BINARY,
                      (seq(1, 1), seq(1, -1), seq(1), seq(1)))


class TestSeedRecord:
    def test_keys(self, pair2, base1):
        assert pair2.key == "golay-pair/binary/2;2"
        assert base1.key == "base-sequences/binary/2;2;1;1"
        assert base1.base_index == 1

    def test_verify_accepts_good(self, pair2, base1):
        pair2.verify()
        base1.verify()

    def test_verify_rejects_non_complementary(self):
        rec = SeedRecord(PAIR_KIND, Alphabet.BINARY, (seq(1, 1), seq(1, 1)))
        with pytest.raises(VerificationFailed):
            rec.verify()

    def test_verify_rejects_alphabet_escape(self):
        # quaternary entries under a binary label must not pass
        rec = SeedRecord(PAIR_KIND, Alphabet.BINARY, (seq(1, 1j), seq(1, (0, -1))))
        with pytest.raises(VerificationFailed):
            rec.verify()

    def test_verify_rejects_wrong_base_lengths(self):
        rec = SeedRecord(BASE_KIND, Alphabet.BINARY,
                         (seq(1, 1), seq(1, -1), seq(1, 1), seq(1)))
        with pytest.raises(VerificationFailed):
            rec.verify()

    def test_verify_rejects_pair_of_two_lengths(self):
        # complementary once zero-padded, but a pair record has one shape
        rec = SeedRecord(PAIR_KIND, Alphabet.GENERAL, (seq(1, 0), seq(1)))
        with pytest.raises(VerificationFailed, match="of one shape"):
            rec.verify()

    def test_verify_rejects_flipped_base_entry(self):
        for rec in load_bundled().records.values():
            if rec.kind != BASE_KIND:
                continue
            a = rec.tensors[0]
            re = a.re.copy()
            re[-1] = -re[-1]
            bad = SeedRecord(BASE_KIND, Alphabet.BINARY,
                             (Tensor(re, a.im),) + rec.tensors[1:])
            with pytest.raises(VerificationFailed):
                bad.verify()

    @pytest.mark.parametrize("entry", [0, 2, 1j])
    def test_verify_rejects_non_binary_base_entry(self, base1, entry):
        bad = SeedRecord(BASE_KIND, Alphabet.BINARY,
                         (seq(1, entry),) + base1.tensors[1:])
        with pytest.raises(NotBinary):
            bad.verify()

    def test_verify_rejects_quaternary_base_record(self, base1):
        bad = SeedRecord(BASE_KIND, Alphabet.QUATERNARY, base1.tensors)
        with pytest.raises(VerificationFailed, match="are binary"):
            bad.verify()

    def test_verify_rejects_unknown_kind(self):
        rec = SeedRecord("mystery", Alphabet.BINARY, (seq(1),))
        with pytest.raises(VerificationFailed):
            rec.verify()

    def test_record_round_trip(self, pair2):
        back = record_from_obj(record_to_obj(pair2))
        assert back == pair2

    def test_record_from_bad_obj(self):
        with pytest.raises(ParseError):
            record_from_obj([1, 2])
        with pytest.raises(ParseError):
            record_from_obj({"kind": PAIR_KIND})

    @pytest.mark.parametrize("tensors", [5, None, "ab", {"0": 1}])
    def test_record_tensors_not_a_list(self, tensors):
        with pytest.raises(ParseError):
            record_from_obj({"kind": PAIR_KIND, "alphabet": "binary",
                             "tensors": tensors})

    def test_record_kind_not_a_string(self, pair2):
        with pytest.raises(ParseError):
            record_from_obj({**record_to_obj(pair2), "kind": 5})


class TestRegistryLookup:
    def test_add_verifies(self):
        reg = SeedRegistry()
        bad = SeedRecord(PAIR_KIND, Alphabet.BINARY, (seq(1, 1), seq(1, 1)))
        with pytest.raises(VerificationFailed):
            reg.add(bad)
        assert len(reg) == 0

    def test_lookup_and_membership(self, pair2):
        reg = SeedRegistry()
        reg.add(pair2)
        assert pair2.key in reg
        assert reg.get_golay_pair(Alphabet.BINARY, 2) == pair2
        assert reg.find_golay_pair(Alphabet.BINARY, 4) is None

    def test_quaternary_falls_back_to_binary(self, pair2):
        # binary entries are quaternary entries, so a binary record
        # satisfies a quaternary request of the same length
        reg = SeedRegistry()
        reg.add(pair2)
        assert reg.get_golay_pair(Alphabet.QUATERNARY, 2) == pair2
        quat = SeedRecord(PAIR_KIND, Alphabet.QUATERNARY,
                          (seq(1, 1j), seq(1, (0, -1))))
        reg.add(quat)
        assert reg.get_golay_pair(Alphabet.QUATERNARY, 2) == quat
        assert reg.get_golay_pair(Alphabet.BINARY, 2) == pair2

    def test_missing_seed_names_key(self):
        reg = SeedRegistry()
        with pytest.raises(MissingSeed) as exc:
            reg.get_golay_pair(Alphabet.BINARY, 26)
        assert "golay-pair/binary/26;26" in str(exc.value)
        with pytest.raises(MissingSeed) as exc:
            reg.get_base_sequences(23)
        assert "base-sequences/binary/24;24;23;23" in str(exc.value)


class TestKeyShapes:
    """`_key_shapes` reads the member shapes back out of a key."""

    def test_inverts_every_bundled_key(self):
        records = load_bundled().records
        assert len(records) > 20
        for key, record in records.items():
            assert record.key == key
            assert _key_shapes(key) == record.shapes

    def test_inverts_multi_dimensional_keys(self):
        a = Tensor.from_entries((2, 2), [1, 1, 1, -1])
        b = Tensor.from_entries((2, 1, 3), [1, 1, 1, -1, 1, -1])
        for tensors in ((a, a), (b, b, b)):
            record = SeedRecord(PAIR_KIND, Alphabet.BINARY, tensors)
            assert _key_shapes(record.key) == record.shapes

    @pytest.mark.parametrize("key", [
        "", "x", "golay-pair/binary/", "golay-pair/binary/2;", "a/b/2;;2",
        "a/b/0;0", "a/b/-2;-2", "a/b/02;02", "a/b/+2;2", "a/b/2 ;2",
        "a/b/2x;2x", "a/b/2x2;2", "a/b/\u0662;\u0662", "a/b/" + "9" * 5000])
    def test_refuses_what_no_key_ends_in(self, key):
        with pytest.raises(ParseError):
            _key_shapes(key)


class TestRegistryFiles:
    def test_round_trip(self, tmp_path, pair2, base1):
        reg = SeedRegistry()
        reg.add(pair2)
        reg.add(base1)
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps(registry_to_obj(reg)))
        back = load_registry(path)
        assert len(back) == 2
        assert back.rejects == []
        assert back.get_base_sequences(1) == base1

    def test_blank_file_is_empty(self, tmp_path):
        path = tmp_path / "blank.json"
        path.write_text("  \n")
        reg = load_registry(path)
        assert len(reg) == 0

    def test_unparseable_file_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_registry(path)
        path.write_text('{"a": 1}')
        with pytest.raises(ParseError):
            load_registry(path)

    def test_corrupt_record_isolated(self, tmp_path, pair2):
        # one tampered record must not take down its neighbours
        good = record_to_obj(pair2)
        bad = record_to_obj(pair2)
        bad["tensors"][1]["entries"][0] = [-1, 0]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps([bad, good]))
        reg = load_registry(path)
        assert len(reg) == 1
        assert len(reg.rejects) == 1
        idx, why = reg.rejects[0]
        assert idx == 0
        assert "VerificationFailed" in why

    def test_bundled_loads_clean(self):
        reg = load_bundled()
        assert len(reg) == 22
        assert reg.rejects == []
        for length in (1, 2, 10, 26):
            assert reg.find_golay_pair(Alphabet.BINARY, length)
        for length in (3, 5, 11, 13):
            rec = reg.get_golay_pair(Alphabet.QUATERNARY, length)
            assert rec.alphabet is Alphabet.QUATERNARY
        for m in range(1, 15):
            assert reg.find_base_sequences(m)
        assert reg.find_base_sequences(23) is None


class TestSearchEntryPoints:
    def test_pair_search_found(self):
        status, record, nodes = search_golay_pair(Alphabet.BINARY, (10,))
        assert status is SearchStatus.FOUND
        assert record.key == "golay-pair/binary/10;10"
        assert "search" in record.provenance
        record.verify()

    def test_pair_search_exhausted(self):
        status, record, nodes = search_golay_pair(Alphabet.BINARY, (5,))
        assert status is SearchStatus.EXHAUSTED
        assert record is None

    def test_base_search_found(self):
        status, record, nodes = search_base_sequences(2)
        assert status is SearchStatus.FOUND
        assert record.base_index == 2
        record.verify()

    def test_base_search_budget(self):
        status, record, nodes = search_base_sequences(6, budget=10)
        assert status is SearchStatus.BUDGET_EXCEEDED
        assert record is None

    def test_found_record_registers(self):
        status, record, _ = search_golay_pair(Alphabet.QUATERNARY, (3,))
        assert status is SearchStatus.FOUND
        reg = SeedRegistry()
        reg.add(record)
        assert reg.get_golay_pair(Alphabet.QUATERNARY, 3) == record
