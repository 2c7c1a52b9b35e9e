"""Construction operators: frozen examples, closure and error cases."""
from __future__ import annotations

import dataclasses

import pytest

from golaykit.errors import (
    NonPolyphase,
    NotBinary,
    NotComplementary,
    NotDisjoint,
    ParseError,
    ShapeMismatch,
    StructureFailed,
    VerificationFailed,
)
from golaykit import construct, verify
from golaykit.construct import (
    GcaSet,
    assemble,
    binary_turyn_pair,
    compromise_quad,
    concat_pair,
    concat_zero_quad,
    cross_set,
    disjoint_from_pair,
    disjoint_mask_pair,
    expand_quad,
    glue_pair,
    interleave_quad,
    lagrange_quad,
    pair,
    quad,
    set_from_obj,
    set_to_obj,
)
from golaykit.tensor import Alphabet, Tensor, embed
from golaykit.verify import gca_check_polynomial, is_gca_set


def seq(*vals):
    return Tensor.sequence(vals)


def orient(gs: GcaSet, axis: int, rank: int = 2) -> GcaSet:
    """Re-embed a 1-D set along an axis of a rank-2 array."""
    return GcaSet(tuple(embed(a, rank, axis) for a in gs.arrays), gs.lineage)


@pytest.fixture
def direct_calls(monkeypatch):
    """One entry per `is_gca_set` call, under every name a module
    holds it by."""
    calls = []
    check = verify.is_gca_set

    def counted(arrays):
        calls.append(1)
        return check(arrays)

    for module in (verify, construct):
        monkeypatch.setattr(module, "is_gca_set", counted)
    return calls


@pytest.fixture
def p2():
    return pair(seq(1, 1), seq(1, -1))


@pytest.fixture
def q2_quaternary():
    return pair(seq(1, 1j), seq(1, (0, -1)))


@pytest.fixture
def bs1_quad(p2):
    # lengths 2,2,1,1 laced into a length-3 weight-deficient quad
    return interleave_quad(p2, pair(seq(1), seq(1)), dim=0)


class TestGcaSetBasics:
    def test_pair_verified_on_build(self):
        with pytest.raises(VerificationFailed):
            pair(seq(1, 1), seq(1, 1))

    def test_roles(self, p2):
        assert p2.role == "pair"
        assert cross_set(p2, p2).role == "quad"

    def test_alphabet_lub(self, p2, q2_quaternary):
        assert p2.alphabet is Alphabet.BINARY
        assert q2_quaternary.alphabet is Alphabet.QUATERNARY


class TestDerivedMetadata:
    """A set is its arrays: alphabet, role and shape are read from them."""

    def test_fields_are_arrays_lineage_mark(self):
        assert [f.name for f in dataclasses.fields(GcaSet)] == [
            "arrays", "lineage", "verified"]

    def test_derived_from_arrays(self, q2_quaternary):
        base = GcaSet((seq(1, 1, -1), seq(1, 1, 1), seq(1, -1), seq(1, -1)))
        assert base.alphabet is Alphabet.BINARY
        assert base.role == "quad"
        assert base.shape == (3,)  # the bounding shape of 3, 3, 2, 2
        assert not base.uniform_shape()
        bare = GcaSet(q2_quaternary.arrays)
        assert (bare.alphabet, bare.role, bare.shape, bare.lineage) == (
            Alphabet.QUATERNARY, "pair", (2,), "")
        zeros = GcaSet((seq(1, 0), seq(0, 1)))
        assert zeros.alphabet is Alphabet.POLYPHASE4_WITH_ZEROS

    @pytest.mark.parametrize("name,value", [
        ("alphabet", Alphabet.BINARY), ("role", "pair"),
        ("shape", (2,)), ("structure", {})])
    def test_metadata_cannot_be_set(self, p2, name, value):
        with pytest.raises(TypeError):
            GcaSet(p2.arrays, **{name: value})

    def test_alphabet_computed_once(self, p2, monkeypatch):
        calls = []
        alphabet_of = construct.alphabet_of
        monkeypatch.setattr(construct, "alphabet_of",
                            lambda a: calls.append(1) or alphabet_of(a))
        gs = GcaSet(p2.arrays)
        assert calls == []
        assert gs.alphabet is gs.alphabet is Alphabet.BINARY
        assert calls == [1, 1]  # once per member, on first read

    def test_binary_check_reads_the_arrays(self, q2_quaternary):
        # no label can make a quaternary pair pass as binary
        with pytest.raises(NotBinary):
            disjoint_from_pair(GcaSet(q2_quaternary.arrays))

    def test_wire_form_has_no_structure(self, bs1_quad):
        obj = set_to_obj(bs1_quad)
        assert sorted(obj) == ["alphabet", "arrays", "format", "lineage",
                               "role"]
        assert (obj["role"], obj["alphabet"]) == ("quad",
                                                  "polyphase4-with-zeros")


class TestVerifiedMark:
    """Only `assemble` marks a set; consumers skip checks on marked sets."""

    def test_only_assemble_marks(self, p2):
        assert p2.verified
        bare = GcaSet(p2.arrays, p2.lineage)
        assert not bare.verified
        assert bare == p2  # the mark takes no part in equality
        with pytest.raises(TypeError):
            GcaSet(p2.arrays, verified=True)
        assert not dataclasses.replace(p2).verified
        assert not dataclasses.replace(p2, lineage="copy").verified

    def test_set_from_obj_marks_only_when_verifying(self, p2):
        obj = set_to_obj(p2)
        loaded = set_from_obj(obj)
        assert loaded.verified
        assert loaded.lineage == p2.lineage
        assert not set_from_obj(obj, verify=False).verified

    @pytest.mark.parametrize("op", [
        lambda q: concat_zero_quad(q, dim=0),
        lambda q: compromise_quad(q, None, 0, pair(seq(1, 1), seq(1, -1))),
    ], ids=["concat_zero_quad", "compromise_quad"])
    def test_unmarked_quad_checked_jointly(self, op):
        bad = GcaSet((seq(1, 1), seq(1, 1), seq(1), seq(1)))
        with pytest.raises(NotComplementary):
            op(bad)

    def test_joint_check_only_for_unmarked_inputs(self, p2, monkeypatch):
        calls = []
        joint = construct.jointly_complementary
        monkeypatch.setattr(construct, "jointly_complementary",
                            lambda arrays: calls.append(1) or joint(arrays))
        t = pair(seq(1), seq(1))
        q = cross_set(p2, p2)
        interleave_quad(p2, t, dim=0)
        concat_zero_quad(q, dim=0)
        compromise_quad(q, None, 0, disjoint_from_pair(p2))
        assert calls == []
        interleave_quad(p2, GcaSet(t.arrays), dim=0)
        concat_zero_quad(dataclasses.replace(q), dim=0)
        assert len(calls) == 2


class TestBinaryTurynPair:
    def test_sizes_multiply(self, p2):
        out = binary_turyn_pair(p2, p2)
        assert out.shape == (4,)
        assert out.alphabet is Alphabet.BINARY

    def test_frozen_length4(self, p2):
        out = binary_turyn_pair(p2, p2)
        assert [a.entries() for a in out.arrays] == [
            [g for g in map(lambda v: v, seq(1, 1, 1, -1).entries())],
            seq(-1, -1, 1, -1).entries(),
        ]

    def test_rejects_quaternary(self, p2, q2_quaternary):
        with pytest.raises(NotBinary):
            binary_turyn_pair(p2, q2_quaternary)

    def test_chain_to_length16(self, p2):
        out = p2
        for _ in range(3):
            out = binary_turyn_pair(out, p2)
        assert out.shape == (16,)
        assert is_gca_set(list(out.arrays)).is_complementary

    def test_rank2(self, p2):
        a = orient(p2, 0)
        b = orient(p2, 1)
        out = binary_turyn_pair(a, b)
        assert out.shape == (2, 2)


class TestConcatPair:
    def test_doubles_along_dim(self, p2):
        out = concat_pair(p2, p2, 0)
        assert out.shape == (8,)

    def test_dim_range_checked(self, p2):
        with pytest.raises(ShapeMismatch):
            concat_pair(p2, p2, 1)

    def test_mixed_alphabet(self, p2, q2_quaternary):
        out = concat_pair(q2_quaternary, p2, 0)
        assert out.alphabet is Alphabet.QUATERNARY


class TestMaskAndHalves:
    def test_mask_frozen_example(self, p2):
        out = disjoint_mask_pair(p2)
        assert [a.entries() for a in out.arrays] == [
            [g for g in seq(0, 0).entries()],
            seq(1, 0).entries(),
        ]

    def test_mask_weight_half(self, p2):
        big = binary_turyn_pair(p2, p2)
        out = disjoint_mask_pair(big)
        assert out.total_weight() == 2  # half of length 4

    def test_mask_rejects_trivial(self):
        from golaykit.errors import Trivial

        with pytest.raises(Trivial):
            disjoint_mask_pair(pair(seq(1), seq(1)))

    @pytest.mark.parametrize("marked", [True, False])
    def test_mask_rejects_trivial_of_rank_2(self, marked):
        # a 1x1 binder is as trivial as a length-1 one, whatever its mark
        from golaykit.errors import Trivial

        one = embed(seq(1), 2, 0)
        binder = pair(one, one) if marked else GcaSet((one, one))
        with pytest.raises(Trivial):
            disjoint_mask_pair(binder)
        with pytest.raises(Trivial):
            glue_pair(binder, orient(pair(seq(1), seq(1)), 0),
                      orient(pair(seq(1), seq(1)), 1))

    def test_marked_binder_not_checked_again(self, p2, direct_calls):
        disjoint_mask_pair(p2)
        assert len(direct_calls) == 1  # the mask pair's own check

    def test_unmarked_1d_binder_checked(self, p2, direct_calls):
        # an unmarked 1-D binder still meets the end-to-end sign rule
        disjoint_mask_pair(GcaSet(p2.arrays))
        assert len(direct_calls) == 2
        with pytest.raises(NotComplementary):
            disjoint_mask_pair(GcaSet((seq(1, 1), seq(1, 1))))

    def test_halves_frozen_example(self, p2):
        out = disjoint_from_pair(p2)
        assert [a.entries() for a in out.arrays] == [
            seq(1, 0).entries(), seq(0, 1).entries(),
        ]

    def test_halves_reject_quaternary(self, q2_quaternary):
        with pytest.raises(NotBinary):
            disjoint_from_pair(q2_quaternary)


class TestGluePair:
    def test_sizes_multiply(self, p2):
        out = glue_pair(p2, p2, p2)
        assert out.shape == (8,)
        assert out.alphabet is Alphabet.BINARY

    def test_quaternary_payload(self, p2, q2_quaternary):
        out = glue_pair(p2, q2_quaternary, q2_quaternary)
        assert out.shape == (8,)
        assert out.alphabet is Alphabet.QUATERNARY

    def test_binder_must_be_binary(self, p2, q2_quaternary):
        with pytest.raises(NotBinary):
            glue_pair(q2_quaternary, p2, p2)

    @pytest.mark.parametrize("binder", ["marked", "unmarked"])
    def test_checks_only_the_pair_returned(self, p2, direct_calls, binder):
        # no mask or middle pair is assembled; an unmarked 1-D binder
        # takes one more check, by the end-to-end sign rule
        glue_pair(p2 if binder == "marked" else GcaSet(p2.arrays), p2, p2)
        assert len(direct_calls) == (1 if binder == "marked" else 2)


class TestCrossSet:
    def test_pair_times_pair(self, p2, q2_quaternary):
        out = cross_set(p2, q2_quaternary)
        assert out.role == "quad"
        assert out.shape == (4,)
        assert out.alphabet is Alphabet.QUATERNARY

    def test_order_row_major(self, p2):
        out = cross_set(p2, p2)
        from golaykit.tensor import kron

        expected = [
            kron(p2.arrays[0], p2.arrays[0]), kron(p2.arrays[0], p2.arrays[1]),
            kron(p2.arrays[1], p2.arrays[0]), kron(p2.arrays[1], p2.arrays[1]),
        ]
        assert list(out.arrays) == expected

    def test_quad_times_pair(self, p2):
        q = cross_set(p2, p2)
        out = cross_set(q, p2)
        assert out.role == "set-8"


class TestInterleaveQuad:
    def test_frozen_length3(self, bs1_quad):
        assert [a.entries() for a in bs1_quad.arrays] == [
            seq(1, 0, 1).entries(), seq(0, 1, 0).entries(),
            seq(1, 0, -1).entries(), seq(0, 1, 0).entries(),
        ]

    def test_sizes_must_differ_by_one(self, p2):
        with pytest.raises(ShapeMismatch):
            interleave_quad(p2, p2, dim=0)

    def test_joint_complementarity_required(self, p2):
        other_cd = GcaSet((seq(1), seq(-1)))
        ok = interleave_quad(p2, other_cd, dim=0)  # 2,2,1,1 still sums flat
        assert ok.shape == (3,)
        bad_ab = GcaSet((seq(1, 1), seq(1, 1)))
        with pytest.raises(NotComplementary):
            interleave_quad(bad_ab, pair(seq(1), seq(1)), dim=0)

    def test_degenerate_unit(self):
        u = interleave_quad(pair(seq(1), seq(1)), dim=0)
        assert [a.entries() for a in u.arrays] == [
            seq(1).entries(), seq(0).entries(),
            seq(1).entries(), seq(0).entries(),
        ]

    def test_degenerate_needs_size1(self, p2):
        with pytest.raises(ShapeMismatch):
            interleave_quad(p2, dim=0)


class TestConcatZeroQuad:
    def test_frozen_length4(self):
        t = pair(seq(1), seq(1))
        out = concat_zero_quad(t, t, dim=0)
        assert [a.entries() for a in out.arrays] == [
            seq(1, 0, 0, 1).entries(), seq(0, 1, 1, 0).entries(),
            seq(1, 0, 0, -1).entries(), seq(0, 1, -1, 0).entries(),
        ]

    def test_sizes_add_then_double(self, p2):
        t = pair(seq(1), seq(1))
        out = concat_zero_quad(p2, t, dim=0)
        assert out.shape == (6,)

    def test_quad_input_mode(self, p2):
        joint = compromise_quad(pair(seq(1), seq(1)), p2, 0, p2)
        out = concat_zero_quad(joint, dim=0)
        assert out.shape == (24,)


class TestLagrangeQuad:
    def test_3x3_binary(self, bs1_quad):
        out = lagrange_quad(orient(bs1_quad, 0), orient(bs1_quad, 1))
        assert out.shape == (3, 3)
        assert out.alphabet is Alphabet.BINARY
        assert gca_check_polynomial(list(out.arrays))

    def test_1d_odd_product(self, bs1_quad):
        out = lagrange_quad(bs1_quad, bs1_quad)
        assert out.shape == (9,)
        assert out.alphabet is Alphabet.BINARY

    def test_degenerate_gives_trivial(self):
        u = interleave_quad(pair(seq(1), seq(1)), dim=0)
        out = lagrange_quad(u, u)
        assert [a.entries() for a in out.arrays] == [
            seq(1).entries()] * 4

    def test_structure_revalidated(self, p2):
        plain = cross_set(p2, p2)  # full support, no tiling structure
        with pytest.raises(StructureFailed):
            lagrange_quad(plain, plain)

    def test_concat_zero_inputs(self, p2):
        t = pair(seq(1), seq(1))
        q4 = concat_zero_quad(t, t, dim=0)
        out = lagrange_quad(q4, q4)
        assert out.shape == (16,)
        assert out.alphabet is Alphabet.BINARY


class TestExpandQuad:
    def test_sizes_multiply(self, bs1_quad, p2):
        q33 = lagrange_quad(orient(bs1_quad, 0), orient(bs1_quad, 1))
        ij = disjoint_from_pair(p2)
        out = expand_quad(q33, orient(ij, 1))
        assert out.shape == (3, 6)
        assert out.alphabet is Alphabet.BINARY

    def test_needs_disjoint_tag(self, bs1_quad, p2):
        q9 = lagrange_quad(bs1_quad, bs1_quad)
        with pytest.raises(NotDisjoint):
            expand_quad(q9, p2)

    def test_tag_is_revalidated(self, bs1_quad, p2):
        q9 = lagrange_quad(bs1_quad, bs1_quad)
        fake = GcaSet(p2.arrays, "x")
        with pytest.raises(NotDisjoint):
            expand_quad(q9, fake)

    def test_untagged_disjoint_pair(self, bs1_quad, p2):
        # disjointness is read from the supports, whatever built the pair
        q9 = lagrange_quad(bs1_quad, bs1_quad)
        ij = GcaSet(disjoint_from_pair(p2).arrays)
        out = expand_quad(q9, ij)
        assert out.shape == (18,)
        assert out.alphabet is Alphabet.BINARY
        with pytest.raises(NotDisjoint):
            expand_quad(q9, p2)

    def test_input_quad_must_be_polyphase(self, bs1_quad, p2):
        ij = disjoint_from_pair(p2)
        with pytest.raises(NonPolyphase):
            expand_quad(bs1_quad, ij)


class TestCompromiseQuad:
    def test_sizes(self, p2):
        t = pair(seq(1), seq(1))
        out = compromise_quad(t, p2, 0, p2)
        assert out.shape == (6,)
        assert out.alphabet is Alphabet.BINARY

    def test_2d_binder(self, p2):
        t = pair(seq(1), seq(1))
        out = compromise_quad(orient(t, 1), orient(p2, 1), 1, orient(p2, 0))
        assert out.shape == (2, 3)

    def test_pairs_must_match_off_dim(self, p2):
        with pytest.raises(ShapeMismatch):
            compromise_quad(orient(p2, 0), orient(p2, 1), 0, orient(p2, 0))


class TestSetJson:
    def test_round_trip(self, p2):
        obj = set_to_obj(p2)
        assert obj["format"] == "gca-set/1"
        assert obj["role"] == "pair"
        back = set_from_obj(obj)
        assert back.arrays == p2.arrays
        assert back.alphabet is p2.alphabet

    def test_verify_on_load(self):
        obj = {
            "format": "gca-set/1",
            "role": "pair",
            "alphabet": "binary",
            "arrays": [
                {"format": "gca-tensor/1", "shape": [2],
                 "order": "row-major-last-fastest",
                 "entries": [[1, 0], [1, 0]], "alphabet": "binary"},
                {"format": "gca-tensor/1", "shape": [2],
                 "order": "row-major-last-fastest",
                 "entries": [[1, 0], [1, 0]], "alphabet": "binary"},
            ],
            "lineage": "",
            "structure": {},
        }
        with pytest.raises(VerificationFailed):
            set_from_obj(obj)
        loose = set_from_obj(obj, verify=False)
        assert not is_gca_set(list(loose.arrays)).is_complementary

    @pytest.mark.parametrize("field,value", [
        ("role", "quad"), ("role", 5), ("role", "set-2"),
        ("alphabet", "nonsense"), ("alphabet", 3), ("alphabet", "binary"),
        ("structure", [[0, 1]])])
    def test_declared_fields_checked(self, q2_quaternary, field, value):
        obj = set_to_obj(q2_quaternary)
        obj[field] = value
        for verify in (True, False):
            with pytest.raises(ParseError):
                set_from_obj(obj, verify=verify)

    @pytest.mark.parametrize("field,value", [
        ("alphabet", "quaternary"), ("alphabet", "general"),
        ("alphabet", None), ("role", None),
        ("structure", {"disjoint": [[0, 1]], "mask": True})])
    def test_declared_fields_accepted(self, q2_quaternary, field, value):
        obj = set_to_obj(q2_quaternary)
        obj[field] = value
        back = set_from_obj(obj)
        assert back.arrays == q2_quaternary.arrays
        assert back.alphabet is Alphabet.QUATERNARY

    def test_rejects_bad_format(self):
        with pytest.raises(ParseError):
            set_from_obj({"format": "gca-set/2", "arrays": []})
