"""Ring and structure operations on Gaussian-integer tensors."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golaykit.errors import (
    Collision,
    HalvingError,
    ParseError,
    QuarteringError,
    RankMismatch,
    ShapeMismatch,
)
from golaykit.tensor import (
    Alphabet,
    GaussInt,
    Tensor,
    add,
    alphabet_of,
    checked_superpose,
    concat,
    convolve,
    embed,
    halve,
    interleave,
    involute,
    kron,
    negate,
    quarter,
    quasi_symmetric,
    reshape_to_sequence,
    supports_conjoint,
    supports_disjoint,
    tensor_from_obj,
    tensor_to_obj,
    upsample,
)

from . import oracles
from .oracles import tensors, tensor_pairs_same_shape


def seq(*vals):
    return Tensor.sequence(vals)


class TestGaussInt:
    def test_arithmetic(self):
        i = GaussInt(0, 1)
        assert i * i == GaussInt(-1, 0)
        assert (GaussInt(1, 2) * GaussInt(3, -1)) == GaussInt(5, 5)
        assert GaussInt(2, -3).conjugate() == GaussInt(2, 3)
        assert GaussInt(3, 4).norm() == 25
        assert -GaussInt(1, -2) == GaussInt(-1, 2)

    def test_units(self):
        assert GaussInt(0, -1).is_unit()
        assert not GaussInt(1, 1).is_unit()


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            Tensor.from_entries((0,), [])
        with pytest.raises(ShapeMismatch):
            Tensor.from_entries((2, 0), [1, 2])
        with pytest.raises(ShapeMismatch):
            Tensor.from_entries((), [])

    def test_entry_count_checked(self):
        with pytest.raises(ShapeMismatch):
            Tensor.from_entries((2, 2), [1, 1, 1])

    def test_row_major_order(self):
        t = Tensor.from_entries((2, 3), [1, 2, 3, 4, 5, 6])
        assert t[(0, 2)] == GaussInt(3)
        assert t[(1, 0)] == GaussInt(4)

    def test_immutable(self):
        t = seq(1, -1)
        with pytest.raises(AttributeError):
            t.re = None
        with pytest.raises(ValueError):
            t.re[0] = 5

    def test_entry_coercions(self):
        t = Tensor.sequence([1, -1, 1j, (0, -1), GaussInt(2, 3)])
        assert t.entries() == [
            GaussInt(1), GaussInt(-1), GaussInt(0, 1), GaussInt(0, -1),
            GaussInt(2, 3),
        ]
        with pytest.raises(ParseError):
            Tensor.sequence([0.5])


class TestRingOps:
    def test_add_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            add(seq(1, 1), seq(1, 1, 1))
        with pytest.raises(RankMismatch):
            add(seq(1, 1), Tensor.from_entries((1, 2), [1, 1]))

    def test_involute_example(self):
        assert involute(seq(1, 1j, -1)) == seq(-1, -1j, 1)

    def test_involute_is_involution_example(self):
        t = Tensor.from_entries((2, 2), [1, 1j, -1, (2, -3)])
        assert involute(involute(t)) == t

    def test_convolve_example(self):
        # (1 + z)(1 - z) = 1 - z^2
        assert convolve(seq(1, 1), seq(1, -1)) == seq(1, 0, -1)

    def test_kron_example(self):
        assert kron(seq(1, -1), seq(1, 1j)) == seq(1, 1j, -1, (0, -1))

    def test_kron_2d_shape(self):
        a = Tensor.from_entries((2, 1), [1, -1])
        b = Tensor.from_entries((1, 3), [1, 1, 1])
        assert kron(a, b).shape == (2, 3)

    @given(tensor_pairs_same_shape())
    @settings(max_examples=60)
    def test_convolve_matches_reference(self, ab):
        a, b = ab
        assert convolve(a, b) == oracles.naive_convolve(a, b)

    @given(tensors(), tensors())
    @settings(max_examples=60)
    def test_kron_matches_reference(self, a, b):
        r = max(a.rank, b.rank)
        a = Tensor.from_entries(a.shape + (1,) * (r - a.rank), a.entries())
        b = Tensor.from_entries(b.shape + (1,) * (r - b.rank), b.entries())
        assert kron(a, b) == oracles.naive_kron(a, b)

    @given(tensors())
    @settings(max_examples=60)
    def test_involute_matches_reference(self, a):
        assert involute(a) == oracles.naive_involute(a)
        assert involute(involute(a)) == a

    @given(tensor_pairs_same_shape(max_rank=2, max_dim=3))
    @settings(max_examples=40)
    def test_convolution_commutes(self, ab):
        a, b = ab
        assert convolve(a, b) == convolve(b, a)

    @given(tensor_pairs_same_shape(max_rank=2, max_dim=3))
    @settings(max_examples=40)
    def test_involution_antimultiplicative(self, ab):
        # star(A * B) = star(A) * star(B); with conjugation the order
        # does not matter because the ring is commutative
        a, b = ab
        assert involute(convolve(a, b)) == convolve(involute(a), involute(b))

    @given(tensor_pairs_same_shape(max_rank=2, max_dim=3))
    @settings(max_examples=40)
    def test_involution_additive(self, ab):
        a, b = ab
        assert involute(add(a, b)) == add(involute(a), involute(b))

    @given(tensors(max_rank=2, max_dim=3), tensors(max_rank=2, max_dim=3))
    @settings(max_examples=40)
    def test_kron_via_upsampled_convolution(self, a, b):
        if a.rank != b.rank:
            return
        assert kron(a, b) == convolve(upsample(a, b.shape), b)

    @given(tensors(max_rank=2, max_dim=2), tensors(max_rank=2, max_dim=2),
           tensors(max_rank=2, max_dim=2))
    @settings(max_examples=30)
    def test_kron_associative(self, a, b, c):
        if not (a.rank == b.rank == c.rank):
            return
        assert kron(kron(a, b), c) == kron(a, kron(b, c))

    def test_bigint_paths_stay_exact(self):
        big = 10**25
        a = seq(big, -big)
        b = seq(big, big)
        c = convolve(a, b)
        assert c.entries()[0] == GaussInt(big * big)
        assert c.entries()[1] == GaussInt(0)
        assert kron(a, b).entries()[0] == GaussInt(big * big)


@st.composite
def same_rank_pairs(draw, max_component=2):
    """Two tensors of one rank, 1 to 3, whose shapes may differ."""
    rank = draw(st.integers(1, 3))
    dims = st.lists(st.integers(1, 4), min_size=rank, max_size=rank).map(tuple)
    return tuple(draw(tensors(shape=draw(dims), max_component=max_component))
                 for _ in range(2))


class TestConvolveKernel:
    """The Kronecker-substitution convolution against the double sum,
    on int64 entries and on entries that need Python integers."""

    @given(same_rank_pairs())
    @settings(max_examples=80)
    def test_int64_matches_reference(self, ab):
        a, b = ab
        assert convolve(a, b) == oracles.naive_convolve(a, b)

    @given(same_rank_pairs(max_component=2**70))
    @settings(max_examples=40)
    def test_bigint_matches_reference(self, ab):
        a, b = ab
        assert convolve(a, b) == oracles.naive_convolve(a, b)

    @pytest.mark.parametrize("y", [2**30 - 1, 2**30])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_digit_width_boundary(self, y, sign):
        # bound = 2 * min size * max|a| * max|b| = 4xy, which is 2**63 -
        # 2**33 (8-byte digits) or 2**63 (9-byte digits); the middle
        # output entry reaches it with either sign
        x = 2**31
        a = seq((x, x), (sign * x, sign * x))
        b = seq((y, y), (sign * y, sign * y))
        c = convolve(a, b)
        assert c == oracles.naive_convolve(a, b)
        assert c.entries()[1] == GaussInt(0, sign * 4 * x * y)

    def test_int64_extremes(self):
        a = Tensor(np.array([-2**63, 2**63 - 1]), np.array([0, -2**63]))
        b = seq(1, (0, 1), -1)
        assert convolve(a, b) == oracles.naive_convolve(a, b)

    def test_zero_operand(self):
        a = seq(10**30, 3)
        assert convolve(a, Tensor.zeros((3,))) == Tensor.zeros((4,))


class TestMaxComponent:
    def test_int64_extremes(self):
        t = Tensor(np.array([-2**63, 5]), np.array([0, 2**63 - 1]))
        assert t.re.dtype == np.int64
        assert t.max_component() == 2**63
        t = Tensor(np.array([2**63 - 1]), np.array([-(2**63 - 1)]))
        assert t.max_component() == 2**63 - 1

    def test_signs_and_zeros(self):
        assert seq(-3, -5).max_component() == 5
        assert seq((0, 4), (0, -7)).max_component() == 7
        assert Tensor.zeros((2, 3)).max_component() == 0

    def test_object_planes(self):
        t = seq((-2**80, 3), (7, 2**70))
        assert t.re.dtype == object and t.im.dtype == object
        assert t.max_component() == 2**80
        t = seq((1, -2**90))
        assert t.re.dtype == np.int64 and t.im.dtype == object
        assert t.max_component() == 2**90


class TestAssemblyOps:
    def test_concat_example(self):
        assert concat(seq(1, 1), seq(-1), 0) == seq(1, 1, -1)

    def test_concat_checks_off_axis(self):
        a = Tensor.from_entries((2, 2), [1, 1, 1, 1])
        b = Tensor.from_entries((3, 2), [1, 1, 1, 1, 1, 1])
        assert concat(a, b, 0).shape == (5, 2)
        with pytest.raises(ShapeMismatch):
            concat(a, b, 1)

    def test_interleave_even(self):
        assert interleave(seq(1, 1), seq(-1, 1), 0) == seq(1, -1, 1, 1)

    def test_interleave_odd(self):
        assert interleave(seq(1, 1), seq(-1), 0) == seq(1, -1, 1)

    def test_interleave_rejects_bad_sizes(self):
        with pytest.raises(ShapeMismatch):
            interleave(seq(1), seq(1, 1), 0)
        with pytest.raises(ShapeMismatch):
            interleave(seq(1, 1, 1), seq(1), 0)

    def test_superpose_disjoint(self):
        a = seq(1, 0)
        b = seq(0, -1)
        assert checked_superpose(a, b) == seq(1, -1)

    def test_superpose_collision_position(self):
        with pytest.raises(Collision) as exc:
            checked_superpose(seq(0, 1), seq(1, 1))
        assert exc.value.position == (1,)

    def test_halve_and_quarter(self):
        assert halve(seq(2, -4)) == seq(1, -2)
        with pytest.raises(HalvingError):
            halve(seq(1, 2))
        assert quarter(seq(4, -8)) == seq(1, -2)
        with pytest.raises(QuarteringError):
            quarter(seq(2, 4))

    def test_upsample(self):
        assert upsample(seq(1, -1), (3,)) == seq(1, 0, 0, -1)

    def test_reshape_to_sequence_column_order(self):
        t = Tensor.from_entries((2, 3), [1, 2, 3, 4, 5, 6])
        assert reshape_to_sequence(t) == seq(1, 4, 2, 5, 3, 6)

    def test_embed(self):
        e = embed(seq(1, -1, 1), 2, 1)
        assert e.shape == (1, 3)
        assert e[(0, 2)] == GaussInt(1)


class TestStructure:
    def test_disjoint_conjoint(self):
        assert supports_disjoint(seq(1, 0), seq(0, 1))
        assert not supports_disjoint(seq(1, 1), seq(0, 1))
        assert supports_conjoint(seq(1, -1), seq(1j, 1))
        assert not supports_conjoint(seq(1, 0), seq(1, 1))

    def test_quasi_symmetric(self):
        assert quasi_symmetric(seq(1, 0, -1))
        assert not quasi_symmetric(seq(1, 1, 0))
        assert quasi_symmetric(seq(0, 1, 0))

    def test_alphabet_classification(self):
        assert alphabet_of(seq(1, -1)) is Alphabet.BINARY
        assert alphabet_of(seq(1, 1j)) is Alphabet.QUATERNARY
        assert alphabet_of(seq(1, 0, -1j)) is Alphabet.POLYPHASE4_WITH_ZEROS
        assert alphabet_of(seq(2, 1)) is Alphabet.GENERAL
        assert alphabet_of(seq(1, (1, 1))) is Alphabet.GENERAL

    def test_alphabet_admits(self):
        assert Alphabet.QUATERNARY.admits(Alphabet.BINARY)
        assert not Alphabet.BINARY.admits(Alphabet.QUATERNARY)
        assert Alphabet.GENERAL.admits(Alphabet.POLYPHASE4_WITH_ZEROS)


class TestTensorJson:
    def test_round_trip(self):
        t = Tensor.from_entries((2, 2), [1, -1, 1j, (0, -1)])
        obj = tensor_to_obj(t)
        assert obj["format"] == "gca-tensor/1"
        assert obj["shape"] == [2, 2]
        assert obj["alphabet"] == "quaternary"
        assert tensor_from_obj(obj) == t

    def test_rejects_wrong_format(self):
        with pytest.raises(ParseError):
            tensor_from_obj({"format": "nope", "shape": [1], "entries": [[1, 0]]})

    def test_rejects_alphabet_mismatch(self):
        obj = {
            "format": "gca-tensor/1",
            "shape": [2],
            "order": "row-major-last-fastest",
            "entries": [[2, 0], [1, 0]],
            "alphabet": "binary",
        }
        with pytest.raises(ParseError):
            tensor_from_obj(obj)

    def test_rejects_malformed(self):
        with pytest.raises(ParseError):
            tensor_from_obj({"format": "gca-tensor/1", "shape": [2]})

    @given(tensors())
    @settings(max_examples=40)
    def test_round_trip_property(self, t):
        assert tensor_from_obj(tensor_to_obj(t)) == t

    @given(tensors(max_component=2 ** 70))
    @settings(max_examples=40)
    def test_entries_written_as_exact_int_pairs(self, t):
        entries = tensor_to_obj(t)["entries"]
        assert entries == [[g.re, g.im] for g in t.entries()]
        assert all(type(v) is int for e in entries for v in e)
        assert tensor_from_obj(tensor_to_obj(t)) == t

    @pytest.mark.parametrize("field, value", [
        ("entries", [[1.5, 0], [1, 0]]),
        ("entries", [[True, 0], [1, 0]]),
        ("entries", [[1.0, 0], [1, 0]]),
        ("entries", [["1", 0], [1, 0]]),
        ("entries", [[1, 0, 0], [1, 0]]),
        ("entries", [[1], [1, 0]]),
        ("entries", [(1, 0), (1, 0)]),
        ("entries", [1, 1]),
        ("entries", [[1, 0]]),
        ("entries", "ab"),
        ("shape", "2"),
        ("shape", 2),
        ("shape", [True, 2]),
        ("shape", [2.0]),
        ("shape", [0]),
        ("shape", []),
        ("shape", (2,)),
        ("shape", [1] * 33),
        ("shape", [1] * 99),
    ])
    def test_strict_parse(self, field, value):
        obj = {"format": "gca-tensor/1", "shape": [2],
               "entries": [[1, 0], [1, 0]]}
        obj[field] = value
        with pytest.raises(ParseError):
            tensor_from_obj(obj)

    def test_rank_up_to_32(self):
        obj = {"format": "gca-tensor/1", "shape": [1] * 32,
               "entries": [[2 ** 64, -1]]}
        t = tensor_from_obj(obj)
        assert t.rank == 32 and t[(0,) * 32] == GaussInt(2 ** 64, -1)
