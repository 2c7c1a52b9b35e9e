"""Ring and structure operations on Gaussian-integer tensors."""
from __future__ import annotations

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golaykit import _toom, planner, tensor, verify
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

    def test_adopt_takes_planes_without_copy(self):
        re, im = np.array([1, 2]), np.array([0, 3])
        t = Tensor._adopt(re, im)
        assert np.shares_memory(t.re, re) and np.shares_memory(t.im, im)
        assert not t.re.flags.writeable and not t.im.flags.writeable
        assert re.flags.writeable and im.flags.writeable  # the given arrays keep theirs
        z = Tensor._adopt(re)
        assert z == Tensor(re, np.zeros(2, dtype=np.int64))
        assert not any(z.im.strides) and not z.im.flags.writeable

    def test_entry_coercions(self):
        t = Tensor.sequence([1, -1, 1j, (0, -1), GaussInt(2, 3), np.int8(3),
                             (np.int64(-2), np.uint16(5))])
        assert t.entries() == [
            GaussInt(1), GaussInt(-1), GaussInt(0, 1), GaussInt(0, -1),
            GaussInt(2, 3), GaussInt(3), GaussInt(-2, 5),
        ]
        with pytest.raises(ParseError):
            Tensor.sequence([0.5])

    @pytest.mark.parametrize("entries", [
        [(1.5, 0), (2, 0.9)], [("3", "-1")], [(1, 0.0)], [True], [(1, False)],
        [GaussInt(1.5, 0)], [GaussInt(1, "2")], [1.5 + 0j], [complex("inf")],
        [None], [(1, 2, 3)], [np.float64(2.0)], [np.bool_(True)],
    ])
    def test_non_integer_parts_refused(self, entries):
        # as in gca-tensor/1: int and numpy integers only, no booleans
        with pytest.raises(ParseError):
            Tensor.sequence(entries)
        with pytest.raises(ParseError):
            Tensor.from_entries((1, len(entries)), entries)


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


# int64's edges and values between, as Python ints: each fits int64
INT64_EDGES = [-2 ** 63, -2 ** 63 + 1, -2 ** 62, -1, 0, 1, 2 ** 62,
               2 ** 63 - 1]


def _parsed(values) -> Tensor:
    return tensor_from_obj({"format": "gca-tensor/1", "shape": [len(values)],
                            "entries": [[v, -v] for v in values]})


class TestNoInt64Wrap:
    """Sums and negations are exact at int64's edges, where numpy's array
    arithmetic wraps without a warning: against Python ints."""

    def test_sum_and_difference(self):
        pairs = [(x, y) for x in INT64_EDGES for y in INT64_EDGES]
        a = Tensor.sequence([(x, -y) for x, y in pairs])
        b = Tensor.sequence([(y, x) for x, y in pairs])
        assert a.re.dtype == b.re.dtype == np.int64
        assert add(a, b).entries() == [GaussInt(x + y, x - y) for x, y in pairs]
        assert (a - b).entries() == [GaussInt(x - y, -y - x) for x, y in pairs]

    def test_int64_sum_past_the_range(self):
        big = seq(2 ** 62)
        assert big.re.dtype == np.int64
        assert add(big, big).entries() == [GaussInt(2 ** 63)]
        assert (negate(big) - big - big).entries() == [GaussInt(-3 * 2 ** 62)]

    def test_parsed_and_built_agree(self):
        # -2**63 fits int64 whichever way it comes in
        parsed, built = _parsed(INT64_EDGES), Tensor.sequence(
            [(v, -v) for v in INT64_EDGES])
        assert parsed == built
        assert parsed.re.dtype == built.re.dtype
        assert parsed.im.dtype == built.im.dtype

    def test_negate_and_involute_of_the_least_int64(self):
        t = _parsed([-2 ** 63, 5])
        assert t.re.dtype == np.int64
        assert negate(t).entries() == [GaussInt(2 ** 63, -2 ** 63),
                                       GaussInt(-5, 5)]
        assert involute(t).entries() == [GaussInt(5, 5),
                                         GaussInt(-2 ** 63, -2 ** 63)]
        assert involute(involute(t)) == t

    def test_uint64_planes(self):
        values = [0, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]
        t = Tensor(np.array(values, np.uint64), np.zeros(4, np.uint64))
        assert [g.re for g in t.entries()] == values
        small = Tensor(np.array([0, 7], np.uint64), np.zeros(2, np.uint64))
        assert small.re.dtype == np.int64 and small == seq(0, 7)


@st.composite
def same_rank_pairs(draw, max_component=2, real=False):
    """Two tensors of one rank, 1 to 3, whose shapes may differ; `real`
    holds for both, or is a (first, second) pair of flags."""
    rank = draw(st.integers(1, 3))
    dims = st.lists(st.integers(1, 4), min_size=rank, max_size=rank).map(tuple)
    reals = real if isinstance(real, tuple) else (real, real)
    return tuple(draw(tensors(shape=draw(dims), max_component=max_component,
                              real=r))
                 for r in reals)


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


class TestConvolveRealPath:
    """Both operands real: only the `re` planes are packed, one product
    is made, and the output's `im` plane is zero."""

    @given(same_rank_pairs(real=True))
    @settings(max_examples=60)
    def test_int64_matches_reference(self, ab):
        a, b = ab
        c = convolve(a, b)
        assert c == oracles.naive_convolve(a, b)
        assert not c.im.any()

    @given(same_rank_pairs(max_component=2**70, real=True))
    @settings(max_examples=30)
    def test_bigint_matches_reference(self, ab):
        a, b = ab
        c = convolve(a, b)
        assert c == oracles.naive_convolve(a, b)
        assert not c.im.any()

    def test_repeated_nonzero_im_is_complex(self):
        # an im plane with every stride 0 is read off its one entry
        a = Tensor._adopt(np.array([1, -2, 3]), np.broadcast_to(np.int64(2), (3,)))
        b = seq(2, (1, 1))
        assert convolve(a, b) == oracles.naive_convolve(a, b)
        assert convolve(a, a) == oracles.naive_convolve(a, a)
        r = Tensor._adopt(a.re)
        assert convolve(r, a) == oracles.naive_convolve(r, a)

    @pytest.mark.parametrize("y, width", [(2**31 - 1, 8), (2**31, 9)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_digit_width_boundary(self, y, width, sign, monkeypatch):
        # bound = min size * max|a| * max|b| = 2xy, which is 2**63 - 2**32
        # (8-byte digits) or 2**63 (9-byte digits); the middle output
        # entry reaches it with either sign
        widths = []
        unpack = tensor._signed_digits

        def spy(values, n, w):
            widths.append(w)
            return unpack(values, n, w)

        monkeypatch.setattr(tensor, "_signed_digits", spy)
        x = 2**31
        a, b = seq(x, sign * x), seq(y, sign * y)
        c = convolve(a, b)
        assert widths == [width]
        assert c == oracles.naive_convolve(a, b)
        assert c.entries()[1] == GaussInt(sign * 2 * x * y)
        assert not c.im.any()


CUT = _toom._CUT


@st.composite
def signed_ints(draw, low_bits, high_bits):
    """A signed integer of exactly `low_bits` to `high_bits` bits, its
    bits drawn from a seeded generator (hypothesis draws the seed)."""
    bits = draw(st.integers(low_bits, high_bits))
    value = random.Random(draw(st.integers(0, 2**32))).getrandbits(bits)
    return draw(st.sampled_from((1, -1))) * (value | (1 << bits >> 1))


@st.composite
def sparse_rows(draw, rows, length, max_component, real):
    """A (rows, length/rows) tensor, or a 1-D one when rows is 1, with a
    few nonzero entries.  The last has parts +-max_component (its `im`
    is 0 when `real`): so each packed row carries a digit at its top,
    and the digit width is the largest for its size."""
    shape = (length,) if rows == 1 else (rows, length // rows)
    planes = np.zeros((2, length), dtype=np.int64)
    part = st.integers(-max_component, max_component)
    for i in draw(st.lists(st.integers(0, length - 2), max_size=12)):
        planes[:, i] = draw(part), 0 if real else draw(part)
    top = st.sampled_from((max_component, -max_component))
    planes[:, -1] = draw(top), 0 if real else draw(top)
    return Tensor(*(x.reshape(shape) for x in planes))


class TestToomCook:
    """`_toom.mul`, one level of Toom-Cook from `_CUT` bits, against
    CPython's product, and `convolve` past the cut against the double
    sum."""

    @given(signed_ints(CUT, 6 * CUT), signed_ints(CUT, 6 * CUT))
    @settings(max_examples=15, deadline=None)
    def test_both_above_the_cut(self, x, y):
        assert _toom.mul(x, y) == x * y

    @given(signed_ints(CUT, 4 * CUT), signed_ints(1, CUT - 1), st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_one_below_the_cut(self, x, y, swap):
        x, y = (y, x) if swap else (x, y)
        assert _toom.mul(x, y) == x * y

    @given(signed_ints(CUT, 2 * CUT), signed_ints(8 * CUT, 12 * CUT))
    @settings(max_examples=10, deadline=None)
    def test_lopsided(self, x, y):
        assert _toom.mul(x, y) == x * y
        assert _toom.mul(y, x) == x * y

    EDGES = {"0": 0, "2^(cut-1)": 1 << CUT - 1, "-2^(cut-1)": -(1 << CUT - 1),
             "2^cut-1": (1 << CUT) - 1, "2^(3cut)": 1 << 3 * CUT,
             "-2^(5cut+7)": -(1 << 5 * CUT + 7), "2^(4cut)-1": (1 << 4 * CUT) - 1,
             "2^(2cut)-2^cut": (1 << 2 * CUT) - (1 << CUT), "-3^200000": -3 ** 200_000}

    @pytest.mark.parametrize("x", list(EDGES))
    @pytest.mark.parametrize("y", ["0", "2^(cut-1)", "-2^(cut-1)", "2^(2cut)-2^cut",
                                   "-3^200000"])
    def test_edges(self, x, y):
        # 0, powers of two, all-ones limbs and exactly `cut` bits
        x, y = self.EDGES[x], self.EDGES[y]
        assert _toom.mul(x, y) == x * y

    @pytest.mark.parametrize("limbs", range(2, 9))
    @given(st.integers(-2**600, 2**600), st.integers(-2**600, 2**600))
    @settings(max_examples=25)
    def test_every_limb_count(self, limbs, x, y):
        # a low cut runs the interpolation on small operands
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_toom, "_CUT", 64)
            mp.setattr(_toom, "_LIMBS", limbs)
            assert _toom.mul(x, y) == x * y

    def _spied(self, monkeypatch):
        """Bit lengths of the smaller factor of each product `convolve` makes."""
        sizes = []
        mul = _toom.mul

        def spy(x, y):
            sizes.append(min(x.bit_length(), y.bit_length()))
            return mul(x, y)

        monkeypatch.setattr(_toom, "mul", spy)
        return sizes

    @pytest.mark.parametrize("real", [False, True])
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_convolve_int64_digits(self, real, data):
        # entries of at most 2: 3-byte digits, packed at +-B in halves of
        # 2 bytes, past the cut from 7500 entries
        rows = data.draw(st.sampled_from((1, 2)))
        a = data.draw(sparse_rows(rows, 9000, 2, real))
        b = data.draw(sparse_rows(rows, 9600, 2, real))
        with pytest.MonkeyPatch.context() as mp:
            sizes = self._spied(mp)
            assert convolve(a, b) == oracles.naive_convolve(a, b)
        assert sizes and min(sizes) >= CUT

    @pytest.mark.parametrize("real", [False, True])
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_convolve_bigint_digits(self, real, data):
        # entries past 2**40: digits of 13 bytes, packed at +-B in halves
        # of 7 bytes, past the cut from 2143 entries
        rows = data.draw(st.sampled_from((1, 2)))
        a = data.draw(sparse_rows(rows, 2800, 2**44, real))
        b = data.draw(sparse_rows(rows, 3200, 2**41, real))
        with pytest.MonkeyPatch.context() as mp:
            sizes = self._spied(mp)
            assert convolve(a, b) == oracles.naive_convolve(a, b)
        assert sizes and min(sizes) >= CUT

    def test_import_loads_no_decimal_arithmetic(self):
        # fractions imports decimal; either would cost every process
        # memory and import time
        src = os.path.dirname(os.path.dirname(tensor.__file__))
        code = ("import sys, golaykit; "
                "print(sorted({'fractions', 'decimal', '_decimal'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.strip() == "[]"


@st.composite
def topped_pairs(draw, real):
    """same_rank_pairs whose last entries have parts +-m (only `re` when
    `real`), m drawn from a few sizes: so each operand's largest part is
    m, and the digit width is the largest for the shapes."""
    m = draw(st.sampled_from((300, 2**12, 2**20, 2**27, 2**70)))
    out = []
    for t in draw(same_rank_pairs(max_component=m, real=real)):
        re, im = (np.array(p, dtype=object) for p in (t.re, t.im))
        re.flat[-1] = draw(st.sampled_from((m, -m)))
        if not real:
            im.flat[-1] = draw(st.sampled_from((m, -m)))
        out.append(Tensor(re, im))
    return tuple(out)


class TestTwoPoints:
    """`convolve` at +-B, forced on small operands by a zero `_HALVE`:
    the entries at even and odd flat offsets from r(B) + r(-B) and
    r(B) - r(-B), against the double sum."""

    @staticmethod
    def _forced(mp, halve=0):
        """The point counts `convolve` uses, with the gate `_HALVE` set to
        `halve`: 0 forces the two-point path wherever the width allows."""
        counts = []
        count = _toom.point_count

        def spy(*args):
            counts.append(count(*args))
            return counts[-1]

        mp.setattr(_toom, "_HALVE", halve)
        mp.setattr(_toom, "point_count", spy)
        return counts

    @pytest.mark.parametrize("real", [False, True])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_matches_reference(self, real, data):
        # ranks 1-3, odd and even output sizes, int64 digits (halves of
        # up to 8 bytes) and Python-int digits (2**70: halves of 9-10)
        a, b = data.draw(topped_pairs(real))
        with pytest.MonkeyPatch.context() as mp:
            counts = self._forced(mp)
            c = convolve(a, b)
        assert counts == [2]
        assert c == oracles.naive_convolve(a, b)
        if real:
            assert not c.im.any()

    @pytest.mark.parametrize("a, b", [
        ((3000,), (-4000,)), ((3000, 7), (-4000,)), ((3000, 7), (-4000, 5)),
        (((3000, -9),), ((5, 4000),)), (((3000, -9), 4), ((5, 4000), (0, 1), 2)),
    ], ids=["1x1", "2x1", "2x2", "complex-1x1", "complex-2x3"])
    def test_short_outputs(self, a, b, monkeypatch):
        # one output entry (no odd offset), and sizes 2, 3 and 4
        counts = self._forced(monkeypatch)
        a, b = seq(*a), seq(*b)
        assert convolve(a, b) == oracles.naive_convolve(a, b)
        assert counts == [2]

    @pytest.mark.parametrize("x, width", [(1000, 3), (2**13, 4), (2**20, 6), (2**36, 10)])
    def test_digit_widths(self, x, width, monkeypatch):
        # bound 2 x**2: 3 bytes (21 bits) become halves of 2 and output
        # digits of 4; 4 -> 2 and 4; 6 -> 3 and 6; 10 -> 5 and 10
        widths = []
        unpack = tensor._signed_digits

        def spy(values, n, w):
            widths.append(w)
            return unpack(values, n, w)

        self._forced(monkeypatch)
        monkeypatch.setattr(tensor, "_signed_digits", spy)
        a, b = seq(x, -x, x), seq(x, x)
        c = convolve(a, b)
        assert c == oracles.naive_convolve(a, b)
        assert widths == [2 * -(-width // 2)] * 2  # E, then O
        assert c.entries()[1] == GaussInt(0)

    def test_input_wider_than_half_stays_at_one_point(self, monkeypatch):
        # 2**20 needs 3 bytes; the output bound 2**20 needs 3 too, so
        # halves of 2 bytes cannot hold the input and one point is used
        counts = self._forced(monkeypatch)
        a, b = seq(2**20), seq(1, -1)
        assert convolve(a, b) == oracles.naive_convolve(a, b)
        assert counts == [1]

    @pytest.mark.parametrize("wrong", ["plus-one", "plus-B"])
    @pytest.mark.parametrize("real", [False, True])
    def test_inexact_split_raises(self, wrong, real, monkeypatch):
        # a product wrong at +B alone leaves r(B) +- r(-B) inexact: by 1
        # it makes the sum odd, by B the difference a non-multiple of 2B
        self._forced(monkeypatch)
        calls = []

        def mul(x, y):
            calls.append(None)
            off = 0 if len(calls) > 1 else 1 if wrong == "plus-one" else 1 << 8 * 2
            return x * y + off

        monkeypatch.setattr(_toom, "mul", mul)
        a = Tensor(np.array([3000, -7, 2]), np.zeros(3, dtype=np.int64) if real
                   else np.array([1, 2, -3000]))
        with pytest.raises(ArithmeticError, match="not exact"):
            convolve(a, a)

    @pytest.mark.parametrize("alphabet, shape", [("binary", (1024,)),
                                                 ("quaternary", (5, 64))])
    def test_product_route_rejects_one_entry_changes(self, alphabet, shape,
                                                     monkeypatch):
        # sets above the gate, unforced: both convolutions per complex
        # member, and the one per real member, are made at +-B
        alphabet = Alphabet.from_tag(alphabet)
        arrays = planner.execute(planner.plan_pair(alphabet, shape).recipe).arrays
        counts = self._forced(monkeypatch, halve=_toom._HALVE)
        assert verify.gca_check_polynomial(arrays)
        assert counts and set(counts) == {2}
        rng = random.Random(7)
        for member in (0, 1):
            for flat in (0, rng.randrange(arrays[0].size), arrays[0].size - 1):
                for unit in ((-1, 0), (0, 1)):
                    re, im = arrays[member].re.copy(), arrays[member].im.copy()
                    r, i = re.flat[flat], im.flat[flat]
                    re.flat[flat], im.flat[flat] = r * unit[0] - i * unit[1], r * unit[1] + i * unit[0]
                    bad = list(arrays)
                    bad[member] = Tensor(re, im)
                    assert not verify.gca_check_polynomial(bad)


def _read_only(t: Tensor) -> bool:
    return not t.re.flags.writeable and not t.im.flags.writeable


class TestKronBroadcast:
    """kron as one broadcast product per pair of planes, against the
    index-map oracle."""

    KINDS = pytest.mark.parametrize("real_a, real_b", [
        (True, True), (True, False), (False, True), (False, False)])

    @KINDS
    @given(data=st.data())
    @settings(max_examples=40)
    def test_int64_matches_reference(self, real_a, real_b, data):
        a, b = data.draw(same_rank_pairs(real=(real_a, real_b)))
        c = kron(a, b)
        assert c == oracles.naive_kron(a, b)
        assert c.re.dtype == c.im.dtype == np.int64 and _read_only(c)
        if real_a and real_b:
            assert not any(c.im.strides)  # a `_zeros` plane

    @KINDS
    @given(data=st.data())
    @settings(max_examples=20)
    def test_bigint_matches_reference(self, real_a, real_b, data):
        a, b = data.draw(same_rank_pairs(max_component=2**70,
                                         real=(real_a, real_b)))
        c = kron(a, b)
        assert c == oracles.naive_kron(a, b)
        assert _read_only(c)

    def test_scaled_by_2_70_is_object(self):
        a, b = seq(2**70, (3, -1)), seq((1, 2**70), -5)
        c = kron(a, b)
        assert c == oracles.naive_kron(a, b)
        assert c.re.dtype == object and c.im.dtype == object

    @pytest.mark.parametrize("a, b", [
        # complex: bound 2 * 2**32 * 2**30 = 2**63, entries below 2**62
        (seq((2**32, 1), -1), seq((2**30, 1), 1)),
        # real times complex: the same bound, entries at most 2**62
        (seq(-2**32, 1), seq((2**30, 1), 3)),
    ])
    def test_bound_past_int64_small_entries(self, a, b):
        c = kron(a, b)
        assert c == oracles.naive_kron(a, b)
        assert c.re.dtype == c.im.dtype == np.int64 and _read_only(c)

    def test_planes_are_read_only(self):
        for a, b in [(seq(1, -1), seq(1, 1)), (seq(1, 1j), seq(1, -1)),
                     (seq(2**70, 1), seq(1, 1))]:
            c = kron(a, b)
            for plane in (c.re, c.im):
                with pytest.raises(ValueError):
                    plane[0] = 7

    def test_zeros_im_passes_through_structure_ops(self):
        a = Tensor.from_entries((2, 1), [1, -1])
        b = Tensor.from_entries((1, 3), [1, 1, -1])
        k = kron(a, b)
        m = Tensor(k.re, np.zeros(k.shape, dtype=np.int64))
        assert not any(k.im.strides) and any(m.im.strides)
        assert concat(k, k, 0) == concat(m, m, 0)
        assert concat(k, m, 1) == concat(m, m, 1)
        assert interleave(k, k, 1) == interleave(m, m, 1)
        assert interleave(k, Tensor.zeros((1, 3)), 0) == interleave(
            m, Tensor.zeros((1, 3)), 0)
        assert involute(k) == involute(m)
        assert negate(k) == negate(m)
        top = kron(Tensor.from_entries((2, 1), [1, 0]), b)
        low = kron(Tensor.from_entries((2, 1), [0, -1]), b)
        assert not any(top.im.strides) and not any(low.im.strides)
        assert checked_superpose(top, low) == checked_superpose(
            Tensor(top.re, np.zeros(k.shape, dtype=np.int64)), low) == m
        with pytest.raises(Collision):
            checked_superpose(k, top)
        assert tensor_to_obj(k) == tensor_to_obj(m)
        assert alphabet_of(k) is alphabet_of(m) is Alphabet.BINARY


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


class TestLayout:
    def test_pads_trailing_axes(self):
        planes = np.arange(1, 7).reshape(1, 2, 3)
        assert tensor._layout(planes, (3, 5)).tolist() == [
            [1, 2, 3, 0, 0, 4, 5, 6, 0, 0]]

    @pytest.mark.parametrize("shape, out, length", [
        ((4,), (7,), 4), ((2, 3), (3, 5), 10), ((2, 3), (3, 3), 6)])
    def test_no_rows(self, shape, out, length):
        # the row length cannot be inferred from zero rows
        planes = np.zeros((0,) + shape, dtype=np.int16)
        laid = tensor._layout(planes, out)
        assert laid.shape == (0, length) and laid.dtype == np.int16


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

    def test_parsed_planes_int64_unless_past_it(self):
        t = tensor_from_obj({"format": "gca-tensor/1", "shape": [2],
                             "entries": [[1, 2**63], [-3, 0]]})
        assert t.re.dtype == np.int64 and t.im.dtype == object
        assert t.entries() == [GaussInt(1, 2**63), GaussInt(-3)]
        assert not t.re.flags.writeable and not t.im.flags.writeable

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
