"""Autocorrelation and complementarity verdicts."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golaykit import verify
from golaykit.errors import (
    EmptySet,
    NotBinary,
    NotComplementary,
    ShapeMismatch,
    Trivial,
)
from golaykit.seeds import load_bundled
from golaykit.tensor import Alphabet, GaussInt, Tensor
from golaykit.verify import (
    autocorrelation,
    binary_pair_symmetry,
    gca_check_polynomial,
    is_gca_set,
    jointly_complementary,
    pad_to,
    spectrum_flatness,
    weight,
)

from . import oracles
from .oracles import tensors

TALL_SHAPES = [(7, 2), (6, 1, 3), (5, 1), (4, 2, 1), (3, 1, 1)]


def seq(*vals):
    return Tensor.sequence(vals)


# the rank-2 running example: a quaternary 2x3 complementary pair
A1 = Tensor.from_entries((2, 3), [1, 1, -1, -1, (0, -1), -1])
A2 = Tensor.from_entries((2, 3), [-1, -1, 1, -1, (0, -1), -1])


class TestAutocorrelation:
    def test_sequence_example(self):
        r = autocorrelation(seq(1, 1, -1))
        assert r.values == seq(-1, 0, 3, 0, -1)
        assert r.center == (2,)
        assert r.at((0,)) == GaussInt(3)
        assert r.at((-2,)) == GaussInt(-1)

    def test_rank2_example_first_array(self):
        r = autocorrelation(A1)
        rows = {
            -1: [(-1, 0), (-1, 1), (0, 1), (-1, -1), (1, 0)],
            0: [(0, 0), (0, 0), (6, 0), (0, 0), (0, 0)],
            1: [(1, 0), (-1, 1), (0, -1), (-1, -1), (-1, 0)],
        }
        for d1, expected in rows.items():
            got = [r.at((d1, d2)) for d2 in range(-2, 3)]
            assert got == [GaussInt(re, im) for re, im in expected]

    def test_rank2_example_second_array(self):
        r = autocorrelation(A2)
        rows = {
            -1: [(1, 0), (1, -1), (0, -1), (1, 1), (-1, 0)],
            0: [(0, 0), (0, 0), (6, 0), (0, 0), (0, 0)],
            1: [(-1, 0), (1, -1), (0, 1), (1, 1), (1, 0)],
        }
        for d1, expected in rows.items():
            got = [r.at((d1, d2)) for d2 in range(-2, 3)]
            assert got == [GaussInt(re, im) for re, im in expected]

    def test_conjugate_symmetry_example(self):
        r = autocorrelation(seq(1, 1j, -1, 1))
        for d in range(-3, 4):
            assert r.at((d,)) == r.at((-d,)).conjugate()

    @given(tensors())
    @settings(max_examples=60)
    def test_matches_reference(self, t):
        assert autocorrelation(t).values == oracles.naive_autocorr(t)

    @given(tensors())
    @settings(max_examples=40)
    def test_center_is_weight(self, t):
        r = autocorrelation(t)
        assert r.at((0,) * t.rank) == GaussInt(oracles.naive_weight(t))

    def test_bigint_fallback(self):
        big = 10**20
        t = seq(big, -big)
        r = autocorrelation(t)
        assert r.at((0,)) == GaussInt(2 * big * big)
        assert r.at((1,)) == GaussInt(-big * big)

    @pytest.mark.parametrize("shape", TALL_SHAPES)
    @given(data=st.data())
    @settings(max_examples=15)
    def test_tall_shapes_match_reference(self, shape, data):
        t = data.draw(tensors(shape=shape))
        assert autocorrelation(t).values == oracles.naive_autocorr(t)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 1), (2, 1, 3)])
    @given(data=st.data())
    @settings(max_examples=15)
    def test_bigint_entries_match_reference(self, shape, data):
        t = data.draw(tensors(shape=shape, max_component=2**70))
        assert autocorrelation(t).values == oracles.naive_autocorr(t)

    @pytest.mark.parametrize("max_component", [3, 2**31, 2**70])
    @given(data=st.data())
    @settings(max_examples=25)
    def test_real_entries_match_reference(self, max_component, data):
        # real arrays take the one-correlation shortcut: on int64 planes,
        # on int64 planes whose products need Python ints, and on
        # object-dtype planes
        t = data.draw(tensors(max_component=max_component, real=True))
        assert autocorrelation(t).values == oracles.naive_autocorr(t)

    @given(tensors(max_component=3))
    @settings(max_examples=40)
    def test_transpose_commutes(self, t):
        r = autocorrelation(Tensor(t.re.T, t.im.T))
        want = autocorrelation(t)
        assert r.values == Tensor(want.values.re.T, want.values.im.T)
        assert r.center == want.center[::-1]


class TestWeight:
    def test_examples(self):
        assert weight(seq(1, 1j, -1)) == 3
        assert weight(seq(1, 0, -1)) == 2
        assert weight(Tensor.zeros((3,))) == 0

    @given(tensors(max_component=3))
    @settings(max_examples=40)
    def test_matches_reference(self, t):
        assert weight(t) == oracles.naive_weight(t)

    def test_many_entries_below_old_int64_cutoff(self):
        # every component is below 2**20, but the sum of squares is past
        # 2**63: only a bound that counts the entries keeps it exact
        n = 2**22 + 16
        v = np.full(n, 2**20 - 1, dtype=np.int64)
        assert weight(Tensor(v, v)) == 2 * n * (2**20 - 1) ** 2


class TestIsGcaSet:
    def test_classic_pair(self):
        v = is_gca_set([seq(1, 1), seq(1, -1)])
        assert v.is_complementary
        assert v.total_weight == 4
        assert v.max_sidelobe_norm == 0

    def test_rank2_pair(self):
        v = is_gca_set([A1, A2])
        assert v.is_complementary
        assert v.total_weight == 12

    def test_failing_pair_sidelobe(self):
        v = is_gca_set([seq(1, 1), seq(1, 1)])
        assert not v.is_complementary
        assert v.max_sidelobe_norm == 4

    def test_weight_deficient_quad(self):
        quad = [seq(1, 0), seq(0, 1), seq(1, 0), seq(0, -1)]
        assert is_gca_set(quad).is_complementary

    def test_single_array_trivial(self):
        assert is_gca_set([seq(1)]).is_complementary
        assert not is_gca_set([seq(1, 1)]).is_complementary

    def test_member_sum_past_int64(self):
        # each autocorrelation fits in int64, their sum does not
        big = 2**31 - 1
        v = is_gca_set([seq(big)] * 4)
        assert v.is_complementary
        assert v.total_weight == 4 * big * big
        assert gca_check_polynomial([seq(big)] * 4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            is_gca_set([seq(1, 1), seq(1, 1, 1)])

    def test_empty(self):
        with pytest.raises(EmptySet):
            is_gca_set([])

    def test_mixed_sizes_jointly(self):
        # lengths 2,2,1,1 with autocorrelations summing to 6*delta
        quad = [seq(1, 1), seq(1, -1), seq(1), seq(1)]
        assert jointly_complementary(quad).is_complementary

    def test_pad_to(self):
        p = pad_to(seq(1, -1), (4,))
        assert p == seq(1, -1, 0, 0)
        with pytest.raises(ShapeMismatch):
            pad_to(seq(1, 1, 1), (2,))


class TestPolynomialRoute:
    def test_agrees_on_examples(self):
        assert gca_check_polynomial([seq(1, 1), seq(1, -1)])
        assert gca_check_polynomial([A1, A2])
        assert not gca_check_polynomial([seq(1, 1), seq(1, 1)])

    @given(tensors(max_rank=2, max_dim=3), tensors(max_rank=2, max_dim=3))
    @settings(max_examples=60)
    def test_agrees_with_definition_route(self, a, b):
        if a.shape != b.shape:
            return
        assert gca_check_polynomial([a, b]) == is_gca_set([a, b]).is_complementary


class TestRouteIndependence:
    """Each exact route gives its verdict with the other's kernel gone."""

    @pytest.fixture
    def pairs(self):
        good = load_bundled().get_golay_pair(Alphabet.QUATERNARY, 13).tensors
        re, im = good[0].re.copy(), good[0].im.copy()
        re[0], im[0] = -re[0], -im[0]
        return list(good), [Tensor(re, im), good[1]]

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("kernel of the other route was called")

    def test_product_route_without_correlation(self, pairs, monkeypatch):
        good, bad = pairs
        monkeypatch.setattr(np, "correlate", self._refuse)
        monkeypatch.setattr(np, "convolve", self._refuse)
        assert gca_check_polynomial(good)
        assert not gca_check_polynomial(bad)

    def test_direct_route_without_convolve(self, pairs, monkeypatch):
        good, bad = pairs
        monkeypatch.setattr(verify, "convolve", self._refuse)
        assert is_gca_set(good).is_complementary
        assert not is_gca_set(bad).is_complementary


class TestSpectrum:
    def test_flat_pair(self):
        assert spectrum_flatness([seq(1, 1), seq(1, -1)], 8) < 1e-9

    def test_far_from_flat(self):
        assert spectrum_flatness([seq(1, 1), seq(1, 1)], 8) >= 0.9

    def test_rank2(self):
        assert spectrum_flatness([A1, A2], 8) < 1e-9

    def test_empty(self):
        with pytest.raises(EmptySet):
            spectrum_flatness([], 8)


class TestBinaryPairSymmetry:
    def test_holds_for_pairs(self):
        assert binary_pair_symmetry(seq(1, 1), seq(1, -1))
        a = seq(1, 1, 1, -1)
        b = seq(1, 1, -1, 1)
        assert is_gca_set([a, b]).is_complementary
        assert binary_pair_symmetry(a, b)

    def test_holds_in_rank_2(self):
        # the flip runs over every dimension at once
        a = Tensor.from_entries((2, 2), [1, 1, 1, -1])
        b = Tensor.from_entries((2, 2), [1, -1, 1, 1])
        assert is_gca_set([a, b]).is_complementary
        assert binary_pair_symmetry(a, b)

    def test_rejects_non_binary(self):
        with pytest.raises(NotBinary):
            binary_pair_symmetry(seq(1, 1j), seq(1, -1))

    def test_rejects_non_complementary(self):
        with pytest.raises(NotComplementary):
            binary_pair_symmetry(seq(1, 1), seq(1, 1))

    def test_rejects_trivial(self):
        with pytest.raises(Trivial):
            binary_pair_symmetry(seq(1), seq(1))
