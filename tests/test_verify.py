"""Autocorrelation and complementarity verdicts."""
from __future__ import annotations

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golaykit import _dense, verify
from golaykit.errors import (
    EmptySet,
    GolayKitError,
    NotBinary,
    NotComplementary,
    RankMismatch,
    ShapeMismatch,
    Trivial,
)
from golaykit.planner import execute, plan_quad
from golaykit.seeds import load_bundled
from golaykit.tensor import Alphabet, GaussInt, Tensor, convolve, involute
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
        # one rank, mixed shapes: each member reads as zero past its own
        # extent, so the verdict is the oracle's; mixed ranks are refused
        for arrays in ([seq(1, 1), seq(1, 1, 1)], [seq(1, 0), seq(1)]):
            v = is_gca_set(arrays)
            assert (v.is_complementary, v.total_weight, v.max_sidelobe_norm) \
                == oracle_verdict(arrays)
            assert gca_check_polynomial(arrays) is v.is_complementary
        for route in (is_gca_set, gca_check_polynomial, jointly_complementary,
                      spectrum_flatness):
            with pytest.raises(RankMismatch):
                route([seq(1, 1), A1])

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


def oracle_verdict(arrays):
    """(complementary, weight, max sidelobe norm) from the defining
    double sums of tests/oracles.py, summed by shift, so that members
    of mixed shapes read as zero past their own extent."""
    total = {}
    for a in arrays:
        for idx, g in zip(np.ndindex(*(2 * s - 1 for s in a.shape)),
                          oracles.naive_autocorr(a).entries()):
            shift = tuple(i - s + 1 for i, s in zip(idx, a.shape))
            re, im = total.get(shift, (0, 0))
            total[shift] = (re + g.re, im + g.im)
    center = (0,) * arrays[0].rank
    w = sum(oracles.naive_weight(a) for a in arrays)
    side = max([re * re + im * im for shift, (re, im) in total.items()
                if shift != center], default=0)
    return total[center] == (w, 0) and side == 0, w, side


@st.composite
def sets_of(draw, shape=None, max_component=2, real=False, max_members=4):
    """Two to `max_members` same-shape tensors."""
    shape = shape or draw(oracles.shapes())
    m = draw(st.integers(2, max_members))
    return [draw(tensors(shape=shape, max_component=max_component, real=real))
            for _ in range(m)]


def one_prime_edge(shape, above):
    """A one-member set of `shape` with entries (M, M) whose bound
    2 * size * M**2 sits just below (or just above) half the largest
    prime that serves its transform, and whose center reaches it."""
    size = math.prod(shape)
    n = verify._moduli(shape, 0).n
    p = verify._primes(max(n, 4), 1)[0]
    m = math.isqrt((p - 1) // (4 * size)) + above
    full = np.full(shape, m, dtype=np.int64)
    return Tensor(full, full)


class TestTransformKernel:
    """The direct route's number-theoretic transform, cross-checked
    against the defining double sum."""

    @given(sets_of())
    @settings(max_examples=60)
    def test_random_sets_match_oracle(self, arrays):
        v = is_gca_set(arrays)
        assert (v.is_complementary, v.total_weight, v.max_sidelobe_norm) \
            == oracle_verdict(arrays)

    @pytest.mark.parametrize("shape", TALL_SHAPES + [(1,), (1, 1), (1, 1, 1)])
    @given(data=st.data())
    @settings(max_examples=10)
    def test_tall_and_single_entry_sets(self, shape, data):
        arrays = data.draw(sets_of(shape=shape))
        v = is_gca_set(arrays)
        assert (v.is_complementary, v.total_weight, v.max_sidelobe_norm) \
            == oracle_verdict(arrays)

    @pytest.mark.parametrize("max_component,real", [
        (2**31, False), (2**31, True), (2**70, False), (2**70, True),
        (2**200, False)])
    @given(data=st.data())
    @settings(max_examples=10)
    def test_big_entries_match_oracle(self, max_component, real, data):
        # int64 planes whose products need several primes, and object
        # planes that need several primes and a CRT lift
        arrays = data.draw(sets_of(max_component=max_component, real=real,
                                   max_members=2))
        v = is_gca_set(arrays)
        assert (v.is_complementary, v.total_weight, v.max_sidelobe_norm) \
            == oracle_verdict(arrays)
        for a in arrays:
            assert autocorrelation(a).values == oracles.naive_autocorr(a)

    def test_mixed_member_dtypes(self):
        # int64 and object members in one 2-D set, an int64 one first:
        # the layout promotes over all members, not to member 0's dtype
        scaled = [Tensor(a.re.astype(object) * 2**200, a.im.astype(object) * 2**200)
                  for a in (A1, A2)]
        for arrays, ok in (([A1] + scaled + [A2], True), ([A1, scaled[1]], False)):
            assert {a.re.dtype for a in arrays} == {np.dtype(np.int64), np.dtype(object)}
            v = is_gca_set(arrays)
            assert (v.is_complementary, v.total_weight, v.max_sidelobe_norm) \
                == oracle_verdict(arrays)
            assert v.is_complementary is gca_check_polynomial(arrays) is ok

    def test_big_entries_take_several_primes(self):
        t = seq(2**200, (3, -2**199), -1)
        bound = verify._autocorr_bound(t)
        assert len(verify._moduli(t.shape, bound).primes) > 10
        assert autocorrelation(t).values == oracles.naive_autocorr(t)

    @pytest.mark.parametrize("shape", [(2,), (3, 2)])
    def test_one_prime_lift_edge(self, shape):
        for above, primes in ((0, 1), (1, 2)):
            t = one_prime_edge(shape, above)
            bound = verify._autocorr_bound(t)
            assert len(verify._moduli(t.shape, bound).primes) == primes
            r = autocorrelation(t)
            assert r.at((0,) * t.rank) == GaussInt(bound)
            assert r.values == oracles.naive_autocorr(t)
            v = is_gca_set([t])
            assert (v.is_complementary, v.total_weight, v.max_sidelobe_norm) \
                == oracle_verdict([t])

    def test_every_prime_must_see_a_flat_spectrum(self):
        # the sidelobe is the largest prime taken: zero modulo that prime
        # alone, so the first prime sees a flat spectrum and the others
        # do not
        p = verify._primes(4, 1)[0]
        t = seq(1, p)
        assert verify._moduli(t.shape, verify._autocorr_bound(t)).primes[0] == p
        v = is_gca_set([t])
        assert not v.is_complementary
        assert v.max_sidelobe_norm == p * p == oracle_verdict([t])[2]

    def test_rejection_reports_oracle_sidelobe(self):
        good = list(load_bundled().get_golay_pair(Alphabet.QUATERNARY, 13).tensors)
        for k in range(13):
            re, im = good[1].re.copy(), good[1].im.copy()
            re[k], im[k] = -re[k], -im[k]
            bad = [good[0], Tensor(re, im)]
            v = is_gca_set(bad)
            assert not v.is_complementary
            assert v.max_sidelobe_norm == oracle_verdict(bad)[2] > 0

    def test_flat_spectrum_decides_without_inverse(self, monkeypatch):
        # an accepted set never pays for the inverse transform and lift
        good = list(load_bundled().get_golay_pair(Alphabet.QUATERNARY, 13).tensors)
        monkeypatch.setattr(verify, "_correlations", TestRouteIndependence._refuse)
        assert is_gca_set(good).is_complementary


# (n, primes, rows) for n = 2**14 .. 2**17, 1-3 primes and 1, 2 or 8
# rows, of at most 2**18 residues (2 MB)
LONG_TRANSFORMS = [(1 << e, k, r) for e in range(14, 18) for k in (1, 2, 3)
                   for r in (1, 2, 8) if k * r << e <= 1 << 18]


class TestLongLoopStages:
    """From n = _LONG_LOOPS up, `_ntt` runs its short stages on
    transposed quarters of x; below, every stage in place."""

    @pytest.mark.parametrize("n, count, rows", LONG_TRANSFORMS)
    def test_matches_the_in_place_loop(self, n, count, rows, monkeypatch):
        """With _LONG_LOOPS past n, every stage runs in place and reduces
        by one `%`: so this also checks the transposed quarters' and
        `_mod`'s scalar division against `%`."""
        primes = verify._primes(n, count)
        mod = verify._moduli_of(n, primes)
        rng = np.random.default_rng(n + 10 * count + rows)
        got = rng.integers(0, np.array(primes)[:, None, None], (count, rows, n))
        want = got.copy()
        assert verify._ntt(got, verify._Tables(mod)) is got
        monkeypatch.setattr(verify, "_LONG_LOOPS", 2 * n)
        verify._ntt(want, verify._Tables(mod))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(1, 2, 65536), (2, 2, 32768)])
    def test_no_added_buffer(self, shape):
        # `spare` (half of x) and the twiddle table, rebuilt past
        # _KEPT_TABLES: the quarters and their temporary live in `spare`
        n = shape[-1]
        mod = verify._moduli_of(n, verify._primes(n, shape[0]))
        x = np.ones(shape, dtype=np.int64)
        tracemalloc.start()
        try:
            verify._ntt(x, verify._Tables(mod))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.95 * x.nbytes

    def test_long_sequence_autocorrelation(self):
        # 2 * 8200 - 1 shifts: a transform of 2**15 points
        rng = np.random.default_rng(8200)
        units = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]])
        a = Tensor(*units[rng.integers(0, 4, 8200)].T.copy())
        assert autocorrelation(a).values == oracles.correlate_planes(a)

    def test_corrupted_12x300_quad(self):
        # 23 x 599 shifts: two forward transforms of 2**14 points
        registry = load_bundled()
        quad = execute(plan_quad(Alphabet.QUATERNARY, (12, 300), registry).recipe,
                       registry).arrays
        rng = np.random.default_rng(300)
        k, at = int(rng.integers(0, 4)), int(rng.integers(0, 3600))
        re, im = quad[k].re.copy(), quad[k].im.copy()
        re.flat[at], im.flat[at] = -im.flat[at], re.flat[at]  # times i
        bad = list(quad[:k]) + [Tensor(re, im)] + list(quad[k + 1:])
        v = is_gca_set(bad)
        assert not v.is_complementary
        total = [oracles.correlate_planes(a) for a in bad]
        side = sum(t.re for t in total) ** 2 + sum(t.im for t in total) ** 2
        side[11, 299] = 0
        assert v.max_sidelobe_norm == int(side.max()) > 0

    @pytest.mark.parametrize("shape, top, primes", [
        ((8000,), 500, 2), ((12, 300), 3 * 10 ** 7, 3)])
    def test_rejection_over_several_primes(self, shape, top, primes):
        # transforms of 2**14 points modulo two or three primes, whose
        # CRT lift must give the exact sidelobes: here, of the summed
        # products of each member with its conjugate flip
        rng = np.random.default_rng(top)
        bad = [Tensor(*rng.integers(-top, top + 1, (2,) + shape)) for _ in range(2)]
        mod = verify._moduli(shape, sum(map(verify._autocorr_bound, bad)))
        assert (mod.n, len(mod.primes)) == (1 << 14, primes)
        v = is_gca_set(bad)
        assert not v.is_complementary
        total = [convolve(a, involute(a)) for a in bad]
        side = (sum(t.re.astype(object) for t in total) ** 2
                + sum(t.im.astype(object) for t in total) ** 2)
        side[tuple(s - 1 for s in shape)] = 0
        assert v.max_sidelobe_norm == side.max() > 0

    @pytest.mark.parametrize("n, count", [(1 << 14, 1), (1 << 14, 2),
                                          (1 << 15, 1), (1 << 15, 2)])
    def test_matches_the_defining_sum(self, n, count):
        # 16 frequencies k, among them 0, 1, n/2 and n-1, of each row:
        # sum_j x_j * w**(j*k) mod p in Python ints, w of order n, at
        # the bit-reversed position of k
        primes = verify._primes(n, count)
        mod = verify._moduli_of(n, primes)
        rng = np.random.default_rng(n + count)
        x = rng.integers(0, np.array(primes)[:, None, None], (count, 2, n))
        rows = x.tolist()
        verify._ntt(x, verify._Tables(mod))
        rev = bit_reversal(n)
        freqs = [0, 1, n // 2, n - 1] + rng.integers(2, n - 1, 12).tolist()
        for p, w, prime_rows, got in zip(primes, mod.root[:, 0].tolist(), rows, x):
            assert pow(w, n // 2, p) == p - 1
            for row, out in zip(prime_rows, got):
                for k in freqs:
                    z, total = pow(w, k, p), 0
                    for c in reversed(row):
                        total = (total * z + c) % p
                    assert out[rev[k]] == total


# (n, primes, rows) for every power of two n up to twice the gate
DENSE_TRANSFORMS = [(1 << e, k, r) for e in range(verify._DENSE.bit_length() + 1)
                    for k, r in ((1, 1), (1, 8), (2, 3), (3, 2))]


class TestDenseProducts:
    """Up to _DENSE points, `_ntt` is `_dense.transform`: exact int64
    matrix products, one up to _SQUARE points, a _RADIX-point step and
    twiddles above; its output must be the butterflies', bit for bit."""

    @pytest.mark.parametrize("n, count, rows", DENSE_TRANSFORMS)
    def test_matches_the_butterflies(self, n, count, rows, monkeypatch):
        # random residues, a row of zeros and a row of p - 1 (the largest
        # sums the limbs make), against every stage run as butterflies
        primes = verify._primes(max(n, 4), count)
        mod = verify._moduli_of(n, primes)
        p = np.array(primes)[:, None, None]
        x = np.random.default_rng(n + count + rows).integers(0, p, (count, rows + 2, n))
        x[:, 0], x[:, 1] = 0, p[:, 0] - 1
        given = x.copy()
        got = _dense.transform(x, mod.p, verify._Tables(mod).dense)
        assert np.array_equal(x, given)  # left as it is
        monkeypatch.setattr(verify, "_DENSE", 0)
        assert np.array_equal(got, verify._ntt(x, verify._Tables(mod)))

    @pytest.mark.parametrize("terms", [_dense._RADIX, _dense._SQUARE])
    def test_limb_sums_at_their_bound(self, terms):
        # every residue p - 1 against a table whose every entry has the
        # largest limbs of any residue below 2**31, 2**16 - 1 and
        # 2**15 - 1: the largest sums a product can make
        primes = verify._primes(4, 3)
        p = np.array(primes)[:, None, None, None]
        x = np.broadcast_to(p - 1, (3, 2, 1, terms))
        limbs = np.empty((2, 3, 1, terms, terms), np.uint16)
        limbs[0], limbs[1] = 2 ** 16 - 1, 2 ** 15 - 1
        got = _dense._from_limbs(np.matmul(x, limbs), p)
        assert got.tolist() == [[[[terms * (q - 1) * (2 ** 31 - 1) % q] * terms]] * 2
                                for q in primes]

    @pytest.mark.parametrize("n", [verify._DENSE, 2 * verify._DENSE])
    def test_gate_holds_both_ways(self, n, monkeypatch):
        stages = []
        run = verify._stages
        monkeypatch.setattr(verify, "_stages", lambda *args: stages.append(1) or run(*args))
        mod = verify._moduli_of(n, verify._primes(n, 1))
        tables = verify._Tables(mod)
        verify._ntt(np.ones((1, 2, n), dtype=np.int64), tables)
        assert bool(stages) is (n > verify._DENSE)
        # below the gate, no twiddle table for the butterflies is made
        assert ("twiddles" in vars(tables)) is (n > verify._DENSE)

    def test_small_checks_run_no_butterflies(self, monkeypatch):
        # a check and a rejection's inverse, and their kept tables
        monkeypatch.setattr(verify, "_stages", TestRouteIndependence._refuse)
        good = list(load_bundled().get_golay_pair(Alphabet.QUATERNARY, 13).tensors)
        mod = verify._moduli(good[0].shape, sum(map(verify._autocorr_bound, good)))
        assert mod.n <= verify._DENSE
        assert is_gca_set(good).is_complementary
        bad = [good[0], negate_entry(good[1], 0)]
        assert is_gca_set(bad).max_sidelobe_norm == oracle_verdict(bad)[2] > 0
        assert "twiddles" not in vars(verify._tables(mod))

    @pytest.mark.parametrize("shape", [(2,), (3,), (2, 3), (3, 2, 2), (5, 7), (12, 12)])
    def test_big_entry_rejections_match_oracle(self, shape):
        # entries up to 2**70: several primes and a CRT lift, over one
        # product (n <= 32) and one or two radix steps (64 to 1024)
        rng = np.random.default_rng(math.prod(shape))
        bad = [Tensor(*(rng.integers(-2 ** 20, 2 ** 20, (2,) + shape).astype(object)
                        * 2 ** 50 + 2 ** 70 - 1)) for _ in range(2)]
        mod = verify._moduli(shape, sum(map(verify._autocorr_bound, bad)))
        assert mod.n <= verify._DENSE and len(mod.primes) > 2
        v = is_gca_set(bad)
        assert not v.is_complementary
        assert (v.is_complementary, v.total_weight, v.max_sidelobe_norm) \
            == oracle_verdict(bad)
        assert autocorrelation(bad[0]).values == oracles.naive_autocorr(bad[0])


def bit_reversal(n):
    """The bit-reversal permutation of range(n) by its definition: bit b
    of k moves to bit log2(n) - 1 - b."""
    bits = n.bit_length() - 1
    k, rev = np.arange(n), np.zeros(n, dtype=np.intp)
    for b in range(bits):
        rev |= ((k >> b) & 1) << (bits - 1 - b)
    return rev


class TestPermutations:
    @pytest.mark.parametrize("e", range(18))
    def test_reversal_and_negation(self, e):
        n = 1 << e
        rev = bit_reversal(n)
        assert np.array_equal(verify._reversal(n), rev)
        # position i holds frequency rev[i]; -rev[i] mod n sits at rev of it
        assert np.array_equal(verify._negation(verify._reversal(n)), rev[-rev % n])


class TestRejectionTables:
    """A rejection inverts with the tables of its check's forward
    transform, and from _LONG_LOOPS up splits re and im by `_mod`."""

    @pytest.mark.parametrize("real", [True, False])
    def test_made_once_and_split_by_scalar_division(self, real, monkeypatch):
        # two random unit sequences of 8200: 2**14 points, past
        # _KEPT_TABLES, one prime, and 16399 shifts to split
        rng = np.random.default_rng(8200 + real)
        units = np.array([[1, 0], [-1, 0]] if real else [[1, 0], [0, 1], [-1, 0], [0, -1]])
        arrays = [Tensor(*units[rng.integers(0, len(units), 8200)].T.copy())
                  for _ in range(2)]
        made, reduced, mod_of = [], [], verify._mod
        for name in ("_twiddles", "_reversal"):
            build = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda *args, build=build, name=name:
                                made.append(name) or build(*args))
        monkeypatch.setattr(verify, "_mod", lambda x, p, out:
                            reduced.append(x.shape) or mod_of(x, p, out))
        verdict = is_gca_set(arrays)
        assert not verdict.is_complementary and verdict.max_sidelobe_norm > 0
        assert sorted(made) == ["_reversal", "_twiddles"]
        assert reduced.count((1, 2 * 8200 - 1)) == 4
        # every step by `%`, as below _LONG_LOOPS
        monkeypatch.setattr(verify, "_LONG_LOOPS", 1 << 20)
        assert is_gca_set(arrays) == verdict


class TestScalarDivision:
    """`_mod`, the direct route's reduction from _LONG_LOOPS up: one
    scalar division per prime, against Python's `%`."""

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("p_dtype", [np.int64, np.uint64])
    def test_range_edges(self, count, p_dtype):
        # uint64: up to (2p - 1)(p - 1), the largest butterfly product;
        # int64: the whole range.  An int64 p with uint64 x must not
        # promote to float64, inexact past 2**53
        primes = verify._primes(1 << 14, count)
        p = np.array(primes, dtype=p_dtype)[:, None]
        for dtype, edges in ((np.uint64, lambda q: [0, q - 1, (2 * q - 1) * (q - 1)]),
                             (np.int64, lambda q: [-2 ** 63, -1, 2 ** 63 - 1])):
            rows = [edges(q) for q in primes]
            x = np.array(rows, dtype=dtype)
            out = np.empty_like(x)
            assert verify._mod(x, p, out) is out
            assert out.dtype == dtype
            assert out.tolist() == [[v % q for v in row]
                                    for row, q in zip(rows, primes)]
            assert x.tolist() == rows

    def test_one_row_serves_every_prime(self):
        # as in np.remainder, a single row of x broadcasts over the primes
        primes = verify._primes(1 << 14, 3)
        x = np.array([[-2 ** 63, -1, 0, 2 ** 63 - 1]])
        out = verify._mod(x, np.array(primes)[:, None], np.empty((3, 4), np.int64))
        assert out.tolist() == [[v % q for v in x[0].tolist()] for q in primes]

    def test_short_transforms_reduce_by_remainder(self, monkeypatch):
        # below _LONG_LOOPS, neither the stages nor the spectrum call it
        monkeypatch.setattr(verify, "_mod", TestRouteIndependence._refuse)
        good = list(load_bundled().get_golay_pair(Alphabet.QUATERNARY, 13).tensors)
        assert is_gca_set(good).is_complementary
        assert is_gca_set([seq(1, 2, 3), seq(-4, (5, -6))]).max_sidelobe_norm > 0

    @pytest.mark.parametrize("scale", [1, 2 ** 50])
    def test_spectrum_matches_remainder(self, scale, monkeypatch):
        # nine complex members of 8000 signed entries: 2**14 points in
        # three groups, which share one twiddle table, over int64 planes
        # (scale 1) or object planes, whose own residues are still `%`'s
        rng = np.random.default_rng(scale % 7)
        planes = rng.integers(-2 ** 20, 2 ** 20, (9, 2, 8000))
        if scale > 1:
            planes = planes.astype(object) * scale
        arrays = [Tensor(*member) for member in planes]
        mod = verify._moduli((8000,), sum(map(verify._autocorr_bound, arrays)))
        assert mod.n == verify._LONG_LOOPS and len(mod.primes) > 1
        calls, mod_of = [], verify._mod

        def counted(x, p, out):
            calls.append(x.dtype)
            return mod_of(x, p, out)

        monkeypatch.setattr(verify, "_mod", counted)
        got = verify._spectrum(arrays, verify._tables(mod))
        # the stages reduce in uint64, the spectrum's own steps in int64
        assert set(calls) == {np.dtype(np.uint64), np.dtype(np.int64)}
        # one member at a time: one group each
        alone = sum(verify._spectrum([a], verify._tables(mod)) for a in arrays) % mod.p
        assert np.array_equal(got, alone)
        made = len(calls)
        monkeypatch.setattr(verify, "_LONG_LOOPS", 2 * mod.n)
        assert np.array_equal(got, verify._spectrum(arrays, verify._tables(mod)))
        assert len(calls) == made


@functools.lru_cache(maxsize=None)
def bundled_base_sequences():
    return tuple(r.tensors for r in load_bundled().records.values()
                 if r.kind == "base-sequences")


def negate_entry(t, at):
    re, im = t.re.copy(), t.im.copy()
    re.flat[at], im.flat[at] = -re.flat[at], -im.flat[at]
    return Tensor(re, im)


@st.composite
def mixed_shape_sets(draw):
    """One to four members of one rank, each of its own shape."""
    rank = draw(st.integers(1, 3))
    dims = st.lists(st.integers(1, 3), min_size=rank, max_size=rank)
    members = draw(st.integers(1, 4))
    return [draw(tensors(shape=tuple(draw(dims)))) for _ in range(members)]


@st.composite
def base_sequence_sets(draw):
    """A bundled base-sequence record (lengths m+1, m+1, m, m), with
    one entry negated half of the time."""
    arrays = list(draw(st.sampled_from(bundled_base_sequences())))
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        arrays[k] = negate_entry(arrays[k], draw(st.integers(0, arrays[k].size - 1)))
    return arrays


class TestMixedShapes:
    """Members of one rank and mixed shapes: every exact route gives the
    verdict of the defining double sums, each member read as zero past
    its own extent."""

    @given(st.one_of(mixed_shape_sets(), base_sequence_sets()))
    @settings(max_examples=80)
    def test_routes_match_oracle(self, arrays):
        want = oracle_verdict(arrays)
        for route in (is_gca_set, jointly_complementary):
            v = route(arrays)
            assert (v.is_complementary, v.total_weight, v.max_sidelobe_norm) == want
        assert gca_check_polynomial(arrays) is want[0]

    @given(mixed_shape_sets(), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_spectrum_matches_direct_evaluation(self, arrays, grid):
        if sum(oracles.naive_weight(a) for a in arrays) == 0:
            return
        got, want = spectrum_flatness(arrays, grid), direct_flatness(arrays, grid)
        assert abs(got - want) <= 1e-9 * max(1.0, want)

    def test_base_sequences(self):
        for arrays in bundled_base_sequences():
            m = arrays[2].size
            v = is_gca_set(arrays)
            assert v.is_complementary and v.total_weight == 4 * m + 2
            assert gca_check_polynomial(arrays)
            bad = [negate_entry(arrays[0], 0)] + list(arrays[1:])
            assert not is_gca_set(bad).is_complementary
            assert not gca_check_polynomial(bad)

    def test_object_planes_pad_with_python_ints(self):
        # np.pad fills an object plane with numpy int64 zeros, which a
        # Tensor refuses as entries
        arrays = [times(a, GaussInt(2**70)) for a in bundled_base_sequences()[0]]
        assert all(type(v) is int for v in pad_to(arrays[2], (2,)).re.flat)
        assert is_gca_set(arrays).is_complementary
        assert gca_check_polynomial(arrays)


class TestSizeBoundary:
    """Sets no prime below 2**31 can serve are refused up front."""

    @staticmethod
    def _peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            with pytest.raises(GolayKitError) as info:
                fn(*args)
            return info, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_transform_too_long(self):
        # 2**18 entries, 3**18 ~ 3.9e8 output positions: no prime p < 2**31
        # has p = 1 mod 2**29
        t = Tensor.unit((2,) * 18)
        for fn, arg in ((is_gca_set, [t, t]), (autocorrelation, t)):
            info, peak = self._peak_bytes(fn, arg)
            assert isinstance(info.value, ShapeMismatch)
            assert "no prime" in str(info.value)
            assert peak < 1 << 20

    def test_bound_needs_more_primes_than_exist(self):
        # 3**16 output positions need n = 2**26, which three primes serve:
        # about 2**91, less than twice this set's bound
        re = np.zeros((2,) * 16, dtype=object)
        re[(0,) * 16] = 2**60
        t = Tensor(re, np.zeros((2,) * 16, dtype=np.int64))
        assert len(verify._primes(2**26, 4)) == 3
        info, peak = self._peak_bytes(is_gca_set, [t])
        assert "entries too large" in str(info.value)
        assert peak < 1 << 20

    def test_padding_past_every_member(self):
        # members (2048, 1) and (1, 1024) would pad to 2**21 entries each
        arrays = [Tensor.unit((2048, 1)), Tensor.unit((1, 1024))]
        for fn in (is_gca_set, gca_check_polynomial):
            info, peak = self._peak_bytes(fn, arrays)
            assert isinstance(info.value, ShapeMismatch)
            assert "bounding shape (2048, 1024)" in str(info.value)
            assert peak < 1 << 20

    def test_largest_transforms_have_their_primes(self):
        assert verify._primes(2**27, 2) == (15 * 2**27 + 1,)
        assert verify._primes(2**28, 1) == ()


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


UNITS = [GaussInt(1), GaussInt(-1), GaussInt(0, 1), GaussInt(0, -1)]
NONZERO_GAUSS = st.builds(GaussInt, st.integers(-3, 3),
                          st.integers(-3, 3)).filter(GaussInt.norm)


def times(t, c):
    """t times the Gaussian integer c, entrywise, in Python integers."""
    re, im = t.re.astype(object), t.im.astype(object)
    return Tensor(re * c.re - im * c.im, re * c.im + im * c.re)


def plus_at_start(t, d):
    """t with d added to its first entry."""
    re, im = t.re.astype(object), t.im.astype(object)
    re.flat[0] += d.re
    im.flat[0] += d.im
    return Tensor(re, im)


@functools.lru_cache(maxsize=None)
def complementary_sets():
    """The bundled binary and quaternary pairs and base sequences (lengths
    m+1, m+1, m, m), and the rank-2 quaternary pair A1, A2."""
    return tuple(r.tensors for r in load_bundled().records.values()) + ((A1, A2),)


class TestProductRouteOnGaussianMultiples:
    """A complementary set stays complementary when every member is
    multiplied by one Gaussian integer c (the sum scales by |c|**2) and
    each member by its own unit.  Adding d != 0 to the first entry of
    the first member, which has the set's largest extent, changes the
    sum at the opposite corner's shift unless that member has one entry.
    The product route must give the defining double sums' verdict on
    both, with non-unit entries on the int64 and the big-integer path."""

    @staticmethod
    def check(arrays, d):
        assert oracle_verdict(arrays)[0]
        assert gca_check_polynomial(arrays)
        bad = [plus_at_start(arrays[0], d)] + arrays[1:]
        want = oracle_verdict(bad)[0]
        assert want is (arrays[0].size == 1)
        assert gca_check_polynomial(bad) is want

    @given(st.sampled_from(complementary_sets()), NONZERO_GAUSS, NONZERO_GAUSS,
           st.lists(st.sampled_from(UNITS), min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_scaled_sets(self, arrays, c, d, units):
        self.check([times(times(a, c), u) for a, u in zip(arrays, units)], d)

    @pytest.mark.parametrize("arrays", complementary_sets())
    def test_scaled_past_int64(self, arrays):
        c = GaussInt(2**70, 1)
        scaled = [times(a, c) for a in arrays]
        assert scaled[0].re.dtype == object
        self.check(scaled, GaussInt(0, 1))

    @pytest.mark.parametrize("arrays", complementary_sets() + ((seq(1, 1), seq(1, -1)),))
    def test_scaled_to_the_int64_edge(self, arrays):
        # c = k(1 + i), k as large as keeps re * flip(im) in int64
        # (size * k**2 < 2**63); for a binary set its middle entry is
        # size * k**2, and twice that, p + flip(p), is past int64
        size = math.prod(map(max, zip(*(a.shape for a in arrays))))
        k = math.isqrt((2**63 - 1) // size)
        self.check([times(a, GaussInt(k, k)) for a in arrays], GaussInt(1))

    @pytest.mark.parametrize("arrays", complementary_sets())
    def test_scaled_with_small_re_plus_im(self, arrays):
        # the sums are past int64, so u = re + im is an object plane, but
        # on binary sets u is +-1 and is packed in one-byte digits
        self.check([times(a, GaussInt(2**40, 1 - 2**40)) for a in arrays], GaussInt(1))



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

    def test_direct_route_without_correlation(self, pairs, monkeypatch):
        good, bad = pairs
        monkeypatch.setattr(np, "correlate", self._refuse)
        monkeypatch.setattr(np, "convolve", self._refuse)
        assert is_gca_set(good).is_complementary
        assert not is_gca_set(bad).is_complementary

    def test_product_route_without_transform(self, pairs, monkeypatch):
        good, bad = pairs
        monkeypatch.setattr(verify, "_ntt", self._refuse)
        assert gca_check_polynomial(good)
        assert not gca_check_polynomial(bad)

    def test_product_route_without_matmul(self, pairs, monkeypatch):
        # the direct route's dense transforms are its only matrix products
        good, bad = pairs
        monkeypatch.setattr(np, "matmul", self._refuse)
        assert gca_check_polynomial(good)
        assert not gca_check_polynomial(bad)
        with pytest.raises(AssertionError, match="other route"):
            is_gca_set(good)


def direct_flatness(arrays, grid):
    """spectrum_flatness by the defining double sum over entries and
    grid points, in Python complex arithmetic."""
    w = sum(oracles.naive_weight(a) for a in arrays)
    worst = 0.0
    for m in np.ndindex(*(grid,) * arrays[0].rank):
        power = 0.0
        for a in arrays:
            value = sum(complex(g) * np.exp(-2j * np.pi * np.dot(m, i) / grid)
                        for i, g in zip(np.ndindex(*a.shape), a.entries()))
            power += abs(value) ** 2
        worst = max(worst, abs(power - w) / w)
    return worst


class TestSpectrum:
    def test_flat_pair(self):
        assert spectrum_flatness([seq(1, 1), seq(1, -1)], 8) < 1e-9

    @given(sets_of(), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_evaluation(self, arrays, grid):
        # shapes up to 4 per axis, so grids fall below and above them
        if sum(oracles.naive_weight(a) for a in arrays) == 0:
            return
        got, want = spectrum_flatness(arrays, grid), direct_flatness(arrays, grid)
        assert abs(got - want) <= 1e-9 * max(1.0, want)

    def test_grid_wraps_a_long_axis(self):
        t = seq(*range(1, 12))
        assert spectrum_flatness([t], 4) == pytest.approx(
            direct_flatness([t], 4), rel=1e-12)

    def test_binary_16384_pair_peak(self):
        # folding holds a grid**rank array, not a grid x length matrix
        a, b = np.array([1]), np.array([1])
        for _ in range(14):
            a, b = np.concatenate([a, b]), np.concatenate([a, -b])
        pair = [Tensor(x, np.zeros_like(x)) for x in (a, b)]
        tracemalloc.start()
        try:
            deviation = spectrum_flatness(pair, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert deviation < 1e-9
        assert peak < 2 << 20

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
