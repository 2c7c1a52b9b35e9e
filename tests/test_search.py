"""Exhaustive pair and base-sequence search: frozen finds, counts,
engine agreement and budget semantics."""
from __future__ import annotations

import copy
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from golaykit import _dfskernels, search, seeds
from golaykit.errors import ShapeMismatch
from golaykit.seeds import PAIR_KIND, load_bundled
from golaykit.search import (
    SearchStatus,
    _codes_to_tensor,
    count_pairs_1d,
    search_base_arrays,
    search_pair_arrays,
)
from golaykit.tensor import Alphabet, Tensor
from golaykit.verify import is_gca_set, jointly_complementary

from . import oracles


def reals(t):
    return t.re.tolist()


class TestFrozenFinds:
    """First finds in the deterministic tabulation order."""

    def test_binary_length_10(self):
        out = search_pair_arrays((10,), Alphabet.BINARY)
        assert out.status is SearchStatus.FOUND
        assert out.nodes == 1024
        a, b = out.arrays
        assert reals(a) == [1, 1, 1, 1, 1, -1, 1, -1, -1, 1]
        assert reals(b) == [1, 1, -1, -1, 1, 1, 1, -1, 1, -1]
        assert np.all(a.im == 0) and np.all(b.im == 0)

    def test_quaternary_length_3(self):
        out = search_pair_arrays((3,), Alphabet.QUATERNARY)
        assert out.status is SearchStatus.FOUND
        a, b = out.arrays
        assert reals(a) == [1, 1, -1] and np.all(a.im == 0)
        assert reals(b) == [1, 0, 1] and b.im.tolist() == [0, 1, 0]

    def test_base_index_1(self):
        out = search_base_arrays(1)
        assert out.status is SearchStatus.FOUND
        seqs = [reals(t) for t in out.arrays]
        assert seqs == [[1, 1], [1, -1], [1], [1]]

    def test_base_finds_verify(self):
        # weights 4m+2 for m up to 5, checked against the joint oracle
        for m in range(1, 6):
            out = search_base_arrays(m)
            assert out.status is SearchStatus.FOUND, f"m={m}"
            verdict = jointly_complementary(out.arrays)
            assert verdict.is_complementary
            assert verdict.total_weight == 4 * m + 2

    def test_length_1_trivial(self):
        out = search_pair_arrays((1,), Alphabet.BINARY)
        assert out.status is SearchStatus.FOUND
        assert reals(out.arrays[0]) == [1]

    def test_2d_search(self):
        out = search_pair_arrays((2, 2), Alphabet.BINARY)
        assert out.status is SearchStatus.FOUND
        assert is_gca_set(out.arrays).is_complementary
        assert out.arrays[0].shape == (2, 2)


def _entries(t):
    return list(zip(t.re.ravel().tolist(), t.im.ravel().tolist()))


class TestPinnedTables:
    """Whole results of the table engine: the workload's two
    meet-in-the-middle instances and a 2-D one."""

    def test_quaternary_length_11(self):
        out = search_pair_arrays((11,), Alphabet.QUATERNARY)
        assert (out.status, out.nodes) == (SearchStatus.FOUND, 2 * 4**10)
        a, b = out.arrays
        assert reals(a) == [1, 1, 1, 0, -1, 1, 0, 0, 0, 1, -1]
        assert a.im.tolist() == [0, 0, 0, 1, 0, 0, 1, -1, 1, 0, 0]
        assert reals(b) == [1, 0, -1, -1, -1, 0, 0, 1, 0, 0, 1]
        assert b.im.tolist() == [0, 1, 0, 0, 0, 1, 1, 0, -1, 1, 0]

    def test_base_index_10(self):
        out = search_base_arrays(10)
        assert (out.status, out.nodes) == (SearchStatus.FOUND, 4**10 + 4**9)
        assert [reals(t) for t in out.arrays] == [
            [1, 1, 1, 1, 1, 1, 1, -1, -1, 1, -1],
            [1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1],
            [1, 1, 1, -1, -1, 1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1, -1, 1, 1, 1, -1],
        ]

    def test_quaternary_length_11_peak(self):
        tracemalloc.start()
        try:
            search_pair_arrays((11,), Alphabet.QUATERNARY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 10**6

    def test_quaternary_2x3(self):
        out = search_pair_arrays((2, 3), Alphabet.QUATERNARY)
        assert (out.status, out.nodes) == (SearchStatus.FOUND, 2048)
        a, b = out.arrays
        assert a.re.tolist() == [[1, 1, -1], [1, 0, 1]]
        assert a.im.tolist() == [[0, 0, 0], [0, 1, 0]]
        assert b.re.tolist() == [[1, 1, -1], [-1, 0, -1]]
        assert b.im.tolist() == [[0, 0, 0], [0, -1, 0]]


_B, _Q = Alphabet.BINARY, Alphabet.QUATERNARY

# every table search with its budget left out, and the small counts
_PINNED_SEARCHES = (
    [(f"pair {a.value} {n}", search_pair_arrays, ((n,), a))
     for a, top in ((_B, 20), (_Q, 11)) for n in range(1, top + 1)]
    + [(f"pair {a.value} {s}", search_pair_arrays, (s, a))
       for a in (_B, _Q) for s in ((2, 3), (1, 5))]
    + [("pair binary (2, 2, 2)", search_pair_arrays, ((2, 2, 2), _B))]
    + [(f"base {m}", search_base_arrays, (m,)) for m in range(1, 11)]
)
_PINNED_COUNTS = [(n, a) for a, top in ((_B, 20), (_Q, 9))
                  for n in range(1, top + 1)]


class TestPinnedOutcomes:
    def test_digest(self):
        # (status, nodes, entries) of each search and each count, hashed
        # in order: any change of a result, a node count or a count shows
        digest = hashlib.sha256()
        for label, fn, args in _PINNED_SEARCHES:
            out = fn(*args)
            arrays = [(t.shape, _entries(t)) for t in out.arrays or ()]
            digest.update(repr(
                (label, out.status.value, out.nodes, arrays)).encode())
        for n, a in _PINNED_COUNTS:
            digest.update(repr(
                (f"count {a.value} {n}", count_pairs_1d(n, a))).encode())
        assert digest.hexdigest() == (
            "fcc848c4e4ebf78155e6867331be6d30c0af741029d74f6aa323bd4187eaf8a2")


_CODE_OF = {(1, 0): 0, (-1, 0): 1, (0, 1): 2, (0, -1): 3}


class TestTable:
    @given(st.data())
    @settings(max_examples=40)
    def test_tails_match_oracle(self, data):
        # positive shifts in the row-major order of the oracle's 2s - 1
        # array, which is lexicographic order of the shift
        shape, codes = data.draw(_code_rows())
        tails = search._tails(codes, shape)
        for row, code in zip(tails, codes):
            assert row.tolist() == _oracle_tails(code, shape).ravel().tolist()

    @given(st.data())
    @settings(max_examples=40)
    def test_keys_match_oracle(self, data):
        # K of a code row's exact tails is K of the oracle's tails
        shape, codes = data.draw(_code_rows())
        keys = search._keys(search._tails(codes, shape))
        assert keys.dtype == np.uint64 and keys.shape == (len(codes),)
        for key, code in zip(keys, codes):
            assert key == _key(_oracle_tails(code, shape))

    def test_no_rows(self):
        # the filter can keep no member: binary 6 keeps none
        tails = search._tails(np.zeros((0, 6), dtype=np.int64), (6,))
        assert tails.shape == (0, 10)
        assert search._keys(tails).shape == (0,)
        table = search._Table(((6,),), 2, weight=12)
        assert len(table.rows) == len(table.keys) == 0

    @pytest.mark.parametrize("fix_first", [True, False])
    def test_rows_and_padded_sums(self, fix_first):
        # rows in lexicographic order, first member major; each row's
        # tails the sum of its members' oracle tails, zero-padded, and
        # its key K of that sum
        shapes, width = ((3,), (1, 2), (2,)), 6
        table = search._Table(shapes, 4, fix_first)
        free = [math.prod(s) - fix_first for s in shapes]
        assert table.keys.shape == (4 ** sum(free),)
        for r in range(0, len(table.keys), 37):
            arrays = table.members(r)
            digits = [_CODE_OF[e] for t in arrays
                      for e in _entries(t)[fix_first:]]
            assert int("".join(map(str, digits)), 4) == r
            want = np.zeros((width // 2, 2), dtype=np.int64)
            for t in arrays:
                lags = oracles.naive_autocorr(Tensor(t.re.ravel(), t.im.ravel()))
                side = np.stack([lags.re, lags.im], axis=1)[t.size:]
                want[:len(side)] += side
            assert table.tails(np.array([r]), width)[0].tolist() == (
                want.ravel().tolist())
            assert table.keys[r] == _key(want)


@st.composite
def _code_rows(draw):
    """A shape of rank <= 3 and one to five quaternary code rows over it."""
    shape = draw(oracles.shapes(max_rank=3, max_dim=3))
    n = math.prod(shape)
    codes = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                          min_size=1, max_size=5))
    return shape, np.array(codes, dtype=np.int8)


def _oracle_tails(code, shape) -> np.ndarray:
    """The oracle's autocorrelation of one code row at the positive
    shifts, (shifts, 2): re and im per shift."""
    r = oracles.naive_autocorr(_codes_to_tensor(code, shape))
    after = slice((r.size + 1) // 2, None)
    return np.stack([r.re.ravel()[after], r.im.ravel()[after]], axis=1)


def _key(tails) -> np.uint64:
    """K of integer tails, straight from its definition."""
    tails = np.asarray(tails, dtype=np.int64).ravel()
    with np.errstate(over="ignore"):
        return (tails.view(np.uint64) * search._weights(len(tails))).sum()


def _equal_weights(columns: int) -> np.ndarray:
    # every column weighs 1: many unequal tails share a key, so every
    # result must come from the exact confirmation
    return np.ones(columns, dtype=np.uint64)


@pytest.fixture
def equal_weights(monkeypatch):
    monkeypatch.setattr(search, "_weights", _equal_weights)


_COLLIDING = [
    (search_pair_arrays, ((10,), Alphabet.BINARY)),
    (search_pair_arrays, ((2, 3), Alphabet.QUATERNARY)),
    (search_pair_arrays, ((5,), Alphabet.BINARY)),
] + [(search_base_arrays, (m,)) for m in range(1, 6)]


class TestKeyCollisions:
    def test_keys_collide(self, equal_weights):
        table = search._Table(((10,),), 2)
        tails = table.tails(np.arange(len(table.keys)), table.width)
        assert len(np.unique(table.keys)) < len(np.unique(tails, axis=0))

    @pytest.mark.parametrize(
        "fn,args", _COLLIDING,
        ids=["b10", "q2x3", "b5"] + [f"base{m}" for m in range(1, 6)])
    def test_results_unchanged(self, monkeypatch, fn, args):
        want = fn(*args)
        monkeypatch.setattr(search, "_weights", _equal_weights)
        got = fn(*args)
        assert (got.status, got.nodes) == (want.status, want.nodes)
        assert [_entries(t) for t in got.arrays or ()] == [
            _entries(t) for t in want.arrays or ()]


class TestSelfMatch:
    """A table matched against itself takes its negated keys' order from
    its own sort; a copy of the table goes the general way."""

    @pytest.mark.parametrize("shape,phases", [
        ((1,), 2), ((6,), 2), ((4,), 4), ((2, 2), 4), ((10,), 2)])
    @pytest.mark.parametrize("weights", [None, _equal_weights],
                             ids=["keyed", "equal-weights"])
    def test_same_as_general_match(self, monkeypatch, shape, phases,
                                   weights):
        if weights is not None:
            monkeypatch.setattr(search, "_weights", weights)
        table = search._Table((shape,), phases)
        other = copy.copy(table)
        got = [(q.tolist(), r.tolist())
               for q, r in search._confirmed(table, table)]
        want = [(q.tolist(), r.tolist())
                for q, r in search._confirmed(other, table)]
        assert got == want


def _matches(queries, table):
    return [(int(q), int(r)) for qs, rs in search._confirmed(queries, table)
            for q, r in zip(qs, rs)]


def _row_powers(shape, codes, weight, phases):
    """Float32 powers of one code row at the filter's points, or None
    when the filter drops it alone."""
    turns, bound = search._filter(phases, weight)
    ids, power = search._powers(shape, [[c] for c in codes], turns, bound)
    return power[:, 0] if len(ids) else None


class TestFilter:
    """The power filter and the swap rule drop only rows that no
    solution holds: every confirmed match of the full table survives."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_same_matches_as_full_table(self, data):
        shape = data.draw(oracles.shapes(max_rank=3, max_dim=8).filter(
            lambda s: math.prod(s) <= 8))
        phases = data.draw(st.sampled_from([2, 4]))
        fix_first = data.draw(st.booleans())
        equal = data.draw(st.booleans())
        n = math.prod(shape)
        # colliding keys make every key-equal pair a candidate: keep
        # those tables small
        assume(not equal or phases ** (n - fix_first) <= 1 << 12)
        with pytest.MonkeyPatch.context() as patch:
            if equal:
                patch.setattr(search, "_weights", _equal_weights)
            full = search._Table((shape,), phases, fix_first)
            kept = search._Table((shape,), phases, fix_first, 2 * n)
            assert np.all(np.diff(kept.rows) > 0)
            assert np.array_equal(kept.keys, full.keys[kept.rows])
            assert _matches(kept, kept) == _matches(full, full)

    @pytest.mark.parametrize("shape,phases", [
        ((14,), 2), ((8,), 4), ((2, 3), 4), ((2, 2, 2), 2), ((1, 5), 4)])
    def test_keeps_every_row_within_the_weight(self, shape, phases):
        # the margin covers float32 rounding: a row whose power, made in
        # float64 straight from its codes, is at most W at every point
        # is kept
        n = math.prod(shape)
        turns, _ = search._filter(phases, 2 * n)
        table = search._Table((shape,), phases, weight=2 * n)
        grid = search._grid(shape, phases, True)
        codes = np.stack(np.unravel_index(np.arange(math.prod(grid)), grid),
                         axis=1)
        points = np.exp(2j * np.pi * np.multiply.outer(
            search._positions(shape), turns))
        values = np.array([1, -1, 1j, -1j])[codes] @ points
        exact = (np.abs(values) ** 2).T
        within = np.flatnonzero((exact <= 2 * n).all(axis=0))
        assert np.isin(within, table.rows).all()
        assert len(table.rows) < len(codes)
        # every float32 power is off by under a tenth of the margin
        ids, power = search._powers(shape, [np.arange(g) for g in grid],
                                    turns, np.float32(np.inf))
        assert np.array_equal(ids, np.arange(len(codes)))
        assert np.abs(power - exact).max() < 2 * n * 2**-12 / 10

    def test_bundled_records_pass(self):
        # every bundled set is a solution, so each pair member and each
        # (A, B) and (C, D) row of base sequences passes the filter:
        # rows where the bound is tight, since their powers and their
        # partners' add up to the weight at every point
        records = load_bundled().records.values()
        assert len(records) > 20
        for rec in records:
            codes = [[_CODE_OF[e] for e in _entries(t)] for t in rec.tensors]
            weight = sum(t.size for t in rec.tensors) * 2
            phases = 2 if rec.alphabet is Alphabet.BINARY else 4
            if rec.kind == PAIR_KIND:
                for c, t in zip(codes, rec.tensors):
                    assert _row_powers(t.shape, c, weight, phases) is not None
                continue
            for x, y in ((0, 1), (2, 3)):
                px, py = (_row_powers(rec.tensors[k].shape, codes[k],
                                      weight, 2) for k in (x, y))
                assert px is not None and py is not None, rec.key
                assert np.all(px + py <= search._filter(2, weight)[1])

    @pytest.mark.parametrize("m", range(1, 8))
    def test_swap_rule_keeps_the_first_match(self, m):
        want = search._found(search._Table(((m + 1,), (m + 1,)), 2),
                             search._Table(((m,), (m,)), 2), 0)
        for weight in (None, 4 * m + 2):
            got = search._found(*(
                search._Table(((k,), (k,)), 2, weight=weight, swap=True)
                for k in (m + 1, m)), 0)
            assert [_entries(t) for t in got.arrays] == [
                _entries(t) for t in want.arrays]
        assert search_base_arrays(m).nodes == 4**m + 4**(m - 1)


class TestCounts:
    """Solution counts under first-entry normalization and without."""

    def test_binary(self):
        assert count_pairs_1d(2, Alphabet.BINARY) == 2
        assert count_pairs_1d(2, Alphabet.BINARY, fix_first=False) == 8
        assert count_pairs_1d(4, Alphabet.BINARY) == 8
        assert count_pairs_1d(4, Alphabet.BINARY, fix_first=False) == 32

    def test_quaternary(self):
        assert count_pairs_1d(2, Alphabet.QUATERNARY) == 4
        assert count_pairs_1d(2, Alphabet.QUATERNARY, fix_first=False) == 64
        assert count_pairs_1d(3, Alphabet.QUATERNARY) == 8
        assert count_pairs_1d(3, Alphabet.QUATERNARY, fix_first=False) == 128

    def test_normalization_ratio(self):
        # fixing the first entry of both members divides the count by
        # (phases)^2
        for n in (2, 4):
            full = count_pairs_1d(n, Alphabet.BINARY, fix_first=False)
            assert full == 4 * count_pairs_1d(n, Alphabet.BINARY)
        for n in (2, 3):
            full = count_pairs_1d(n, Alphabet.QUATERNARY, fix_first=False)
            assert full == 16 * count_pairs_1d(n, Alphabet.QUATERNARY)

    def test_empty_lengths(self):
        assert count_pairs_1d(3, Alphabet.BINARY) == 0
        assert count_pairs_1d(5, Alphabet.BINARY) == 0
        assert count_pairs_1d(7, Alphabet.QUATERNARY) == 0


@pytest.mark.usefixtures("equal_weights")
class TestCountsEqualWeights(TestCounts):
    """Every count again, with keys that collide."""


# the pruned depth-first engine must reach the same verdict as the
# exhaustive tabulation on every length both can finish
_DFS_BATTERY = [
    (Alphabet.BINARY, 2, SearchStatus.FOUND),
    (Alphabet.BINARY, 3, SearchStatus.EXHAUSTED),
    (Alphabet.BINARY, 4, SearchStatus.FOUND),
    (Alphabet.BINARY, 5, SearchStatus.EXHAUSTED),
    (Alphabet.BINARY, 6, SearchStatus.EXHAUSTED),
    (Alphabet.BINARY, 8, SearchStatus.FOUND),
    (Alphabet.BINARY, 10, SearchStatus.FOUND),
    (Alphabet.BINARY, 13, SearchStatus.EXHAUSTED),
    (Alphabet.QUATERNARY, 2, SearchStatus.FOUND),
    (Alphabet.QUATERNARY, 3, SearchStatus.FOUND),
    (Alphabet.QUATERNARY, 4, SearchStatus.FOUND),
    (Alphabet.QUATERNARY, 5, SearchStatus.FOUND),
    (Alphabet.QUATERNARY, 6, SearchStatus.FOUND),
    (Alphabet.QUATERNARY, 7, SearchStatus.EXHAUSTED),
    (Alphabet.QUATERNARY, 9, SearchStatus.EXHAUSTED),
]

_DFS_TAG = {0: SearchStatus.FOUND, 1: SearchStatus.EXHAUSTED,
            2: SearchStatus.BUDGET_EXCEEDED}


class TestEngineAgreement:
    @pytest.mark.parametrize("alphabet,n,want", _DFS_BATTERY)
    def test_dfs_matches_tabulation(self, alphabet, n, want):
        phases = 2 if alphabet is Alphabet.BINARY else 4
        status, a_codes, b_codes, _ = _dfskernels.run_pair_dfs(n, phases, 10**8)
        assert _DFS_TAG[status] is want
        assert search_pair_arrays((n,), alphabet).status is want
        if want is SearchStatus.FOUND:
            arrays = [_codes_to_tensor(c, (n,)) for c in (a_codes, b_codes)]
            assert is_gca_set(arrays).is_complementary

    def test_forced_dfs_find_verifies(self):
        # budget below the tabulation space routes to the depth-first
        # engine, which still lands on a verified pair
        out = search_pair_arrays((10,), Alphabet.BINARY, budget=500)
        assert out.status is SearchStatus.FOUND
        assert out.nodes <= 500
        assert is_gca_set(out.arrays).is_complementary


# (n, phases, budget, status, a codes, b codes, nodes) and
# (m, budget, status, A|B|C|D codes, nodes): whole results of the
# depth-first kernels, codes left behind at a budget stop included.  A
# change of node order or of any prune shows up here.
_PINNED_PAIR = [
    (2, 2, -1, 0, "00", "01", 2),
    (10, 2, -1, 0, "0010101100", "0010000011", 177),
    (13, 2, -1, 1, "0111111111111", "0111111000001", 5684),
    (20, 2, -1, 0, "00000101101010001100", "00000101100101110011", 116206),
    (20, 2, 1000, 2, "00000011011010100000", "00000001011000011111", 1000),
    (10, 4, -1, 0, "0010101100", "0010000011", 21931),
    (5, 4, -1, 0, "00032", "02103", 455),
    (7, 4, -1, 1, "0333312", "0213113", 5888),
    (13, 4, 15000, 2, "0000033312000", "0000203133111", 15000),
]
_PINNED_BASE = [
    (1, -1, 0, "00|01|0|0", 2),
    (3, -1, 0, "0010|0011|000|010", 27),
    (5, -1, 0, "001010|000111|00100|00100", 126),
    (7, -1, 0, "00001010|00001011|0001100|0100110", 11062),
    (6, 10, 2, "0000000|0000001|000010|000000", 10),
    (9, -1, 0, "0011001010|0000110111|000010100|000101100", 40959),
    (13, 15000, 2,
     "00001010111110|00001110111111|0000010110000|0000110010000", 15000),
]


def _digits(codes) -> str:
    return "".join(str(int(c)) for c in codes)


class TestPinnedKernels:
    @pytest.mark.parametrize(
        "n,phases,budget,status,a,b,nodes", _PINNED_PAIR,
        ids=[f"{'bq'[p // 4]}{n}-budget{b}" for n, p, b, *_ in _PINNED_PAIR])
    def test_pair(self, n, phases, budget, status, a, b, nodes):
        got = _dfskernels.run_pair_dfs(n, phases, budget)
        assert (got[0], _digits(got[1]), _digits(got[2]), got[3]) == (
            status, a, b, nodes)

    @pytest.mark.parametrize(
        "m,budget,status,codes,nodes", _PINNED_BASE,
        ids=[f"m{m}-budget{b}" for m, b, *_ in _PINNED_BASE])
    def test_base(self, m, budget, status, codes, nodes):
        got_status, seqs, got_nodes = _dfskernels.run_base_dfs(m, budget)
        assert (got_status, "|".join(map(_digits, seqs)), got_nodes) == (
            status, codes, nodes)

    def test_deep_descent(self):
        # 12000 nodes of binary 2050 descend past 1000 levels, deeper than
        # the default recursion limit
        status, _, _, nodes = _dfskernels.run_pair_dfs(2050, 2, 12000)
        assert (status, nodes) == (2, 12000)

    @pytest.mark.parametrize("run,budgets,found_at", [
        (lambda b: _dfskernels.run_pair_dfs(10, 2, b), range(201), 177),
        (lambda b: _dfskernels.run_base_dfs(5, b), range(141), 126)],
        ids=["b10", "base5"])
    def test_budget_sweep(self, run, budgets, found_at):
        # the stop is strict at every level entry: a budget below the
        # finding node stops after exactly `budget` nodes
        for budget in budgets:
            got = run(budget)
            assert (got[0], got[-1]) == (
                2 if budget < found_at else 0, min(budget, found_at))


class TestBudget:
    def test_pair_budget_exceeded(self):
        out = search_pair_arrays((10,), Alphabet.BINARY, budget=100)
        assert out.status is SearchStatus.BUDGET_EXCEEDED
        assert out.arrays is None

    def test_base_budget_exceeded(self):
        out = search_base_arrays(6, budget=10)
        assert out.status is SearchStatus.BUDGET_EXCEEDED
        assert out.arrays is None
        assert out.nodes == 10

    @pytest.mark.parametrize("budget", [0, 1, 176, 177])
    def test_dfs_stops_at_the_budget(self, budget):
        # binary 10 is found at node 177: any smaller budget stops after
        # exactly `budget` nodes, before placing a node past it
        out = search_pair_arrays((10,), Alphabet.BINARY, budget=budget)
        assert out.nodes == min(budget, 177)
        assert out.status is (SearchStatus.FOUND if budget == 177
                              else SearchStatus.BUDGET_EXCEEDED)

    @pytest.mark.parametrize("fn", [
        lambda b: search_pair_arrays((20,), Alphabet.BINARY, budget=b),
        lambda b: search_base_arrays(6, budget=b)], ids=["b20", "base6"])
    def test_nodes_within_budget(self, fn):
        for budget in (0, 1, 2, 10, 1000):
            out = fn(budget)
            assert out.status is SearchStatus.BUDGET_EXCEEDED
            assert out.nodes == budget

    @pytest.mark.parametrize("search", [
        lambda: search_pair_arrays((10,), Alphabet.BINARY, budget=-5),
        lambda: search_pair_arrays((2, 3), Alphabet.QUATERNARY, budget=-5),
        lambda: search_pair_arrays((1, 1), Alphabet.QUATERNARY, budget=-1),
        lambda: search_base_arrays(6, budget=-1)],
        ids=["b10-dfs", "q2x3-table", "single-entry", "base6"])
    def test_negative_budget_refused(self, search):
        # refused before any engine runs: no engine's "no budget"
        # sentinel leaks through, and the n = 1 shortcut is no exception
        with pytest.raises(ValueError, match="budget"):
            search()

    def test_single_entry_pair_counts_its_node(self):
        zero = search_pair_arrays((1, 1), Alphabet.QUATERNARY, budget=0)
        assert (zero.status, zero.arrays, zero.nodes) == (
            SearchStatus.BUDGET_EXCEEDED, None, 0)
        one = search_pair_arrays((1, 1), Alphabet.QUATERNARY, budget=1)
        assert (one.status, one.nodes) == (SearchStatus.FOUND, 1)

    def test_generous_budget_is_no_op(self):
        full = search_pair_arrays((8,), Alphabet.BINARY)
        capped = search_pair_arrays((8,), Alphabet.BINARY, budget=10**9)
        assert capped.status is full.status is SearchStatus.FOUND
        assert reals(capped.arrays[0]) == reals(full.arrays[0])

    def test_bad_base_index(self):
        with pytest.raises(ValueError):
            search_base_arrays(0)

    @pytest.mark.parametrize("shape,alphabet", [
        ((10,), Alphabet.BINARY), ((6,), Alphabet.QUATERNARY),
        ((2, 3), Alphabet.QUATERNARY), ((2, 2, 2), Alphabet.BINARY)])
    def test_table_counts_both_sides(self, shape, alphabet):
        # a table pass reports its rows twice, as queries and as the
        # table, so it runs only when the budget covers both
        phases = 2 if alphabet is Alphabet.BINARY else 4
        space = phases ** (math.prod(shape) - 1)
        for budget in (space, space + 1, 2 * space - 1, 2 * space):
            out = search_pair_arrays(shape, alphabet, budget)
            assert out.nodes <= budget
        assert out.nodes == 2 * space

    def test_multidimensional_beyond_the_table(self):
        # 4**11 rows are over the table cap, and the DFS is 1-D only:
        # refused whatever the budget, unless the budget stops it first
        for budget in (None, 4**11, 10**9):
            with pytest.raises(ShapeMismatch):
                search_pair_arrays((3, 4), Alphabet.QUATERNARY, budget)
        out = search_pair_arrays((3, 4), Alphabet.QUATERNARY, budget=100)
        assert (out.status, out.arrays, out.nodes) == (
            SearchStatus.BUDGET_EXCEEDED, None, 0)

    @pytest.mark.parametrize("search", [
        lambda: search_pair_arrays((0,), Alphabet.BINARY),
        lambda: search_pair_arrays((-3,), Alphabet.QUATERNARY),
        lambda: search_pair_arrays((2, 0), Alphabet.BINARY),
        lambda: search_pair_arrays((), Alphabet.BINARY),
        lambda: seeds.search_golay_pair(Alphabet.BINARY, (0,)),
        lambda: seeds.search_golay_pair(Alphabet.QUATERNARY, (2, -1)),
        lambda: count_pairs_1d(0, Alphabet.BINARY),
        lambda: count_pairs_1d(-3, Alphabet.QUATERNARY)],
        ids=["zero", "negative", "zero-axis", "no-axis", "seed-zero",
             "seed-negative-axis", "count-zero", "count-negative"])
    def test_non_positive_shape_refused(self, search):
        # the rule plan_pair applies, before any engine runs
        with pytest.raises(ShapeMismatch, match="rank|positive"):
            search()


@pytest.mark.slow
def test_quaternary_15_exhausted():
    # no quaternary pair of length 15 exists; the depth-first engine
    # proves it by exhausting the pruned space
    out = search_pair_arrays((15,), Alphabet.QUATERNARY, budget=10**9)
    assert out.status is SearchStatus.EXHAUSTED
    assert out.arrays is None
