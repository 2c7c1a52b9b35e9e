"""Exhaustive searches for complementary seed pairs and quads.

Two engines share the work:

* a meet-in-the-middle table for small entry counts.  `_Table` holds
  one row per normalized tuple of members, in lexicographic order,
  keyed by a linear 64-bit hash of the tuple's summed autocorrelation
  tails: K(t) = sum_c w_c t_c mod 2**64 with fixed odd weights (each
  member laid out in the strides of 2s - 1, so a positive shift is a
  flat offset).  K(-t) = -K(t), and a tuple's key is the sum of its
  members' keys.  `_keys` is the one place K is computed: from the
  exact tails (`_tails`) of a member's code rows, only at the rows the
  filter below keeps.  `_confirmed` matches the sorted table keys
  against the sorted negated query keys and confirms each key-equal
  candidate exactly with the integer tails of its code rows
  (`_tails`), in ascending query order and only as far as it is read.
  Equal tails always give equal keys, so nothing is missed, and no
  float decides anything.  A pair search matches one table against
  itself, a base-sequence search the (A, B) table against the (C, D)
  table, and `count_pairs_1d` counts confirmed pairs.  Exhaustive, and
  returns the lexicographically smallest solution.
* a depth-first ends-inward assignment search with partial-sum pruning
  for larger 1-D instances, written as plain Python (`_dfskernels`).

Before anything is sorted or matched, a table drops the rows that no
solution can hold:

* **Power filter.**  A set of total weight W (2n for a pair, 4m + 2 for
  base sequences) has sum_j |X_j(w)|**2 = W at every w on the unit
  circle, X_j the polynomial of member j on its flat layout (so this
  holds for N-d shapes too).  So a row, one member or a joint (X, Y),
  is kept only when its power is at most W + W/4096 at 16 points
  (`_filter`).  Powers are float32: X = H + L with the half sums H and
  L summed in float64 and rounded once, so for a member of n unit
  entries |X^ - X| <= 2.01 n u (u = 2**-24), and the squares and sums
  add at most a factor (1 + u)**3.  A row whose true powers total at
  most W >= 2n therefore reads at most W (1 + 4.02 u sqrt(n) + 4u),
  under the rounded threshold by a factor of more than 10 for any n up
  to 10**4 (a table holds at most 22 entries).  The filter only drops
  rows, and `_confirmed`'s exact tails still decide every result.
* **Swap rule.**  (B, A, C, D) and (A, B, D, C) solve whenever
  (A, B, C, D) does, so the lexicographically smallest solution has
  A <= B and C <= D, and the base tables keep only rows with X <= Y.
  A pair table holds single sequences and has no such rule.

Rows are kept in lexicographic order, and keys are computed only for
the member rows the filter keeps.  The `nodes` of a table search is
the code space it covers, not the rows kept: 2 phases**(n - 1) for a
pair (the table as queries and as table) and 4**m + 4**(m - 1) for
base sequences.

Normalization fixes the first entry of each sequence to 1 (a global
phase per member, losing no solutions up to equivalence).  Entry order
everywhere is 1, -1, i, -i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _dfskernels
from .errors import ShapeMismatch
from .tensor import Alphabet, Tensor, _layout, _validate_shape

__all__ = [
    "SearchStatus",
    "SearchOutcome",
    "search_pair_arrays",
    "search_base_arrays",
    "count_pairs_1d",
]

# largest number of enumerated candidates per side handled by the
# meet-in-the-middle pass; beyond this the DFS engine takes over
_MITM_CAP = 1 << 21

# (re, im) planes of the entry codes, shared with the depth-first kernels
_CODE_PLANES = np.array([_dfskernels.CODE_RE, _dfskernels.CODE_IM],
                        dtype=np.int16)

# query rows confirmed at a time: a find reads only as far as its first
# confirmed query
_CONFIRM_QUERIES = 1 << 10

# grid entries the power filter tests at a time: few enough to stay in
# cache
_BLOCK = 1 << 15


class SearchStatus(Enum):
    FOUND = "found"
    EXHAUSTED = "exhausted"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    arrays: tuple[Tensor, ...] | None
    nodes: int


def _phase_count(alphabet: Alphabet) -> int:
    if alphabet is Alphabet.BINARY:
        return 2
    if alphabet is Alphabet.QUATERNARY:
        return 4
    raise ValueError(f"search supports binary or quaternary, not {alphabet}")


def _weights(columns: int) -> np.ndarray:
    """Fixed odd uint64 key weights of tail columns 0..columns-1 (re and
    im of shift d at columns 2d - 2 and 2d - 1).  One full-range draw per
    column, so a column's weight does not depend on how many are asked
    for.  Any fixed seed gives the same results: every key-equal
    candidate is confirmed exactly."""
    rng = np.random.default_rng(0x601A7)
    draws = rng.integers(0, 1 << 64, size=columns, dtype=np.uint64)
    return draws | np.uint64(1)


def _tails(codes: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """R(delta) = sum_i a[i + delta] * conj(a[i]) of every code row over
    `shape`, for the strictly positive shifts: (rows, 2*shifts) int16,
    re and im interleaved per shift.  Laid out in the strides of 2s - 1,
    shift delta is the flat offset d = 1..(prod(2s - 1) - 1)/2, and
    ascending d is lexicographic order of delta."""
    out = tuple(2 * s - 1 for s in shape)
    re, im = (_layout(z.reshape((-1,) + shape), out)
              for z in _CODE_PLANES[:, codes])
    n, shifts = re.shape[1], (math.prod(out) - 1) // 2
    tails = np.empty((len(codes), 2 * shifts), dtype=np.int16)
    for d in range(1, shifts + 1):
        rh, ih, rl, il = re[:, d:], im[:, d:], re[:, :n - d], im[:, :n - d]
        tails[:, 2 * d - 2] = (rh * rl + ih * il).sum(axis=1)
        tails[:, 2 * d - 1] = (ih * rl - rh * il).sum(axis=1)
    return tails


def _keys(tails: np.ndarray) -> np.ndarray:
    """K(t) = sum_c w_c t_c mod 2**64 of each row of `tails`: the casts
    to uint64 and the products wrap, so a negative entry is exact."""
    return tails.astype(np.uint64) @ _weights(tails.shape[1])


def _grid(shape: tuple[int, ...], phases: int,
          fix_first: bool) -> tuple[int, ...]:
    """Axes of the lexicographic code grid over `shape`: one per entry,
    of size 1 for a first entry fixed to code 0."""
    return (1 if fix_first else phases,) + (phases,) * (math.prod(shape) - 1)


def _positions(shape: tuple[int, ...]) -> np.ndarray:
    """Flat offsets of the entries of `shape`, laid out in the strides
    of 2s - 1."""
    n, out = math.prod(shape), tuple(2 * s - 1 for s in shape)
    return np.flatnonzero(_layout(np.arange(1, n + 1).reshape((1,) + shape),
                                  out))


def _filter(phases: int, weight: int | None):
    """The power filter's points, as turns, and its float32 threshold
    W + W/4096: 16 points half a step off 0 around the circle, or around
    its upper half for binary members (|X| is even in the angle).  No
    points without a weight."""
    if weight is None:
        return np.zeros(0), None
    return ((np.arange(16) + 0.5) / (32 if phases == 2 else 16),
            np.float32(weight * (1 + 2**-12)))


def _powers(shape: tuple[int, ...], axes, turns: np.ndarray, bound):
    """Ids, in the grid of `axes` (the codes each entry takes), of the
    code rows over `shape` whose power |X(w)|**2 is at most `bound` at
    every point w = exp(2 pi i turn), and their powers there, (points,
    rows) float32.  X = H + L, the sums over the first and the last half
    of the entries, each summed in float64 and rounded once to float32;
    a grid id is h * len(L) + l.  The grid is tested a block of H's rows
    at a time."""
    terms = np.exp(2j * np.pi * np.multiply.outer(turns, _positions(shape)))
    units = _CODE_PLANES[0] + 1j * _CODE_PLANES[1]
    half = (len(axes) + 1) // 2
    sides = []
    for entries in (range(half), range(half, len(axes))):
        x = np.zeros((len(turns), 1))
        for e in entries:
            x = x[:, :, None] + terms[:, e, None, None] * units[axes[e]]
            x = x.reshape(len(turns), x.shape[1] * x.shape[2])
        sides.append(np.stack([x.real, x.imag], axis=1).astype(np.float32))
    h, l = sides
    keep = np.ones((h.shape[2], l.shape[2]), dtype=bool)
    rows = max(1, _BLOCK // l.shape[2])
    planes = np.empty((2, rows, l.shape[2]), dtype=np.float32)
    for at in range(0, len(keep), rows):
        block = keep[at:at + rows]
        r, i = planes[:, :len(block)]
        for (hr, hi), (lr, li) in zip(h[:, :, at:at + rows], l):
            np.add(hr[:, None], lr, out=r)
            np.add(hi[:, None], li, out=i)
            r *= r
            i *= i
            r += i
            block &= r <= bound
    ids = np.flatnonzero(keep)
    x = h[:, :, ids // l.shape[2]] + l[:, :, ids % l.shape[2]]
    return ids, x[:, 0] ** 2 + x[:, 1] ** 2


class _Table:
    """One row per tuple of code rows, one member of each shape in
    `shapes`, in lexicographic order (first member major), keyed by K of
    the members' summed tails: the sum of the member keys, each
    member's from the `_tails` of the code rows the filter kept.  With a
    `weight` W, only the rows whose summed power is at most W plus the
    margin at every point of `_filter` (members' powers from `_powers`,
    added in float32); with `swap`, only those whose members' codes do
    not decrease (members of one shape).  `rows` holds the lexicographic
    ids of the rows kept, `keys` their keys."""

    def __init__(self, shapes, phases: int, fix_first: bool = True,
                 weight: int | None = None, swap: bool = False):
        self.shapes = [tuple(s) for s in shapes]
        self.grids = [_grid(s, phases, fix_first) for s in self.shapes]
        turns, bound = _filter(phases, weight)
        self.rows = np.zeros(1, dtype=np.int64)
        self.keys = np.zeros(1, dtype=np.uint64)
        power = np.zeros((len(turns), 1), dtype=np.float32)
        for k, (shape, grid) in enumerate(zip(self.shapes, self.grids)):
            ids, member = _powers(shape, [np.arange(g) for g in grid],
                                  turns, bound)
            size = math.prod(grid)
            last = self.rows % size if swap else np.zeros_like(self.rows)
            i, j = np.nonzero(last[:, None] <= ids)
            for p, q in zip(power, member):
                ok = p[i] + q[j] <= bound
                i, j = i[ok], j[ok]
            codes = np.stack(np.unravel_index(ids, grid), axis=1)
            with np.errstate(over="ignore"):
                self.keys = self.keys[i] + _keys(_tails(codes, shape))[j]
            self.rows = self.rows[i] * size + ids[j]
            if k + 1 < len(self.shapes):
                power = power[:, i] + member[:, j]
        self.width = max(math.prod(2 * x - 1 for x in s) - 1
                         for s in self.shapes)

    def codes(self, rows: np.ndarray) -> list[np.ndarray]:
        """Each member's code rows of table rows `rows`."""
        index = np.unravel_index(rows, [math.prod(g) for g in self.grids])
        return [np.stack(np.unravel_index(i, g), axis=1)
                for i, g in zip(index, self.grids)]

    def tails(self, rows: np.ndarray, width: int) -> np.ndarray:
        """Exact summed tails of table rows `rows`, zero-padded to
        `width` columns."""
        out = np.zeros((len(rows), width), dtype=np.int16)
        for codes, shape in zip(self.codes(rows), self.shapes):
            t = _tails(codes, shape)
            out[:, :t.shape[1]] += t
        return out

    def members(self, row: int) -> tuple[Tensor, ...]:
        return tuple(_codes_to_tensor(c[0], s)
                     for c, s in zip(self.codes(np.array([row])), self.shapes))


def _codes_to_tensor(codes: np.ndarray, shape: tuple[int, ...]) -> Tensor:
    re, im = _CODE_PLANES[:, codes].reshape((2,) + shape)
    return Tensor(re, im)


def _confirmed(queries: _Table, table: _Table):
    """Ids of the query and table rows whose exact tails sum to zero,
    yielded a chunk of queries at a time: ascending query rows, and
    ascending table rows within a query.  Candidates are the rows whose
    keys sum to zero mod 2**64, found by matching the sorted table keys
    against the sorted negated query keys; each is confirmed with
    `_tails` only when its chunk is read.  Equal tails give equal keys,
    so none is missed."""
    if not len(table.keys):  # the filter can empty a table: binary 6
        return
    order = np.argsort(table.keys)
    keys = table.keys[order]
    with np.errstate(over="ignore"):
        wanted = np.negative(queries.keys)
    if queries is table:
        # -x mod 2**64 keeps zero keys first and reverses the others
        zeros = int(np.searchsorted(keys, np.uint64(0), "right"))
        asked = np.concatenate((order[:zeros], order[zeros:][::-1]))
    else:
        asked = np.argsort(wanted)
    wanted = wanted[asked]
    lo = np.searchsorted(keys, wanted)
    hit = np.flatnonzero(keys[np.minimum(lo, len(keys) - 1)] == wanted)
    runs = np.searchsorted(keys, wanted[hit], "right") - lo[hit]
    hits = asked[hit]
    by_query = np.argsort(hits)
    hits, lo, runs = (queries.rows[hits[by_query]], lo[hit][by_query],
                      runs[by_query])
    ids = table.rows[order]
    width = max(queries.width, table.width)
    for at in range(0, len(hits), _CONFIRM_QUERIES):
        part = slice(at, at + _CONFIRM_QUERIES)
        q = np.repeat(hits[part], runs[part])
        start = np.cumsum(runs[part]) - runs[part]
        r = ids[np.arange(len(q)) + np.repeat(lo[part] - start, runs[part])]
        tails = np.repeat(queries.tails(hits[part], width), runs[part], axis=0)
        ok = ~(tails + table.tails(r, width)).any(axis=1)
        q, r = q[ok], r[ok]
        # argsort leaves equal keys in any order: sort each query's rows
        yield q, r[np.lexsort((r, q))]


def _found(queries: _Table, table: _Table, nodes: int) -> SearchOutcome:
    """FOUND with the members of the first query row whose tails cancel
    a table row's and of the smallest such table row; EXHAUSTED when no
    query row has one."""
    for q, r in _confirmed(queries, table):
        if len(q):
            arrays = queries.members(q[0]) + table.members(r[0])
            return SearchOutcome(SearchStatus.FOUND, arrays, nodes)
    return SearchOutcome(SearchStatus.EXHAUSTED, None, nodes)


def _check_budget(budget: int | None) -> None:
    """Refuse a negative budget: None is the only "no budget"."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, not {budget}")


def _dfs_outcome(status: int, codes, nodes: int) -> SearchOutcome:
    """Outcome of a DFS kernel run: status 0 found (with one code row
    per member), 1 exhausted, otherwise budget exceeded."""
    if status == 0:
        arrays = tuple(_codes_to_tensor(c, (len(c),)) for c in codes)
        return SearchOutcome(SearchStatus.FOUND, arrays, nodes)
    if status == 1:
        return SearchOutcome(SearchStatus.EXHAUSTED, None, nodes)
    return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, None, nodes)


def count_pairs_1d(n: int, alphabet: Alphabet, fix_first: bool = True) -> int:
    """Count complementary pair solutions of length n, for small n."""
    (n,) = _validate_shape((n,))
    table = _Table(((n,),), _phase_count(alphabet), fix_first, 2 * n)
    return sum(len(q) for q, _ in _confirmed(table, table))


def search_pair_arrays(shape: tuple[int, ...], alphabet: Alphabet,
                       budget: int | None = None) -> SearchOutcome:
    """Search for a complementary pair over `shape`.

    Small instances run the exhaustive meet-in-the-middle pass (result
    is the lexicographically smallest normalized pair) when the budget
    covers its nodes, the code space counted on both sides; larger
    1-D instances, or a smaller budget, run the pruned depth-first
    search, which returns its first find in a deterministic order.  A
    multidimensional space beyond the table cap is out of reach:
    ShapeMismatch, unless a budget below its size stops it first; a
    smaller multidimensional one stops at a budget below its nodes.  A
    negative budget is a ValueError, and a shape without dimensions or
    with one below 1 a ShapeMismatch.
    """
    _check_budget(budget)
    phases = _phase_count(alphabet)
    shape = _validate_shape(shape)
    n = math.prod(shape)
    if n == 1:
        if budget == 0:
            return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, None, 0)
        one = Tensor.unit(shape)
        return SearchOutcome(SearchStatus.FOUND, (one, one), 1)
    space = phases ** (n - 1)
    # the table counts its code space twice, as queries and as the table
    if space <= _MITM_CAP and (budget is None or budget >= 2 * space):
        table = _Table((shape,), phases, weight=2 * n)
        return _found(table, table, 2 * space)
    if len(shape) != 1:
        if space > _MITM_CAP and (budget is None or budget >= space):
            raise ShapeMismatch(
                f"a pair search over {shape} tabulates {space} rows, over "
                f"the cap of {_MITM_CAP}, and the depth-first search is 1-D only")
        return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, None, 0)
    status, a_codes, b_codes, nodes = _dfskernels.run_pair_dfs(
        n, phases, -1 if budget is None else int(budget)
    )
    return _dfs_outcome(status, (a_codes, b_codes), nodes)


def search_base_arrays(m: int, budget: int | None = None) -> SearchOutcome:
    """Search for binary sequences A,B (length m+1), C,D (length m)
    whose four autocorrelations sum to (4m+2) * delta.

    The (A, B) and (C, D) halves are tabulated separately and matched
    on the keys of their negated autocorrelation tails, each match
    confirmed exactly; first match in lexicographic order over
    (A, B, C, D).  A negative budget is a ValueError.
    """
    _check_budget(budget)
    if m < 1:
        raise ValueError("m must be at least 1")
    p = m + 1
    projected = 2 ** (2 * p - 2) + 2 ** (2 * m - 2)
    if 2 ** (2 * p - 2) > _MITM_CAP or (budget is not None
                                        and budget < projected):
        status, seqs, nodes = _dfskernels.run_base_dfs(
            m, -1 if budget is None else int(budget)
        )
        return _dfs_outcome(status, seqs, nodes)

    # the (C, D) rows have no shift m: zero there when confirmed, and
    # nothing in their keys
    ab, cd = (_Table(((k,), (k,)), 2, weight=4 * m + 2, swap=True)
              for k in (p, m))
    return _found(ab, cd, projected)
