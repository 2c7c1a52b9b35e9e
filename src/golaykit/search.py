"""Exhaustive searches for complementary seed pairs and quads.

Two engines share the work:

* a meet-in-the-middle table for small entry counts.  One routine,
  `_table`, enumerates every normalized tuple of members in
  lexicographic order and tabulates their summed autocorrelation tails
  (each member laid out in the strides of 2s - 1, so a positive shift
  is a flat offset); one sorted-key match, `_match`, finds or counts
  the rows whose negated tails are in a table.  A pair search matches
  one table against its own negation, a base-sequence search the
  (A, B) table against the (C, D) table, and `count_pairs_1d` counts
  the matches.  Exhaustive, and returns the lexicographically smallest
  solution.
* a depth-first ends-inward assignment search with partial-sum pruning
  for larger 1-D instances, written as plain Python (`_dfskernels`).

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
from .tensor import Alphabet, Tensor, _layout

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


def _enumerate_codes(n: int, phases: int, fix_first: bool) -> np.ndarray:
    """All code rows of length n in lexicographic order; with
    fix_first, only those whose first code is 0."""
    free = n - fix_first
    codes = np.zeros((phases**free, n), dtype=np.int8)
    grid = codes.reshape((phases,) * free + (n,))
    digits = np.arange(phases, dtype=np.int8)
    for k in range(free):
        grid[..., n - free + k] = digits.reshape((phases,) + (1,) * (free - 1 - k))
    return codes


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


def _table(shapes, phases: int, fix_first: bool = True, width: int | None = None):
    """One row per tuple of code rows, one member of each shape in
    `shapes`, in lexicographic order (first member major): (tails,
    members).  tails holds the members' summed autocorrelation tails,
    zero-padded to `width` columns (default: the widest member's), and
    members(r) gives row r's members as Tensors."""
    codes = [_enumerate_codes(math.prod(s), phases, fix_first) for s in shapes]
    singles = [_tails(c, s) for c, s in zip(codes, shapes)]
    counts = [len(c) for c in codes]
    width = max(t.shape[1] for t in singles) if width is None else width
    tails = np.zeros(counts + [width], dtype=np.int16)
    for k, t in enumerate(singles):
        axes = [1] * len(counts) + [t.shape[1]]
        axes[k] = counts[k]
        tails[..., :t.shape[1]] += t.reshape(axes)

    def members(r: int) -> tuple[Tensor, ...]:
        rows = np.unravel_index(r, counts)
        return tuple(_codes_to_tensor(c[i], s)
                     for c, i, s in zip(codes, rows, shapes))

    return tails.reshape(-1, width), members


def _codes_to_tensor(codes: np.ndarray, shape: tuple[int, ...]) -> Tensor:
    re, im = _CODE_PLANES[:, codes].reshape((2,) + shape)
    return Tensor(re, im)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row, so that whole rows sort and compare."""
    rows = np.ascontiguousarray(rows)
    return rows.view(
        np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    ).ravel()


def _match(table: np.ndarray, queries: np.ndarray):
    """(count, first) per query row: how many table rows equal it, and
    the smallest index of one (meaningless where count is 0)."""
    # return_index gives each key's first, so smallest, table index
    keys, smallest, runs = np.unique(_row_keys(table), return_index=True,
                                     return_counts=True)
    targets = _row_keys(queries)
    at = np.minimum(np.searchsorted(keys, targets), len(keys) - 1)
    return np.where(keys[at] == targets, runs[at], 0), smallest[at]


def _found(queries, query_members, table, table_members,
           nodes: int) -> SearchOutcome:
    """FOUND with the members of the first query row that equals a
    table row and of the smallest such table row; EXHAUSTED when no
    query row equals one."""
    count, first = _match(table, queries)
    hits = np.flatnonzero(count)
    if not len(hits):
        return SearchOutcome(SearchStatus.EXHAUSTED, None, nodes)
    q = hits[0]
    arrays = query_members(q) + table_members(first[q])
    return SearchOutcome(SearchStatus.FOUND, arrays, nodes)


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
    tails, _ = _table(((n,),), _phase_count(alphabet), fix_first)
    count, _ = _match(tails, -tails)
    return int(count.sum())


def search_pair_arrays(shape: tuple[int, ...], alphabet: Alphabet,
                       budget: int | None = None) -> SearchOutcome:
    """Search for a complementary pair over `shape`.

    Small instances run the exhaustive meet-in-the-middle pass (result
    is the lexicographically smallest normalized pair); larger 1-D
    instances run the pruned depth-first search, which returns its
    first find in a deterministic order.  A multidimensional space
    beyond the table cap is out of reach: ShapeMismatch, unless a
    budget below its size stops it first.
    """
    phases = _phase_count(alphabet)
    shape = tuple(shape)
    n = math.prod(shape)
    if n == 1:
        one = Tensor.unit(shape)
        return SearchOutcome(SearchStatus.FOUND, (one, one), 1)
    space = phases ** (n - 1)
    limit = _MITM_CAP if budget is None else min(_MITM_CAP, budget)
    if space <= limit:
        tails, members = _table((shape,), phases)
        return _found(-tails, members, tails, members, 2 * len(tails))
    if len(shape) != 1:
        if budget is None or budget >= space:
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
    on negated autocorrelation tails; first match in lexicographic
    order over (A, B, C, D).
    """
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

    # tails cover shifts 1..m (the longer pair's range); the shorter
    # pair's rows are zero at shift m
    ab_tails, ab_members = _table(((p,), (p,)), 2)
    cd_tails, cd_members = _table(((m,), (m,)), 2, width=ab_tails.shape[1])
    return _found(-ab_tails, ab_members, cd_tails, cd_members,
                  len(ab_tails) + len(cd_tails))
