"""Exhaustive searches for complementary seed pairs and quads.

Two engines share the work:

* a vectorized meet-in-the-middle pass for small entry counts: every
  normalized candidate's autocorrelation tail is tabulated, and a
  partner exists iff the negated tail is in the table.  Exhaustive and
  returns the lexicographically smallest solution.
* a depth-first ends-inward assignment search with partial-sum pruning
  for larger lengths, written as plain Python (`_dfskernels`).

Normalization fixes the first entry of each sequence to 1 (a global
phase per member, losing no solutions up to equivalence).  Entry order
everywhere is 1, -1, i, -i.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _dfskernels
from .tensor import Alphabet, Tensor

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


def _enumerate_codes(n_free: int, phases: int) -> np.ndarray:
    """All code rows of length n_free in lexicographic order."""
    count = phases**n_free
    v = np.arange(count, dtype=np.int64)
    cols = []
    for p in range(n_free):
        cols.append((v // phases ** (n_free - 1 - p)) % phases)
    if cols:
        return np.stack(cols, axis=1).astype(np.int8)
    return np.zeros((1, 0), dtype=np.int8)


def _codes_to_planes(codes: np.ndarray, fix_first: bool):
    """Entry planes (N, n) from code rows, optionally prepending code 0."""
    if fix_first:
        lead = np.zeros((codes.shape[0], 1), dtype=np.int8)
        codes = np.concatenate([lead, codes], axis=1)
    return tuple(_CODE_PLANES[:, codes])


def _shift_list(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Strictly positive half of the shift lattice, lexicographic order."""
    out = []
    for d in np.ndindex(*[2 * s - 1 for s in shape]):
        delta = tuple(int(x) - (s - 1) for x, s in zip(d, shape))
        if any(delta) and delta > tuple([0] * len(shape)):
            out.append(delta)
    return out


def _batch_autocorr_tail(re: np.ndarray, im: np.ndarray,
                         shape: tuple[int, ...]) -> np.ndarray:
    """Stacked R(delta) components over the positive shifts, per row.

    Input planes are (N, prod(shape)); output is (N, 2*len(shifts))
    int16 with re/im interleaved per shift.
    """
    n_rows = re.shape[0]
    full = (n_rows,) + shape
    re_nd = re.reshape(full)
    im_nd = im.reshape(full)
    shifts = _shift_list(shape)
    out = np.empty((n_rows, 2 * len(shifts)), dtype=np.int16)
    for k, delta in enumerate(shifts):
        sl_hi = [slice(None)]
        sl_lo = [slice(None)]
        for d, s in zip(delta, shape):
            sl_hi.append(slice(max(0, d), s + min(0, d)))
            sl_lo.append(slice(max(0, -d), s + min(0, -d)))
        sl_hi, sl_lo = tuple(sl_hi), tuple(sl_lo)
        rh, ih = re_nd[sl_hi], im_nd[sl_hi]
        rl, il = re_nd[sl_lo], im_nd[sl_lo]
        axes = tuple(range(1, len(shape) + 1))
        out[:, 2 * k] = (rh * rl + ih * il).sum(axis=axes)
        out[:, 2 * k + 1] = (ih * rl - rh * il).sum(axis=axes)
    return out


def _codes_to_tensor(codes: np.ndarray, shape: tuple[int, ...]) -> Tensor:
    re, im = _CODE_PLANES[:, codes].reshape((2,) + shape)
    return Tensor(re, im)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row, so that whole rows sort and compare."""
    rows = np.ascontiguousarray(rows)
    return rows.view(
        np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    ).ravel()


def _first_match(table: np.ndarray, queries: np.ndarray):
    """(query index, table index) for the first query row that equals
    some table row, paired with the smallest such table row; None when
    no query row matches."""
    keyed = _row_keys(table)
    order = np.argsort(keyed, kind="stable")
    sorted_keys = keyed[order]
    targets = _row_keys(queries)
    pos = np.searchsorted(sorted_keys, targets)
    pos_clip = np.minimum(pos, len(sorted_keys) - 1)
    hit = sorted_keys[pos_clip] == targets
    if not np.any(hit):
        return None
    q = int(np.flatnonzero(hit)[0])
    # equal keys form one run from pos[q]; the stable sort keeps the
    # smallest table index first in it
    return q, int(order[pos[q]])


def _dfs_outcome(status: int, codes, nodes: int) -> SearchOutcome:
    """Outcome of a DFS kernel run: status 0 found (with one code row
    per member), 1 exhausted, otherwise budget exceeded."""
    if status == 0:
        arrays = tuple(_codes_to_tensor(c, (len(c),)) for c in codes)
        return SearchOutcome(SearchStatus.FOUND, arrays, nodes)
    if status == 1:
        return SearchOutcome(SearchStatus.EXHAUSTED, None, nodes)
    return SearchOutcome(SearchStatus.BUDGET_EXCEEDED, None, nodes)


def _mitm_pair(shape: tuple[int, ...], phases: int):
    """Exhaustive pair search over one shape; both members normalized.

    Returns (found_codes_a, found_codes_b, enumerated) with None codes
    when no pair exists.
    """
    n = int(np.prod(shape))
    codes = _enumerate_codes(n - 1, phases)
    re, im = _codes_to_planes(codes, fix_first=True)
    tails = _batch_autocorr_tail(re, im, shape)
    enumerated = 2 * codes.shape[0]
    match = _first_match(tails, -tails)
    if match is None:
        return None, None, enumerated
    a_idx, b_idx = match
    lead = np.zeros(1, dtype=np.int8)
    code_a = np.concatenate([lead, codes[a_idx]])
    code_b = np.concatenate([lead, codes[b_idx]])
    return code_a, code_b, enumerated


def _mitm_count(shape: tuple[int, ...], phases: int, fix_first: bool) -> int:
    """Number of (A, B) pair solutions under the chosen normalization."""
    n = int(np.prod(shape))
    codes = _enumerate_codes(n - (1 if fix_first else 0), phases)
    re, im = _codes_to_planes(codes, fix_first)
    tails = _batch_autocorr_tail(re, im, shape)
    uniq, counts = np.unique(_row_keys(tails), return_counts=True)
    targets = _row_keys(-tails)
    pos = np.searchsorted(uniq, targets)
    pos_clip = np.minimum(pos, len(uniq) - 1)
    hit = uniq[pos_clip] == targets
    return int(np.sum(counts[pos_clip[hit]]))


def count_pairs_1d(n: int, alphabet: Alphabet, fix_first: bool = True) -> int:
    """Count complementary pair solutions of length n, for small n."""
    phases = _phase_count(alphabet)
    return _mitm_count((n,), phases, fix_first)


def search_pair_arrays(shape: tuple[int, ...], alphabet: Alphabet,
                       budget: int | None = None) -> SearchOutcome:
    """Search for a complementary pair over `shape`.

    Small instances run the exhaustive meet-in-the-middle pass (result
    is the lexicographically smallest normalized pair); larger 1-D
    instances run the pruned depth-first search, which returns its
    first find in a deterministic order.
    """
    phases = _phase_count(alphabet)
    n = int(np.prod(shape))
    if n == 1:
        one = Tensor.unit(tuple(shape))
        return SearchOutcome(SearchStatus.FOUND, (one, one), 1)
    space = phases ** (n - 1)
    limit = _MITM_CAP if budget is None else min(_MITM_CAP, budget)
    if space <= limit:
        code_a, code_b, enumerated = _mitm_pair(tuple(shape), phases)
        if code_a is None:
            return SearchOutcome(SearchStatus.EXHAUSTED, None, enumerated)
        return SearchOutcome(
            SearchStatus.FOUND,
            (_codes_to_tensor(code_a, tuple(shape)),
             _codes_to_tensor(code_b, tuple(shape))),
            enumerated,
        )
    if len(shape) != 1:
        # multidimensional spaces beyond the table cap are out of reach
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
    # pair's rows are zero beyond their own range
    ab_codes, ab_tails = _joint_tails(p, m)
    cd_codes, cd_tails = _joint_tails(m, m)
    enumerated = ab_codes.shape[0] + cd_codes.shape[0]
    match = _first_match(cd_tails, -ab_tails)
    if match is None:
        return SearchOutcome(SearchStatus.EXHAUSTED, None, enumerated)
    ab_idx, cd_idx = match
    a_code, b_code = ab_codes[ab_idx, :p], ab_codes[ab_idx, p:]
    c_code, d_code = cd_codes[cd_idx, :m], cd_codes[cd_idx, m:]
    return SearchOutcome(
        SearchStatus.FOUND,
        (
            _codes_to_tensor(a_code, (p,)),
            _codes_to_tensor(b_code, (p,)),
            _codes_to_tensor(c_code, (m,)),
            _codes_to_tensor(d_code, (m,)),
        ),
        enumerated,
    )


def _joint_tails(length: int, tail_shifts: int):
    """Codes and summed-autocorrelation tails for all normalized
    binary (X, Y) pairs of one length.

    Returns codes (N, 2*length) and tails (N, 2*tail_shifts).
    """
    single = _enumerate_codes(length - 1, 2)
    re, im = _codes_to_planes(single, fix_first=True)
    tails = _batch_autocorr_tail(re, im, (length,))
    n_single = single.shape[0]
    # joint (X, Y) rows in lexicographic order: X-major
    xi = np.repeat(np.arange(n_single), n_single)
    yi = np.tile(np.arange(n_single), n_single)
    joint_tails_full = (tails[xi].astype(np.int16) + tails[yi].astype(np.int16))
    lead = np.zeros((n_single, 1), dtype=np.int8)
    full_codes = np.concatenate([lead, single], axis=1)
    joint_codes = np.concatenate([full_codes[xi], full_codes[yi]], axis=1)
    k = tail_shifts
    width = 2 * k
    out = np.zeros((joint_tails_full.shape[0], width), dtype=np.int16)
    take = min(width, joint_tails_full.shape[1])
    out[:, :take] = joint_tails_full[:, :take]
    return joint_codes, out
