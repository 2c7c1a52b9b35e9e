"""Depth-first assignment kernels for the larger seed searches.

Both kernels assign entries ends-inward: level t fixes positions t-1
and len-t of each sequence, which completes the joint autocorrelation
sum at the largest open shift for an exact zero test and gives usable
magnitude/parity bounds on the shifts just below it.  A second family
of cuts tracks the partial polynomial evaluations at the four unit
points 1, -1, i, -i, where any complementary pair must satisfy
|A(z)|^2 + |B(z)|^2 = 2n exactly; the unknown entries can only move an
evaluation within an L1 ball of matching parity, which bounds the
reachable values on both sides.  Entry codes are 0..3 for 1, -1, i,
-i; arithmetic runs on (re, im) int tables.

Plain Python over lists and ints: the state is a handful of short
lists, so numpy scalars would only add overhead to every node.
"""
from __future__ import annotations

import numpy as np

# entry codes 0..3 stand for 1, -1, i, -i
CODE_RE = (1, -1, 0, 0)
CODE_IM = (0, 0, 1, -1)
# conjugation as a code permutation: 1->1, -1->-1, i->-i, -i->i
CODE_CONJ = (0, 1, 3, 2)
# unit multiplication as a code table
CODE_MUL = ((0, 1, 2, 3),
            (1, 0, 3, 2),
            (2, 3, 1, 0),
            (3, 2, 0, 1))
# code of z**j at the unit points z = 1, -1, i, -i, indexed by j % 4
_UNIT_POWER = ((0, 0, 0, 0),
               (0, 1, 0, 1),
               (0, 2, 1, 3),
               (0, 3, 1, 2))

# number of nearly-complete shifts bounded at every node
_WINDOW = 3


def _unit_terms(code: int, r: int) -> tuple[int, ...]:
    """(re, im) of the unit `code` times z**r at each unit point, flat."""
    out = []
    for powers in _UNIT_POWER:
        u = CODE_MUL[code][powers[r]]
        out += (CODE_RE[u], CODE_IM[u])
    return tuple(out)


# _TERMS[code][j % 4]: what an entry at position j adds to the four
# unit-point evaluations of its sequence
_TERMS = tuple(tuple(_unit_terms(c, r) for r in range(4)) for c in range(4))


def _slot_image(codes: list[int], last: int, rev: int, conj: int) -> int:
    """Packed image of one member's level slots (lo first) under
    reverse-conjugation renormalized by its last entry, then
    conjugation; base-4 digits, most significant first."""
    if rev:
        codes = [CODE_MUL[last][CODE_CONJ[x]] for x in reversed(codes)]
    if conj:
        codes = [CODE_CONJ[x] for x in codes]
    packed = 0
    for x in codes:
        packed = packed * 4 + x
    return packed


# _IMAGE[wide][last][rev][conj][packed slots] -> packed image, where
# `wide` marks a level with two slots per member
_IMAGE = tuple(
    tuple(
        tuple(
            tuple(
                tuple(_slot_image([v // 4, v % 4] if width == 2 else [v],
                                  last, rev, conj)
                      for v in range(4 ** width))
                for conj in (0, 1))
            for rev in (0, 1))
        for last in range(4))
    for width in (1, 2))

# group element g as (conj both, rev-conj A, rev-conj B, swap) bits
_GROUP = tuple((g & 1, g >> 1 & 1, g >> 2 & 1, g >> 3) for g in range(16))


def _min_reach_sq(s_re: int, s_im: int, k: int) -> int:
    """Smallest |S + g|^2 over g with |g|_1 <= k and parity of k.

    The unknown part of an evaluation is a sum of k units, whose
    reachable set is exactly that lattice diamond.
    """
    l1 = abs(s_re) + abs(s_im)
    d = l1 - k
    if d > 0:
        half = d // 2
        return half * half + (d - half) * (d - half)
    return (l1 + k) % 2


def _max_reach_sq(s_re: int, s_im: int, k: int) -> int:
    """Largest |S + g|^2 over the same reachable set."""
    a, b = abs(s_re), abs(s_im)
    return (max(a, b) + k) ** 2 + min(a, b) ** 2


def _joint_product(pi: int, pj: int, part: tuple[int, ...]) -> int:
    """`part` (CODE_RE or CODE_IM) of a_i conj(a_j) + b_i conj(b_j) for
    positions with joint codes pi = 4 a_i + b_i and pj = 4 a_j + b_j."""
    return (part[CODE_MUL[pi // 4][CODE_CONJ[pj // 4]]]
            + part[CODE_MUL[pi % 4][CODE_CONJ[pj % 4]]])


_JOINT_RE = tuple(tuple(_joint_product(i, j, CODE_RE) for j in range(16))
                  for i in range(16))
_JOINT_IM = tuple(tuple(_joint_product(i, j, CODE_IM) for j in range(16))
                  for i in range(16))


def _pair_shift_sum(joint, filled, n, delta):
    """Partial joint autocorrelation at `delta` over the known terms.

    Returns (re, im, unknown_term_count); a term at index i needs
    positions i and i+delta of the same sequence.
    """
    s_re = s_im = unknown = 0
    for i in range(n - delta):
        j = i + delta
        if filled[i] and filled[j]:
            s_re += _JOINT_RE[joint[i]][joint[j]]
            s_im += _JOINT_IM[joint[i]][joint[j]]
        else:
            unknown += 2
    return s_re, s_im, unknown


def _pair_dfs_kernel(n: int, phases: int, budget: int):
    """Ends-inward DFS for a normalized complementary pair.

    Solutions come in orbits under four commuting-up-to-swap unit maps:
    conjugating both sequences (bit 0), reverse-conjugating either
    member with renormalization (bits 1 and 2; this preserves each
    member's own autocorrelation), and swapping the two members
    (bit 3).  A node is cut when its assigned prefix is strictly
    lex-larger than its image under any of the 15 non-identity
    elements, so only the lex-least orbit member survives and
    exhaustion is still a proof of nonexistence.  Returns
    (status, a_codes, b_codes, nodes) with status 0 found,
    1 exhausted, 2 budget exceeded (after exactly `budget` nodes).
    """
    h = (n + 1) // 2
    a, b = [0] * n, [0] * n
    joint = [0] * n  # 4 a[i] + b[i]
    filled = [0] * n
    # level t places position t-1 (position 0 is fixed, so not at t = 1)
    # and position n-t (unless that is the same position)
    slots = [()]
    for t in range(1, h + 1):
        lo, hi = t - 1, n - t
        slots.append(((lo,) if t > 1 else ()) + ((hi,) if hi != lo else ()))
    combo = [0] * (h + 2)
    # per level, the group elements whose image prefix still equals the
    # node prefix; the others are strictly greater and can no longer cut
    tied: list = [()] * (h + 2)
    tied[1] = range(1, 16)

    # partial evaluations at the unit points, (re, im) per point, per
    # member; position 0 of both sequences contributes +1 everywhere
    ev_a = [1, 0] * 4
    ev_b = [1, 0] * 4

    def move(pos, sign):
        ta, tb = _TERMS[a[pos]][pos % 4], _TERMS[b[pos]][pos % 4]
        for k in range(8):
            ev_a[k] += sign * ta[k]
            ev_b[k] += sign * tb[k]

    def place(pos, ca, cb):
        a[pos], b[pos] = ca, cb
        joint[pos] = 4 * ca + cb
        filled[pos] = 1
        move(pos, 1)

    def undo(pos):
        # the codes stay behind; only the fill and the evaluations go
        filled[pos] = 0
        move(pos, -1)

    # normalized first entries
    filled[0] = 1

    two_n = 2 * n
    nodes = 0
    t = 1
    while t >= 1:
        level = slots[t]
        wide = len(level) == 2
        if combo[t] >= phases ** (4 if wide else 2):
            # this level is spent; the parent's placement (left in
            # place when it descended) is undone exactly once here
            t -= 1
            if t >= 1:
                for pos in slots[t]:
                    undo(pos)
                combo[t] += 1
            continue

        c = combo[t]
        # stop before a node past the budget (-1: none), so nodes <= budget
        if nodes == budget:
            return 2, a, b, nodes
        nodes += 1

        # decode most significant first: one (a, b) slot, or
        # (a_lo, a_hi, b_lo, b_hi) on levels with two slots
        if wide:
            ca = (c // phases ** 3 % phases, c // phases ** 2 % phases)
            cb = (c // phases % phases, c % phases)
            pa, pb = ca[0] * 4 + ca[1], cb[0] * 4 + cb[1]
        else:
            ca, cb = (c // phases,), (c % phases,)
            pa, pb = ca[0], cb[0]

        # orbit prefix cuts.  Rev-conj renormalizes by the member's
        # assigned last entry, so every image coordinate is level-local;
        # on level 1 it maps that last entry to itself and is skipped.
        digits = 16 if wide else 4
        packed = pa * digits + pb
        rev = t > 1
        img_a = _IMAGE[wide][a[n - 1]]
        img_b = _IMAGE[wide][b[n - 1]]
        still, cut = [], False
        for g in tied[t]:
            conj, rev_a, rev_b, swap = _GROUP[g]
            ia = img_a[rev and rev_a][conj][pa]
            ib = img_b[rev and rev_b][conj][pb]
            q = ib * digits + ia if swap else ia * digits + ib
            if q < packed:
                cut = True
                break
            if q == packed:
                still.append(g)
        if cut:
            combo[t] += 1
            continue

        # place this level, updating the four-point evaluations
        for pos, x, y in zip(level, ca, cb):
            place(pos, x, y)

        # the newly completed shift must vanish exactly
        delta = n - t
        s_re, s_im, unknown = _pair_shift_sum(joint, filled, n, delta)
        good = unknown == 0 and s_re == 0 and s_im == 0

        # each unit-point evaluation pair must be able to reach
        # |A|^2 + |B|^2 = 2n with the k entries each member still lacks
        k = n - 2 * t
        if good and k > 0:
            for e in range(0, 8, 2):
                ra, ia, rb, ib = ev_a[e], ev_a[e + 1], ev_b[e], ev_b[e + 1]
                if (_min_reach_sq(ra, ia, k) + _min_reach_sq(rb, ib, k) > two_n
                        or _max_reach_sq(ra, ia, k)
                        + _max_reach_sq(rb, ib, k) < two_n):
                    good = False
                    break

        if good:
            # magnitude and parity bounds on the nearly complete shifts
            for dw in range(delta - 1, max(delta - 1 - _WINDOW, 0), -1):
                s_re, s_im, unknown = _pair_shift_sum(joint, filled, n, dw)
                mag = abs(s_re) + abs(s_im)
                if mag > unknown or (mag + unknown) % 2 == 1:
                    good = False
                    break

        if good and t == h:
            # complete assignment: recheck every shift exactly
            if all(_pair_shift_sum(joint, filled, n, d) == (0, 0, 0)
                   for d in range(1, n)):
                return 0, a, b, nodes

        if good and t < h:
            t += 1
            tied[t] = still
            combo[t] = 0
            continue

        # undo the evaluations and fills, then advance
        for pos in level:
            undo(pos)
        combo[t] += 1

    return 1, a, b, nodes


def run_pair_dfs(n: int, phases: int, budget: int):
    """Status, code arrays and node count for the pair search."""
    status, a, b, nodes = _pair_dfs_kernel(int(n), int(phases), int(budget))
    return status, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), nodes


def _base_shift_sum(re, filled, seq_len, start, delta):
    """Partial joint autocorrelation at `delta` over all four sequences."""
    s = unknown = 0
    for ln, base in zip(seq_len, start):
        for i in range(base, base + ln - delta):
            if filled[i] and filled[i + delta]:
                s += re[i] * re[i + delta]
            else:
                unknown += 1
    return s, unknown


def _reaches(ev, unk, target: int) -> bool:
    """Whether four partial entry sums, each still free to move by its
    count of unknown +-1 entries, can reach sum-of-squares `target`."""
    lo_sum = hi_sum = 0
    for e, u in zip(ev, unk):
        d = abs(e) - u
        if d > 0:
            lo_sum += d * d
        hi_sum += (abs(e) + u) ** 2
    return lo_sum <= target <= hi_sum


def _base_dfs_kernel(m: int, budget: int):
    """Ends-inward DFS for four base sequences of index m.

    The two long sequences have length m+1 and the two short ones
    length m; all entries are +-1, first entries fixed to +1, and the
    four autocorrelations must cancel at every positive shift.  The
    plain and alternating entry sums of the four sequences must be able
    to reach sum-of-squares 4m+2, which prunes on both sides.  Returns
    (status, flat_codes, nodes) with flat_codes = A|B|C|D.
    """
    p = m + 1
    target = 4 * m + 2
    seq_len = (p, p, m, m)
    start = (0, p, 2 * p, 2 * p + m)
    total = 2 * p + 2 * m

    codes = [0] * total
    re = [0] * total
    filled = [0] * total
    for s in start:
        re[s] = filled[s] = 1

    levels = (p + 1) // 2
    # per-level slots (position, sequence, sign at z = -1), fixed by
    # geometry alone; first entries are fixed, so never a slot
    slots = [()]
    for t in range(1, levels + 1):
        level = []
        for k in range(4):
            lo, hi = t - 1, seq_len[k] - t
            if lo > hi:
                continue
            for i in sorted({lo, hi}):
                if i > 0:
                    level.append((start[k] + i, k, -1 if i % 2 else 1))
        slots.append(tuple(level))

    combo = [0] * (levels + 2)

    # per-sequence partial sums at z=1 and z=-1 plus unknown counts
    ev_p = [1] * 4
    ev_m = [1] * 4
    unk = [ln - 1 for ln in seq_len]

    def place(slot, bit):
        pos, sq, alt = slot
        codes[pos] = bit
        re[pos] = CODE_RE[bit]
        filled[pos] = 1
        ev_p[sq] += re[pos]
        ev_m[sq] += alt * re[pos]
        unk[sq] -= 1

    def undo(slot):
        pos, sq, alt = slot
        filled[pos] = 0
        ev_p[sq] -= re[pos]
        ev_m[sq] -= alt * re[pos]
        unk[sq] += 1

    nodes = 0
    t = 1
    while t >= 1:
        level = slots[t]
        n_slots = len(level)
        if combo[t] >= 1 << n_slots:
            # this level is spent; undo the parent's placement, which
            # was left in place when it descended
            t -= 1
            if t >= 1:
                for slot in slots[t]:
                    undo(slot)
                combo[t] += 1
            continue

        c = combo[t]
        if nodes == budget:
            return 2, codes, nodes
        nodes += 1

        for k, slot in enumerate(level):
            place(slot, (c >> (n_slots - 1 - k)) & 1)

        # the newly completed shift must vanish exactly
        delta = p - t
        good = True
        if delta >= 1:
            s, unknown = _base_shift_sum(re, filled, seq_len, start, delta)
            good = unknown == 0 and s == 0

        # two-sided reachability of the sum-of-squares target at the
        # evaluation points z = 1 and z = -1
        good = (good and _reaches(ev_p, unk, target)
                and _reaches(ev_m, unk, target))

        if good:
            for dw in range(delta - 1, max(delta - 1 - _WINDOW, 0), -1):
                s, unknown = _base_shift_sum(re, filled, seq_len, start, dw)
                if abs(s) > unknown or (abs(s) + unknown) % 2 == 1:
                    good = False
                    break

        if good and t == levels:
            if all(_base_shift_sum(re, filled, seq_len, start, d) == (0, 0)
                   for d in range(1, p)):
                return 0, codes, nodes

        if good and t < levels:
            t += 1
            combo[t] = 0
            continue

        for slot in level:
            undo(slot)
        combo[t] += 1

    return 1, codes, nodes


def run_base_dfs(m: int, budget: int):
    """Status, the four code arrays and node count for the base search."""
    status, flat, nodes = _base_dfs_kernel(int(m), int(budget))
    p = m + 1
    cuts = (0, p, 2 * p, 2 * p + m, len(flat))
    seqs = tuple(np.array(flat[lo:hi], dtype=np.int64)
                 for lo, hi in zip(cuts, cuts[1:]))
    return status, seqs, nodes
