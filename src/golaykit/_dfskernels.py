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

A node costs only what its own placements add.  After level t the
assigned positions are [0, t) and [len-t, len), so geometry alone
fixes, per level and checked shift, which terms are known, how many
are unknown, and which pairs of positions the level completes; each
call works these out once.  Each level keeps its own state: the
evaluations (or +-1 entry sums) of the node it descended from and
the sums of that node's window shifts, which are the child level's
completed shift and upper window, so a descent sums only the lowest
window shift afresh and a child adds only its new terms.  A child's
evaluations are made only once it passes the shift tests, and
backtracking drops a level with nothing to undo.  The pair kernel's
orbit cuts for a level depend only on the group elements still tied,
the level's width and the assigned last entries, so each such table
is made once per call.  Levels are generators on an explicit stack,
so depth is not bounded by the recursion limit.  The kernels are plain
Python: a node touches a few ints, where numpy scalars would only add
overhead.
"""
from __future__ import annotations

import itertools

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


def _ends(ln: int, t: int) -> tuple[int, int]:
    """(a, b) such that a sequence of length ln is assigned on [0, a)
    and [b, ln) after level t; level 0 is its fixed first entry."""
    a = min(max(t, 1), ln)
    return a, max(ln - t, a)


def _placed(ln: int, t: int) -> list[int]:
    """The positions of a sequence of length ln that level t assigns,
    ascending: t-1 and ln-t, unless assigned already."""
    a0, b0 = _ends(ln, t - 1)
    a1, b1 = _ends(ln, t)
    return [*range(a0, min(a1, b0)), *range(max(b1, a0), b0)]


def _known(ln: int, t: int, d: int) -> list[range]:
    """The i whose term (i, i + d) in a sequence of length ln has both
    positions assigned after level t, as ranges."""
    a, b = _ends(ln, t)
    return [range(lo, hi) for lo, hi in ((0, a - d),
                                         (max(b - d, 0), min(a, ln - d)),
                                         (b, ln - d)) if lo < hi]


def _checks(spans, t: int, delta: int):
    """The shifts a node at level t checks over the sequences at `spans`
    ((flat start, length) each): delta, which level t completes, then
    the nearly complete ones below it.  Per shift d: d, its count of
    unknown terms, the flat ranges of the i whose term (i, i + d) was
    known after level t-1, and the pairs of flat positions that level t
    completes.  Geometry alone fixes all of them."""
    out = []
    for d in (delta, *range(delta - 1, max(delta - 1 - _WINDOW, 0), -1)):
        unknown, old, new = 0, [], set()
        for start, ln in spans:
            unknown += max(ln - d, 0) - sum(map(len, _known(ln, t, d)))
            old += [range(start + r.start, start + r.stop)
                    for r in _known(ln, t - 1, d)]
            a, b = _ends(ln, t)
            for q in _placed(ln, t):
                for i in (q - d, q):
                    j = i + d
                    if 0 <= i and j < ln and not a <= i < b and not a <= j < b:
                        new.add((start + i, start + j))
        out.append((d, unknown, old, sorted(new)))
    return out


def _depth_first(level, root) -> int:
    """Run a depth-first search whose levels are generators:
    level(t, *state) yields the state of each child it descends into
    and returns 0 (found), 2 (budget) or None (spent).  The stack holds
    one suspended level per depth, so no depth reaches the recursion
    limit.  Returns 0, 1 (exhausted) or 2."""
    stack = [level(1, *root)]
    while stack:
        try:
            stack.append(level(len(stack) + 1, *next(stack[-1])))
        except StopIteration as stop:
            if stop.value is not None:
                return stop.value
            stack.pop()
    return 1


def _pair_reaches(ev_a, ev_b, k: int, target: int) -> bool:
    """Whether every unit-point evaluation pair, each member still free
    to add k units, can reach |A|^2 + |B|^2 = `target`."""
    for e in range(0, 8, 2):
        ra, ia, rb, ib = ev_a[e], ev_a[e + 1], ev_b[e], ev_b[e + 1]
        if (_min_reach_sq(ra, ia, k) + _min_reach_sq(rb, ib, k) > target
                or _max_reach_sq(ra, ia, k) + _max_reach_sq(rb, ib, k)
                < target):
            return False
    return True


def _pair_shift_vanishes(joint, d: int) -> bool:
    """Whether the joint autocorrelation at shift d of a complete
    assignment with joint codes `joint` is exactly zero."""
    pairs = list(zip(joint, joint[d:]))
    return (sum(_JOINT_RE[x][y] for x, y in pairs) == 0
            and sum(_JOINT_IM[x][y] for x, y in pairs) == 0)


def _orbit_cuts(phases, tied, wide, rev, last_a, last_b):
    """Per child of a level, in order: None when some element of `tied`
    maps its packed slots strictly lex-below them, else the elements
    that tie.  Slots pack as base-4 digits, most significant first."""
    img_a, img_b = _IMAGE[wide][last_a], _IMAGE[wide][last_b]
    width = 2 if wide else 1
    digits = 4 ** width
    out = []
    for child in itertools.product(range(phases), repeat=2 * width):
        pa = pb = 0
        for x, y in zip(child[:width], child[width:]):
            pa, pb = pa * 4 + x, pb * 4 + y
        packed = pa * digits + pb
        still = []
        for g in tied:
            conj, rev_a, rev_b, swap = _GROUP[g]
            ia = img_a[rev and rev_a][conj][pa]
            ib = img_b[rev and rev_b][conj][pb]
            q = ib * digits + ia if swap else ia * digits + ib
            if q < packed:
                still = None
                break
            if q == packed:
                still.append(g)
        out.append(None if still is None else tuple(still))
    return out


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
    jre, jim = _JOINT_RE, _JOINT_IM
    two_n = 2 * n

    # level t places position t-1 (position 0 is fixed, so not at t = 1)
    # and position n-t (unless that is the same position).  Per level:
    # its positions, whether it has two slots per member, the entries
    # each member still lacks after it, what each member's codes there
    # add to its unit-point evaluations and its checked shifts.  A
    # level's children run through its codes most significant first:
    # one (a, b) slot, or (a_lo, a_hi, b_lo, b_hi) on levels with two.
    plan = [None]
    for t in range(1, h + 1):
        level = tuple(_placed(n, t))
        terms = {codes: tuple(map(sum, zip(*(_TERMS[x][pos % 4]
                                              for pos, x in zip(level, codes)))))
                 for codes in itertools.product(range(phases), repeat=len(level))}
        plan.append((level, len(level) == 2, n - 2 * t, terms,
                     _checks(((0, n),), t, n - t)))

    nodes = 0
    orbit_cuts = {}

    def children_of(t, ev_a, ev_b, tied, known):
        """The children at level t of a node with unit-point evaluations
        ev_a, ev_b, group elements `tied` and `known`, the sums of its
        window shifts."""
        nonlocal nodes
        level, wide, k, terms, checks = plan[t]
        width = 2 if wide else 1
        # the parent part of each checked shift: the parent's window
        # shifts are this level's completed shift and the window's
        # upper part, so only the lowest one is summed here
        parent = list(known)
        for d, _, old, _ in checks[len(known):]:
            s_re = s_im = 0
            for span in old:
                for i in span:
                    x, y = joint[i], joint[i + d]
                    s_re += jre[x][y]
                    s_im += jim[x][y]
            parent.append((s_re, s_im))
        (c_re, c_im), c_new = parent[0], checks[0][3]
        window = [(2 * unknown, s, new)
                  for (_, unknown, _, new), s in zip(checks[1:], parent[1:])]
        # orbit prefix cuts: rev-conj renormalizes by the member's
        # assigned last entry, so every image coordinate is level-local;
        # on level 1 it maps that last entry to itself and is skipped.
        # The cuts depend on nothing else, so each table is made once.
        key = (tied, wide, t > 1, a[n - 1], b[n - 1])
        cuts = orbit_cuts.get(key)
        if cuts is None:
            cuts = orbit_cuts[key] = _orbit_cuts(phases, *key)
        for child, still in zip(
                itertools.product(range(phases), repeat=2 * width), cuts):
            # stop before a node past the budget (-1: none)
            if nodes == budget:
                return 2
            nodes += 1
            if still is None:
                continue

            ca, cb = child[:width], child[width:]
            for pos, x, y in zip(level, ca, cb):
                a[pos], b[pos], joint[pos] = x, y, 4 * x + y

            # the newly completed shift must vanish exactly; it has no
            # unknown term
            s_re, s_im = c_re, c_im
            for i, j in c_new:
                x, y = joint[i], joint[j]
                s_re += jre[x][y]
                s_im += jim[x][y]
            if s_re or s_im:
                continue

            # magnitude and parity bounds on the nearly complete shifts
            sums = []
            for unknown, (s_re, s_im), new in window:
                for i, j in new:
                    x, y = joint[i], joint[j]
                    s_re += jre[x][y]
                    s_im += jim[x][y]
                mag = abs(s_re) + abs(s_im)
                if mag > unknown or (mag + unknown) % 2 == 1:
                    break
                sums.append((s_re, s_im))
            else:
                if t == h:
                    # complete assignment: recheck every shift exactly
                    if all(_pair_shift_vanishes(joint, d) for d in range(1, n)):
                        return 0
                    continue
                # the evaluations, made only now, must be able to reach
                # |A|^2 + |B|^2 = 2n at each unit point with the k
                # entries each member still lacks
                ea = [x + y for x, y in zip(ev_a, terms[ca])]
                eb = [x + y for x, y in zip(ev_b, terms[cb])]
                if _pair_reaches(ea, eb, k, two_n):
                    yield ea, eb, still, sums
        return None

    # position 0 of both sequences contributes +1 to every evaluation
    status = _depth_first(children_of, ([1, 0] * 4, [1, 0] * 4,
                                        tuple(range(1, 16)), ()))
    return status, a, b, nodes


def run_pair_dfs(n: int, phases: int, budget: int):
    """Status, code arrays and node count for the pair search."""
    status, a, b, nodes = _pair_dfs_kernel(int(n), int(phases), int(budget))
    return status, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), nodes


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
    spans = tuple(zip(start, seq_len))
    total = 2 * p + 2 * m

    codes = [0] * total
    re = [0] * total
    for s in start:
        re[s] = 1

    levels = (p + 1) // 2
    # per level: its slots (flat position, sequence, sign at z = -1),
    # the unknown entries of each sequence after it and its checked
    # shifts.  Level t places positions t-1 and len-t of each sequence;
    # first entries are fixed, so never a slot.  A level's children run
    # through its slots' bits most significant first.
    plan = [None]
    for t in range(1, levels + 1):
        slots = [(s0 + i, k, -1 if i % 2 else 1)
                 for k, (s0, ln) in enumerate(spans) for i in _placed(ln, t)]
        plan.append((slots, [b - a for a, b in (_ends(ln, t) for ln in seq_len)],
                     _checks(spans, t, p - t)))

    nodes = 0

    def children_of(t, ev_p, ev_m, known):
        """The children at level t of a node with entry sums ev_p, ev_m
        and `known`, the sums of its window shifts."""
        nonlocal nodes
        slots, unk, checks = plan[t]
        # the parent's window shifts are this level's completed shift
        # and the window's upper part, so only the lowest one is summed
        parent = list(known)
        for d, _, old, _ in checks[len(known):]:
            parent.append(sum(re[i] * re[i + d] for span in old for i in span))
        c_sum, c_new = parent[0], checks[0][3]
        window = [(unknown, s, new)
                  for (_, unknown, _, new), s in zip(checks[1:], parent[1:])]
        for bits in itertools.product((0, 1), repeat=len(slots)):
            if nodes == budget:
                return 2
            nodes += 1

            for (pos, _, _), x in zip(slots, bits):
                codes[pos], re[pos] = x, CODE_RE[x]

            # the newly completed shift must vanish exactly
            s = c_sum
            for i, j in c_new:
                s += re[i] * re[j]
            if s:
                continue

            # two-sided reachability of the sum-of-squares target at the
            # evaluation points z = 1 and z = -1
            ep, em = list(ev_p), list(ev_m)
            for pos, sq, alt in slots:
                ep[sq] += re[pos]
                em[sq] += alt * re[pos]
            if not (_reaches(ep, unk, target) and _reaches(em, unk, target)):
                continue

            # magnitude and parity bounds on the nearly complete shifts
            sums = []
            for unknown, s, new in window:
                for i, j in new:
                    s += re[i] * re[j]
                if abs(s) > unknown or (abs(s) + unknown) % 2 == 1:
                    break
                sums.append(s)
            else:
                if t < levels:
                    yield ep, em, sums
                elif all(sum(re[i] * re[i + d] for s0, ln in spans
                             for i in range(s0, s0 + ln - d)) == 0
                         for d in range(1, p)):
                    # a complete assignment, every shift rechecked exactly
                    return 0
        return None

    status = _depth_first(children_of, ([1] * 4, [1] * 4, ()))
    return status, codes, nodes


def run_base_dfs(m: int, budget: int):
    """Status, the four code arrays and node count for the base search."""
    status, flat, nodes = _base_dfs_kernel(int(m), int(budget))
    p = m + 1
    cuts = (0, p, 2 * p, 2 * p + m, len(flat))
    seqs = tuple(np.array(flat[lo:hi], dtype=np.int64)
                 for lo, hi in zip(cuts, cuts[1:]))
    return status, seqs, nodes
