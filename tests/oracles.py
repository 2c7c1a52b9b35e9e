"""Reference implementations used only by the tests.

Everything here is written as plainly as possible (dict-of-index maps,
nested loops, Python big ints, np.correlate on int64 rows) and shares
no code with the package, so it can serve as an independent oracle for
the vectorized versions.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np
from hypothesis import strategies as st

from golaykit.tensor import GaussInt, Tensor


def to_map(t: Tensor) -> dict[tuple[int, ...], tuple[int, int]]:
    out = {}
    for idx, g in zip(itertools.product(*[range(s) for s in t.shape]), t.entries()):
        if g.re or g.im:
            out[idx] = (g.re, g.im)
    return out


def from_map(shape, m) -> Tensor:
    entries = []
    for idx in itertools.product(*[range(s) for s in shape]):
        re, im = m.get(idx, (0, 0))
        entries.append(GaussInt(re, im))
    return Tensor.from_entries(shape, entries)


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cconj(x):
    return (x[0], -x[1])


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def naive_convolve(a: Tensor, b: Tensor) -> Tensor:
    shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape, b.shape))
    acc: dict = {}
    for ia, va in to_map(a).items():
        for ib, vb in to_map(b).items():
            k = tuple(x + y for x, y in zip(ia, ib))
            acc[k] = cadd(acc.get(k, (0, 0)), cmul(va, vb))
    return from_map(shape, acc)


def naive_autocorr(a: Tensor) -> Tensor:
    """R on dims 2s-1 with zero shift at index s-1 per axis."""
    shape = tuple(2 * s - 1 for s in a.shape)
    m = to_map(a)
    acc: dict = {}
    for i, vi in m.items():
        for j, vj in m.items():
            d = tuple(x - y + s - 1 for x, y, s in zip(i, j, a.shape))
            acc[d] = cadd(acc.get(d, (0, 0)), cmul(vi, cconj(vj)))
    return from_map(shape, acc)


def correlate_planes(a: Tensor) -> Tensor:
    """naive_autocorr for a rank-1 or rank-2 tensor with int64 planes,
    as sums of np.correlate over each pair of rows and of planes: exact
    while 2 * size * max**2 fits int64, and fast enough for thousands of
    entries."""
    x, y = (p.reshape(-1, a.shape[-1]) for p in (a.re, a.im))
    rows, cols = x.shape
    re = np.zeros((2 * rows - 1, 2 * cols - 1), dtype=np.int64)
    im = np.zeros_like(re)
    for i in range(rows):
        for j in range(rows):
            # row shift i - j; column shift d at d + cols - 1
            re[i - j + rows - 1] += (np.correlate(x[i], x[j], "full")
                                     + np.correlate(y[i], y[j], "full"))
            im[i - j + rows - 1] += (np.correlate(y[i], x[j], "full")
                                     - np.correlate(x[i], y[j], "full"))
    shape = tuple(2 * s - 1 for s in a.shape)
    return Tensor(re.reshape(shape), im.reshape(shape))


def naive_kron(a: Tensor, b: Tensor) -> Tensor:
    shape = tuple(sa * sb for sa, sb in zip(a.shape, b.shape))
    acc = {}
    for ia, va in to_map(a).items():
        for ib, vb in to_map(b).items():
            k = tuple(x * t + y for x, y, t in zip(ia, ib, b.shape))
            acc[k] = cmul(va, vb)
    return from_map(shape, acc)


def naive_involute(a: Tensor) -> Tensor:
    acc = {}
    for i, v in to_map(a).items():
        j = tuple(s - 1 - x for x, s in zip(i, a.shape))
        acc[j] = cconj(v)
    return from_map(a.shape, acc)


def naive_weight(a: Tensor) -> int:
    return sum(re * re + im * im for re, im in to_map(a).values())


# pair-length arithmetic, by its definitions ---------------------------------

BLOCKS = (2, 10, 26, 3, 5, 11, 13)  # binary blocks, then quaternary ones


def binary_golay_witness(n: int) -> tuple[int, int, int] | None:
    """The smallest (a, b, c) with n = 2^a 10^b 26^c, or None."""
    found = []
    b = 0
    while 10 ** b <= n:
        c = 0
        while 10 ** b * 26 ** c <= n:
            rest, left = divmod(n, 10 ** b * 26 ** c)
            a = 0
            while rest > 1 and rest % 2 == 0:
                rest //= 2
                a += 1
            if left == 0 and rest == 1:
                found.append((a, b, c))
            c += 1
        b += 1
    return min(found, default=None)


def quaternary_golay_witness(n: int) -> tuple[int, ...] | None:
    """The smallest (a, b, c, d, e, u) with n = 2^(a+u) 3^b 5^c 11^d 13^e,
    b+c+d+e <= a+2u+1 and u <= c+e, or None: every u is tried."""
    if n < 1:
        return None
    exps = []
    for p in (2, 3, 5, 11, 13):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        exps.append(k)
    if n != 1:
        return None
    v2, b, c, d, e = exps
    found = [(v2 - u, b, c, d, e, u) for u in range(min(v2, c + e) + 1)
             if b + c + d + e <= v2 - u + 2 * u + 1]
    return min(found, default=None)


@functools.lru_cache(maxsize=None)
def best_blocks(n: int) -> tuple[int, tuple[int, ...]] | None:
    """(surplus, blocks) over every ordered factorization of n into
    BLOCKS: the largest surplus (binary blocks score +1, quaternary -1),
    ties to the sequence first in BLOCKS order; None when there is no
    factorization."""
    if n < 1:
        return None
    if n == 1:
        return (0, ())
    best = None
    for g in BLOCKS:
        rest = best_blocks(n // g) if n % g == 0 else None
        if rest is None:
            continue
        surplus = rest[0] + (1 if g in BLOCKS[:3] else -1)
        blocks = (g,) + rest[1]
        key = (-surplus, [BLOCKS.index(x) for x in blocks])
        if best is None or key < best[0]:
            best = (key, surplus, blocks)
    return None if best is None else best[1:]


# hypothesis strategies ----------------------------------------------------

def gauss_entries(max_component: int = 2, real: bool = False):
    parts = st.integers(-max_component, max_component)
    return st.builds(GaussInt, parts, st.just(0) if real else parts)


def shapes(max_rank: int = 3, max_dim: int = 4):
    return st.lists(
        st.integers(1, max_dim), min_size=1, max_size=max_rank
    ).map(tuple)


@st.composite
def tensors(draw, shape=None, max_component: int = 2, max_rank: int = 3,
            max_dim: int = 4, real: bool = False):
    if shape is None:
        shape = draw(shapes(max_rank, max_dim))
    n = 1
    for s in shape:
        n *= s
    entries = draw(
        st.lists(gauss_entries(max_component, real), min_size=n, max_size=n)
    )
    return Tensor.from_entries(shape, entries)


@st.composite
def tensor_pairs_same_shape(draw, **kw):
    shape = draw(shapes(kw.pop("max_rank", 3), kw.pop("max_dim", 4)))
    a = draw(tensors(shape=shape, **kw))
    b = draw(tensors(shape=shape, **kw))
    return a, b
