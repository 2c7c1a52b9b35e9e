"""Dense exact transforms for the direct route: `verify._ntt` up to
`verify._DENSE` points, as int64 matrix products over F_p.

This is the four-step transform of D. H. Bailey ("FFTs in external or
hierarchical memory", J. Supercomputing 1990).  A row of L <= _SQUARE
points is multiplied by the L-point transform matrix.  A longer row,
L = _RADIX * m, is read as a _RADIX x m matrix, multiplied from the
left by the _RADIX-point matrix and entrywise by twiddles, and its
_RADIX rows of m points go on as rows.  Bit reversal of r * m points is
rev_r(i) * m + rev_m(j), so the output has the butterflies' order and
values: frequency k at position rev(k).  Each matrix is held as 16-bit
limbs, so every sum stays far inside int64 (`_from_limbs`).  Integers
only: no floats, no BLAS (numpy multiplies integer matrices itself) and
no convolution, so the direct route still shares no arithmetic with the
product route.
"""
from __future__ import annotations

import numpy as np

_SQUARE = 32  # row length up to which a transform is one product
_RADIX = 16  # points each step splits off a longer row


def reversal(n: int) -> np.ndarray:
    """The bit-reversal permutation of range(n), its own inverse: the
    forward transform leaves frequency k at position rev[k].  Built by
    doubling: the reversal of 2n is that of n doubled, then plus one."""
    rev = np.zeros(1, np.intp)
    while rev.size < n:
        rev = np.concatenate((2 * rev, 2 * rev + 1))
    return rev


def _limbs(table: np.ndarray) -> np.ndarray:
    """Residues below 2**31 as their low and high 16-bit limbs, stacked
    on a new first axis: hi < 2**15."""
    return np.stack((table & 0xFFFF, table >> 16)).astype(np.uint16)


def tables(powers: np.ndarray) -> tuple[list, np.ndarray]:
    """`transform`'s tables for n points from `powers`, (primes, n), the
    powers w**e (e < n) of a root w of order n modulo each prime: one
    (limbs of the _RADIX-point matrix, twiddles) per step while rows
    are longer than _SQUARE, and the limbs of the last matrix.  Rows of
    L points transform with v = w**(n/L); a step splits L = _RADIX * m,
    its matrix holds v**(m * j * rev(i)) at (i, j), and its twiddles
    v**(j * rev(i)) at (i, j < m).  The last matrix holds v**(j * rev(k))
    at (j, k).  Each is a (primes, 1, ...) stack, which broadcasts over
    rows: for one prime, about 30 KB over every n up to 2**10."""
    n = powers.shape[1]
    steps, length = [], n
    while length > _SQUARE:
        m, rev = length // _RADIX, reversal(_RADIX)
        at = np.outer(rev, np.arange(_RADIX)) % _RADIX * (m * n // length)
        steps.append((_limbs(powers[:, None, at]),
                      powers[:, None, np.outer(rev, np.arange(m)) * (n // length)]))
        length = m
    at = np.outer(np.arange(length), reversal(length)) % length * (n // length)
    return steps, _limbs(powers[:, None, at])


def transform(x: np.ndarray, p: np.ndarray, dense: tuple[list, np.ndarray]) -> np.ndarray:
    """The transform of x, (primes, rows, n) with entries in [0, p), p a
    (primes, 1) column, along its last axis, with `tables(...)` for n:
    natural order in, bit-reversed order out, x left as it is."""
    p = p[:, :, None, None]
    steps, last = dense
    y = x
    for limbs, twiddles in steps:
        y = _from_limbs(np.matmul(limbs, y.reshape(len(p), -1, _RADIX,
                                                  twiddles.shape[-1])), p)
        y *= twiddles
        y %= p
    y = np.matmul(y.reshape(len(p), -1, 1, last.shape[-1]), last)
    return _from_limbs(y, p).reshape(x.shape)


def _from_limbs(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(y[0] + y[1] * 2**16) mod p, in y[1]: y[0] and y[1] are the
    products of residues below p < 2**31 with the low and high limbs of
    a table, each a sum of at most _SQUARE terms below 2**47 and 2**46,
    so y[1] mod p shifted, plus y[0], stays below 2**53."""
    hi = y[1]
    hi %= p
    hi <<= 16
    hi += y[0]
    hi %= p
    return hi
