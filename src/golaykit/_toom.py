"""Exact big-integer products for `tensor.convolve`, the product
route's kernel: Kronecker products at two points, row by row, and one
level of Toom-Cook above CPython's multiplication.

`products` makes every product of one convolution.  An operand is a
polynomial in the row variable whose coefficients are packed rows:
from `_ROW_BITS` bits a row, `row_order` has `convolve` pack each row
of a rank-2 or higher operand on its own, with no zero padding between
rows, and `karatsuba` multiplies the row lists (Karatsuba and Ofman,
1962); below, a plane is one row, padded.  From `_HALVE`
bits of output, `point_count` has `convolve` pack each plane at half
the digit width, base B, and evaluate it at +B and -B (Harvey's
multipoint Kronecker substitution): r(B) + r(-B) = 2 E(B**2) holds r's
even coefficients and r(B) - r(-B) = 2B O(B**2) its odd ones, as
digits of twice the half width, so two products of half the bits
replace one.

`mul` reads |x| and |y| as polynomials a(z), b(z) of k limbs of s bits
at z = 2**s, and makes r = a * b from 2k - 1 products of limbs: its top
coefficient is r(infinity) = a[k-1] * b[k-1], and the rest is
interpolated from r's values at 0, 1, -1, 2, ... by Newton divided
differences.  Those are integers at integer points, so every division
is exact, and one that leaves a remainder raises ArithmeticError, as
does a split of r(B) and r(-B) that is not exact.  Integers only: the
route shares no arithmetic with the direct route's modular transform.
"""
from __future__ import annotations

import math
from operator import add, sub

_CUT = 120_000  # bits of both factors from which `mul` splits
_LIMBS = 6
_HALVE = 1 << 14  # bits of output from which `convolve` packs at +-B
_ROW_BITS = 2000  # bits of a packed row from which `convolve` goes row by row


def point_count(width: int, n: int, top: int) -> int:
    """2 when `n` output digits of `width` bytes are to be made at +-B,
    B = 2**(8 * ceil(width / 2)): the output has `_HALVE` bits or more,
    the halved width is narrower, and its signed digits hold `top`, the
    largest input part; 1 otherwise."""
    if 8 * width * n < _HALVE:
        return 1
    half = -(-width // 2)
    return 2 if half < width and top < 1 << 8 * half - 1 else 1


def row_order(sa: tuple[int, ...], sb: tuple[int, ...], bits: int) -> tuple[int, int]:
    """How `convolve` lays out operands of shapes `sa` and `sb` at `bits`
    bits an entry: (axis, 1) to multiply rows along `axis`, the one of
    fewest output entries, once it is swapped with axis 0, when both
    operands have rank 2 or more and the shorter packed row (every axis
    after the first zero-padded to its output width) has `_ROW_BITS`
    bits or more; (0, 0) to pack each plane as one row."""
    if len(sa) < 2:
        return 0, 0
    out = [s + t - 1 for s, t in zip(sa, sb)]
    axis = out.index(min(out))
    j = int(axis != 1)  # the axis that comes second once `axis` is first
    row = min(sa[j], sb[j]) * math.prod(out) // (out[axis] * out[j])
    return (axis, 1) if bits * row >= _ROW_BITS else (0, 0)


def products(x: list[int], y: list[int], k: int, s: int, terms: int) -> list:
    """The output planes of `convolve` as packed rows, by `karatsuba`.

    x and y hold the rows of an operand's `terms` planes (re, or re and
    im) at `k` points, 2**s or +-2**s, point by point.  Gives the rows
    of [re] or [re, im] at one point, and each plane's [E, O] at two,
    row by row, E and O as digits of base 2**(2s): r(z) = E(z**2) +
    z * O(z**2).  When every plane of both operands is one row, each
    product is one `mul`, with no row lists to split or multiply.
    """
    if len(x) == len(y) == k * terms:
        times = _one_row
    else:
        x, y = ([v[i:i + len(v) // (k * terms)] for i in range(0, len(v), len(v) // (k * terms))]
                for v in (x, y))
        times = karatsuba
    if terms == 1:  # real operands: one product at each point
        planes = [list(map(times, x, y))]
    else:  # (xr + i xi)(yr + i yi) at each point
        xr, xi, yr, yi = x[::2], x[1::2], y[::2], y[1::2]
        planes = [[list(map(sub, times(a, c), times(b, d)))
                   for a, b, c, d in zip(xr, xi, yr, yi)],
                  [list(map(add, times(a, d), times(b, c)))
                   for a, b, c, d in zip(xr, xi, yr, yi)]]
    if k == 1:
        return [row for (r,) in planes for row in r]
    out, mask = [], (2 << s) - 1
    for plus, minus in planes:
        even, odd = list(map(add, plus, minus)), list(map(sub, plus, minus))
        if any(e & 1 for e in even) or any(o & mask for o in odd):
            raise ArithmeticError("the split of r(B) and r(-B) is not exact")
        out += [e >> 1 for e in even], [o >> s + 1 for o in odd]
    return out


def _one_row(x: int, y: int) -> list[int]:
    """The one-row product list of two planes packed as one row each."""
    return [mul(x, y)]


def karatsuba(x: list[int], y: list[int]) -> list[int]:
    """x * y as polynomials, coefficients lowest first, by Karatsuba-Ofman:
    with x = x0 + z**h x1 and y = y0 + z**h y1, h = ceil(len(x) / 2), from
    x0 y0, x1 y1 and (x0 + x1)(y0 + y1).  A y no longer than h takes x in
    blocks of its length instead; `mul` multiplies coefficients."""
    if len(x) < len(y):
        x, y = y, x
    if len(y) == 1:
        return [mul(c, y[0]) for c in x]
    out = [0] * (len(x) + len(y) - 1)
    h = (len(x) + 1) // 2
    if len(y) <= h:
        for i in range(0, len(x), len(y)):
            for j, c in enumerate(karatsuba(x[i:i + len(y)], y), i):
                out[j] += c
        return out
    x0, x1, y0, y1 = x[:h], x[h:], y[:h], y[h:]
    low, high = karatsuba(x0, y0), karatsuba(x1, y1)
    mid = karatsuba(list(map(add, x0, x1)) + x0[len(x1):],
                    list(map(add, y0, y1)) + y0[len(y1):])
    for j, c in enumerate(low):
        out[j] += c
        mid[j] -= c
    for j, c in enumerate(high):
        out[2 * h + j] += c
        mid[j] -= c
    for j, c in enumerate(mid, h):
        out[j] += c
    return out


def mul(x: int, y: int) -> int:
    """x * y, by Toom-Cook when both have _CUT bits or more."""
    if min(x.bit_length(), y.bit_length()) < _CUT:
        return x * y
    k = _LIMBS
    s = -(-max(x.bit_length(), y.bit_length()) // k)
    mask = (1 << s) - 1
    a, b = ([(abs(v) >> (j * s)) & mask for j in range(k)] for v in (x, y))
    points = [0] + [t for i in range(1, k) for t in (i, -i)][:2 * k - 3]
    top, values = a[-1] * b[-1], []
    for t in points:
        u = v = 0
        for j in range(k - 1, -1, -1):
            u, v = u * t + a[j], v * t + b[j]
        values.append(u * v - top * t ** (2 * k - 2))
    for j in range(1, len(points)):
        for i in range(len(points) - 1, j - 1, -1):
            values[i], rest = divmod(values[i] - values[i - 1],
                                     points[i] - points[i - j])
            if rest:
                raise ArithmeticError("Toom-Cook interpolation is not exact")
    coef = [values[-1]]  # the Newton form, multiplied out from the top
    for t, v in zip(points[-2::-1], values[-2::-1]):  # coef * (z - t) + v
        coef = ([v - t * coef[0]] + [c - t * d for c, d in zip(coef, coef[1:])]
                + [coef[-1]])
    r = top
    for c in reversed(coef):
        r = (r << s) + c
    return -r if (x < 0) != (y < 0) else r
