"""Exact big-integer products for `tensor.convolve`, the product
route's kernel: one level of Toom-Cook above CPython's multiplication.

|x| and |y| are read as polynomials a(z), b(z) of k limbs of s bits at
z = 2**s, and r = a * b is made from 2k - 1 products of limbs: its top
coefficient is r(infinity) = a[k-1] * b[k-1], and the rest is
interpolated from r's values at 0, 1, -1, 2, ... by Newton divided
differences.  Those are integers at integer points, so every division
is exact, and one that leaves a remainder raises ArithmeticError.
Integers only: the route shares no arithmetic with the direct route's
modular transform.
"""
from __future__ import annotations

_CUT = 1 << 17  # bits of both factors from which `mul` splits
_LIMBS = 6


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
