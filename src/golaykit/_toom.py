"""Exact big-integer products for `tensor.convolve`, the product
route's kernel: Kronecker products at two points, and one level of
Toom-Cook above CPython's multiplication.

`products` makes every product of one convolution.  From `_HALVE`
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

_CUT = 120_000  # bits of both factors from which `mul` splits
_LIMBS = 6
_HALVE = 1 << 14  # bits of output from which `convolve` packs at +-B


def point_count(width: int, n: int, top: int) -> int:
    """2 when `n` output digits of `width` bytes are to be made at +-B,
    B = 2**(8 * ceil(width / 2)): the output has `_HALVE` bits or more,
    the halved width is narrower, and its signed digits hold `top`, the
    largest input part; 1 otherwise."""
    if 8 * width * n < _HALVE:
        return 1
    half = -(-width // 2)
    return 2 if half < width and top < 1 << 8 * half - 1 else 1


def products(x: list[int], y: list[int], k: int, s: int) -> list[int]:
    """The output planes of `convolve` as integers, by `mul`.

    x and y hold the planes of an operand (re, or re and im) at `k`
    points, 2**s or +-2**s, point by point.  Gives [re] or [re, im] at
    one point, and each plane's [E, O] at two, E and O as digits of
    base 2**(2s): r(z) = E(z**2) + z * O(z**2).
    """
    if len(x) == k:  # real operands: one product at each point
        planes = [list(map(mul, x, y))]
    else:  # (xr + i xi)(yr + i yi) at each point
        xr, xi, yr, yi = x[::2], x[1::2], y[::2], y[1::2]
        planes = [[mul(a, c) - mul(b, d) for a, b, c, d in zip(xr, xi, yr, yi)],
                  [mul(a, d) + mul(b, c) for a, b, c, d in zip(xr, xi, yr, yi)]]
    if k == 1:
        return [r for (r,) in planes]
    out = []
    for plus, minus in planes:
        even, odd = plus + minus, plus - minus
        if even & 1 or odd & ((2 << s) - 1):
            raise ArithmeticError("the split of r(B) and r(-B) is not exact")
        out += even >> 1, odd >> s + 1
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
