"""The shape column of `planner._OPS`: the member shapes (a base-sequence
quad's are m+1, m+1, m, m) each recipe op makes from one tuple of member
shapes per child and the node's `dim`.  Kronecker products multiply
sizes, concatenation and interleaving add them.  A rule reads only the
members a valid input fixes; a construction refuses any other input
before its first product, so none is larger than its node's output.
"""
from __future__ import annotations

from functools import reduce
from operator import mul

from .errors import ParseError


def _times(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(mul, s, t))


def _doubled(s: tuple[int, ...], dim: int) -> tuple[int, ...]:
    return s[:dim] + (2 * s[dim],) + s[dim + 1:]


def _product(kids) -> tuple[int, ...]:
    """The Kronecker product of every child's first member."""
    return reduce(_times, (kid[0] for kid in kids))


def _joined(kids, dim: int) -> tuple[int, ...]:
    """First members a and c of two pairs side by side along `dim`: the
    pairs are two children, or one quad child split 2 + 2."""
    a = kids[0][0]
    c = kids[1][0] if len(kids) > 1 else kids[0][len(kids[0]) // 2]
    return a[:dim] + (a[dim] + c[dim],) + a[dim + 1:]


def seed(stored, rank: int, axis: int):
    """1-D members along `axis` at `rank`; k-D ones as stored (rank k)."""
    k = len(stored[0])
    if k > 1 and (rank, axis) != (k, 0):
        raise ParseError(f"a {k}-D seed is used as stored: rank {k}, axis 0")
    return tuple((1,) * axis + s + (1,) * (rank - axis - k) for s in stored)


pair_product = lambda kids, dim: (_product(kids),) * 2
concat_pair = lambda kids, dim: (_doubled(_product(kids), dim),) * 2
cross_set = lambda kids, dim: tuple(
    _times(a, b) for a in kids[0] for b in kids[1])
interleave_quad = lambda kids, dim: (
    _joined(kids, dim) if len(kids[0]) > 2 else kids[0][0],) * 4
concat_zero_quad = lambda kids, dim: (_doubled(_joined(kids, dim), dim),) * 4
lagrange_quad = lambda kids, dim: (_product(kids),) * 4
expand_quad = lambda kids, dim: tuple(_times(s, kids[1][0]) for s in kids[0])
compromise_quad = lambda kids, dim: (
    _times(_joined(kids, dim), kids[2][0]),) * 4
disjoint_from_pair = lambda kids, dim: kids[0]
