"""Principal eigenpairs of the adjacency tensor of a uniform hypergraph.

The eigenvalue equation used throughout is the homogeneous one:

    sum_{e : j in e} prod_{u in e, u != j} x_u  =  lambda * x_j^{m-1}

whose left side is `_edge_sums`.  For a connected hypergraph the principal
eigenpair is positive and unique up to scale, and for any positive vector the
componentwise ratios give certified lower and upper bounds on lambda
(Collatz-Wielandt).  The solver is a shifted power iteration driven by those
brackets.  One integer kernel computes every exact bracket: `rational_bracket`
at any positive vector, and `newton_steps` at its start and at each integer
dyadic vector it keeps.

Every kernel walks one table, `_links`: the edges at a vertex grouped by all
their other members but the last, so each group costs one product of the
shared members times the sum of the last ones, not one product per edge.
`_edge_sums` applies it to floats for the power iteration and to ints for
`_exact_bracket`; `_jacobian` differentiates it once per Newton run, at its
start, and every float64 correction of the run is solved against that one
LU factorization.  Every kernel folds left to right with `reduce`: `sum`
compensates float sums from Python 3.12 on and would change the last bits.

`principal_eigenpair` and `newton_steps` take an optional partition of the
vertices into orbits of automorphisms.  The principal eigenvector of a
connected hypergraph is unique up to scale, so it is constant on orbits,
and `_quotient` regroups the table over the cells: one row per cell, with
each member replaced by its cell.  The same three kernels then run on one
unknown per cell.  Nothing is certified on the quotient: `rational_bracket`
always works on every vertex, so a partition that is not made of orbits
gives a vector whose full bracket is wide, not a wrong bracket.

The module runs on the standard library alone.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, combinations, count
from operator import add, mul, truediv
from typing import NamedTuple, Sequence

from .hypergraph import Hypergraph, UnknownVertexError


class NotConnectedError(ValueError):
    """The hypergraph is not connected (or leaves some vertex uncovered)."""


# The float iteration only supplies the start vector of the exact certificate,
# so its settings are fixed; principal_eigenpair reads them when called.
TOLERANCE = 1e-12
MAX_ITERATIONS = 1_000_000
SHIFT = 1.0


class EigenPair(NamedTuple):
    """The float solver's principal eigenpair, converged or stopped at its cap.

    `vector` is a tuple of positive floats normalized in the m-norm, in the
    hypergraph's vertex order.  `value` is the midpoint of the float
    Collatz-Wielandt ratios at `vector`, and `residual` the largest
    |apply_i - value * x_i^{m-1}| there, both in float arithmetic;
    `rational_bracket` at `vector` is what certifies.
    """

    value: float
    vector: tuple[float, ...]
    residual: float
    iterations: int
    converged: bool
    message: str


_Group = tuple[tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=128)
def _links(hypergraph: Hypergraph) -> tuple[tuple[_Group, ...], ...]:
    """Per vertex position, the positions of the other members of each edge at
    it, grouped by all members but the last: (prefix, lasts) pairs.

    The edges are sorted tuples in lexicographic order, and deleting a shared
    member keeps that order, so one pass over the edges meets the groups at a
    vertex, and the lasts of a group, in sorted order; that order fixes the
    order of every float sum."""
    m = hypergraph.rank
    position = {v: i for i, v in enumerate(hypergraph.vertices)}.__getitem__
    groups = [defaultdict(list) for _ in hypergraph.vertices]
    for edge in hypergraph.edges:
        row = tuple(map(position, edge))
        for p, others in zip(reversed(row), combinations(row, m - 1)):
            groups[p][others[:-1]].append(others[-1])
    return tuple(tuple((prefix, tuple(lasts)) for prefix, lasts in g.items()) for g in groups)


class _Quotient(NamedTuple):
    """A grouped table over the cells of a vertex partition: `links` per cell,
    the position of each cell's first member, the cell of each vertex
    position, and the cell sizes."""

    links: tuple[tuple[_Group, ...], ...]
    firsts: Sequence[int]
    cell_of: Sequence[int]
    sizes: Sequence[int]


@lru_cache(maxsize=128)
def _quotient(hypergraph: Hypergraph, cells: tuple[tuple[int, ...], ...] | None = None
              ) -> _Quotient:
    """The `_links` table of `hypergraph` over `cells`, a partition of its
    vertices into tuples of labels; None, or the singletons in vertex order,
    give `_links(hypergraph)` itself.

    Each cell takes the groups of its first member with every position
    replaced by its cell, and merges the groups whose prefixes then agree.
    If each cell is an orbit of an automorphism group, the edge sums at a
    vector constant on cells are constant on cells, and `_edge_sums` over
    this table gives them once per cell."""
    links = _links(hypergraph)
    nv = len(links)
    if cells is None:
        cells = tuple((v,) for v in hypergraph.vertices)
    index = {v: i for i, v in enumerate(hypergraph.vertices)}
    cell_of = [-1] * nv
    for c, cell in enumerate(cells):
        for v in cell:
            if v not in index:
                raise UnknownVertexError(v)
            cell_of[index[v]] = c
    if sum(map(len, cells)) != nv or -1 in cell_of or not all(cells):
        raise ValueError("cells must partition the vertices")
    firsts = [index[cell[0]] for cell in cells]
    if cell_of == list(range(nv)):
        return _Quotient(links, firsts, cell_of, (1,) * nv)
    table = []
    for p in firsts:
        merged: dict[tuple[int, ...], list[int]] = {}
        for prefix, lasts in links[p]:
            merged.setdefault(tuple(map(cell_of.__getitem__, prefix)), []).extend(
                map(cell_of.__getitem__, lasts))
        table.append(tuple((prefix, tuple(lasts)) for prefix, lasts in merged.items()))
    return _Quotient(tuple(table), firsts, cell_of, tuple(map(len, cells)))


def _edge_sums(links, values: Sequence) -> list:
    """S_i = sum over the edges e at i of the product of the other entries of
    e: each group adds prod(prefix) * sum(lasts), left to right."""
    get = values.__getitem__
    return [reduce(add, (math.prod(map(get, prefix)) * reduce(add, map(get, lasts), 0)
                         for prefix, lasts in link), 0)
            for link in links]


def degree(hypergraph: Hypergraph, vertex: int) -> int:
    if vertex not in set(hypergraph.vertices):
        raise UnknownVertexError(vertex)
    return sum(1 for e in hypergraph.edges if vertex in e)


def _unit(values: list[float], m: int, sizes: Sequence[int]) -> list[float]:
    """`values` scaled to unit m-norm, each entry counted `sizes` times."""
    norm = math.fsum(s * t ** m for s, t in zip(sizes, values)) ** (1.0 / m)
    return [t / norm for t in values]


def _positive_fractions(hypergraph: Hypergraph, values) -> list[Fraction]:
    point = [Fraction(t) for t in values]
    if len(point) != len(hypergraph.vertices):
        raise ValueError(
            f"vector of length {len(point)} against {len(hypergraph.vertices)} vertices")
    if any(t <= 0 for t in point):
        raise ValueError("Collatz-Wielandt brackets need a strictly positive vector")
    return point


@lru_cache(maxsize=128)
def is_connected(hypergraph: Hypergraph) -> bool:
    """Connected in the edge-overlap sense, with every vertex in some edge:
    a search from the first vertex over the members of the edges at each
    vertex, as `_links` lists them."""
    if not hypergraph.edges:
        return False
    links = _links(hypergraph)
    seen = {0}
    stack = [0]
    while stack:
        for prefix, lasts in links[stack.pop()]:
            for q in chain(prefix, lasts):
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
    return len(seen) == len(links)


def _exact_bracket(links, m: int, ints: Sequence[int]
                   ) -> tuple[list[int], list[int], Fraction, Fraction]:
    """S_i, P_i = a_i^{m-1} and the exact min and max of S_i / P_i at a positive
    integer vector a, where S_i are the `_edge_sums` over the rank-m table
    `links`; the extremes are picked by integer cross-multiplication."""
    sums = _edge_sums(links, ints)
    powered = [t ** (m - 1) for t in ints]
    lo_i = hi_i = 0
    for i in range(1, len(sums)):
        if sums[i] * powered[lo_i] < sums[lo_i] * powered[i]:
            lo_i = i
        if sums[i] * powered[hi_i] > sums[hi_i] * powered[i]:
            hi_i = i
    return (sums, powered, Fraction(sums[lo_i], powered[lo_i]),
            Fraction(sums[hi_i], powered[hi_i]))


def rational_bracket(hypergraph: Hypergraph, values
                     ) -> tuple[Fraction, Fraction, Fraction]:
    """Exact Collatz-Wielandt bracket plus residual at a positive vector.

    Entries may be ints, floats or Fractions, given in vertex order; each is
    taken at its exact rational value, so the returned (lo, hi) provably
    contain the principal eigenvalue no matter how the vector was produced.
    The residual is max_j |apply_j - mid * x_j^{m-1}| at the bracket
    midpoint.  The work is done on the integer vector a = D * x for the
    common denominator D, since the ratios S_i / a_i^{m-1} do not depend on
    the scale.
    """
    point = _positive_fractions(hypergraph, values)
    scale = math.lcm(*(t.denominator for t in point))
    ints = [t.numerator * (scale // t.denominator) for t in point]
    sums, powered, lo, hi = _exact_bracket(_links(hypergraph), hypergraph.rank, ints)
    mid = (lo + hi) / 2
    worst = max(abs(s * mid.denominator - mid.numerator * p) for s, p in zip(sums, powered))
    return lo, hi, Fraction(worst, mid.denominator * scale ** (hypergraph.rank - 1))


# -- Newton stage ------------------------------------------------------------------

def _lu_factor(matrix: list[list[float]]) -> tuple[list[list[float]], list[int]]:
    """LU factorization with partial pivoting, in place on `matrix`'s rows:
    the rows, with U on and above the diagonal and L's unit-diagonal
    multipliers below it, and the row order."""
    size = len(matrix)
    order = list(range(size))
    for k in range(size):
        p = max(range(k, size), key=lambda i: abs(matrix[i][k]))
        if not matrix[p][k]:
            raise ValueError("singular Newton Jacobian")
        matrix[k], matrix[p] = matrix[p], matrix[k]
        order[k], order[p] = order[p], order[k]
        pivot = matrix[k]
        tail = pivot[k + 1:]
        for row in matrix[k + 1:]:
            if row[k]:
                f = row[k] = row[k] / pivot[k]
                row[k + 1:] = [u - f * v for u, v in zip(row[k + 1:], tail)]
    return matrix, order


def _lu_solve(factors: tuple[list[list[float]], list[int]], rhs: Sequence[float]
              ) -> list[float]:
    """x with A x = rhs, from the LU factors of A."""
    rows, order = factors
    y = [rhs[i] for i in order]
    for i in range(1, len(y)):
        y[i] -= reduce(add, map(mul, rows[i][:i], y[:i]), 0)
    for i in range(len(y) - 1, -1, -1):
        y[i] = (y[i] - reduce(add, map(mul, rows[i][i + 1:], y[i + 1:]), 0)) / rows[i][i]
    return y


def _jacobian(links, m: int, vector: Sequence[float], value: float
              ) -> list[list[float]]:
    """Newton Jacobian of the pair (x, lambda) at a float point, in rows, for
    the `_edge_sums` over the rank-m table `links`.

    Row i < nv is the derivative of S_i(x) - lambda x_i^{m-1}: from each
    group, every last member gets prod(prefix) and every prefix
    member the product of the rest of the prefix times sum(lasts); the
    diagonal loses (m-1) lambda x_i^{m-2}, and the column for lambda is
    -x^{[m-1]}.  The last row, x^{[m-1]}, keeps the m-norm fixed to first
    order.
    """
    x = [float(t) for t in vector]
    nv = len(x)
    jac = [[0.0] * (nv + 1) for _ in range(nv + 1)]
    for p, link in enumerate(links):
        row = jac[p]
        for prefix, lasts in link:
            shared = math.prod(x[q] for q in prefix)
            for r in lasts:
                row[r] += shared
            if prefix:
                total = reduce(add, (x[r] for r in lasts), 0)
                for k, q in enumerate(prefix):
                    row[q] += math.prod(x[u] for u in prefix[:k] + prefix[k + 1:]) * total
        row[p] -= (m - 1) * value * x[p] ** (m - 2)
        row[nv] = -x[p] ** (m - 1)
    jac[nv][:nv] = [t ** (m - 1) for t in x]
    return jac


# Each Newton step carries the vector this many more bits; refinement stops
# before the working precision would pass MAX_REFINEMENT_BITS.
_STEP_BITS = 50
MAX_REFINEMENT_BITS = 4096


def newton_steps(hypergraph: Hypergraph, start, cells=None):
    """Newton refinement of a positive vector toward the principal eigenvector.

    Mixed-precision iterative refinement: the vector is held as a / 2^B in
    Python ints, the residual A x^{m-1} - lam x^{[m-1]} is exact and only
    then rounded, and the correction is solved in float64 against one LU
    factorization of the Jacobian at the start and added with B grown by
    _STEP_BITS.  Yields (a, B, lo, hi), with a in vertex order and the exact
    bracket of a, at the start and after each kept step; returns when a step
    does not narrow the bracket or leaves the positive cone, or before B
    would pass MAX_REFINEMENT_BITS.

    With `cells`, a partition of the vertices into orbits of automorphisms
    (see `_quotient`), the run holds one entry per cell, taken from the
    first member's entry of `start`, and a is that vector lifted to every
    vertex.  The brackets are then those of the lifted vector only if the
    cells are orbits; `rational_bracket` of a is the check.
    """
    if not is_connected(hypergraph):
        raise NotConnectedError("principal eigenpair needs a connected hypergraph")
    links, firsts, cell_of, sizes = _quotient(hypergraph, cells)
    m = hypergraph.rank
    point = _positive_fractions(hypergraph, start)
    point = [point[i] for i in firsts]
    # a denominator 2^B has bit length B + 1, and B bits hold it exactly
    bits = max(64, *(t.denominator.bit_length() - 1 for t in point))
    ints = [round(t * (1 << bits)) for t in point]
    sums, powered, lo, hi = _exact_bracket(links, m, ints)
    # Rayleigh quotient <x, A x^{m-1}> / <x, x^{[m-1]}> over every vertex,
    # at scale 2^bits
    lam = ((sum(map(mul, sizes, map(mul, sums, ints))) << bits)
           // sum(map(mul, sizes, map(mul, powered, ints))))
    factors = _lu_factor(_jacobian(links, m, [t / (1 << bits) for t in ints],
                                   lam / (1 << bits)))
    lift = float(1 << _STEP_BITS)
    yield [ints[c] for c in cell_of], bits, lo, hi
    while bits + _STEP_BITS <= MAX_REFINEMENT_BITS:
        # the residual at (a / 2^bits, lam / 2^bits), times 2^bits, so the
        # solve returns the correction times 2^bits
        scale = 1 << (bits * (m - 1))
        rhs = [(lam * p - (s << bits)) / scale for s, p in zip(sums, powered)]
        step = _lu_solve(factors, rhs + [0.0])
        trial = [(a << _STEP_BITS) + round(d * lift) for a, d in zip(ints, step)]
        if min(trial) <= 0:
            return
        bracket = _exact_bracket(links, m, trial)
        if bracket[3] - bracket[2] >= hi - lo:
            return
        ints, (sums, powered, lo, hi) = trial, bracket
        lam = (lam << _STEP_BITS) + round(step[-1] * lift)
        bits += _STEP_BITS
        yield [ints[c] for c in cell_of], bits, lo, hi


def refined_eigenvector(hypergraph: Hypergraph, start, *, width: Fraction
                        ) -> tuple[list[Fraction], int, Fraction, Fraction]:
    """`newton_steps` from `start` until the exact bracket is at most `width`
    wide or the steps end.  Returns (entries, steps, lo, hi): the last vector's
    exact dyadic entries, the steps kept, and rational_bracket's (lo, hi) there."""
    for steps, (ints, bits, lo, hi) in enumerate(newton_steps(hypergraph, start)):
        if hi - lo <= width:
            break
    return [Fraction(t, 1 << bits) for t in ints], steps, lo, hi


# -- float stage -------------------------------------------------------------------


def principal_eigenpair(hypergraph: Hypergraph, *, seed: int = 0, cells=None) -> EigenPair:
    """Shifted power iteration to the positive principal eigenpair.

    Each step applies the tensor, adds SHIFT * x^{m-1}, takes the (m-1)-th
    root, and renormalizes; the eigenvalue brackets are the min and max
    Collatz-Wielandt ratios at the current iterate.  The one stop rule is
    the bracket width: below TOLERANCE, floored at 64 ulps of the upper
    bracket, which double precision can still resolve once lambda is in the
    hundreds.  The residual needs no test of its own: the iterate has unit
    m-norm, so each x_i^{m-1} is at most 1 and the residual at the midpoint
    is at most half the width, up to rounding.  After MAX_ITERATIONS the
    last iterate is returned, with the midpoint and residual of its own
    brackets, and converged=False.  Seed 0 starts from all-ones; any other
    nonnegative seed jitters that start through `random.Random(seed)`, and a
    negative seed is a ValueError.

    With `cells`, a partition of the vertices into orbits of automorphisms
    (see `_quotient`), the iteration holds one entry per cell: the jitter is
    drawn per cell, the m-norm weights each cell by its size, and the
    returned vector is lifted to every vertex.
    """
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if not is_connected(hypergraph):
        raise NotConnectedError("principal eigenpair needs a connected hypergraph")
    m = hypergraph.rank
    links, _, cell_of, sizes = _quotient(hypergraph, cells)
    rng = random.Random(seed)
    x = _unit([1.0 + rng.uniform(0.0, 0.5) if seed else 1.0 for _ in links], m, sizes)
    root = 1.0 / (m - 1)

    for iterations in count(1):
        applied = _edge_sums(links, x)
        powered = [t ** (m - 1) for t in x]
        ratios = list(map(truediv, applied, powered))
        lo, hi = min(ratios), max(ratios)
        converged = hi - lo < max(TOLERANCE, 64 * math.ulp(hi))
        if converged or iterations == MAX_ITERATIONS:
            break
        x = _unit([(a + SHIFT * p) ** root for a, p in zip(applied, powered)], m, sizes)
    mid = 0.5 * (lo + hi)
    res = max(abs(a - mid * p) for a, p in zip(applied, powered))
    message = "" if converged else f"bracket width {hi - lo:.3e} after {iterations} iterations"
    return EigenPair(mid, tuple(x[c] for c in cell_of), res, iterations, converged, message)


def vector_digest(vector: Sequence[float]) -> str:
    """Hash of the canonical 12-digit decimal rendering of the vector.

    hashlib is imported here: it maps OpenSSL, which only `spectrum` needs."""
    import hashlib

    rendered = ",".join(format(float(t), ".12e") for t in vector)
    return hashlib.sha256(rendered.encode("ascii")).hexdigest()
