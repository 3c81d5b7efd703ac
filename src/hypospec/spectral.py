"""Principal eigenpairs of the adjacency tensor of a uniform hypergraph.

The eigenvalue equation used throughout is the homogeneous one:

    sum_{e : j in e} prod_{u in e, u != j} x_u  =  lambda * x_j^{m-1}

whose left side is `tensor_apply`.  For a connected hypergraph the principal
eigenpair is positive and unique up to scale, and for any positive vector the
componentwise ratios give certified lower and upper bounds on lambda
(Collatz-Wielandt).  The solver is a shifted power iteration driven by those
brackets.  One integer kernel computes every exact bracket: `rational_bracket`
at any positive vector, and `refined_eigenvector` at each integer dyadic
vector its Newton steps reach.  The kernel groups the edges at a vertex by all
their other members but the last, so each group costs one product of the
shared members times the sum of the last ones, not one product per edge.
`oracle_radius` is a second route: projected gradient
ascent of the generating polynomial f on the nonnegative unit m-norm sphere.
m * f is at most lambda at every such point and equals it at the maximum (Euler
identity).  Its ascent direction is `_apply_positions`, the kernel the power
iteration applies; only its objective is computed on its own.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .hypergraph import Hypergraph, UnknownVertexError


class NotConnectedError(ValueError):
    """The hypergraph is not connected (or leaves some vertex uncovered)."""


class DimensionMismatchError(ValueError):
    pass


# The float iteration only supplies the start vector of the exact certificate,
# so its settings are fixed; principal_eigenpair reads them when called.
TOLERANCE = 1e-12
MAX_ITERATIONS = 1_000_000
SHIFT = 1.0


@dataclass
class EigenPair:
    """Converged (or best-effort) principal eigenpair with certified brackets.

    `value` is the midpoint of [value_lo, value_hi]; the brackets come from
    Collatz-Wielandt ratios at `vector` and are valid even before convergence.
    The vector is positive and normalized in the m-norm, indexed like
    `vertices`.
    """

    value: float
    value_lo: float
    value_hi: float
    vector: np.ndarray
    vertices: tuple[int, ...]
    residual: float
    iterations: int
    converged: bool = True
    message: str = ""

    def entry(self, vertex: int) -> float:
        try:
            return float(self.vector[self.vertices.index(vertex)])
        except ValueError:
            raise UnknownVertexError(vertex) from None


@lru_cache(maxsize=128)
def _edge_positions(hypergraph: Hypergraph) -> np.ndarray:
    index = {v: i for i, v in enumerate(hypergraph.vertices)}
    if not hypergraph.edges:
        return np.zeros((0, hypergraph.rank), dtype=np.int64)
    return np.array([[index[v] for v in e] for e in hypergraph.edges], dtype=np.int64)


def tensor_apply(hypergraph: Hypergraph, values: Sequence[float]) -> np.ndarray:
    """Left side of the eigenvalue equation at `values`, given and returned in
    vertex order."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (len(hypergraph.vertices),):
        raise DimensionMismatchError(
            f"expected a vector of length {len(hypergraph.vertices)}, got shape {arr.shape}")
    return _apply_positions(_edge_positions(hypergraph), arr, len(hypergraph.vertices))


def _apply_positions(epos: np.ndarray, arr: np.ndarray, nv: int) -> np.ndarray:
    out = np.zeros(nv)
    if epos.shape[0] == 0:
        return out
    m = epos.shape[1]
    cols = [arr[epos[:, t]] for t in range(m)]
    for t in range(m):
        w = None
        for s in range(m):
            if s == t:
                continue
            w = cols[s] if w is None else w * cols[s]
        out += np.bincount(epos[:, t], weights=w, minlength=nv)
    return out


def degree(hypergraph: Hypergraph, vertex: int) -> int:
    if vertex not in set(hypergraph.vertices):
        raise UnknownVertexError(vertex)
    return sum(1 for e in hypergraph.edges if vertex in e)


def codegree(hypergraph: Hypergraph, u: int, v: int) -> int:
    vset = set(hypergraph.vertices)
    for w in (u, v):
        if w not in vset:
            raise UnknownVertexError(w)
    if u == v:
        raise ValueError("codegree needs two distinct vertices")
    return sum(1 for e in hypergraph.edges if u in e and v in e)


@lru_cache(maxsize=128)
def is_connected(hypergraph: Hypergraph) -> bool:
    """Connected in the edge-overlap sense, with every vertex in some edge."""
    if not hypergraph.edges:
        return False
    adjacency: dict[int, set[int]] = {v: set() for v in hypergraph.vertices}
    for e in hypergraph.edges:
        for a in e:
            adjacency[a].update(e)
    start = hypergraph.vertices[0]
    seen = {start}
    stack = [start]
    while stack:
        a = stack.pop()
        for b in adjacency[a]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == len(hypergraph.vertices)


def _lm_norm(arr: np.ndarray, m: int) -> float:
    return float((arr ** m).sum() ** (1.0 / m))


def _positive_fractions(hypergraph: Hypergraph, values) -> list[Fraction]:
    point = [Fraction(t) for t in values]
    if len(point) != len(hypergraph.vertices):
        raise DimensionMismatchError(
            f"vector of length {len(point)} against {len(hypergraph.vertices)} vertices")
    if any(t <= 0 for t in point):
        raise ValueError("Collatz-Wielandt brackets need a strictly positive vector")
    return point


_Group = tuple[tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=128)
def _links(hypergraph: Hypergraph) -> tuple[tuple[_Group, ...], ...]:
    """Per vertex position, the positions of the other members of each edge at
    it, grouped by all members but the last: (prefix, lasts) pairs."""
    groups: list[dict[tuple[int, ...], list[int]]] = [{} for _ in hypergraph.vertices]
    for row in _edge_positions(hypergraph).tolist():
        for p in row:
            others = [q for q in row if q != p]
            groups[p].setdefault(tuple(others[:-1]), []).append(others[-1])
    return tuple(tuple((prefix, tuple(lasts)) for prefix, lasts in g.items()) for g in groups)


def _exact_bracket(hypergraph: Hypergraph, ints: Sequence[int]
                   ) -> tuple[list[int], list[int], Fraction, Fraction]:
    """S_i, P_i = a_i^{m-1} and the exact min and max of S_i / P_i at a positive
    integer vector a, where S_i sums over the edges e at i the product of the
    other entries of e; the extremes are picked by integer cross-multiplication.
    Edges at i that share all other members but the last share one product:
    S_i = sum over the groups of prod(prefix) * sum(lasts)."""
    m = hypergraph.rank
    get = ints.__getitem__
    sums = [sum(math.prod(map(get, prefix)) * sum(map(get, lasts)) for prefix, lasts in link)
            for link in _links(hypergraph)]
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

    Entries may be ints, floats, Fractions or numpy floats, given in vertex
    order; each is taken at its exact rational value, so the returned
    (lo, hi) provably contain the principal eigenvalue no matter how the
    vector was produced.  The residual is max_j |apply_j - mid * x_j^{m-1}|
    at the bracket midpoint.  The work is done on the integer vector a = D * x
    for the common denominator D, since the ratios S_i / a_i^{m-1} do not
    depend on the scale.
    """
    point = _positive_fractions(hypergraph, values)
    scale = math.lcm(*(t.denominator for t in point))
    ints = [t.numerator * (scale // t.denominator) for t in point]
    sums, powered, lo, hi = _exact_bracket(hypergraph, ints)
    mid = (lo + hi) / 2
    worst = max(abs(s * mid.denominator - mid.numerator * p) for s, p in zip(sums, powered))
    return lo, hi, Fraction(worst, mid.denominator * scale ** (hypergraph.rank - 1))


# Each Newton step carries the vector this many more bits; refinement stops
# before the working precision would pass MAX_REFINEMENT_BITS.
_STEP_BITS = 50
MAX_REFINEMENT_BITS = 4096


def _newton_correction(hypergraph: Hypergraph, ints: list[int], sums: list[int],
                       lam: int, bits: int) -> np.ndarray:
    """Float64 Newton correction of the pair (a / 2^bits, lam / 2^bits), times 2^bits.

    `sums` are the edge sums of `ints`.  The residual A x^{m-1} - lam x^{[m-1]}
    is taken exactly in integers and only then rounded.  The Jacobian is the
    float derivative in x, the column -x^{[m-1]} for lam, and the row
    x^{[m-1]} that keeps the m-norm fixed to first order.
    """
    m = hypergraph.rank
    nv = len(ints)
    epos = _edge_positions(hypergraph)
    scale = 1 << (bits * (m - 1))
    rhs = np.zeros(nv + 1)
    rhs[:nv] = [(lam * t ** (m - 1) - (s << bits)) / scale for s, t in zip(sums, ints)]
    arr = np.array([t / (1 << bits) for t in ints])
    jac = np.zeros((nv + 1, nv + 1))
    for p in range(m):
        for q in range(m):
            if p != q:
                others = [arr[epos[:, u]] for u in range(m) if u not in (p, q)]
                np.add.at(jac, (epos[:, p], epos[:, q]), np.prod(others, axis=0))
    jac[np.arange(nv), np.arange(nv)] -= (m - 1) * (lam / (1 << bits)) * arr ** (m - 2)
    jac[:nv, nv] = -arr ** (m - 1)
    jac[nv, :nv] = arr ** (m - 1)
    return np.linalg.solve(jac, rhs)


def refined_eigenvector(hypergraph: Hypergraph, start, *, width: Fraction
                        ) -> tuple[list[Fraction], int, Fraction, Fraction]:
    """Newton refinement of a positive vector toward the principal eigenvector.

    Mixed-precision iterative refinement: the vector is held as a / 2^B in
    Python ints, the residual of the eigen equation is exact, and the Newton
    correction is solved in float64 and added back with B grown by
    _STEP_BITS.  Steps go on until the exact Collatz-Wielandt width is at
    most `width`; a step that does not narrow the bracket or leaves the
    positive cone ends the refinement, and so does reaching
    MAX_REFINEMENT_BITS.  Returns (entries, steps, lo, hi): the exact dyadic
    entries of the best vector reached, the number of steps kept, and the
    exact bracket of those entries, equal to rational_bracket's (lo, hi).
    """
    if not is_connected(hypergraph):
        raise NotConnectedError("principal eigenpair needs a connected hypergraph")
    point = _positive_fractions(hypergraph, start)
    # a denominator 2^B has bit length B + 1, and B bits hold it exactly
    bits = max(64, *(t.denominator.bit_length() - 1 for t in point))
    ints = [round(t * (1 << bits)) for t in point]
    sums, powered, lo, hi = _exact_bracket(hypergraph, ints)
    # Rayleigh quotient <x, A x^{m-1}> / <x, x^{[m-1]}>, at scale 2^bits
    lam = ((sum(s * t for s, t in zip(sums, ints)) << bits)
           // sum(p * t for p, t in zip(powered, ints)))
    lift = float(1 << _STEP_BITS)
    steps = 0
    while hi - lo > width and bits + _STEP_BITS <= MAX_REFINEMENT_BITS:
        step = _newton_correction(hypergraph, ints, sums, lam, bits)
        trial = [(a << _STEP_BITS) + round(d * lift) for a, d in zip(ints, step)]
        if min(trial) <= 0:
            break
        trial_sums, _, trial_lo, trial_hi = _exact_bracket(hypergraph, trial)
        if trial_hi - trial_lo >= hi - lo:
            break
        ints, sums, lo, hi = trial, trial_sums, trial_lo, trial_hi
        lam = (lam << _STEP_BITS) + round(step[-1] * lift)
        bits += _STEP_BITS
        steps += 1
    return [Fraction(t, 1 << bits) for t in ints], steps, lo, hi


def principal_eigenpair(hypergraph: Hypergraph, *, seed: int = 0) -> EigenPair:
    """Shifted power iteration to the positive principal eigenpair.

    Each step applies the tensor, adds SHIFT * x^{m-1}, takes the (m-1)-th
    root, and renormalizes; the eigenvalue brackets are the min and max
    Collatz-Wielandt ratios at the current iterate.  Convergence means the
    bracket width and the residual both drop below TOLERANCE, floored at 64
    ulps of the upper bracket, which double precision can still resolve once
    lambda is in the hundreds.  After MAX_ITERATIONS the best iterate is
    returned with converged=False.  Seed 0 starts from all-ones; any other
    seed jitters that start.
    """
    if not is_connected(hypergraph):
        raise NotConnectedError("principal eigenpair needs a connected hypergraph")
    m = hypergraph.rank
    nv = len(hypergraph.vertices)
    epos = _edge_positions(hypergraph)

    arr = np.ones(nv)
    if seed:
        arr = arr + np.random.default_rng(seed).uniform(0.0, 0.5, nv)
    arr /= _lm_norm(arr, m)

    lo = hi = mid = res = 0.0
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        applied = _apply_positions(epos, arr, nv)
        powered = arr ** (m - 1)
        ratios = applied / powered
        lo, hi = float(ratios.min()), float(ratios.max())
        mid = 0.5 * (lo + hi)
        res = float(np.max(np.abs(applied - mid * powered)))
        floor = max(TOLERANCE, 64 * math.ulp(hi))
        if hi - lo < floor and res < floor:
            return EigenPair(mid, lo, hi, arr, hypergraph.vertices, res, iterations)
        nxt = (applied + SHIFT * powered) ** (1.0 / (m - 1))
        arr = nxt / _lm_norm(nxt, m)

    return EigenPair(mid, lo, hi, arr, hypergraph.vertices, res, iterations,
                     converged=False,
                     message=f"bracket width {hi - lo:.3e} after {iterations} iterations")


def oracle_radius(hypergraph: Hypergraph, *, restarts: int = 8, seed: int = 0) -> float:
    """m * max of the generating polynomial on the unit m-norm sphere.

    Multi-start projected gradient ascent with a backtracking step size; a
    restart stops once the tangent gradient is below 1e-10 * max(1, m * f),
    or after 50,000 steps.
    The ascent direction uses `_apply_positions`, as the power iteration
    does; only the objective `value` is separate.  The result is m * f at a
    unit-norm nonnegative point, so it never exceeds lambda beyond rounding.
    """
    if not is_connected(hypergraph):
        raise NotConnectedError("oracle_radius needs a connected hypergraph")
    m = hypergraph.rank
    nv = len(hypergraph.vertices)
    epos = _edge_positions(hypergraph)
    rng = np.random.default_rng(seed)

    def value(arr: np.ndarray) -> float:
        prod = arr[epos[:, 0]]
        for t in range(1, m):
            prod = prod * arr[epos[:, t]]
        return float(prod.sum())

    best = 0.0
    for trial in range(restarts):
        if trial == 0:
            arr = np.ones(nv)
        else:
            arr = rng.uniform(0.05, 1.0, nv)
        arr /= _lm_norm(arr, m)
        fval = value(arr)
        step = 0.5
        stall = 0
        for _ in range(50_000):
            grad = _apply_positions(epos, arr, nv)
            powered = arr ** (m - 1)
            # ascent direction tangent to the constraint surface; the raw
            # Euclidean gradient followed by renormalization is not an
            # ascent direction for m > 2
            mult = float(grad @ powered) / float(powered @ powered)
            direction = grad - mult * powered
            defect = float(np.max(np.abs(direction)))
            if defect <= 1e-10 * max(1.0, m * fval):
                break
            cand = arr
            cval = fval
            while step > 1e-18:
                cand = np.maximum(arr + step * direction, 0.0)
                norm = _lm_norm(cand, m)
                if norm > 0.0:
                    cand /= norm
                    cval = value(cand)
                    if cval >= fval:
                        break
                step *= 0.5
            if step <= 1e-18:
                break
            if cval - fval <= 1e-15 * max(1.0, fval):
                stall += 1
            else:
                stall = 0
            arr, fval = cand, cval
            if stall >= 50:
                break
            step = min(step * 1.5, 4.0)
        best = max(best, fval)
    return m * best


def vector_digest(vector: Sequence[float]) -> str:
    """Hash of the canonical 12-digit decimal rendering of the vector."""
    rendered = ",".join(format(float(t), ".12e") for t in vector)
    return hashlib.sha256(rendered.encode("ascii")).hexdigest()


def report_record(pair: EigenPair, family: str, n: int | None) -> dict:
    """Flat JSON-ready record of a solved eigenpair."""
    return {
        "family": family,
        "n": n,
        "lambda_lo": pair.value_lo,
        "lambda_hi": pair.value_hi,
        "residual": pair.residual,
        "iterations": pair.iterations,
        "vector_digest": vector_digest(pair.vector),
    }
