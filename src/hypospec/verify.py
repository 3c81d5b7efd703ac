"""The paper's lemmas as pass/fail claims, plus the numeric theorem.

Every exact or enumerated check builds its Claim record the same way: it
yields the details of its failures lazily, and `_claim` passes it when the
stream is empty, or fails it with the first detail, so later checks run only
while earlier ones pass.  Exact claims go through `_exact`, which takes
`(label, difference)` pairs: each stated identity becomes a zero-polynomial
test, usually after an orbit substitution that restricts to the subspace
fixed by a set of vertex permutations (the hypotheses "theta(x) = x,
sigma_i(x) = x" of the statements), and the first nonzero difference is the
failure's certificate.  Numeric claims carry certified Collatz-Wielandt
brackets, recomputed in exact rational arithmetic before any verdict is
drawn from them.

The closed-form family builders in this module are written against the index
arithmetic directly, independent of the recursive constructions in
`families`, so the cross-check claims exercise two genuinely different
routes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Sequence

from .families import (FamilySpec, base_cycles, e_map, family_hypergraph,
                       family_poly, mod_v, orbit_substitution, p_eps, p_map,
                       q_map, sigma_endo, sigma_index, sigma_perm, theta_perm)
from .hypergraph import Hypergraph
from .polyalg import Endomorphism, SparsePoly, x
from .spectral import (SolverConfig, codegree, degree, principal_eigenpair,
                       rational_bracket, refined_eigenvector)


@dataclass
class Claim:
    """Outcome of one verification check."""

    id: str
    params: dict
    kind: str  # exact-identity | brute-force-enumeration | numeric
    passed: bool
    detail: str = ""
    elapsed: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "kind": self.kind,
            "passed": self.passed,
            "detail": self.detail,
        }


def claims_to_json(claims: Sequence[Claim]) -> str:
    return json.dumps([c.to_json_dict() for c in claims], sort_keys=True, indent=2)


def write_verdict(path: str, claims: Sequence[Claim]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(claims_to_json(claims))
        fh.write("\n")


def _underflows(q: Fraction) -> bool:
    """q is nonzero but float(q) is below the smallest normal double, so the
    float keeps fewer significant digits than asked for, or none."""
    return q != 0 and abs(float(q)) < sys.float_info.min


def format_exact(q: Fraction, spec: str) -> str:
    """`format(float(q), spec)`, or, where float(q) underflows, the same
    significant digits computed from q itself through `decimal`."""
    if not _underflows(q):
        return format(float(q), spec)
    with localcontext() as ctx:
        ctx.prec = 40
        return format(Decimal(q.numerator) / Decimal(q.denominator), spec)


_NONZERO = "nonzero difference"


def _certificate(diff: SparsePoly) -> str:
    """The difference as text, cut after 600 characters."""
    text = diff.to_text()
    return text if len(text) <= 600 else text[:600] + f" ... ({len(diff)} terms total)"


def _claim(cid: str, params: dict, kind: str, failures: Iterable[str],
           note: str = "") -> Claim:
    """Pass if `failures` yields nothing, else fail with its first detail; the
    stream is read lazily, so later checks run only while earlier ones pass."""
    first = next(iter(failures), None)
    if first is None:
        return Claim(cid, params, kind, True, note)
    return Claim(cid, params, kind, False, first)


def _exact(cid: str, params: dict, checks: Iterable[tuple[str, SparsePoly]],
           note: str = "") -> Claim:
    """Exact-identity claim over `(label, difference)` pairs: the first
    nonzero difference fails it, with the difference as certificate."""
    return _claim(cid, params, "exact-identity",
                  (f"{label}: {_certificate(diff)}" for label, diff in checks if not diff.is_zero),
                  note)


def _timed(claim_fn: Callable[..., Claim]) -> Callable[..., Claim]:
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        claim = claim_fn(*args, **kwargs)
        claim.elapsed = time.perf_counter() - start
        return claim
    return wrapper


def fixed_point_map(n: int, *, theta: bool = False, sigmas: Iterable[int] = ()):
    """Orbit substitution for the group generated by the listed permutations."""
    gens = []
    if theta:
        gens.append(theta_perm(n))
    for i in sigmas:
        gens.append(sigma_perm(n, i))
    return orbit_substitution(n, gens)


# -- difference polynomials ----------------------------------------------------


def f_poly(n: int, r: int) -> SparsePoly:
    """The stated change of the families under sigma_r on the fixed subspace."""
    if not 0 <= r <= n - 2:
        raise ValueError(f"need 0 <= r <= n-2, got r={r}, n={n}")
    if r <= n - 3:
        first = (x(1) - x(1 + (1 << (r + 1)))).substitute(e_map(n, r + 2))
        second = (x(1) - x(1 + (1 << (r + 2)))).substitute(e_map(n, r + 3))
        third = (-x(1 + (1 << (r + 1))) + x(1 + (1 << (r + 1)) + (1 << (r + 2)))).substitute(
            e_map(n, r + 3))
        return (1 << (r + 1)) * first * second * third
    half = 1 << (n - 1)
    return (1 << (n - 1)) * (x(1) - x(1 + half)) * x(1) * (-x(1 + half))


def neigh_square(n: int, r: int) -> SparsePoly:
    """The stated link difference for k = n - r; defined for r <= n-3 only."""
    if not 0 <= r <= n - 3:
        raise ValueError(f"the link-difference square needs 0 <= r <= n-3, got r={r}, n={n}")
    return (x(1) - x(1 + (1 << (r + 2)))).substitute(e_map(n, r + 3)) ** 2


def pair_gap_poly(n: int) -> SparsePoly:
    """x_0 * (E_2(x_1 - x_3))^2, the exact excess of Y^n over X^n on the
    theta-fixed subspace."""
    return x(0) * (x(1) - x(3)).substitute(e_map(n, 2)) ** 2


# -- closed-form rebuilds (independent of the recursive constructions) ---------


def _base33_reindexed() -> SparsePoly:
    """Both cycle sums on V_3, written with the +-1 and +-3 offsets directly."""
    total = SparsePoly.zero()
    for i in range(1, 9):
        for off in (1, 3):
            total = total + x(mod_v(3, i - off)) * x(i) * x(mod_v(3, i + off))
    return total


def _p_eps_index(n: int, bits: Sequence[int], i: int) -> int:
    return mod_v(n, (i << len(bits)) - sum(b << j for j, b in enumerate(bits)))


def _map_indices(poly: SparsePoly, fn: Callable[[int], int]) -> SparsePoly:
    return poly.substitute(Endomorphism({v: x(fn(v)) for v in poly.variables()}))


def explicit_g2(n: int) -> SparsePoly:
    total = SparsePoly.zero()
    for bits in product((0, 1), repeat=n - 3):
        for i in range(1, 5):
            term = SparsePoly.constant(1)
            for off in (0, 2, 4):
                term = term * x(_p_eps_index(n, bits, i + off))
            total = total + term
    return total


def explicit_gk(n: int, k: int) -> SparsePoly:
    if not 3 <= k <= n:
        raise ValueError(f"need 3 <= k <= n, got k={k}, n={n}")
    level_k = _base33_reindexed().substitute(e_map(k, 3))
    total = SparsePoly.zero()
    for bits in product((0, 1), repeat=n - k):
        total = total + _map_indices(level_k, lambda v, b=bits: _p_eps_index(n, b, v))
    return total


def explicit_t(n: int) -> SparsePoly:
    total = explicit_g2(n)
    for r in range(1, n - 2):
        level = _base33_reindexed().substitute(e_map(n - r, 3))
        for bits in product((0, 1), repeat=r):
            total = total + _map_indices(level, lambda v, b=bits: _p_eps_index(n, b, v))
    return total


def explicit_gamma(n: int) -> SparsePoly:
    return explicit_t(n) + _base33_reindexed().substitute(e_map(n, 3))


# -- exact claims ----------------------------------------------------------------


@_timed
def verify_basis_step(n: int, *, x_poly: SparsePoly | None = None,
                      y_poly: SparsePoly | None = None) -> Claim:
    """On the theta-fixed subspace, Y^n - X^n equals x_0 * (E_2(x_1-x_3))^2."""
    xp = x_poly if x_poly is not None else family_poly(FamilySpec("X", n))
    yp = y_poly if y_poly is not None else family_poly(FamilySpec("Y", n))
    phi = fixed_point_map(n, theta=True)
    diff = (yp - xp - pair_gap_poly(n)).substitute(phi)
    return _exact("lemma-basis-step", {"n": n}, [(_NONZERO, diff)])


@_timed
def verify_induction_cycles(n: int, r: int, k: int, *,
                            g_poly: SparsePoly | None = None) -> Claim:
    """G_k^n(x) - G_k^n(sigma_r x) on the subspace fixed by theta and
    sigma_0..sigma_{r-1}: equals f_r^n when k = n - r, else 0."""
    if not (0 <= r <= n - 2 and 2 <= k <= n):
        raise ValueError(f"need 0 <= r <= n-2 and 2 <= k <= n, got r={r}, k={k}, n={n}")
    g = g_poly if g_poly is not None else family_poly(FamilySpec("G", n, k))
    phi = fixed_point_map(n, theta=True, sigmas=range(r))
    expected = f_poly(n, r) if k == n - r else SparsePoly.zero()
    diff = (g - g.substitute(sigma_endo(n, r)) - expected).substitute(phi)
    branch = "f" if k == n - r else "0"
    return _exact("lemma-induction-cycles", {"n": n, "r": r, "k": k, "expected": branch},
                  [(_NONZERO, diff)])


@_timed
def verify_sigma_general(n: int, r: int, *, x_poly: SparsePoly | None = None) -> Claim:
    """Same difference for the full X^n; M0 must be exactly sigma_r-invariant."""
    if not 0 <= r <= n - 2:
        raise ValueError(f"need 0 <= r <= n-2, got r={r}, n={n}")
    xp = x_poly if x_poly is not None else family_poly(FamilySpec("X", n))
    def checks():
        m0 = family_poly(FamilySpec("M0", n))
        yield f"M0 is not sigma_{r}-invariant", m0 - m0.substitute(sigma_endo(n, r))
        phi = fixed_point_map(n, theta=True, sigmas=range(r))
        yield _NONZERO, (xp - xp.substitute(sigma_endo(n, r)) - f_poly(n, r)).substitute(phi)
    return _exact("lemma-sigma-general", {"n": n, "r": r}, checks())


@_timed
def verify_induction_neigh(n: int, r: int, k: int, *,
                           g_poly: SparsePoly | None = None) -> Claim:
    """Link difference G_k^n[1] - G_k^n[1+2^r] on the subspace fixed by theta
    and sigma_0..sigma_r: the stated square when k = n - r, else 0.

    The square branch exists only for k = n - r >= 3; at k = 2, r = n - 2 the
    stated square would need E_{n+1}^n, so that pair is rejected.
    """
    if not (0 <= r <= n - 2 and 2 <= k <= n):
        raise ValueError(f"need 0 <= r <= n-2 and 2 <= k <= n, got r={r}, k={k}, n={n}")
    if k == n - r and k == 2:
        raise ValueError(f"(n={n}, r={r}, k=2): the square branch needs E_{n + 1}^{n}, "
                         "which does not exist; valid square cases have k = n - r >= 3")
    g = g_poly if g_poly is not None else family_poly(FamilySpec("G", n, k))
    phi = fixed_point_map(n, theta=True, sigmas=range(r + 1))
    expected = neigh_square(n, r) if k == n - r else SparsePoly.zero()
    diff = (g.derivative(1) - g.derivative(1 + (1 << r)) - expected).substitute(phi)
    branch = "square" if k == n - r else "0"
    return _exact("lemma-induction-neigh", {"n": n, "r": r, "k": k, "expected": branch},
                  [(_NONZERO, diff)])


@_timed
def verify_neigh_general(n: int, r: int, *, x_poly: SparsePoly | None = None) -> Claim:
    """X^n[1] - X^n[1+2^r] equals the stated square on the same subspace."""
    if not 0 <= r <= n - 3:
        raise ValueError(f"need 0 <= r <= n-3, got r={r}, n={n}")
    xp = x_poly if x_poly is not None else family_poly(FamilySpec("X", n))
    phi = fixed_point_map(n, theta=True, sigmas=range(r + 1))
    diff = (xp.derivative(1) - xp.derivative(1 + (1 << r)) - neigh_square(n, r)).substitute(phi)
    return _exact("lemma-neigh-general", {"n": n, "r": r}, [(_NONZERO, diff)])


@_timed
def _claim_rec_defn_g_n(n: int) -> Claim:
    via_e = family_poly(FamilySpec("G", 3, 3)).substitute(e_map(n, 3))
    via_q, g_nn = family_poly(FamilySpec("H", n)), family_poly(FamilySpec("G", n, n))
    return _exact("lemma-rec-defn-g-n", {"n": n}, [(_NONZERO, via_q - via_e), (_NONZERO, g_nn - via_e)])


@_timed
def _claim_remark_rec_defn(n: int) -> Claim:
    def checks():
        at = "closed form differs from recursion at"
        yield f"{at} G2", explicit_g2(n) - family_poly(FamilySpec("G", n, 2))
        for k in range(3, n + 1):
            yield f"{at} G{k}", explicit_gk(n, k) - family_poly(FamilySpec("G", n, k))
        yield f"{at} T", explicit_t(n) - family_poly(FamilySpec("T", n))
        yield f"{at} Gamma", explicit_gamma(n) - family_poly(FamilySpec("Gamma", n))
    return _exact("remark-rec-defn", {"n": n}, checks(),
                  f"{n + 1} closed forms match the recursions")


@_timed
def _claim_two_cycles_reindex() -> Claim:
    c3, d3 = base_cycles()
    direct = SparsePoly.zero()
    for j in range(1, 9):
        direct = direct + x(mod_v(3, j - 3)) * x(j) * x(mod_v(3, j + 3))
    return _exact("remark-two-cycles-reindex", {"n": 3}, [(_NONZERO, d3 - direct)],
                  "tau-substituted cycle equals the +-3 offset sum")


# part -> (sigmas fixed besides theta, pairs (a, b) with E_3(x_a) = E_3(x_b))
_HELPER_CYCLE_PARTS = {
    1: ((), [(2 * i, 9 - 2 * i) for i in range(1, 5)]),
    2: ((0,), [(7, 1), (5, 3)]),
    3: ((0, 1), [(j, 1) for j in range(2, 9)]),
}


@_timed
def _claim_helper_cycle(n: int, part: int) -> Claim:
    sigmas, pairs = _HELPER_CYCLE_PARTS[part]
    e3 = e_map(n, 3)
    phi = fixed_point_map(n, theta=True, sigmas=sigmas)
    return _exact("lemma-helper-cycle", {"n": n, "part": part},
                  ((f"E_3(x_{a}) != E_3(x_{b})", (x(a) - x(b)).substitute(e3).substitute(phi))
                   for a, b in pairs))


@_timed
def _claim_odd_even_eight(n: int, r: int) -> Claim:
    """p_j E_r^n agrees with E_{r+1}^{n+1} on the sigma_0-fixed subspace of
    the doubled vertex set, for both j and both stated generators."""
    phi = fixed_point_map(n + 1, sigmas=(0,))
    ern = e_map(n, r)
    target = e_map(n + 1, r + 1)
    cases = [(x(1), x(1)), (x(1 + (1 << (r - 1))), x(1 + (1 << r)))]
    doublings = [p_map(n + 1, j) for j in (0, 1)]
    return _exact("lemma-odd-even-eight", {"n": n, "r": r},
                  ((f"failed at j={j}, source {src.to_text()}",
                    (src.substitute(ern).substitute(pj) - dst.substitute(target)).substitute(phi))
                   for j, pj in enumerate(doublings) for src, dst in cases))


@_timed
def _claim_even_odd_f(n: int, r: int) -> Claim:
    """(p_0 + p_1) f_r^n = f_{r+1}^{n+1} on the sigma_0-fixed subspace."""
    phi = fixed_point_map(n + 1, sigmas=(0,))
    fr = f_poly(n, r)
    pushed = fr.substitute(p_map(n + 1, 0)) + fr.substitute(p_map(n + 1, 1))
    diff = (pushed - f_poly(n + 1, r + 1)).substitute(phi)
    return _exact("lemma-even-odd-f", {"n": n, "r": r}, [(_NONZERO, diff)])


@_timed
def _claim_interaction_sigma_p(n: int) -> Claim:
    """p_j sigma_{r-1} = sigma_r p_j on V_{n-1}, as vertex arithmetic."""
    bad = []
    for r in range(1, n - 1):
        for j in (0, 1):
            for i in range(1, (1 << (n - 1)) + 1):
                left = mod_v(n, 2 * sigma_index(r - 1, i) - j)
                right = sigma_index(r, mod_v(n, 2 * i - j))
                if left != right:
                    bad.append((r, j, i, left, right))
    return _claim("remark-interaction-sigma-p", {"n": n}, "brute-force-enumeration",
                  [f"first mismatch at r={r}, j={j}, i={i}: p sigma = {left}, sigma p = {right}"
                   f" ({len(bad)} mismatches)" for r, j, i, left, right in bad[:1]],
                  f"all r in 1..{n - 2}, j in 0..1, i in V_{n - 1} agree")


@_timed
def _claim_sigma_threshold(n: int) -> Claim:
    """E_r^n(x_i) is invariant under index shifts by 2^t and under sigma_t, t >= r."""
    def checks():
        for r in range(2, n):
            ern = e_map(n, r)
            for t in range(r, n):
                for i in range(1, (1 << n) + 1):
                    image = x(i).substitute(ern)
                    yield (f"E_{r} differs at i={i}, t={t}",
                           image - x(mod_v(n, i + (1 << t))).substitute(ern))
                    yield (f"E_{r} not sigma_{t}-invariant at i={i}",
                           image - x(sigma_index(t, i)).substitute(ern))
    return _exact("remark-sigma-threshold", {"n": n}, checks())


# Longest doubling word that `remark-repeated-app` composes.
_MAX_EPS_LENGTH = 4


@_timed
def _claim_repeated_app(n: int) -> Claim:
    """Composite doubling maps match the closed-form index map."""
    def failures():
        for r in range(1, _MAX_EPS_LENGTH + 1):
            for bits in product((0, 1), repeat=r):
                endo = p_eps(n, bits)
                for i in range(1, (1 << n) + 1):
                    expected = x(_p_eps_index(n, bits, i))
                    if endo.image(i) != expected:
                        yield (f"eps={list(bits)}, i={i}: composition gives "
                               f"{endo.image(i).to_text()}, closed form {expected.to_text()}")
    return _claim("remark-repeated-app", {"n": n}, "brute-force-enumeration", failures(),
                  f"all eps up to length {_MAX_EPS_LENGTH} agree with the closed form")


@_timed
def _claim_helper_parity(n: int) -> Claim:
    """Characterize when a composite doubling map sends an index to 1 or 2."""
    def failures():
        for r in range(1, n - 2):
            period = 1 << (n - r)
            ones = (1,) * r
            almost = (0,) + (1,) * (r - 1)
            for i in range(1, (1 << n) + 1):
                hits = i % period == 1
                for bits in product((0, 1), repeat=r):
                    val = i
                    for b in reversed(bits):
                        val = 2 * val - b
                    val = mod_v(n, val)
                    for target, pattern in ((1, ones), (2, almost)):
                        if (val == target) != (hits and bits == pattern):
                            yield (f"value-{target} characterization fails at i={i}, r={r}, "
                                   f"eps={list(bits)} (p_eps(i) = {val})")
    # 2^n indices times 2^r words for each r in 1..n-3
    return _claim("lemma-helper-parity", {"n": n}, "brute-force-enumeration", failures(),
                  f"{(1 << n) * ((1 << (n - 2)) - 2)} cases enumerated")


def _edge_degrees(hypergraph: Hypergraph) -> Counter:
    """Degree of every vertex, counted in one pass over the edges."""
    return Counter(v for e in hypergraph.edges for v in e)


def links_at_ones(poly: SparsePoly) -> Counter:
    """dp/dx_v at the all-ones point for every variable v, in one pass over
    the terms: the sum of coef * (multiplicity of v) over the terms."""
    out: Counter = Counter()
    for mono, coef in poly.terms.items():
        for v in mono:
            out[v] += coef
    return out


@_timed
def _claim_degree_table(n: int) -> Claim:
    """Vertex degrees of Gamma_n follow the two-value pattern by vertex class."""
    gamma = family_hypergraph(FamilySpec("Gamma", n))
    degrees = _edge_degrees(gamma)
    low, quarter = 1 << (2 * n - 3), 1 << (n - 2)
    expected = {i: low - 1 if (i <= quarter or i >= 1 + 3 * quarter) else low
                for i in range(1, (1 << n) + 1)}
    bad = [i for i in expected if degrees[i] != expected[i]]
    return _claim("degree-table", {"n": n}, "exact-identity",
                  [f"deg(. , {i}) = {degrees[i]}, expected {expected[i]} ({len(bad)} mismatches)"
                   for i in bad[:1]],
                  f"|E| = {gamma.num_edges}, degrees are {low - 1} and {low} by class")


@_timed
def _claim_degree_link_coherence(n: int) -> Claim:
    """Edge-count degree equals the link polynomial evaluated at all-ones."""
    links = links_at_ones(family_poly(FamilySpec("X", n)))
    hg = family_hypergraph(FamilySpec("X", n))
    degrees = _edge_degrees(hg)
    return _claim("degree-link-coherence", {"n": n}, "exact-identity",
                  (f"vertex {v}: link at ones = {links[v]}, edge count = {degrees[v]}"
                   for v in hg.vertices if links[v] != degrees[v]))


@_timed
def _claim_t_parity(n: int) -> Claim:
    """Every edge of T_n lives inside one parity class."""
    t_hg = family_hypergraph(FamilySpec("T", n))
    return _claim("t-parity", {"n": n}, "exact-identity",
                  (f"mixed-parity edge {list(e)}"
                   for e in t_hg.edges if len({v % 2 for v in e}) != 1),
                  f"{t_hg.num_edges} edges, all parity-pure")


@_timed
def _claim_q_e3_composition(n: int) -> Claim:
    """q^n composed after E_3^{n-1} equals E_3^n on every generator."""
    lifted = q_map(n).compose(e_map(n - 1, 3))
    target = e_map(n, 3)
    return _exact("q-e3-composition", {"n": n},
                  ((f"images differ at x_{i}", lifted.image(i) - target.image(i))
                   for i in range(0, (1 << (n - 1)) + 1)))


def verify_identity_suite(n: int) -> list[Claim]:
    """All exact claims at a given n, in a deterministic order.  Its loops fix
    the parameter ranges of the private `_claim_*` checks, which take them
    unchecked."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    claims = [_claim_rec_defn_g_n(n), _claim_remark_rec_defn(n)]
    if n == 3:
        claims.append(_claim_two_cycles_reindex())
    claims += [_claim_helper_cycle(n, part) for part in _HELPER_CYCLE_PARTS]
    claims += [_claim_odd_even_eight(n, r) for r in range(2, n - 1)]
    claims += [_claim_even_odd_f(n, r) for r in range(n - 1)]
    claims += [_claim_interaction_sigma_p(n), _claim_sigma_threshold(n), _claim_repeated_app(n)]
    if n >= 4:
        claims.append(_claim_helper_parity(n))
    claims += [_claim_degree_table(n), _claim_degree_link_coherence(n), _claim_t_parity(n)]
    if n >= 4:
        claims.append(_claim_q_e3_composition(n))
    claims.append(verify_basis_step(n))
    claims += [verify_induction_cycles(n, r, k) for r in range(n - 1) for k in range(2, n + 1)]
    claims += [verify_sigma_general(n, r) for r in range(n - 1)]
    # the square branch needs k = n - r >= 3
    claims += [verify_induction_neigh(n, r, k) for r in range(n - 1) for k in range(2, n + 1)
               if not k == n - r == 2]
    claims += [verify_neigh_general(n, r) for r in range(n - 2)]
    return claims


# -- numeric claims --------------------------------------------------------------


@_timed
def verify_main_theorem(n: int, config: SolverConfig | None = None) -> Claim:
    """Certify that the pair has different spectral radii, with the predicted gap.

    The brackets are exact-rational Collatz-Wielandt bounds, so a separated
    pair of brackets is a proof of mu > lambda no matter how the vectors
    were computed.  The radius gap collapses roughly quadratically with n
    (about 1e-8 at n = 3, 2e-25 at n = 4, 2e-68 at n = 5), so both float
    vectors are Newton-refined in exact dyadic arithmetic until the brackets
    separate with each width below 2^-64 of the gap; the printed values then
    no longer depend on the float start.

    Passes iff mu_lo > lambda_hi exactly, the exact residuals meet the
    tolerance, the scale-free gap polynomial
    3 * x_0 * (E_2(x_1 - x_3))^2 / sum_i x_i^m is positive at the X^n
    eigenvector, and mu_lo >= lambda_hi + that value - 1e-8.  Whether the
    float stage converged does not enter the verdict.

    The params `predicted_gap` and `bracket_gap` are floats, so from n = 7 on
    they underflow to 0.0.  Where the predicted gap does, `predicted_gap_text`
    holds its 17 significant digits taken from the exact value, and the
    detail prints every exact value the same way.
    """
    cfg = config or SolverConfig()
    hx = family_hypergraph(FamilySpec("X", n))
    hy = family_hypergraph(FamilySpec("Y", n))
    pair_x = principal_eigenpair(hx, cfg)
    pair_y = principal_eigenpair(hy, cfg)
    vec_x = [Fraction(t) for t in pair_x.vector]
    vec_y = [Fraction(t) for t in pair_y.vector]
    x_lo, x_hi, x_res = rational_bracket(hx, vec_x)
    y_lo, y_hi, y_res = rational_bracket(hy, vec_y)
    steps = 0
    # The gap is unknown until the brackets separate, so until then each
    # round asks for about two Newton steps (100 bits); once they separate,
    # one more round makes both widths smaller than 2^-65 of the gap.
    while y_lo - x_hi <= max(x_hi - x_lo, y_hi - y_lo) * 2 ** 64:
        gap = y_lo - x_hi
        width = gap / 2 ** 65 if gap > 0 else max(x_hi - x_lo, y_hi - y_lo) / 2 ** 100
        vec_x, steps_x = refined_eigenvector(hx, vec_x, width=width)
        vec_y, steps_y = refined_eigenvector(hy, vec_y, width=width)
        if not steps_x + steps_y:
            break
        steps += steps_x + steps_y
        x_lo, x_hi, x_res = rational_bracket(hx, vec_x)
        y_lo, y_hi, y_res = rational_bracket(hy, vec_y)
    entry = dict(zip(hx.vertices, vec_x))
    e2_diff = sum(entry[j] for j in range(1, (1 << n) + 1) if j % 4 == 1) \
        - sum(entry[j] for j in range(1, (1 << n) + 1) if j % 4 == 3)
    predicted = 3 * entry[0] * e2_diff ** 2 / sum(t ** hx.rank for t in vec_x)
    gap_value = float(predicted)
    bits = max(t.denominator.bit_length() - 1 for t in vec_x + vec_y)
    params = {
        "n": n,
        "lambda_lo": float(x_lo), "lambda_hi": float(x_hi),
        "mu_lo": float(y_lo), "mu_hi": float(y_hi),
        "residual_x": float(x_res), "residual_y": float(y_res),
        "iterations_x": pair_x.iterations, "iterations_y": pair_y.iterations,
        "refinement_bits": bits, "refinement_iterations": steps,
        "e2_diff": float(e2_diff), "predicted_gap": gap_value,
        "bracket_gap": float(y_lo - x_hi),
    }
    if _underflows(predicted):
        params["predicted_gap_text"] = format_exact(predicted, ".17g")
    problems = []
    for tag, res in (("X", x_res), ("Y", y_res)):
        if float(res) >= cfg.tolerance:
            problems.append(f"{tag}^{n} certified residual {format_exact(res, '.3e')} "
                            ">= tolerance")
    if not predicted > 0:
        problems.append(f"gap polynomial at the X^{n} eigenvector is "
                        f"{format_exact(predicted, '.3e')}, not positive")
    if not y_lo > x_hi:
        problems.append(f"brackets do not separate even at {bits} bits: "
                        f"mu - lambda <= {format_exact(y_hi - x_lo, '.3e')}")
    elif not float(y_lo) >= float(x_hi) + gap_value - 1e-8:
        problems.append(f"bracket gap {format_exact(y_lo - x_hi, '.3e')} falls short of "
                        f"predicted {format_exact(predicted, '.3e')} - 1e-8")
    if problems:
        return Claim("main-theorem", params, "numeric", False, "; ".join(problems))
    return Claim("main-theorem", params, "numeric", True,
                 f"mu - lambda in [{format_exact(y_lo - x_hi, '.6g')}, "
                 f"{format_exact(y_hi - x_lo, '.6g')}] "
                 f"at {bits} bits; predicted gap {format_exact(predicted, '.6g')}")


def cone_over(base: Hypergraph, apex_links: Sequence[Sequence[int]], apex: int = 0) -> Hypergraph:
    """Attach an apex through the given (rank-1)-element links; the apex must
    meet every base vertex in the same number of edges."""
    if apex in set(base.vertices):
        raise ValueError(f"apex {apex} already belongs to the base")
    counts = {v: 0 for v in base.vertices}
    edges = list(base.edges)
    for link in apex_links:
        link = tuple(sorted(link))
        if len(link) != base.rank - 1 or len(set(link)) != len(link):
            raise ValueError(f"apex link {link!r} is not a {base.rank - 1}-element set")
        for v in link:
            if v not in counts:
                raise ValueError(f"apex link {link!r} leaves the base vertex set")
            counts[v] += 1
        edges.append((apex,) + link)
    if len(set(counts.values())) != 1:
        raise ValueError(f"apex codegree is not constant over the base: {sorted(set(counts.values()))}")
    return Hypergraph(base.rank, (apex,) + base.vertices, edges)


def _positive_root(lam_g: float, gamma: int, target: float, m: int) -> float:
    """Unique u > 0 with lam_g * u^{m-1} + gamma * u^m = target, by bisection."""
    def fn(u: float) -> float:
        return lam_g * u ** (m - 1) + gamma * u ** m - target
    hi = 1.0
    while fn(hi) < 0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@_timed
def verify_regular_cone(base: Hypergraph, apex_links: Sequence[Sequence[int]],
                        config: SolverConfig | None = None) -> Claim:
    """Check the cone equivalences: over a regular base the principal vector
    is constant on the base and the apex ratio solves the scalar root
    equation; over a non-regular base both constancy statements fail."""
    cfg = config or SolverConfig()
    cone = cone_over(base, apex_links)
    gamma = codegree(cone, 0, base.vertices[0])
    degrees = {degree(base, v) for v in base.vertices}
    regular = len(degrees) == 1
    pair_base = principal_eigenpair(base, cfg)
    pair_cone = principal_eigenpair(cone, cfg)
    base_entries = [pair_cone.entry(v) for v in base.vertices]
    spread_cone = max(base_entries) - min(base_entries)
    spread_base = float(pair_base.vector.max() - pair_base.vector.min())
    params = {
        "base_vertices": base.num_vertices, "base_edges": base.num_edges,
        "regular_base": regular, "apex_codegree": gamma,
        "cone_base_spread": spread_cone, "base_vector_spread": spread_base,
    }
    problems = []
    if regular:
        if spread_cone >= 1e-9:
            problems.append(f"cone vector not constant on the regular base: spread {spread_cone:.3e}")
        if spread_base >= 1e-9:
            problems.append(f"regular base vector not constant: spread {spread_base:.3e}")
        root = _positive_root(pair_base.value, gamma, degree(cone, 0), cone.rank)
        ratio = pair_cone.entry(0) / (sum(base_entries) / len(base_entries))
        params["scalar_root"] = root
        params["apex_ratio"] = ratio
        if abs(root - ratio) >= 1e-8:
            problems.append(f"scalar root {root:.12g} differs from apex ratio {ratio:.12g}")
    else:
        if spread_cone <= 1e-6:
            problems.append(f"cone vector unexpectedly constant on a non-regular base:"
                            f" spread {spread_cone:.3e}")
        if spread_base <= 1e-6:
            problems.append(f"non-regular base vector unexpectedly constant: spread {spread_base:.3e}")
    for tag, pair in (("base", pair_base), ("cone", pair_cone)):
        if not pair.converged:
            problems.append(f"{tag} solver did not converge: {pair.message}")
    if problems:
        return Claim("regular-cone", params, "numeric", False, "; ".join(problems))
    return Claim("regular-cone", params, "numeric", True,
                 "regular base: constant base entries and matching scalar root" if regular
                 else "non-regular base: both constancy statements fail as expected")


def standard_cone_samples() -> list[tuple[Hypergraph, list[tuple[int, ...]]]]:
    """One regular and one non-regular base, both with the constant-codegree
    apex pattern taken from M0 at n = 3."""
    links = [tuple(v for v in e if v != 0)
             for e in family_hypergraph(FamilySpec("M0", 3)).edges]
    c3 = family_hypergraph(FamilySpec("C3", 3))
    gamma3 = family_hypergraph(FamilySpec("Gamma", 3))
    return [(c3, links), (gamma3, links)]


def run_suite(ns: Sequence[int], *, include_numeric: bool = True,
              config: SolverConfig | None = None) -> list[Claim]:
    """Identity suites for each n, plus the numeric claims."""
    claims: list[Claim] = []
    for n in ns:
        claims.extend(verify_identity_suite(n))
    if include_numeric:
        for n in ns:
            claims.append(verify_main_theorem(n, config))
        for base, links in standard_cone_samples():
            claims.append(verify_regular_cone(base, links, config))
    return claims
