"""The paper's lemmas as pass/fail claims, plus the numeric theorem.

Every claim, numeric ones included, is built by `_claim` alone: a check
yields the details of its failures lazily, and `_claim` passes it when the
stream is empty, or fails it with the first detail, so later checks run only
while earlier ones pass; `_timed` copies it with `elapsed` set.  Exact
claims go through `_exact`, which takes `(label, lhs, rhs)` triples: each
stated identity becomes a comparison of the two sides' terms, usually after
an orbit substitution that restricts to the subspace fixed by a set of
vertex permutations (the hypotheses "theta(x) = x, sigma_i(x) = x" of the
statements), and lhs - rhs, built for the first pair that differs and only
for it, is the failure's certificate.
The orbit map is a ring map, so the stated products of linear factors
(f_r^n, the link square, the pair gap) are restricted factor by factor and
only then multiplied, in one substitution (`_restricted_product`).
Numeric claims carry certified Collatz-Wielandt brackets, recomputed in
exact rational arithmetic before any verdict is drawn from them.  No
verdict rests on a float tolerance: integer degrees and exact brackets
decide `regular-cone`, so only `main-theorem` runs the float solver, for
its start vectors.  `main-theorem` passes on three exact conditions alone:
the predicted gap is positive, mu_lo > lambda_hi, and mu_hi - lambda_lo
reaches the predicted gap.  Its exact residuals are reported in the params
and not judged.

Every restriction with theta is indexed by a level r, like the lemmas'
"theta(x) = x, sigma_i(x) = x for i < r": phi_r = `fixed_point_map(n, r)`
is the orbit map of theta and sigma_0..sigma_{r-1}.  The sigma-induction claims
restrict before they difference: with h = g o phi_r, (g - g o sigma_r) o
phi_r equals h - h o (phi_r o sigma_r), which works on the orbit quotient
alone.  That is exact only when sigma_r maps each orbit of phi_r onto an
orbit.  It holds because theta and every sigma_i act on j - 1 as commuting
XOR masks, and `restricted_difference(spec, r)` checks it on the vertex
tables before each use, raising ValueError where it fails.
`restricted_family` builds h for phi_r from its entry for phi_{r-1}, so
only r = 0 passes over the full family polynomial.  The two link claims
share `_link_gap(spec, r)`.  The orbit maps and the restricted polynomials,
like the structural maps of `families`, are memoised and shared, and so are
f_r^n under phi_r and the link square under phi_{r+1}, on (n, r): two
claims compare with each of them.  The doubling claims alone restrict
without theta, to sigma_0 on V_{n+1}, memoised as `sigma0_map(n + 1)`.

Every family polynomial that a claim reads comes through this module's
`family_poly` binding, directly or through `restricted_family`, which reads
it there; no claim takes a polynomial as an argument.  That binding is the
seam where the tests plant a fault, so a planted fault runs the same code as
`hypospec verify`.  No memo but `restricted_family` holds a polynomial
read there, and the tests clear that one around each planted fault; the
memoised stated products are built from `e_map` and the orbit maps alone.
The one exact claim that reads `family_hypergraph`, the hypergraph of
record built past the seam from `families.family_poly`, is
`degree-link-coherence`, whose job is to compare it with the seam's X^n.
The numeric claims import `spectral` when they run, as the `cli` handlers do.

The closed forms in this module are written against the index arithmetic
directly, independent of the recursive constructions in `families`, so the
cross-check claims exercise two genuinely different routes.  One builder,
`explicit_gk`, gives every G_k^n, k = 2 included: a level polynomial summed
over the doubling words p_eps, with p_eps(i) computed in closed form.
`remark-rec-defn` checks G_2^n..G_n^n in turn and sums T = G_2^n + ... +
G_{n-1}^n and Gamma = T + G_n^n from the forms it has just checked, so each
closed form is built once.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count, product
from typing import Callable, Iterable, NamedTuple, Sequence

from .families import (NUMERIC_N_CAP, FamilySpec, e_map, family_hypergraph, family_poly,
                       mod_v, orbit_substitution, p_eps, p_map, q_map, sigma_endo,
                       sigma_index, sigma_perm, theta_perm)
from .hypergraph import Hypergraph
from .polyalg import Endomorphism, SparsePoly, x


class Claim(NamedTuple):
    """Outcome of one verification check, built by `_claim` alone; `kind` is
    exact-identity, brute-force-enumeration or numeric."""

    id: str
    params: dict
    kind: str
    passed: bool
    detail: str = ""
    elapsed: float = 0.0


def claims_to_json(claims: Sequence[Claim]) -> str:
    """The verdict JSON: every field of each claim but the last, `elapsed`."""
    return json.dumps([dict(zip(Claim._fields[:-1], c)) for c in claims], sort_keys=True, indent=2)


def format_exact(q: Fraction, spec: str) -> str:
    """`format(float(q), spec)`, or, where q is nonzero and float(q) is below
    the smallest normal double, the digits of q itself through `decimal`."""
    value = float(q)
    if not q or abs(value) >= sys.float_info.min:
        return format(value, spec)
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
    """The one constructor of Claim: pass with `note` if `failures` yields
    nothing, else fail with its first detail; the stream is read lazily, so
    later checks run only while earlier ones pass."""
    first = next(iter(failures), None)
    return Claim(cid, params, kind, first is None, note if first is None else first)


def _exact(cid: str, params: dict, checks: Iterable[tuple[str, SparsePoly, SparsePoly]],
           note: str = "") -> Claim:
    """Exact-identity claim over `(label, lhs, rhs)` triples: the first pair
    of sides that differ fails it, with lhs - rhs as certificate.  Neither
    side holds a zero coefficient, so equal terms are exactly a zero
    difference, and the difference is built only for a failure."""
    return _claim(cid, params, "exact-identity",
                  (f"{label}: {_certificate(lhs - rhs)}" for label, lhs, rhs in checks
                   if lhs.terms != rhs.terms),
                  note)


def _timed(claim_fn: Callable[..., Claim]) -> Callable[..., Claim]:
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        return claim_fn(*args, **kwargs)._replace(elapsed=time.perf_counter() - start)
    return wrapper


@lru_cache(maxsize=None)
def fixed_point_map(n: int, r: int) -> Endomorphism:
    """phi_r, the orbit substitution of the group generated by theta and
    sigma_0..sigma_{r-1}, memoised on (n, r); the map is shared, so it must
    not be mutated."""
    return orbit_substitution(n, [theta_perm(n)] + [sigma_perm(n, i) for i in range(r)])


@lru_cache(maxsize=None)
def sigma0_map(n: int) -> Endomorphism:
    """The orbit map of sigma_0 on V_n, memoised and shared like `fixed_point_map`."""
    return orbit_substitution(n, [sigma_perm(n, 0)])


def _vertex_table(endo: Endomorphism, size: int) -> list[int]:
    """The images of the vertices 0..size-1 under a renaming endomorphism."""
    if not endo.is_renaming:
        raise ValueError("endomorphism does not rename every vertex to a vertex")
    return [endo.rename.get(v, v) for v in range(size)]


def restricted_difference(spec: FamilySpec, r: int) -> SparsePoly:
    """(g - g o sigma_r) o phi_r for g = family_poly(spec), from the already
    restricted h = restricted_family(spec, r): it is h - h o (phi_r o
    sigma_r), which works on the orbit quotient alone.

    The two agree exactly when sigma_r maps each orbit of phi_r onto an
    orbit, phi_r sigma_r phi_r = phi_r sigma_r on 0..2^n.  That is checked
    on the vertex tables first, and a ValueError is raised where it fails.
    """
    n, size = spec.n, (1 << spec.n) + 1
    phi, sigma = fixed_point_map(n, r), sigma_endo(n, r)
    rep, moved = _vertex_table(phi, size), _vertex_table(sigma, size)
    if any(rep[moved[rep[v]]] != rep[moved[v]] for v in range(size)):
        raise ValueError(f"sigma does not map the orbits of phi onto orbits of V_{n}")
    h = restricted_family(spec, r)
    return h - h.substitute(phi.compose(sigma))


@lru_cache(maxsize=None)
def restricted_family(spec: FamilySpec, r: int) -> SparsePoly:
    """The family polynomial g under phi_r = fixed_point_map(n, r), memoised
    and shared like `family_poly`.

    The orbits of phi_r only coarsen as r grows and phi_r sends each variable
    to its orbit minimum, so g o phi_r = (g o phi_{r-1}) o phi_r: each entry
    is the r - 1 entry restricted again, a much smaller input than g."""
    prev = family_poly(spec) if r == 0 else restricted_family(spec, r - 1)
    return prev.substitute(fixed_point_map(spec.n, r))


def _link_gap(spec: FamilySpec, r: int) -> SparsePoly:
    """The link difference g[1] - g[1 + 2^r] of g = family_poly(spec), under
    phi_{r+1}: the left side of both link claims."""
    g = family_poly(spec)
    return (g.derivative(1) - g.derivative(1 + (1 << r))).substitute(
        fixed_point_map(spec.n, r + 1))


# -- difference polynomials ----------------------------------------------------


_IDENTITY = Endomorphism.identity()


def _restricted_product(scale: int, factors: Sequence[SparsePoly],
                        phi: Endomorphism) -> SparsePoly:
    """scale times the product of the linear `factors`, under phi.  phi is a
    ring map, so each factor is restricted first, to L_i over phi's image.
    The product is the monomial scale * x_0 x_1 ... under the linear map
    x_i -> L_i, so one `substitute` multiplies it out: three factors take
    its one-pass linear-cubic path, two its `_dict_mul` path."""
    restricted = Endomorphism({i: factor.substitute(phi) for i, factor in enumerate(factors)})
    return SparsePoly({tuple(range(len(factors))): scale}).substitute(restricted)


def f_poly(n: int, r: int, phi: Endomorphism = _IDENTITY) -> SparsePoly:
    """The stated change of the families under sigma_r on the fixed subspace,
    restricted by phi (the identity by default)."""
    if not 0 <= r <= n - 2:
        raise ValueError(f"need 0 <= r <= n-2, got r={r}, n={n}")
    if r <= n - 3:
        first = (x(1) - x(1 + (1 << (r + 1)))).substitute(e_map(n, r + 2))
        second = (x(1) - x(1 + (1 << (r + 2)))).substitute(e_map(n, r + 3))
        third = (-x(1 + (1 << (r + 1))) + x(1 + (1 << (r + 1)) + (1 << (r + 2)))).substitute(
            e_map(n, r + 3))
        return _restricted_product(1 << (r + 1), (first, second, third), phi)
    half = 1 << (n - 1)
    return _restricted_product(half, (x(1) - x(1 + half), x(1), -x(1 + half)), phi)


def neigh_square(n: int, r: int, phi: Endomorphism = _IDENTITY) -> SparsePoly:
    """The stated link difference for k = n - r, restricted by phi (the
    identity by default); defined for r <= n-3 only."""
    if not 0 <= r <= n - 3:
        raise ValueError(f"the link-difference square needs 0 <= r <= n-3, got r={r}, n={n}")
    factor = (x(1) - x(1 + (1 << (r + 2)))).substitute(e_map(n, r + 3))
    return _restricted_product(1, (factor, factor), phi)


@lru_cache(maxsize=None)
def _suite_f(n: int, r: int) -> SparsePoly:
    """f_r^n under phi_r = fixed_point_map(n, r), memoised:
    `lemma-induction-cycles` at k = n - r and `lemma-sigma-general` both
    compare with it.  It is built from `e_map` and the orbit map alone."""
    return f_poly(n, r, fixed_point_map(n, r))


@lru_cache(maxsize=None)
def _suite_square(n: int, r: int) -> SparsePoly:
    """The link square under phi_{r+1}, memoised like `_suite_f` for
    `lemma-induction-neigh` at k = n - r and `lemma-neigh-general`."""
    return neigh_square(n, r, fixed_point_map(n, r + 1))


def pair_gap_poly(n: int, phi: Endomorphism = _IDENTITY) -> SparsePoly:
    """x_0 * (E_2(x_1 - x_3))^2, the exact excess of Y^n over X^n on the
    theta-fixed subspace, restricted by phi (the identity by default)."""
    factor = (x(1) - x(3)).substitute(e_map(n, 2))
    return _restricted_product(1, (x(0), factor, factor), phi)


# -- closed-form rebuilds (independent of the recursive constructions) ---------


def _offset_cycle(off: int) -> SparsePoly:
    """The cycle sum over V_3 with the +-off offsets written directly."""
    total = SparsePoly.zero()
    for i in range(1, 9):
        total = total + x(mod_v(3, i - off)) * x(i) * x(mod_v(3, i + off))
    return total


def _p_eps_indices(n: int, bits: Sequence[int], indices: Iterable[int]) -> dict[int, int]:
    """p_eps(i) in closed form for each i of `indices`."""
    offset = sum(b << j for j, b in enumerate(bits))
    return {i: mod_v(n, (i << len(bits)) - offset) for i in indices}


def explicit_gk(n: int, k: int) -> SparsePoly:
    """G_k^n in closed form: the level polynomial, G_2^3 for k = 2 and the
    two V_3 cycles under E_3^k otherwise, summed over every doubling word
    eps of length `depth` with each index i sent to p_eps(i)."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if k == 2:
        level, depth = SparsePoly.zero(), n - 3
        for i in range(1, 5):
            level = level + x(i) * x(i + 2) * x(i + 4)
    else:
        level, depth = (_offset_cycle(1) + _offset_cycle(3)).substitute(e_map(k, 3)), n - k
    if depth == 0:
        return level
    total = SparsePoly.zero()
    for bits in product((0, 1), repeat=depth):
        indices = _p_eps_indices(n, bits, level.variables())
        total = total + level.substitute(Endomorphism({v: x(t) for v, t in indices.items()}))
    return total


# -- exact claims ----------------------------------------------------------------


@_timed
def verify_basis_step(n: int) -> Claim:
    """On the theta-fixed subspace, Y^n - X^n equals x_0 * (E_2(x_1-x_3))^2;
    and everywhere it equals M1^n - M0^n, so the pair differs at the apex alone."""
    gap = family_poly(FamilySpec("Y", n)) - family_poly(FamilySpec("X", n))
    phi = fixed_point_map(n, 0)
    apex = family_poly(FamilySpec("M1", n)) - family_poly(FamilySpec("M0", n))
    return _exact("lemma-basis-step", {"n": n},
                  [(_NONZERO, gap.substitute(phi), pair_gap_poly(n, phi)), (_NONZERO, gap, apex)])


@_timed
def verify_induction_cycles(n: int, r: int, k: int) -> Claim:
    """G_k^n(x) - G_k^n(sigma_r x) on the subspace fixed by theta and
    sigma_0..sigma_{r-1}: equals f_r^n when k = n - r, else 0."""
    if not (0 <= r <= n - 2 and 2 <= k <= n):
        raise ValueError(f"need 0 <= r <= n-2 and 2 <= k <= n, got r={r}, k={k}, n={n}")
    expected = _suite_f(n, r) if k == n - r else SparsePoly.zero()
    branch = "f" if k == n - r else "0"
    return _exact("lemma-induction-cycles", {"n": n, "r": r, "k": k, "expected": branch},
                  [(_NONZERO, restricted_difference(FamilySpec("G", n, k), r), expected)])


@_timed
def verify_sigma_general(n: int, r: int) -> Claim:
    """Same difference for the full X^n; M0 must be exactly sigma_r-invariant."""
    if not 0 <= r <= n - 2:
        raise ValueError(f"need 0 <= r <= n-2, got r={r}, n={n}")
    def checks():
        m0 = family_poly(FamilySpec("M0", n))
        yield f"M0 is not sigma_{r}-invariant", m0, m0.substitute(sigma_endo(n, r))
        yield _NONZERO, restricted_difference(FamilySpec("X", n), r), _suite_f(n, r)
    return _exact("lemma-sigma-general", {"n": n, "r": r}, checks())


@_timed
def verify_induction_neigh(n: int, r: int, k: int) -> Claim:
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
    expected = _suite_square(n, r) if k == n - r else SparsePoly.zero()
    branch = "square" if k == n - r else "0"
    return _exact("lemma-induction-neigh", {"n": n, "r": r, "k": k, "expected": branch},
                  [(_NONZERO, _link_gap(FamilySpec("G", n, k), r), expected)])


@_timed
def verify_neigh_general(n: int, r: int) -> Claim:
    """X^n[1] - X^n[1+2^r] equals the stated square on the same subspace."""
    if not 0 <= r <= n - 3:
        raise ValueError(f"need 0 <= r <= n-3, got r={r}, n={n}")
    return _exact("lemma-neigh-general", {"n": n, "r": r},
                  [(_NONZERO, _link_gap(FamilySpec("X", n), r), _suite_square(n, r))])


@_timed
def _claim_rec_defn_g_n(n: int) -> Claim:
    via_e = family_poly(FamilySpec("G", 3, 3)).substitute(e_map(n, 3))
    via_q, g_nn = family_poly(FamilySpec("H", n)), family_poly(FamilySpec("G", n, n))
    return _exact("lemma-rec-defn-g-n", {"n": n}, [(_NONZERO, via_q, via_e), (_NONZERO, g_nn, via_e)])


@_timed
def _claim_remark_rec_defn(n: int) -> Claim:
    def checks():
        at = "closed form differs from recursion at"
        t = SparsePoly.zero()
        for k in range(2, n + 1):
            g = explicit_gk(n, k)
            yield f"{at} G{k}", g, family_poly(FamilySpec("G", n, k))
            if k < n:
                t = t + g
        yield f"{at} T", t, family_poly(FamilySpec("T", n))
        yield f"{at} Gamma", t + g, family_poly(FamilySpec("Gamma", n))
    return _exact("remark-rec-defn", {"n": n}, checks(),
                  f"{n + 1} closed forms match the recursions")


@_timed
def _claim_two_cycles_reindex() -> Claim:
    d3, c3 = family_poly(FamilySpec("D3", 3)), family_poly(FamilySpec("C3", 3))
    return _exact("remark-two-cycles-reindex", {"n": 3},
                  [(_NONZERO, d3, _offset_cycle(3)), (_NONZERO, c3, _offset_cycle(1))],
                  "tau-substituted cycle equals the +-3 offset sum")


# part -> pairs (a, b) with E_3(x_a) = E_3(x_b) under phi_{part - 1}
_HELPER_CYCLE_PARTS = {
    1: [(2 * i, 9 - 2 * i) for i in range(1, 5)],
    2: [(7, 1), (5, 3)],
    3: [(j, 1) for j in range(2, 9)],
}


@_timed
def _claim_helper_cycle(n: int, part: int) -> Claim:
    e3, phi = e_map(n, 3), fixed_point_map(n, part - 1)
    return _exact("lemma-helper-cycle", {"n": n, "part": part},
                  ((f"E_3(x_{a}) != E_3(x_{b})", e3.image(a).substitute(phi),
                    e3.image(b).substitute(phi)) for a, b in _HELPER_CYCLE_PARTS[part]))


@_timed
def _claim_odd_even_eight(n: int, r: int) -> Claim:
    """p_j E_r^n agrees with E_{r+1}^{n+1} on the sigma_0-fixed subspace of
    the doubled vertex set, for both j and both stated generators."""
    phi = sigma0_map(n + 1)
    ern = e_map(n, r)
    target = e_map(n + 1, r + 1)
    cases = [(x(1), x(1)), (x(1 + (1 << (r - 1))), x(1 + (1 << r)))]
    doublings = [p_map(n + 1, j) for j in (0, 1)]
    return _exact("lemma-odd-even-eight", {"n": n, "r": r},
                  ((f"failed at j={j}, source {src.to_text()}",
                    src.substitute(ern).substitute(pj).substitute(phi),
                    dst.substitute(target).substitute(phi))
                   for j, pj in enumerate(doublings) for src, dst in cases))


@_timed
def _claim_even_odd_f(n: int, r: int) -> Claim:
    """(p_0 + p_1) f_r^n = f_{r+1}^{n+1} on the sigma_0-fixed subspace.
    phi o p_0 and phi o p_1 are one renaming, as sigma_0 swaps 2i - 1 and
    2i, so the sum is one product doubled; maps that differ get both."""
    phi = sigma0_map(n + 1)
    c0, c1 = (phi.compose(p_map(n + 1, j)) for j in (0, 1))
    if c0.is_renaming and c1.is_renaming and c0.rename == c1.rename:
        pushed = f_poly(n, r, c0) * 2
    else:
        pushed = f_poly(n, r, c0) + f_poly(n, r, c1)
    return _exact("lemma-even-odd-f", {"n": n, "r": r},
                  [(_NONZERO, pushed, f_poly(n + 1, r + 1, phi))])


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
                    image = ern.image(i)
                    yield (f"E_{r} differs at i={i}, t={t}",
                           image, ern.image(mod_v(n, i + (1 << t))))
                    yield (f"E_{r} not sigma_{t}-invariant at i={i}",
                           image, ern.image(sigma_index(t, i)))
    return _exact("remark-sigma-threshold", {"n": n}, checks())


# Longest doubling word that `remark-repeated-app` composes.
_MAX_EPS_LENGTH = 4


@_timed
def _claim_repeated_app(n: int) -> Claim:
    """Composite doubling maps match the closed-form index map, compared on
    their vertex tables."""
    size = (1 << n) + 1

    def failures():
        for r in range(1, _MAX_EPS_LENGTH + 1):
            for bits in product((0, 1), repeat=r):
                table = _vertex_table(p_eps(n, bits), size)
                for i, t in _p_eps_indices(n, bits, range(1, size)).items():
                    if table[i] != t:
                        yield (f"eps={list(bits)}, i={i}: composition gives "
                               f"{x(table[i]).to_text()}, closed form {x(t).to_text()}")
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
    """dp/dx_v at the all-ones point for every variable v: the sum of
    coef * (multiplicity of v) over the terms.  The terms of coefficient 1,
    every term of a hypergraph's polynomial, are counted in one
    `Counter.update`; the others are added vertex by vertex."""
    out = Counter(chain.from_iterable(mono for mono, coef in poly.terms.items() if coef == 1))
    for mono, coef in poly.terms.items():
        if coef != 1:
            for v in mono:
                out[v] += coef
    return out


@_timed
def _claim_degree_table(n: int) -> Claim:
    """Gamma_n's degrees, its links at all-ones, take two values by vertex class."""
    gamma = family_poly(FamilySpec("Gamma", n))
    degrees = links_at_ones(gamma)
    low, quarter = 1 << (2 * n - 3), 1 << (n - 2)
    expected = {i: low - 1 if (i <= quarter or i >= 1 + 3 * quarter) else low
                for i in range(1, (1 << n) + 1)}
    bad = [i for i in expected if degrees[i] != expected[i]]
    return _claim("degree-table", {"n": n}, "exact-identity",
                  [f"deg(. , {i}) = {degrees[i]}, expected {expected[i]} ({len(bad)} mismatches)"
                   for i in bad[:1]],
                  f"|E| = {len(gamma)}, degrees are {low - 1} and {low} by class")


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
    """Every term of T_n, taken in sorted edge order, lies in one parity class."""
    t = family_poly(FamilySpec("T", n))
    return _claim("t-parity", {"n": n}, "exact-identity",
                  (f"mixed-parity edge {list(e)}"
                   for e in sorted(t.terms) if len({v % 2 for v in e}) != 1),
                  f"{len(t)} edges, all parity-pure")


@_timed
def _claim_q_e3_composition(n: int) -> Claim:
    """q^n composed after E_3^{n-1} equals E_3^n on every generator."""
    lifted = q_map(n).compose(e_map(n - 1, 3))
    target = e_map(n, 3)
    return _exact("q-e3-composition", {"n": n},
                  ((f"images differ at x_{i}", lifted.image(i), target.image(i))
                   for i in range(0, (1 << (n - 1)) + 1)))


def verify_identity_suite(n: int) -> list[Claim]:
    """All exact claims at a given n, in a deterministic order.  Its loops fix
    the parameter ranges of the private `_claim_*` checks, which take them
    unchecked.  `check_sizes` validates n, so n past N_CAP fails before any
    claim builds a map."""
    check_sizes((n,), False)
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


def _pair_gap(n: int, vec: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    """E_2(x_1 - x_3) and 3 x_0 (E_2(x_1 - x_3))^2 / sum x_i^3 at vec on X^n,
    E_2 read off `e_map(n, 2)` as in `pair_gap_poly`."""
    one, three = (sum(vec[j] for j in e_map(n, 2).image(i).variables()) for i in (1, 3))
    return one - three, 3 * vec[0] * (one - three) ** 2 / sum(t ** 3 for t in vec)


@_timed
def verify_main_theorem(n: int, *, seed: int = 0) -> Claim:
    """Certify that the pair has different spectral radii, with the predicted gap.

    The brackets are exact-rational Collatz-Wielandt bounds, so a separated
    pair of brackets is a proof of mu > lambda no matter how the vectors
    were computed.  The radius gap collapses roughly quadratically with n
    (about 1e-8 at n = 3, 2e-25 at n = 4, 2e-68 at n = 5), so both float
    vectors are Newton-refined in exact dyadic arithmetic until the brackets
    separate with each width below 2^-64 of the gap; the printed values then
    no longer depend on the float start.  Each hypergraph has one
    `newton_steps` run from its float vector, and the loop steps the run
    whose bracket is wider until they separate that far or that run ends;
    then one rational_bracket per hypergraph is the certificate of record,
    the only source of lo, hi and the residual.  The float solve, the Newton
    steps and their brackets run on the 2^(n-1) + 1 orbits of the reversal
    theta, an automorphism of both hypergraphs (criterion 6), on which both
    principal eigenvectors are constant; the param `cells` counts them.  The
    certificate of record brackets the lifted vectors on every vertex, so
    soundness does not rest on the partition.  `check_sizes` refuses an n
    past either cap before any work.
    Passes iff three exact conditions hold: g = 3 x_0 (E_2(x_1 - x_3))^2 /
    sum x_i^3 at the X^n eigenvector x is positive, mu_lo > lambda_hi, and
    mu_hi - lambda_lo >= g.  The last is the variational bound
    mu >= 3 f_Y(x) / sum x_i^3 = lambda + g, which holds as f_Y - f_X is the
    pair-gap polynomial on the theta-fixed subspace (lemma-basis-step).  The
    exact residuals `residual_x` and `residual_y` are reported, not judged:
    the disjoint brackets alone prove the separation.  Whether the float
    stage converged does not enter the verdict either.

    `refinement_bits`, the "at N bits" of the detail, is the largest exponent
    B among the reduced dyadic denominators 2^B of both vectors' entries.
    Reducing drops common factors of two, so it trails the working
    precision of the Newton runs: 107 against 114 bits at n = 3, 308
    against 314 at n = 5, and 1533 against 1564 at n = 7 with seed 2.

    The params `predicted_gap` and `bracket_gap` are floats, so from n = 7 on
    they underflow to 0.0; `predicted_gap_text` and the detail print the
    exact values through `format_exact`.
    """
    from .spectral import newton_steps, principal_eigenpair, rational_bracket
    check_sizes((n,), True)
    hx = family_hypergraph(FamilySpec("X", n))
    hy = family_hypergraph(FamilySpec("Y", n))
    theta = theta_perm(n)
    cells = tuple(dict.fromkeys(tuple(sorted({v, theta[v]})) for v in hx.vertices))
    pair_x = principal_eigenpair(hx, seed=seed, cells=cells)
    pair_y = principal_eigenpair(hy, seed=seed, cells=cells)
    runs = [newton_steps(hx, pair_x.vector, cells), newton_steps(hy, pair_y.vector, cells)]
    state = [next(run) for run in runs]
    for steps in count():
        (_, _, x_lo, x_hi), (_, _, y_lo, y_hi) = state
        widths = [x_hi - x_lo, y_hi - y_lo]
        wider = widths.index(max(widths))
        kept = next(runs[wider], None) if y_lo - x_hi <= widths[wider] * 2 ** 64 else None
        if kept is None:
            break
        state[wider] = kept
    vec_x, vec_y = ([Fraction(a, 1 << bits) for a in ints] for ints, bits, _, _ in state)
    x_lo, x_hi, x_res = rational_bracket(hx, vec_x)
    y_lo, y_hi, y_res = rational_bracket(hy, vec_y)
    e2_diff, predicted = _pair_gap(n, vec_x)
    bits = max(t.denominator.bit_length() - 1 for t in vec_x + vec_y)
    params = {
        "n": n, "cells": len(cells),
        "lambda_lo": float(x_lo), "lambda_hi": float(x_hi),
        "mu_lo": float(y_lo), "mu_hi": float(y_hi),
        "residual_x": float(x_res), "residual_y": float(y_res),
        "iterations_x": pair_x.iterations, "iterations_y": pair_y.iterations,
        "refinement_bits": bits, "refinement_iterations": steps,
        "e2_diff": float(e2_diff), "predicted_gap": float(predicted),
        "bracket_gap": float(y_lo - x_hi),
        "predicted_gap_text": format_exact(predicted, ".17g"),
    }
    problems = []
    if not predicted > 0:
        problems.append(f"gap polynomial at the X^{n} eigenvector is "
                        f"{format_exact(predicted, '.3e')}, not positive")
    if not y_lo > x_hi:
        problems.append(f"brackets do not separate even at {bits} bits: "
                        f"mu - lambda <= {format_exact(y_hi - x_lo, '.3e')}")
    elif not y_hi - x_lo >= predicted:
        problems.append(f"mu - lambda <= {format_exact(y_hi - x_lo, '.3e')}, short of "
                        f"predicted gap {format_exact(predicted, '.3e')}")
    return _claim("main-theorem", params, "numeric", ["; ".join(problems)] if problems else (),
                  f"mu - lambda in [{format_exact(y_lo - x_hi, '.6g')}, "
                  f"{format_exact(y_hi - x_lo, '.6g')}] "
                  f"at {bits} bits; predicted gap {format_exact(predicted, '.6g')}")


def cone_over(base: Hypergraph, apex_links: Sequence[Sequence[int]]) -> Hypergraph:
    """Attach the apex, vertex 0, through the given (rank-1)-element links; the
    apex must meet every base vertex in the same number of edges, at least one.
    The cone's `Hypergraph` rejects a link that is not such a set of base vertices."""
    if 0 in set(base.vertices):
        raise ValueError("apex 0 already belongs to the base")
    if not apex_links:
        raise ValueError("apex 0 has no links, so it would be isolated from the base")
    cone = Hypergraph(base.rank, (0,) + base.vertices,
                      chain(base.edges, ((0, *link) for link in apex_links)))
    counts = Counter(chain.from_iterable(apex_links))
    codegrees = {counts[v] for v in base.vertices}
    if len(codegrees) != 1:
        raise ValueError(f"apex codegree is not constant over the base: {sorted(codegrees)}")
    return cone


def _root_bracket(d: int, gamma: int, apex_degree: int, m: int) -> tuple[Fraction, Fraction]:
    """Dyadic u_lo < u_hi, 2^-64 apart, with p(u_lo) < 0 <= p(u_hi) for
    p(u) = d u^(m-1) + gamma u^m - apex_degree, which increases on u > 0."""
    def negative(u: Fraction) -> bool:
        return d * u ** (m - 1) + gamma * u ** m < apex_degree
    lo, hi = Fraction(0), Fraction(1)
    while negative(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > Fraction(1, 2 ** 64):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if negative(mid) else (lo, mid)
    return lo, hi


@_timed
def verify_regular_cone(base: Hypergraph, apex_links: Sequence[Sequence[int]]) -> Claim:
    """Decide the cone equivalences exactly: over a regular base the principal
    vector is constant on the base, with apex entry u the positive root of
    d u^(m-1) + gamma u^m = D against 1 on the base; over a non-regular base
    both constancy statements fail.  d_j are the base degrees, gamma >= 1 the
    apex codegree and D the apex degree.  At (u, 1, ..., 1) over a d-regular
    base the apex ratio is D / u^(m-1) and every base ratio d + gamma u, so
    the cone brackets at both ends of a 2^-64 root bracket check the
    equitable partition and enclose lambda.  A positive eigenvector of a
    connected nonnegative tensor is the principal one (Friedland, Gaubert &
    Han, LAA 2013)."""
    from .spectral import rational_bracket
    cone = cone_over(base, apex_links)
    m, apex_degree = cone.rank, len(apex_links)
    gamma = apex_degree * (m - 1) // base.num_vertices
    table = _edge_degrees(base)
    d, d_max = min(table[v] for v in base.vertices), max(table[v] for v in base.vertices)
    params = {"base_vertices": base.num_vertices, "base_edges": base.num_edges,
              "regular_base": d == d_max, "apex_codegree": gamma, "apex_degree": apex_degree,
              "base_degrees": [d, d_max]}
    ones = [1] * base.num_vertices
    base_lo, base_hi, _ = rational_bracket(base, ones)
    if (base_lo, base_hi) != (d, d_max):
        return _claim("regular-cone", params, "numeric",
                      [f"base bracket at all-ones is [{base_lo}, {base_hi}], but the degrees "
                       f"run from {d} to {d_max}"])
    if d < d_max:
        return _claim("regular-cone", params, "numeric", (),
                      f"base degrees run from {d} to {d_max}, so A 1 is not a multiple of 1 "
                      f"and no eigenvector of the base or the cone is constant on the base")
    u_lo, u_hi = _root_bracket(d, gamma, apex_degree, m)
    params.update(u_lo=float(u_lo), u_hi=float(u_hi))
    # p(u_lo) < 0 <= p(u_hi) orders the base and apex ratios at each end
    at_lo = (d + gamma * u_lo, apex_degree / u_lo ** (m - 1))
    at_hi = (apex_degree / u_hi ** (m - 1), d + gamma * u_hi)
    for u, expected in ((u_lo, at_lo), (u_hi, at_hi)):
        got = rational_bracket(cone, [u] + ones)[:2]
        if got != expected:
            return _claim("regular-cone", params, "numeric",
                          [f"cone bracket at (u, 1, ..., 1), u = {float(u)}, is {list(map(float, got))}"
                           f", not the quotient's {list(map(float, expected))}"])
    lam_lo, lam_hi = max(at_lo[0], at_hi[0]), min(at_lo[1], at_hi[1])
    params.update(lambda_lo=float(lam_lo), lambda_hi=float(lam_hi))
    return _claim("regular-cone", params, "numeric", (),
                  f"the base is {d}-regular and the apex codegree is {gamma}, so (u, 1, ..., 1) "
                  f"with {d} u^{m - 1} + {gamma} u^{m} = {apex_degree} is a positive eigenvector, "
                  f"hence the principal one, with u in [{float(u_lo)}, {float(u_hi)}] and "
                  f"lambda in [{float(lam_lo)}, {float(lam_hi)}]")


def standard_cone_samples() -> list[tuple[Hypergraph, list[tuple[int, ...]]]]:
    """One regular and one non-regular base, both with the constant-codegree
    apex pattern taken from M0 at n = 3."""
    links = [tuple(v for v in e if v != 0)
             for e in family_hypergraph(FamilySpec("M0", 3)).edges]
    c3 = family_hypergraph(FamilySpec("C3", 3))
    gamma3 = family_hypergraph(FamilySpec("Gamma", 3))
    return [(c3, links), (gamma3, links)]


def check_sizes(ns: Iterable[int], numeric: bool) -> None:
    """The one size check: ValueError at the first n past N_CAP, then past
    NUMERIC_N_CAP when the numeric claims run."""
    for n in ns:
        FamilySpec("X", n)
        if numeric and n > NUMERIC_N_CAP:
            raise ValueError(
                f"n = {n} exceeds NUMERIC_N_CAP = {NUMERIC_N_CAP} of the numeric claims")


def run_suite(ns: Sequence[int], *, include_numeric: bool = True) -> list[Claim]:
    """Identity suites for each n, plus the numeric claims.  Every n is
    validated by `check_sizes` before any claim runs, so an n past N_CAP, or
    past NUMERIC_N_CAP with the numeric claims, costs nothing."""
    check_sizes(ns, include_numeric)
    claims: list[Claim] = []
    for n in ns:
        claims.extend(verify_identity_suite(n))
    if include_numeric:
        for n in ns:
            claims.append(verify_main_theorem(n))
        for base, links in standard_cone_samples():
            claims.append(verify_regular_cone(base, links))
    return claims
