"""Acceptance gate: every shipped guarantee, one pass/fail line per criterion.

Run with -s to see the lines; each test prints exactly one of

    [PASS] criterion-k: <summary>
    [FAIL] criterion-k: <first problem>

and fails the build when its criterion does not hold at the stated tolerance.
"""

import itertools
import random
import time
from fractions import Fraction
from itertools import product

from hypospec.families import FamilySpec, family_hypergraph, mod_v, theta_perm
from hypospec.hypergraph import Hypergraph
from hypospec.iso import canonical_form, hypomorphic
from hypospec.polyalg import Endomorphism, SparsePoly, x
from hypospec.spectral import (
    degree,
    is_connected,
    principal_eigenpair,
    rational_bracket,
)
from hypospec.verify import (
    cone_over,
    standard_cone_samples,
    verify_identity_suite,
    verify_main_theorem,
    verify_regular_cone,
)
from oracles import are_isomorphic, codegree, delete_vertex, lagrangian_of, relabel

IDENTITY_BUDGET_SECONDS = 600.0
THEOREM_BUDGET_SECONDS = 300.0


def report(name: str, problems: list, summary: str) -> None:
    if problems:
        print(f"[FAIL] {name}: {problems[0]}")
    else:
        print(f"[PASS] {name}: {summary}")
    assert not problems, f"{name}: {problems[0]}"


def test_criterion_1_exact_identity_suite():
    """All exact claims hold at n = 3, 4, 5 inside the time budget."""
    problems = []
    started = time.perf_counter()
    total = 0
    for n in (3, 4, 5):
        for claim in verify_identity_suite(n):
            total += 1
            if not claim.passed:
                problems.append(f"n={n} {claim.id} {claim.params}: {claim.detail}")
    elapsed = time.perf_counter() - started
    if elapsed > IDENTITY_BUDGET_SECONDS:
        problems.append(f"suite took {elapsed:.1f}s > {IDENTITY_BUDGET_SECONDS:.0f}s")
    report("criterion-1", problems, f"{total} exact claims hold in {elapsed:.2f}s")


def test_criterion_2_doubling_map_parity_exhaustive():
    """Value-1 and value-2 characterizations of the composite doubling maps,
    enumerated over the previous level's vertex set for n <= 7."""
    problems = []
    checked = 0
    for n in range(4, 8):
        for r in range(1, n - 2):
            period = 1 << (n - r)
            ones = (1,) * r
            almost = (0,) + (1,) * (r - 1)
            for i in range(1, (1 << (n - 1)) + 1):
                hits = i % period == 1
                for bits in product((0, 1), repeat=r):
                    val = i
                    for b in reversed(bits):
                        val = 2 * val - b
                    val = mod_v(n, val)
                    checked += 1
                    if (val == 1) != (hits and bits == ones):
                        problems.append(f"value-1 fails at n={n} r={r} i={i} eps={bits}")
                    if (val == 2) != (hits and bits == almost):
                        problems.append(f"value-2 fails at n={n} r={r} i={i} eps={bits}")
    report("criterion-2", problems, f"{checked} compositions enumerated, n <= 7")


def test_criterion_3_degree_tables():
    """Two-value degree pattern of the core families and the constant apex
    codegree, n = 3..6."""
    problems = []
    for n in range(3, 7):
        gamma = family_hypergraph(FamilySpec("Gamma", n))
        low, quarter = 1 << (2 * n - 3), 1 << (n - 2)
        for i in range(1, (1 << n) + 1):
            expected = low - 1 if (i <= quarter or i >= 1 + 3 * quarter) else low
            if degree(gamma, i) != expected:
                problems.append(f"n={n}: deg({i}) = {degree(gamma, i)}, expected {expected}")
        xn = family_hypergraph(FamilySpec("X", n))
        for i in range(1, (1 << n) + 1):
            if codegree(xn, 0, i) != 1 << (n - 2):
                problems.append(f"n={n}: codeg(0, {i}) = {codegree(xn, 0, i)}")
    report("criterion-3", problems, "degree and codegree tables hold for n = 3..6")


def test_criterion_4_radius_separation():
    """The pair's spectral radii separate at n = 3, 4, 5: exact bracket
    disjointness, residuals below 1e-12, and a positive predicted gap."""
    problems = []
    gaps = []
    for n in (3, 4, 5):
        claim = verify_main_theorem(n)
        p = claim.params
        if not claim.passed:
            problems.append(f"n={n}: {claim.detail}")
            continue
        if claim.elapsed > THEOREM_BUDGET_SECONDS:
            problems.append(f"n={n} took {claim.elapsed:.1f}s > {THEOREM_BUDGET_SECONDS:.0f}s")
        # bracket_gap is the float image of the exact rational mu_lo - lambda_hi;
        # the float endpoints themselves coincide once the gap drops below 1e-16
        if not p["bracket_gap"] > 0:
            problems.append(f"n={n}: brackets overlap")
        if not (p["residual_x"] < 1e-12 and p["residual_y"] < 1e-12):
            problems.append(f"n={n}: residuals {p['residual_x']:.3e}, {p['residual_y']:.3e}")
        if not p["predicted_gap"] > 0:
            problems.append(f"n={n}: predicted gap {p['predicted_gap']:.3e}")
        gaps.append(f"n={n} gap >= {p['bracket_gap']:.3e}")
    report("criterion-4", problems, "; ".join(gaps))


def test_criterion_5_solver_inside_exact_enclosure():
    """Fifty random connected instances on at most 6 vertices: at the solver's
    vector x, the variational bound 3 f(x) / sum x_i^3 and the Collatz-Wielandt
    bound max_i S_i(x) / x_i^2 enclose lambda exactly, lie within 1e-8 relative
    of each other and hold the solver's value to 1e-8; the single edge is exact."""
    problems = []
    worst = 0.0
    rng = random.Random(50_2026)
    for trial in range(50):
        while True:
            nv = rng.randint(3, 6)
            verts = list(range(1, nv + 1))
            pool = list(itertools.combinations(verts, 3))
            edges = rng.sample(pool, rng.randint(1, len(pool)))
            hg = Hypergraph(3, verts, edges)
            if is_connected(hg):
                break
        pair = principal_eigenpair(hg)
        point = [Fraction(t) for t in pair.vector]
        lo = 3 * lagrangian_of(hg).evaluate_exact(dict(zip(hg.vertices, point))) \
            / sum(t ** 3 for t in point)
        hi = rational_bracket(hg, point)[1]
        scale = max(1.0, pair.value)
        worst = max(worst, float((hi - lo) / scale))
        if not lo <= hi:
            problems.append(f"trial {trial}: lower bound {float(lo):.12g} above upper "
                            f"bound {float(hi):.12g}")
        elif (hi - lo) / scale > 1e-8:
            problems.append(f"trial {trial}: enclosure [{float(lo):.12g}, {float(hi):.12g}]"
                            f" wider than 1e-8 relative")
        elif not lo - 1e-8 * scale <= pair.value <= hi + 1e-8 * scale:
            problems.append(f"trial {trial}: solver {pair.value:.12g} outside "
                            f"[{float(lo):.12g}, {float(hi):.12g}]")
    single = principal_eigenpair(Hypergraph(3, [1, 2, 3], [(1, 2, 3)]))
    if abs(single.value - 1.0) > 1e-12:
        problems.append(f"single edge radius {single.value!r} is not 1 to 1e-12")
    report("criterion-5", problems,
           f"50 random instances inside exact enclosures of relative width <= {worst:.1e}, "
           f"single edge exact")


def test_criterion_6_eigenvector_reversal_symmetry():
    """The reversal theta maps the edge set of both families onto itself,
    exactly, so by uniqueness of the Perron vector the principal vectors are
    reversal-symmetric; the solver's are, to 1e-8, n = 3..5."""
    problems = []
    worst_overall = 0.0
    for n in (3, 4, 5):
        theta = theta_perm(n)
        for fam in ("X", "Y"):
            hg = family_hypergraph(FamilySpec(fam, n))
            if relabel(hg, theta) != hg:
                problems.append(f"{fam} n={n}: theta is not an automorphism")
            pair = principal_eigenpair(hg)
            if not pair.converged:
                problems.append(f"{fam} n={n}: solver did not converge")
                continue
            entry = dict(zip(hg.vertices, pair.vector))
            worst = max(abs(entry[v] - entry[theta[v]]) for v in hg.vertices)
            worst_overall = max(worst_overall, worst)
            if worst >= 1e-8:
                problems.append(f"{fam} n={n}: asymmetry {worst:.3e}")
    report("criterion-6", problems,
           f"theta an automorphism of X^n and Y^n; max asymmetry {worst_overall:.3e} < 1e-8")


def test_criterion_7_hypomorphic_but_not_isomorphic():
    """The n = 3 pair shares its whole deck yet is non-isomorphic, with
    automorphism group order 2 on both sides."""
    problems = []
    x3 = family_hypergraph(FamilySpec("X", 3))
    y3 = family_hypergraph(FamilySpec("Y", 3))
    ok, eta = hypomorphic(x3, y3)
    if not ok:
        problems.append("decks differ")
    else:
        for v, w in eta.items():
            if canonical_form(delete_vertex(x3, v)).key() != \
                    canonical_form(delete_vertex(y3, w)).key():
                problems.append(f"eta({v}) = {w} does not witness deck equality")
    flag, _ = are_isomorphic(x3, y3)
    if flag:
        problems.append("the pair is isomorphic")
    for tag, hg in (("X", x3), ("Y", y3)):
        count = canonical_form(hg).automorphism_count
        if count != 2:
            problems.append(f"|Aut({tag})| = {count}, expected 2")
    report("criterion-7", problems, "deck-equal, non-isomorphic, |Aut| = 2 and 2")


def test_criterion_8_cone_structure():
    """Over a regular base the cone vector is constant on the base and the
    apex ratio solves the scalar equation; over the skew base both constancy
    statements fail.  The claim decides both from integer degrees and exact
    brackets, and the float solver on the regular cone lands inside its
    lambda bracket with the apex ratio inside its root bracket."""
    problems = []
    regular_sample, skew_sample = standard_cone_samples()
    regular = verify_regular_cone(*regular_sample)
    skew = verify_regular_cone(*skew_sample)
    for tag, claim in (("regular", regular), ("skew", skew)):
        if not claim.passed:
            problems.append(f"{tag}: {claim.detail}")
    p = regular.params
    if (p["base_degrees"], p["apex_codegree"], p["apex_degree"]) != ([3, 3], 2, 8):
        problems.append(f"regular sample read as degrees {p['base_degrees']}, "
                        f"codegree {p['apex_codegree']}, apex degree {p['apex_degree']}")
    cone = cone_over(*regular_sample)
    pair = principal_eigenpair(cone)
    entry = dict(zip(cone.vertices, pair.vector))
    entries = [entry[v] for v in regular_sample[0].vertices]
    ratio = entry[0] / entries[0]
    if max(entries) - min(entries) >= 1e-9:
        problems.append(f"float cone vector spread {max(entries) - min(entries):.3e}")
    if not p["u_lo"] - 1e-8 <= ratio <= p["u_hi"] + 1e-8:
        problems.append(f"float apex ratio {ratio!r} outside [{p['u_lo']!r}, {p['u_hi']!r}]")
    if not p["lambda_lo"] - 1e-9 <= pair.value <= p["lambda_hi"] + 1e-9:
        problems.append(f"float lambda {pair.value!r} outside "
                        f"[{p['lambda_lo']!r}, {p['lambda_hi']!r}]")
    if skew.params["base_degrees"] != [7, 8] or "u_lo" in skew.params:
        problems.append(f"skew sample params {skew.params}")
    report("criterion-8", problems, "cone constancy and scalar root decided exactly")


def random_poly(rng: random.Random, nvars: int = 5) -> SparsePoly:
    poly = SparsePoly.zero()
    for _ in range(rng.randint(1, 5)):
        term = SparsePoly.constant(rng.randint(-9, 9))
        for v in range(nvars):
            term = term * x(v) ** rng.randint(0, 2)
        poly = poly + term
    return poly


def random_endo(rng: random.Random, nvars: int = 5) -> Endomorphism:
    images = {}
    for v in range(nvars):
        if rng.random() < 0.5:
            images[v] = x(rng.randrange(nvars))
        else:
            images[v] = random_poly(rng, nvars)
    return Endomorphism(images)


def test_criterion_9_foundations():
    """Substitution is a ring homomorphism (200 random pairs), derivatives
    match central differences, the degree-3 homogeneity identity is exact,
    and the canonicalizer agrees with brute force on 100 small instances."""
    problems = []
    rng = random.Random(9_2026)
    for trial in range(200):
        p, q = random_poly(rng), random_poly(rng)
        endo = random_endo(rng)
        if (p + q).substitute(endo) != p.substitute(endo) + q.substitute(endo):
            problems.append(f"additivity fails at trial {trial}")
        if (p * q).substitute(endo) != p.substitute(endo) * q.substitute(endo):
            problems.append(f"multiplicativity fails at trial {trial}")

    step = 1e-5
    for trial in range(40):
        p = random_poly(rng)
        if not p.variables():
            continue
        point = {v: rng.uniform(0.5, 1.5) for v in p.variables()}
        for v in p.variables():
            analytic = float(p.derivative(v).evaluate_exact(point))
            up = {**point, v: point[v] + step}
            down = {**point, v: point[v] - step}
            numeric = (float(p.evaluate_exact(up)) - float(p.evaluate_exact(down))) / (2 * step)
            if abs(analytic - numeric) > 1e-6 * max(1.0, abs(analytic)):
                problems.append(f"derivative mismatch at trial {trial}, variable {v}")

    for fam, n in (("X", 3), ("Y", 3), ("Gamma", 4)):
        from hypospec.families import family_poly
        poly = family_poly(FamilySpec(fam, n))
        euler = SparsePoly.zero()
        for v in poly.variables():
            euler = euler + x(v) * poly.derivative(v)
        if euler != 3 * poly:
            problems.append(f"homogeneity identity fails for {fam} n={n}")

    def brute_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
        if (a.rank, a.num_vertices, a.num_edges) != (b.rank, b.num_vertices, b.num_edges):
            return False
        eb = set(b.edges)
        return any(
            all(tuple(sorted(dict(zip(a.vertices, perm))[t] for t in e)) in eb
                for e in a.edges)
            for perm in itertools.permutations(b.vertices))

    def instance() -> Hypergraph:
        nv = rng.randint(3, 6)
        verts = list(range(1, nv + 1))
        pool = list(itertools.combinations(verts, 3))
        return Hypergraph(3, verts, rng.sample(pool, rng.randint(1, len(pool))))

    for trial in range(50):
        a, b = instance(), instance()
        if are_isomorphic(a, b)[0] != brute_isomorphic(a, b):
            problems.append(f"canonicalizer disagrees with brute force at pair {trial}")
    report("criterion-9", problems,
           "homomorphism, derivative, homogeneity, and canonical checks hold")
