"""Exact-identity claims, their mutation sensitivity, and the numeric claims."""

import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from hypospec.families import (N_CAP, NUMERIC_N_CAP, FamilySpec, e_map, family_hypergraph,
                               family_poly, mod_v, orbit_substitution, p_map, permutation_endo,
                               sigma_endo, sigma_perm, theta_endo, theta_perm)
from hypospec.polyalg import Endomorphism, SparsePoly, x
from hypospec import spectral, verify
from hypospec.verify import (
    Claim,
    _claim,
    claims_to_json,
    cone_over,
    f_poly,
    fixed_point_map,
    format_exact,
    links_at_ones,
    neigh_square,
    pair_gap_poly,
    restricted_difference,
    restricted_family,
    run_suite,
    standard_cone_samples,
    verify_basis_step,
    verify_identity_suite,
    verify_induction_cycles,
    verify_induction_neigh,
    verify_main_theorem,
    verify_neigh_general,
    verify_regular_cone,
    verify_sigma_general,
    write_verdict,
)
from oracles import codegree

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_identity_suite_n3_all_pass():
    claims = verify_identity_suite(3)
    assert len(claims) == 25
    assert all(c.passed for c in claims)
    assert all(c.kind in ("exact-identity", "brute-force-enumeration") for c in claims)


def test_identity_suite_n4_all_pass():
    claims = verify_identity_suite(4)
    assert len(claims) == 40
    assert all(c.passed for c in claims)


def test_identity_suite_verdict_frozen():
    # sha256 of the verdict JSON taken before the claims shared one builder
    verdict = claims_to_json(verify_identity_suite(3) + verify_identity_suite(4))
    digest = hashlib.sha256(verdict.encode("ascii")).hexdigest()
    assert digest == "6757ee81f784ff3b828ed77bef1b802819d8d1933c46da74ed98f1557f7e2cd8"
    # taken before the sigma-claims restricted to the orbit quotient first
    verdict = claims_to_json(verify_identity_suite(5))
    digest = hashlib.sha256(verdict.encode("ascii")).hexdigest()
    assert digest == "7a3fe4a03de975e19c62eab65270e79954d255436f418a4d6133217f6c9c7969"
    # taken before the stated products were memoised and built in one pass
    verdict = claims_to_json(verify_identity_suite(6))
    digest = hashlib.sha256(verdict.encode("ascii")).hexdigest()
    assert digest == "f50c6f5854a962574db951dc04d2f4e23abfc4f9783f4ab75d0d33d3566936ea"


def test_identity_suite_matches_benchmark_reference():
    # the `identities` benchmark workload checks its verdict against this list
    reference = json.loads(REFERENCE.read_text(encoding="ascii"))["identities"]["3..6"]
    claims = run_suite([3, 4, 5, 6], include_numeric=False)
    assert [[c.id, c.params] for c in claims] == reference
    assert all(c.passed for c in claims)


def test_claim_stops_at_first_failure():
    def failures():
        yield "first"
        raise AssertionError("read past the first failure")

    claim = _claim("c", {"n": 3}, "exact-identity", failures())
    assert not claim.passed and claim.detail == "first"
    passed = _claim("c", {"n": 3}, "exact-identity", iter(()), "note")
    assert passed.passed and passed.detail == "note"


def test_identity_suite_rejects_small_n():
    with pytest.raises(ValueError):
        verify_identity_suite(2)


def test_identity_suite_rejects_n_past_the_size_cap():
    with pytest.raises(ValueError, match="exceeds N_CAP"):
        verify_identity_suite(N_CAP + 1)


def test_identity_suite_order_is_deterministic():
    first = [(c.id, c.params) for c in verify_identity_suite(3)]
    second = [(c.id, c.params) for c in verify_identity_suite(3)]
    assert first == second


def test_suite_covers_every_lemma_id():
    ids = {c.id for c in verify_identity_suite(3)}
    assert {"lemma-basis-step", "lemma-induction-cycles", "lemma-sigma-general",
            "lemma-induction-neigh", "lemma-neigh-general"} <= ids


@pytest.fixture
def planted_fault(monkeypatch):
    """`with planted_fault(spec, term):` adds `term` to family_poly(spec) as
    verify reads it, the seam every claim reads the families through, so the
    fault runs the same code as `hypospec verify`.  The memo of `families`
    is left alone; the restriction memo is cleared before the plant and at
    the end of the block, so no planted entry outlives it."""
    @contextmanager
    def plant(spec, term=x(1) * x(2) * x(4)):
        verify.restricted_family.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(verify, "family_poly",
                              lambda s: family_poly(s) + term if s == spec else family_poly(s))
                yield
        finally:
            verify.restricted_family.cache_clear()

    return plant


def test_basis_step_rejects_wrong_pair(planted_fault):
    """Y planted as X must surface a nonzero difference."""
    y3 = FamilySpec("Y", 3)
    with planted_fault(y3, family_poly(FamilySpec("X", 3)) - family_poly(y3)):
        wrong = verify_basis_step(3)
    assert not wrong.passed
    assert wrong.detail.startswith("nonzero difference: ")


def test_induction_cycles_rejects_mutated_family(planted_fault):
    # an asymmetric extra term breaks the sigma_0 cancellation
    with planted_fault(FamilySpec("G", 3, 3), x(1) * x(2) * x(3)):
        claim = verify_induction_cycles(3, 0, 3)
    assert not claim.passed
    assert claim.detail.startswith("nonzero difference: ")


def test_sigma_general_rejects_mutated_family(planted_fault):
    with planted_fault(FamilySpec("X", 3)):
        claim = verify_sigma_general(3, 0)
    assert not claim.passed
    assert claim.detail.startswith("nonzero difference: ")


# Each family that the n = 3 suite reads through verify's family_poly, the
# claims that x_1 x_2 x_4 planted there fails, and the sha256 of
# claims_to_json of those failed claims.  The digests were taken while every
# exact claim still built its difference before testing it; they pin each
# certificate byte for byte.
SUITE_FAULTS = [
    (FamilySpec("G", 3, 3), {"lemma-induction-cycles", "lemma-induction-neigh",
                             "lemma-rec-defn-g-n", "remark-rec-defn"},
     "8c650d58d6430d2e60715e81e336f70020060c425cdd49a860f2fb244e6ca5ec"),
    (FamilySpec("G", 3, 2), {"lemma-induction-cycles", "remark-rec-defn"},
     "b87582cbe2f3adfa87db7b58590f45cc376bc91e00c33243a77457faf15425d9"),
    (FamilySpec("H", 3), {"lemma-rec-defn-g-n"},
     "144f1050395ae1d67069c41ada2d9a89b7a2a1d87bb7949a109ee753f9460103"),
    (FamilySpec("T", 3), {"remark-rec-defn", "t-parity"},
     "45a57c1bc8b0b55481049aa76f36b76db5e320cc114a0f38bfb3dc8be9bbe36a"),
    (FamilySpec("Gamma", 3), {"degree-table", "remark-rec-defn"},
     "e018875ed02186f3e011d2515469653401a6e1c3557cfc4283b5baee77892f10"),
    (FamilySpec("M0", 3), {"lemma-basis-step", "lemma-sigma-general"},
     "0292f56551925d7ebb137a28e929eb12139e78a0a39c2c38747f9a447d9d48ff"),
    (FamilySpec("M1", 3), {"lemma-basis-step"},
     "b8c1fdb89c76adbfe1cbbe573a00429c629d9cc3a25fcd3843d8cec7422f6742"),
    (FamilySpec("X", 3), {"degree-link-coherence", "lemma-basis-step", "lemma-sigma-general"},
     "e18fe3955a2a72cdc14773434af37c5d7cb3f779c48a99ee0530ca31b0f68aa9"),
    (FamilySpec("Y", 3), {"lemma-basis-step"},
     "11c02d365686ec63f1fda25596834ae9ceff2ee43fac813ceda0c9464133298b"),
    (FamilySpec("D3", 3), {"remark-two-cycles-reindex"},
     "4c196e865e29fe3fb973eeb970536fac8143b29ad243923362eab1d8ca1e030b"),
    (FamilySpec("C3", 3), {"remark-two-cycles-reindex"},
     "4c196e865e29fe3fb973eeb970536fac8143b29ad243923362eab1d8ca1e030b"),
]


@pytest.mark.parametrize("spec, failing, digest", SUITE_FAULTS,
                         ids=[spec.family + (str(spec.k) if spec.k else "")
                              for spec, _, _ in SUITE_FAULTS])
def test_suite_detects_a_fault_planted_in_each_family_it_reads(spec, failing, digest,
                                                                planted_fault):
    # a clean run first fills every memo, so one that held a family
    # polynomial read through the seam would hide the fault from the digest
    assert all(c.passed for c in verify_identity_suite(3))
    with planted_fault(spec):
        failed = [c for c in verify_identity_suite(3) if not c.passed]
    assert {c.id for c in failed} == failing
    assert hashlib.sha256(claims_to_json(failed).encode("ascii")).hexdigest() == digest
    assert all(c.passed for c in verify_identity_suite(3))


def test_suite_faults_cover_every_family_the_suite_reads(monkeypatch):
    read = set()

    def recording(spec):
        read.add(spec)
        return family_poly(spec)

    verify.restricted_family.cache_clear()
    monkeypatch.setattr(verify, "family_poly", recording)
    try:
        verify_identity_suite(3)
    finally:
        verify.restricted_family.cache_clear()
    assert read == {spec for spec, _, _ in SUITE_FAULTS}


@pytest.mark.parametrize("n", [3, 4])
def test_suite_builds_the_hypergraph_of_x_alone(n, monkeypatch):
    """Every claim but `degree-link-coherence` reads its family through the
    seam; that one compares X's hypergraph of record with the seam's X."""
    built = set()

    def recording(spec):
        built.add(spec)
        return family_hypergraph(spec)

    monkeypatch.setattr(verify, "family_hypergraph", recording)
    assert all(c.passed for c in verify_identity_suite(n))
    assert built == {FamilySpec("X", n)}


def test_induction_cycles_branch_labels():
    hit = verify_induction_cycles(3, 0, 3)
    miss = verify_induction_cycles(3, 0, 2)
    assert hit.passed and hit.params["expected"] == "f"
    assert miss.passed and miss.params["expected"] == "0"


def test_induction_cycles_parameter_bounds():
    with pytest.raises(ValueError):
        verify_induction_cycles(3, 2, 3)
    with pytest.raises(ValueError):
        verify_induction_cycles(3, 0, 1)


def test_f_poly_frozen_terminal_branch():
    # r = n-2 collapses to 2^{n-1} * (x_1 - x_{1+2^{n-1}}) * x_1 * (-x_{1+2^{n-1}})
    assert f_poly(3, 1).terms == {(1, 1, 5): -4, (1, 5, 5): 4}
    assert f_poly(4, 2).terms == {(1, 1, 9): -8, (1, 9, 9): 8}


def test_print_order_frozen():
    # sha256 of to_text() taken before the multiset monomial encoding; it pins
    # the graded-lex order of monomials with repeated variables
    polys = [f_poly(3, 1), neigh_square(4, 0), pair_gap_poly(3),
             (x(1) + 2 * x(2) - x(3)) ** 4, family_poly(FamilySpec("X", 4))]
    digest = hashlib.sha256()
    for p in polys:
        digest.update(p.to_text().encode("ascii") + b"\n")
    assert digest.hexdigest() == "e61c392f8a8ad9b67cb49afabd4b32567275d3db2c948abced679caabe85524e"


def _left_to_right(scale, factors, phi):
    """scale times the factors restricted by phi, multiplied with `*` in turn."""
    product = SparsePoly.constant(scale)
    for factor in factors:
        product = product * factor.substitute(phi)
    return product


def _stated_f_factors(n, r):
    """The scale and the three linear factors of f_r^n, as stated."""
    if r <= n - 3:
        return 1 << (r + 1), [(x(1) - x(1 + (1 << (r + 1)))).substitute(e_map(n, r + 2)),
                              (x(1) - x(1 + (1 << (r + 2)))).substitute(e_map(n, r + 3)),
                              (x(1 + (1 << (r + 1)) + (1 << (r + 2)))
                               - x(1 + (1 << (r + 1)))).substitute(e_map(n, r + 3))]
    half = 1 << (n - 1)
    return half, [x(1) - x(1 + half), x(1), -x(1 + half)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_stated_products_equal_their_left_to_right_products(n):
    """f_poly (both branches), neigh_square and pair_gap_poly under the
    identity, the suite's orbit maps and the maps phi o p_j of
    `lemma-even-odd-f` equal the products multiplied out factor by factor."""
    identity = Endomorphism.identity()
    even_odd = orbit_substitution(n + 1, [sigma_perm(n + 1, 0)])
    for r in range(n - 1):
        scale, factors = _stated_f_factors(n, r)
        maps = [identity, fixed_point_map(n, r), orbit_substitution(n, [sigma_perm(n, 0)])]
        maps += [even_odd.compose(p_map(n + 1, j)) for j in (0, 1)]
        for phi in maps:
            assert f_poly(n, r, phi) == _left_to_right(scale, factors, phi), (r, phi)
        assert verify._suite_f(n, r) == _left_to_right(scale, factors, maps[1])
        if r <= n - 3:
            square = (x(1) - x(1 + (1 << (r + 2)))).substitute(e_map(n, r + 3))
            suite_phi = fixed_point_map(n, r + 1)
            for phi in (identity, suite_phi):
                assert neigh_square(n, r, phi) == _left_to_right(1, [square, square], phi)
            assert verify._suite_square(n, r) == _left_to_right(1, [square, square], suite_phi)
    gap = (x(1) - x(3)).substitute(e_map(n, 2))
    for phi in (identity, fixed_point_map(n, 0)):
        assert pair_gap_poly(n, phi) == _left_to_right(1, [x(0), gap, gap], phi)


def test_even_odd_f_multiplies_both_products_for_unlike_maps(monkeypatch):
    """phi o p_0 and phi o p_1 rename alike, so the claim builds one product
    and doubles it.  A planted p_1, x_i -> x_{2i + 1}, gives another
    composite: the claim then builds both products, and fails."""
    calls = []
    real_f, real_p = verify.f_poly, verify.p_map

    def counting(n, r, phi=Endomorphism.identity()):
        calls.append((n, r))
        return real_f(n, r, phi)

    monkeypatch.setattr(verify, "f_poly", counting)
    assert verify._claim_even_odd_f(3, 0).passed
    assert calls == [(3, 0), (4, 1)]
    calls.clear()
    monkeypatch.setattr(verify, "p_map", lambda n, bit: real_p(n, bit) if bit == 0 else
                        Endomorphism({i: x(mod_v(n, 2 * i + 1)) for i in range(1, (1 << n) + 1)}))
    claim = verify._claim_even_odd_f(3, 0)
    assert calls == [(3, 0), (3, 0), (4, 1)]
    assert not claim.passed
    assert claim.detail.startswith("nonzero difference: ")


def test_links_at_ones_matches_derivative():
    for n in (3, 4):
        poly = family_poly(FamilySpec("X", n))
        links = links_at_ones(poly)
        ones = {v: 1 for v in poly.variables()}
        for v in family_hypergraph(FamilySpec("X", n)).vertices:
            assert links[v] == poly.derivative(v).evaluate_exact(ones)
    assert links_at_ones(3 * x(1) ** 2 * x(2) - x(2) ** 3) == {1: 6, 2: 0}


def test_f_poly_bounds():
    with pytest.raises(ValueError):
        f_poly(3, -1)
    with pytest.raises(ValueError):
        f_poly(3, 2)


def test_neigh_square_frozen_and_bounds():
    assert neigh_square(3, 0) == (x(1) - x(5)) ** 2
    with pytest.raises(ValueError):
        neigh_square(3, 1)


def test_pair_gap_poly_explicit_n3():
    """At n = 3 the class sums have two members each, at stride 2^2:
    E_2(x_1) = x_1 + x_5 and E_2(x_3) = x_3 + x_7."""
    expected = x(0) * (x(1) + x(5) - x(3) - x(7)) ** 2
    assert pair_gap_poly(3) == expected


def test_induction_neigh_square_branch():
    claim = verify_induction_neigh(4, 1, 3)
    assert claim.passed
    assert claim.params["expected"] == "square"


def test_induction_neigh_rejects_rank_two_square_case():
    with pytest.raises(ValueError):
        verify_induction_neigh(3, 1, 2)
    with pytest.raises(ValueError):
        verify_induction_neigh(4, 2, 2)


def test_neigh_general_bounds():
    assert verify_neigh_general(3, 0).passed
    with pytest.raises(ValueError):
        verify_neigh_general(3, 1)


def test_fixed_point_map_matches_orbit_substitution():
    """phi_r is the orbit map of theta and sigma_0..sigma_{r-1}, r <= n."""
    for n in (3, 4, 5):
        for r in range(n + 1):
            direct = orbit_substitution(n, [theta_perm(n)] + [sigma_perm(n, i) for i in range(r)])
            assert fixed_point_map(n, r).images == direct.images, (n, r)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_restricted_difference_matches_direct(n):
    specs = [FamilySpec("X", n)] + [FamilySpec("G", n, k) for k in range(2, n + 1)]
    # sigma_{n-1} flips the top bit, so it maps orbits onto orbits but sends
    # orbit minima to non-minima: there h o sigma and h o (phi o sigma) differ
    for r in range(n):
        sigma, phi = sigma_endo(n, r), fixed_point_map(n, r)
        for spec in specs:
            g = family_poly(spec)
            direct = (g - g.substitute(sigma)).substitute(phi)
            assert restricted_difference(spec, r) == direct, (spec, r)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_restricted_family_chains_the_orbit_maps(n):
    """Each phi_r entry is built from the phi_{r-1} entry, and equals one
    substitution of the full polynomial."""
    for spec in [FamilySpec("X", n)] + [FamilySpec("G", n, k) for k in range(2, n + 1)]:
        g = family_poly(spec)
        for r in range(n + 1):
            direct = g.substitute(fixed_point_map(n, r))
            assert restricted_family(spec, r) == direct, (spec, r)


def test_planted_faults_leave_no_restricted_entry_behind(planted_fault):
    """A fault planted at n = 4 reaches the r = 1 claims through
    `restricted_family`, and once lifted the memo holds no planted entry."""
    for spec, claim in [(FamilySpec("X", 4), lambda: verify_sigma_general(4, 1)),
                        (FamilySpec("G", 4, 3), lambda: verify_induction_cycles(4, 1, 3))]:
        with planted_fault(spec, x(1) * x(2) * x(5)):
            assert not claim().passed
        assert claim().passed
        for r in range(5):
            direct = family_poly(spec).substitute(fixed_point_map(4, r))
            assert restricted_family(spec, r) == direct, (spec, r)


def test_restricted_difference_rejects_incompatible_sigma(monkeypatch):
    # the transposition (1 2) splits the theta-orbits {1, 8} and {2, 7}
    swap = permutation_endo({v: {1: 2, 2: 1}.get(v, v) for v in range(9)})
    monkeypatch.setattr(verify, "sigma_endo", lambda n, r: swap)
    with pytest.raises(ValueError, match="orbits"):
        restricted_difference(FamilySpec("X", 3), 0)
    monkeypatch.setattr(verify, "sigma_endo", lambda n, r: Endomorphism({1: x(1) + x(2)}))
    with pytest.raises(ValueError, match="rename"):
        restricted_difference(FamilySpec("X", 3), 0)


def test_memoised_maps_are_left_as_built():
    # the suite shares one object per argument tuple; none may be mutated
    verify_identity_suite(4)

    def same(cached, fresh):
        return cached.images == fresh.images and cached.rename == fresh.rename

    for n in (4, 5):
        for r in range(2, n + 1):
            assert e_map(n, r) is e_map(n, r)
            assert same(e_map(n, r), e_map.__wrapped__(n, r))
        for r in range(n + 1):
            assert fixed_point_map(n, r) is fixed_point_map(n, r)
            assert same(fixed_point_map(n, r), fixed_point_map.__wrapped__(n, r))
        assert all(same(p_map(n, b), p_map.__wrapped__(n, b)) for b in (0, 1))
        assert all(same(sigma_endo(n, i), sigma_endo.__wrapped__(n, i)) for i in range(n))
        assert same(theta_endo(n), theta_endo.__wrapped__(n))


def test_claims_json_shape():
    claims = [Claim("a", {"n": 3}, "exact-identity", True, "ok", elapsed=1.5)]
    decoded = json.loads(claims_to_json(claims))
    assert decoded == [{"id": "a", "params": {"n": 3}, "kind": "exact-identity",
                        "passed": True, "detail": "ok"}]
    assert "elapsed" not in decoded[0]


def test_write_verdict_round_trip(tmp_path):
    path = tmp_path / "verdict.json"
    claims = verify_identity_suite(3)[:3]
    with path.open("w", encoding="ascii") as out:
        write_verdict(out, claims)
    decoded = json.loads(path.read_text())
    assert [c["id"] for c in decoded] == [c.id for c in claims]


def test_main_theorem_n3():
    claim = verify_main_theorem(3)
    assert claim.passed
    assert claim.kind == "numeric"
    assert claim.params["mu_lo"] > claim.params["lambda_hi"]
    assert claim.params["residual_x"] < 1e-12
    assert claim.params["residual_y"] < 1e-12
    assert claim.params["predicted_gap"] > 0
    assert claim.params["predicted_gap_text"] == format(claim.params["predicted_gap"], ".17g")


# sha256 of the sorted-key JSON of verify_main_theorem(n, seed=s).params,
# which holds the float iteration counts and the Newton refinement fields
# that the exact-only verdict digests leave out.  They move only when the
# float solver or the refinement does; update them on purpose.
MAIN_THEOREM_PARAMS_PINS = {
    (3, 0): "736f701eb84c3fac7013fdd7eda3ecd12986028d916668b9c16e8ec02a814e87",
    (3, 2): "0df0f8c93e3299c348ecfb17457ca671ef4ff7060c35d99b18701f5feac41e6b",
    (4, 0): "231d629e301a6cb3352ee3c3ec52286204e560a6c4d4667229f95c8dc2f66ccd",
    (4, 2): "a503b959239ddc085588a3c06ad6a49bc0d0bf0c28db2005d9174aad46061921",
    (5, 0): "0102ad9e550d9d279c2e860b1a7695a253cf07ba3fee3b82578153c22e44f349",
    (5, 2): "5dcf490aafc60d9b16d8dfd7dff6a34d894c63df8fd792c7b8e9160ad148dfff",
    (6, 0): "4de2e01820734d87cde8511130c409d443ad1ea7a251061cc1b46d7c31a86510",
    (6, 2): "cd00064f2d266bbc3a1d60bef9ebf4aa9be9dd3f4b9db12e2e4a181d15cf1ef7",
}


@pytest.mark.parametrize("n,seed", sorted(MAIN_THEOREM_PARAMS_PINS))
def test_main_theorem_params_are_pinned(n, seed):
    params = verify_main_theorem(n, seed=seed).params
    digest = hashlib.sha256(json.dumps(params, sort_keys=True).encode("ascii")).hexdigest()
    assert digest == MAIN_THEOREM_PARAMS_PINS[n, seed]


def test_main_theorem_judges_only_the_exact_certificate(monkeypatch):
    """Three power iterations leave the float brackets about 2e-3 wide; the
    Newton refinement still reaches separated exact brackets."""
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 3)
    claim = verify_main_theorem(4)
    assert claim.passed, claim.detail
    assert claim.params["iterations_x"] == claim.params["iterations_y"] == 3
    assert claim.params["bracket_gap"] > 0
    assert claim.params["refinement_bits"] > 64


def test_main_theorem_judges_the_brackets_not_the_residual(monkeypatch):
    """Under a 64-bit refinement ceiling each Newton run yields only its
    start, so the certificate brackets the float vectors themselves.  After
    12 power iterations X^3's exact residual is about 1e-10, and the exact
    brackets separate all the same: the claim passes.  After 9 they do not
    separate, and the claim fails on that."""
    monkeypatch.setattr(spectral, "MAX_REFINEMENT_BITS", 64)
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 12)
    claim = verify_main_theorem(3)
    assert claim.passed, claim.detail
    assert claim.params["bracket_gap"] > 0
    assert claim.params["residual_x"] > 1e-12
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 9)
    claim = verify_main_theorem(3)
    assert not claim.passed
    assert claim.params["bracket_gap"] < 0
    assert claim.detail.startswith("brackets do not separate")


def test_main_theorem_factors_once_per_hypergraph(monkeypatch):
    """One LU factorization per hypergraph, at its float start vector,
    serves every Newton step of its run."""
    sizes = []
    factor = spectral._lu_factor

    def counting(matrix):
        sizes.append(len(matrix))
        return factor(matrix)

    monkeypatch.setattr(spectral, "_lu_factor", counting)
    claim = verify_main_theorem(5)
    assert claim.passed, claim.detail
    assert claim.params["refinement_iterations"] > 2
    # X^5 and Y^5 have 17 theta-orbits on their 33 vertices, plus one row for lambda
    assert claim.params["cells"] == 17
    assert sizes == [18, 18]


def test_main_theorem_brackets_each_vector_once(monkeypatch):
    """One exact pass at each float start, one per kept Newton step and one
    per final certificate: no bracket is computed twice."""
    calls = []
    kernel = spectral._exact_bracket

    def counting(links, m, ints):
        calls.append(len(links))
        return kernel(links, m, ints)

    monkeypatch.setattr(spectral, "_exact_bracket", counting)
    claim = verify_main_theorem(5)
    assert claim.passed, claim.detail
    assert len(calls) == claim.params["refinement_iterations"] + 4
    # the Newton runs bracket the 17 cells; the two certificates all 33 vertices
    assert calls[-2:] == [33, 33] and set(calls[:-2]) == {17}


def test_main_theorem_fails_at_the_bit_ceiling(monkeypatch):
    """n = 5 needs about 311 bits; under a 200-bit ceiling both Newton runs
    end short of separation, and the claim fails on that, not on a hang."""
    monkeypatch.setattr(spectral, "MAX_REFINEMENT_BITS", 200)
    claim = verify_main_theorem(5)
    assert not claim.passed
    assert claim.detail.startswith("brackets do not separate")
    assert claim.params["refinement_bits"] <= 200


def test_main_theorem_checks_the_predicted_gap(monkeypatch):
    """mu - lambda is at least the gap polynomial at the X^n eigenvector, and
    at n = 4 the bracket gap is only 1.09 times that, so a gap predicted
    twice too large must fail the claim."""
    exact = verify._pair_gap

    def doubled(vec):
        e2_diff, predicted = exact(vec)
        return e2_diff, 2 * predicted

    monkeypatch.setattr(verify, "_pair_gap", doubled)
    claim = verify_main_theorem(4)
    assert not claim.passed
    assert "short of predicted gap" in claim.detail
    assert claim.params["bracket_gap"] > 0


def test_main_theorem_fails_on_a_zero_predicted_gap(monkeypatch):
    """At a predicted gap of 0, mu_hi - lambda_lo >= 0 holds whenever the
    brackets separate, so only the positivity check can fail the claim."""
    monkeypatch.setattr(verify, "_pair_gap", lambda vec: (Fraction(0), Fraction(0)))
    claim = verify_main_theorem(3)
    assert not claim.passed
    assert claim.detail == "gap polynomial at the X^3 eigenvector is 0.000e+00, not positive"
    assert claim.params["bracket_gap"] > 0


def test_format_exact_survives_float_underflow():
    """From n = 7 the radius gap is below the smallest double; its printed
    digits come from the exact value, and normal values print as floats."""
    tiny = Fraction(3, 2 ** 1200)  # about 1.74e-361
    assert float(tiny) == 0.0
    mantissa, _, exponent = format_exact(tiny, ".17g").partition("e")
    assert float(mantissa) != 0 and exponent == "-361"
    assert format_exact(tiny, ".6g") == "1.74231e-361"
    assert format_exact(tiny, ".3e") == "1.742e-361"
    for q in (Fraction(22, 7), Fraction(-1, 3 * 10 ** 300), Fraction(0)):
        assert format_exact(q, ".17g") == format(float(q), ".17g")


def test_cone_over_x3_structure():
    """The cone over the depth-3 core with the M0 links is the X family."""
    base, links = standard_cone_samples()[1]
    assert cone_over(base, links) == family_hypergraph(FamilySpec("X", 3))


def test_cone_over_validation():
    with pytest.raises(ValueError, match="apex 0"):
        cone_over(family_hypergraph(FamilySpec("X", 3)), [(1, 2)])  # apex collides with the base
    base = family_hypergraph(FamilySpec("C3", 3))
    with pytest.raises(ValueError):
        cone_over(base, [(1, 2, 3)])  # link has rank-many vertices
    with pytest.raises(ValueError):
        cone_over(base, [(1, 99)])  # link leaves the vertex set
    with pytest.raises(ValueError):
        cone_over(base, [(1, 2)])  # apex codegree not constant
    with pytest.raises(ValueError, match="apex 0"):
        cone_over(base, [])  # isolated apex, a disconnected cone


def test_regular_cone_claims():
    regular, skew = standard_cone_samples()
    claim_regular = verify_regular_cone(*regular)
    claim_skew = verify_regular_cone(*skew)
    assert claim_regular.passed and claim_regular.params["regular_base"]
    assert claim_skew.passed and not claim_skew.params["regular_base"]
    p = claim_regular.params
    assert (p["base_degrees"], p["apex_codegree"], p["apex_degree"]) == ([3, 3], 2, 8)
    u_lo, u_hi = verify._root_bracket(3, 2, 8, 3)
    assert (p["u_lo"], p["u_hi"]) == (float(u_lo), float(u_hi))
    assert p["lambda_lo"] == p["lambda_hi"] == float(3 + 2 * u_lo)
    assert claim_skew.params["base_degrees"] == [7, 8]
    assert not {"u_lo", "u_hi", "lambda_lo", "lambda_hi"} & claim_skew.params.keys()


@pytest.mark.parametrize("sample", [0, 1], ids=["regular", "skew"])
def test_regular_cone_apex_codegree_is_the_counted_one(sample):
    """The claim reads gamma off the apex degree; it equals the count of
    edges through the apex and each base vertex."""
    base, links = standard_cone_samples()[sample]
    cone = cone_over(base, links)
    gamma = verify_regular_cone(base, links).params["apex_codegree"]
    assert [codegree(cone, 0, v) for v in base.vertices] == [gamma] * base.num_vertices


@pytest.mark.parametrize("d, gamma, apex_degree, m", [
    (3, 2, 8, 3), (7, 2, 8, 3), (0, 1, 5, 3), (2, 3, 1, 4), (1, 1, 2, 3),
])
def test_root_bracket_straddles_the_root(d, gamma, apex_degree, m):
    """Dyadic ends 2^-64 apart with p(u_lo) < 0 <= p(u_hi); (1, 1, 2, 3) has
    the dyadic root u = 1, which lands on u_hi."""
    u_lo, u_hi = verify._root_bracket(d, gamma, apex_degree, m)

    def p(u):
        return d * u ** (m - 1) + gamma * u ** m - apex_degree

    assert 0 < u_lo and u_hi - u_lo == Fraction(1, 2 ** 64)
    assert all(u.denominator & (u.denominator - 1) == 0 for u in (u_lo, u_hi))
    assert p(u_lo) < 0 <= p(u_hi)


@pytest.mark.parametrize("shift", [1, -1])
def test_regular_cone_fails_on_a_root_bracket_that_misses(shift, monkeypatch):
    """Gamma off by one in p brackets another root, and the cone brackets at
    its ends no longer order the two quotient ratios as p's signs claim."""
    bracket = verify._root_bracket
    monkeypatch.setattr(verify, "_root_bracket",
                        lambda d, gamma, apex, m: bracket(d, gamma + shift, apex, m))
    claim = verify_regular_cone(*standard_cone_samples()[0])
    assert not claim.passed
    assert claim.detail.startswith("cone bracket at (u, 1, ..., 1)")


@pytest.mark.parametrize("sample, planted", [
    (1, lambda h: Counter(dict.fromkeys(h.vertices, 7))),
    (0, lambda h: Counter({**dict.fromkeys(h.vertices, 3), h.vertices[0]: 4})),
], ids=["skew-called-regular", "regular-called-skew"])
def test_regular_cone_fails_on_a_wrong_degree_table(sample, planted, monkeypatch):
    """A table that calls the skew base 7-regular, or one that gives the
    regular base a vertex of degree 4, disagrees with the exact base bracket."""
    monkeypatch.setattr(verify, "_edge_degrees", planted)
    claim = verify_regular_cone(*standard_cone_samples()[sample])
    assert not claim.passed
    assert claim.detail.startswith("base bracket at all-ones")


def test_run_suite_solves_floats_only_for_the_main_theorem(monkeypatch):
    calls = []
    solve = spectral.principal_eigenpair

    def counting(hypergraph, **kwargs):
        calls.append(hypergraph.num_vertices)
        return solve(hypergraph, **kwargs)

    monkeypatch.setattr(spectral, "principal_eigenpair", counting)
    claims = run_suite([3])
    assert all(c.passed for c in claims)
    assert calls == [9, 9]


def test_run_suite_exact_only():
    claims = run_suite([3], include_numeric=False)
    assert len(claims) == 25
    assert all(c.kind != "numeric" for c in claims)


def test_run_suite_validates_every_n_before_any_claim(monkeypatch):
    ran = []

    def recording(*args):
        ran.append(args)
        return []

    for name in ("verify_identity_suite", "verify_main_theorem", "verify_regular_cone"):
        monkeypatch.setattr(verify, name, recording)
    with pytest.raises(ValueError, match="exceeds N_CAP"):
        run_suite([3, 4, N_CAP + 1], include_numeric=False)
    with pytest.raises(ValueError, match="exceeds NUMERIC_N_CAP"):
        run_suite([3, 4, NUMERIC_N_CAP + 1])
    assert ran == []
    # the exact suite alone still goes up to N_CAP
    run_suite([NUMERIC_N_CAP + 1], include_numeric=False)
    assert ran == [(NUMERIC_N_CAP + 1,)]


REC_DEFN_FAULTS = [("G2", FamilySpec("G", 4, 2)), ("G3", FamilySpec("G", 4, 3)),
                   ("G4", FamilySpec("G", 4, 4)), ("T", FamilySpec("T", 4)),
                   ("Gamma", FamilySpec("Gamma", 4))]


@pytest.mark.parametrize("first", range(len(REC_DEFN_FAULTS)))
def test_remark_rec_defn_fails_at_the_first_planted_fault(first, monkeypatch):
    """A stray edge in the recursion of one family and of every later one:
    the claim names the first, so G2..Gn are checked in turn, then T, then
    Gamma."""
    faulty = {spec for _, spec in REC_DEFN_FAULTS[first:]}

    def planted(spec):
        poly = family_poly(spec)
        return poly + x(1) * x(2) * x(3) if spec in faulty else poly

    monkeypatch.setattr(verify, "family_poly", planted)
    claim = verify._claim_remark_rec_defn(4)
    assert not claim.passed
    assert claim.detail.startswith(
        f"closed form differs from recursion at {REC_DEFN_FAULTS[first][0]}: ")


def test_main_theorem_reports_its_cells():
    """One cell per theta-orbit: 0 alone and the pairs {j, 2^n + 1 - j}."""
    assert [verify_main_theorem(n).params["cells"] for n in (3, 4)] == [5, 9]


def test_main_theorem_fails_on_a_partition_that_is_not_orbits(monkeypatch):
    """Cells {2k - 1, 2k} are no orbits of X^4 or Y^4.  The quotient run
    still refines a vector, but its full exact bracket is the certificate,
    and it does not separate."""
    def pairing(n):
        return {0: 0, **{j: j + 1 if j % 2 else j - 1 for j in range(1, 2 ** n + 1)}}

    monkeypatch.setattr(verify, "theta_perm", pairing)
    claim = verify_main_theorem(4)
    assert not claim.passed
    assert claim.params["cells"] == 9
    assert "brackets do not separate" in claim.detail


@pytest.mark.parametrize("claim, n, name, fault, start", [
    ("_claim_interaction_sigma_p", 4, "sigma_index",
     lambda real: lambda i, j: j if i >= 1 else real(i, j),
     "first mismatch at r=1, j=0, i=1: p sigma = 4, sigma p = 2 (16 mismatches)"),
    ("_claim_repeated_app", 4, "p_eps",
     lambda real: lambda n, bits: real(n, bits[::-1]),
     "eps=[0, 1], i=1: composition gives 1*x_3, closed form 1*x_2"),
    ("_claim_helper_parity", 5, "mod_v",
     lambda real: lambda n, v: real(n, v + 1),
     "value-2 characterization fails at i=1, r=1, eps=[0]"),
], ids=["interaction-sigma-p", "repeated-app", "helper-parity"])
def test_enumeration_claims_report_their_first_failure(claim, n, name, fault, start,
                                                        monkeypatch):
    """A wrong index map makes each brute-force claim fail with the first
    case it meets: sigma_i the identity for i >= 1, the doubling word
    composed reversed, and mod_v off by one."""
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    result = getattr(verify, claim)(n)
    assert not result.passed
    assert result.detail.startswith(start)


@pytest.mark.parametrize("call, message", [
    (lambda: verify.explicit_gk(4, 5), "need 2 <= k <= n, got k=5, n=4"),
    (lambda: verify_sigma_general(4, 3), "need 0 <= r <= n-2, got r=3, n=4"),
    (lambda: verify_induction_neigh(4, 3, 2), "got r=3, k=2, n=4"),
    (lambda: verify_induction_neigh(4, 0, 5), "got r=0, k=5, n=4"),
])
def test_claims_reject_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()
