import pytest

from hypospec.families import (FAMILY_TAGS, N_CAP, FamilySpec, base_cycles,
                               e_map, family_hypergraph, family_poly, mod_v,
                               orbit_substitution, p_eps, p_map, q_map,
                               sigma_endo, sigma_index, sigma_perm, tau_endo,
                               tau_perm, theta_endo, theta_perm)
from hypospec.polyalg import SparsePoly, x
from hypospec.spectral import codegree, degree


def test_mod_v():
    assert [mod_v(3, t) for t in (1, 8, 9, 0, -1, 16, 17)] == [1, 8, 1, 8, 7, 8, 1]


def test_sigma_tables():
    assert [sigma_perm(3, 0)[i] for i in range(1, 9)] == [2, 1, 4, 3, 6, 5, 8, 7]
    assert [sigma_perm(3, 1)[i] for i in range(1, 9)] == [3, 4, 1, 2, 7, 8, 5, 6]
    assert [sigma_perm(3, 2)[i] for i in range(1, 9)] == [5, 6, 7, 8, 1, 2, 3, 4]
    minus = sigma_perm(3, -1)
    assert all(minus[i] == i for i in range(0, 9))
    assert all(sigma_perm(4, 0)[0] == 0 for _ in (0,))
    with pytest.raises(ValueError):
        sigma_perm(3, 3)  # sigma_i permutes V_n only for i <= n-1


def test_sigma_index_is_involution():
    for i in range(0, 5):
        for j in range(1, 200):
            assert sigma_index(i, sigma_index(i, j)) == j


def test_theta_table():
    th = theta_perm(3)
    assert [th[i] for i in range(1, 9)] == [8, 7, 6, 5, 4, 3, 2, 1]
    assert th[0] == 0
    th4 = theta_perm(4)
    assert th4[1] == 16 and th4[16] == 1


def test_tau_table():
    assert [tau_perm()[i] for i in range(1, 9)] == [3, 6, 1, 4, 7, 2, 5, 8]


def test_p_maps():
    p0, p1 = p_map(3, 0), p_map(3, 1)
    assert p0.image(1) == x(2)
    assert p0.image(8) == x(8)      # 16 wraps to 8
    assert p1.image(1) == x(1)
    assert p1.image(5) == x(1)      # 9 wraps to 1
    # closed form of a two-step composite at level 5
    e = p_eps(5, (1, 1))
    assert e.image(1) == x(mod_v(5, 4 - 3))
    assert p_eps(3, (0,)).image(1) == x(2)


def test_e_map_images():
    e2 = e_map(3, 2)
    assert e2.image(1) == x(1) + x(5)
    assert e2.image(3) == x(3) + x(7)
    e3 = e_map(3, 3)
    assert e3.image(5) == x(5)      # top level map is the identity
    with pytest.raises(ValueError):
        e_map(3, 1)
    with pytest.raises(ValueError):
        e_map(3, 4)


def test_q_map_is_second_to_top_sum():
    q = q_map(3)
    assert q.image(1) == x(1) + x(5)
    assert q.image(4) == x(4) + x(8)


def test_substitute_through_p_map():
    assert x(3).substitute(p_map(4, 1)) == x(5)


def test_orbit_substitution_theta():
    orbit = orbit_substitution(3, [theta_perm(3)])
    # orbit pairs collapse onto the smaller representative
    assert orbit.image(8) == x(1)
    assert orbit.image(5) == x(4)
    assert orbit.image(1) == x(1)
    assert orbit.image(0) == x(0)


def test_orbit_substitution_theta_sigma0():
    orbit = orbit_substitution(3, [theta_perm(3), sigma_perm(3, 0)])
    for j in (1, 2, 7, 8):
        assert orbit.image(j) == x(1)
    for j in (3, 4, 5, 6):
        assert orbit.image(j) == x(3)


def test_orbit_substitution_rejects_non_permutation():
    with pytest.raises(ValueError):
        orbit_substitution(3, [{i: 1 for i in range(0, 9)}])


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("C3", 4)
    with pytest.raises(ValueError):
        FamilySpec("X", 2)
    with pytest.raises(ValueError):
        FamilySpec("G", 3)          # k required
    with pytest.raises(ValueError):
        FamilySpec("G", 3, 1)
    with pytest.raises(ValueError):
        FamilySpec("X", 3, 2)       # k forbidden outside G
    with pytest.raises(ValueError):
        FamilySpec("Z", 3)
    assert FamilySpec("G", 4, 2).k == 2
    assert set(FAMILY_TAGS) >= {"C3", "D3", "G", "H", "T", "Gamma", "M0", "M1", "X", "Y"}


def test_base_cycle_edges():
    c3, d3 = base_cycles()
    assert len(c3) == 8 and len(d3) == 8
    assert c3.terms.get((1, 2, 8)) == 1     # wrap-around edge {8,1,2}
    assert d3.terms.get((1, 4, 7)) == 1     # offset-3 edge {1,4,7}
    assert c3.is_homogeneous(3) and d3.is_homogeneous(3)


def test_g23_explicit_edges():
    g23 = family_poly(FamilySpec("G", 3, 2))
    want = SparsePoly.zero()
    for i in range(1, 5):
        want = want + x(i) * x(i + 2) * x(mod_v(3, i + 4))
    assert g23 == want
    assert len(g23) == 4


def test_m0_m1_edges():
    m0 = family_poly(FamilySpec("M0", 3))
    m1 = family_poly(FamilySpec("M1", 3))
    assert len(m0) == 8 and len(m1) == 8
    assert m0.terms.get((0, 1, 2)) == 1
    assert m1.terms.get((0, 1, 4)) == 1
    assert m0 != m1
    for n in (3, 4, 5):
        assert len(family_poly(FamilySpec("M0", n))) == 2 * 4 ** (n - 2)


def test_frozen_edge_counts():
    cases = {
        ("G", 3, 3): 16, ("Gamma", 3, None): 20, ("X", 3, None): 28,
        ("Y", 3, None): 28, ("Gamma", 4, None): 168, ("X", 4, None): 200,
        ("Gamma", 5, None): 1360, ("X", 5, None): 1488,
    }
    for (fam, n, k), count in cases.items():
        assert len(family_poly(FamilySpec(fam, n, k))) == count, (fam, n, k)


def test_h_equals_g_top():
    for n in (3, 4, 5):
        assert family_poly(FamilySpec("H", n)) == family_poly(FamilySpec("G", n, n))


def test_x_y_hypergraph_shape():
    hx = family_hypergraph(FamilySpec("X", 3))
    assert hx.vertices == tuple(range(0, 9))
    assert hx.num_edges == 28
    hy = family_hypergraph(FamilySpec("Y", 3))
    assert hy.vertices == hx.vertices
    assert hx != hy


def test_gamma3_degrees_and_codegrees():
    gamma = family_hypergraph(FamilySpec("Gamma", 3))
    assert degree(gamma, 1) == 7
    assert degree(gamma, 2) == 7
    assert degree(gamma, 3) == 8
    hx = family_hypergraph(FamilySpec("X", 3))
    for i in range(1, 9):
        assert codegree(hx, 0, i) == 2


def test_families_are_homogeneous_multilinear():
    for fam in ("C3", "D3", "T", "Gamma", "M0", "M1", "X", "Y"):
        poly = family_poly(FamilySpec(fam, 3))
        assert poly.is_homogeneous(3)
        assert all(coef == 1 for _, coef in poly.monomials())


def test_size_cap():
    with pytest.raises(ValueError):
        family_poly(FamilySpec("X", N_CAP + 1))


def test_sigma_endo_matches_perm():
    s = sigma_endo(4, 2)
    table = sigma_perm(4, 2)
    for i in range(0, 17):
        assert s.image(i) == x(table[i])
    assert sigma_endo(3, 0).image(1) == x(2)
    assert theta_endo(3).image(2) == x(7)
    assert tau_endo().image(1) == x(3)
