import itertools
import math
import random
from fractions import Fraction

import pytest

from hypospec import spectral
from hypospec.families import FamilySpec, family_hypergraph, theta_perm
from hypospec.hypergraph import Hypergraph, UnknownVertexError, lagrangian_of
from hypospec.spectral import (DimensionMismatchError, NotConnectedError,
                               codegree, degree, is_connected,
                               principal_eigenpair, rational_bracket,
                               refined_eigenvector, tensor_apply,
                               vector_digest)


def single_edge():
    return Hypergraph(3, (1, 2, 3), [(1, 2, 3)])


def cycle8():
    return family_hypergraph(FamilySpec("C3", 3))


def random_connected(rng, rank=3, max_vertices=6):
    while True:
        nv = rng.randint(rank, max_vertices)
        verts = tuple(range(nv))
        pool = list(itertools.combinations(verts, rank))
        count = rng.randint(1, len(pool))
        edges = rng.sample(pool, count)
        h = Hypergraph(rank, verts, edges)
        if is_connected(h):
            return h


def test_tensor_apply_ones_gives_degrees():
    h = cycle8()
    out = tensor_apply(h, [1.0] * 8)
    assert out == [3.0] * 8             # every vertex lies in 3 edges
    assert degree(h, 1) == 3


def test_tensor_apply_shapes_and_errors():
    h = single_edge()
    assert tensor_apply(h, [2.0, 3.0, 4.0]) == [12.0, 8.0, 6.0]
    with pytest.raises(DimensionMismatchError):
        tensor_apply(h, [1.0, 2.0])


def test_euler_identity_numeric():
    h = cycle8()
    rng = random.Random(7)
    for _ in range(10):
        v = [rng.uniform(0.2, 1.5) for _ in range(8)]
        lhs = math.fsum(map(math.prod, zip(tensor_apply(h, v), v)))
        rhs = lagrangian_of(h).evaluate(dict(zip(h.vertices, v)))
        assert lhs == pytest.approx(3.0 * rhs, rel=1e-12)


def test_degree_codegree():
    hx = family_hypergraph(FamilySpec("X", 3))
    assert degree(hx, 0) == 8
    assert codegree(hx, 0, 3) == 2
    with pytest.raises(UnknownVertexError):
        degree(hx, 99)
    with pytest.raises(ValueError):
        codegree(hx, 1, 1)


def test_is_connected():
    assert is_connected(cycle8())
    split = Hypergraph(3, range(6), [(0, 1, 2), (3, 4, 5)])
    assert not is_connected(split)
    isolated = Hypergraph(3, range(4), [(0, 1, 2)])
    assert not is_connected(isolated)
    # the walk runs over vertex positions: scattered labels, first vertex isolated
    assert is_connected(Hypergraph(3, [2, 5, 9, 40], [(2, 5, 9), (2, 9, 40)]))
    assert not is_connected(Hypergraph(3, [2, 5, 9, 40], [(5, 9, 40)]))


def test_single_edge_closed_form():
    pair = principal_eigenpair(single_edge())
    assert pair.converged
    assert pair.value == pytest.approx(1.0, abs=1e-12)
    want = 3.0 ** (-1.0 / 3.0)
    for v in (1, 2, 3):
        assert pair.entry(v) == pytest.approx(want, abs=1e-10)
    assert pair.residual < 1e-12
    with pytest.raises(UnknownVertexError):
        pair.entry(4)


def test_regular_cycle_eigenpair():
    # 3-regular and connected, so lambda = 3 and the vector is constant
    pair = principal_eigenpair(cycle8())
    assert pair.value == pytest.approx(3.0, abs=1e-12)
    spread = max(pair.vector) - min(pair.vector)
    assert spread < 1e-12
    norm = math.fsum(t ** 3 for t in pair.vector)
    assert norm == pytest.approx(1.0, rel=1e-12)


def test_brackets_contain_eigenvalue():
    h = family_hypergraph(FamilySpec("X", 3))
    pair = principal_eigenpair(h)
    xlo, xhi, _ = rational_bracket(h, pair.vector)
    assert isinstance(xlo, Fraction) and isinstance(xhi, Fraction)
    assert float(xlo) <= pair.value <= float(xhi)
    # brackets from a crude positive vector still enclose the converged value
    clo, chi, _ = rational_bracket(h, [1.0] * 9)
    assert clo <= pair.value <= chi
    with pytest.raises(ValueError):
        rational_bracket(h, [1.0] * 8 + [0.0])


def test_rational_bracket_residual():
    h = single_edge()
    lo, hi, res = rational_bracket(h, [Fraction(1), Fraction(1), Fraction(1)])
    assert lo == hi == 1
    assert res == 0
    lo2, hi2, res2 = rational_bracket(h, [Fraction(2), Fraction(1), Fraction(1)])
    assert lo2 == Fraction(1, 4) and hi2 == 2
    assert res2 > 0


def per_edge_bracket(h, ints):
    """The per-edge exact kernel that the grouped sums replaced, kept as an
    oracle: S_i sums math.prod of the other entries over each edge at i."""
    index = {v: i for i, v in enumerate(h.vertices)}
    rows = [[index[v] for v in e] for e in h.edges]
    sums = [sum(math.prod(ints[q] for q in row if q != p) for row in rows if p in row)
            for p in range(len(ints))]
    powered = [t ** (h.rank - 1) for t in ints]
    ratios = [Fraction(s, t) for s, t in zip(sums, powered)]
    return sums, powered, min(ratios), max(ratios)


def random_hypergraphs(rng):
    """Eight hypergraphs of each rank 2, 3 and 4 on scattered labels, each
    with its first label in no edge."""
    for rank in (2, 3, 4):
        for _ in range(8):
            nv = rng.randint(rank + 2, 12)
            labels = rng.sample(range(1000), nv)
            pool = list(itertools.combinations(sorted(labels[1:]), rank))
            yield labels[0], Hypergraph(rank, labels, rng.sample(pool, rng.randint(1, len(pool))))


def test_grouped_edge_sums_match_per_edge_products():
    """Seeded hypergraphs of rank 2, 3 and 4 on scattered labels, each with
    one vertex in no edge (sum 0), at entries of 1 to 700 bits."""
    rng = random.Random(20261018)
    checked = 0
    for isolated, h in random_hypergraphs(rng):
        for bits in (1, 2, 64, 700):
            ints = [rng.randint(1, 2 ** bits) for _ in h.vertices]
            got = spectral._exact_bracket(spectral._links(h), h.rank, ints)
            assert got == per_edge_bracket(h, ints)
            assert got[0][h.vertices.index(isolated)] == 0
            checked += 1
    assert checked == 96


def test_tensor_apply_matches_per_edge_products():
    """Float entries that are small integers keep every product and sum
    exact, so the grouped float sums equal the per-edge integer oracle."""
    rng = random.Random(7)
    for _, h in random_hypergraphs(rng):
        ints = [rng.randint(1, 1 << 10) for _ in h.vertices]
        assert tensor_apply(h, [float(t) for t in ints]) == per_edge_bracket(h, ints)[0]


def per_pair_links(h):
    """The `_links` table built one (edge, member) pair at a time, kept as
    the oracle of the sorted-code build."""
    index = {v: i for i, v in enumerate(h.vertices)}
    groups = [{} for _ in h.vertices]
    for edge in h.edges:
        row = [index[v] for v in edge]
        for p in row:
            others = [q for q in row if q != p]
            groups[p].setdefault(tuple(others[:-1]), []).append(others[-1])
    return tuple(tuple((prefix, tuple(lasts)) for prefix, lasts in g.items()) for g in groups)


def test_links_match_per_pair_build():
    """The same groups in the same order, so every float sum keeps its order:
    seeded hypergraphs of rank 2, 3 and 4, with and without scattered labels,
    and X^3..X^6."""
    rng = random.Random(2026)
    samples = [h for _, h in random_hypergraphs(rng)]
    samples += [random_connected(rng, rank, max_vertices=9) for rank in (2, 3, 4) for _ in range(4)]
    samples += [family_hypergraph(FamilySpec("X", n)) for n in range(3, 7)]
    for h in samples:
        assert spectral._links.__wrapped__(h) == per_pair_links(h)
    assert spectral._links(Hypergraph(3, range(4), [])) == ((),) * 4


def theta_cells(n):
    theta = theta_perm(n)
    return tuple(dict.fromkeys(tuple(sorted({v, theta[v]})) for v in range(2 ** n + 1)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_quotient_sums_equal_full_sums_on_theta_orbits(n):
    """At random positive integer vectors constant on the theta-orbits, the
    edge sums over the quotient table equal the full sums of each cell's
    members exactly, on X^n and Y^n."""
    rng = random.Random(n)
    cells = theta_cells(n)
    for tag in "XY":
        h = family_hypergraph(FamilySpec(tag, n))
        quotient = spectral._quotient(h, cells)
        assert len(quotient.links) == len(cells) == 2 ** (n - 1) + 1
        assert quotient.sizes == tuple(map(len, cells))
        for bits in (3, 80):
            values = [rng.randint(1, 2 ** bits) for _ in cells]
            full = spectral._edge_sums(spectral._links(h),
                                       [values[c] for c in quotient.cell_of])
            sums = spectral._edge_sums(quotient.links, values)
            assert full == [sums[c] for c in quotient.cell_of]


def test_solver_and_newton_on_theta_orbits_match_the_full_vector():
    """On the theta-orbits of Y^4 the float solve lands on the full solver's
    unit vector, seeded or not, and every Newton step yields the exact
    bracket of its vector lifted to all 17 vertices."""
    h = family_hypergraph(FamilySpec("Y", 4))
    cells = theta_cells(4)
    for seed in (0, 5):
        full = principal_eigenpair(h, seed=seed)
        pair = principal_eigenpair(h, seed=seed, cells=cells)
        assert pair.converged and pair.vertices == h.vertices
        assert pair.vector == pytest.approx(full.vector, abs=1e-12)
        assert math.fsum(t ** 3 for t in pair.vector) == pytest.approx(1.0, abs=1e-14)
    steps = list(itertools.islice(spectral.newton_steps(h, pair.vector, cells), 4))
    for ints, bits, lo, hi in steps:
        assert len(ints) == h.num_vertices
        assert rational_bracket(h, [Fraction(a, 1 << bits) for a in ints])[:2] == (lo, hi)
    assert steps[-1][3] - steps[-1][2] < Fraction(1, 10 ** 40)


def test_singleton_partition_is_the_links_table():
    h = family_hypergraph(FamilySpec("Y", 4))
    links = spectral._links(h)
    assert spectral._quotient(h).links is links
    assert spectral._quotient(h, tuple((v,) for v in h.vertices)).links is links
    # singletons in another order relabel the table
    relabelled = spectral._quotient(h, tuple((v,) for v in reversed(h.vertices))).links
    values = list(range(1, len(links) + 1))
    assert spectral._edge_sums(relabelled, values) == \
        spectral._edge_sums(links, values[::-1])[::-1]
    for bad in [((0,),), tuple((v,) for v in h.vertices) + ((0,),),
                tuple((v,) for v in h.vertices) + ((),)]:
        with pytest.raises(ValueError, match="partition"):
            spectral._quotient(h, bad)
    with pytest.raises(UnknownVertexError):
        spectral._quotient(h, tuple((v,) for v in h.vertices) + ((99,),))


def per_edge_jacobian(h, x, value):
    """The Newton Jacobian summed edge by edge: dS_p/dx_q adds, for each edge
    at p and q, the product of its other entries; then the lambda terms and
    the norm row."""
    index = {v: i for i, v in enumerate(h.vertices)}
    m, nv = h.rank, len(x)
    jac = [[0.0] * (nv + 1) for _ in range(nv + 1)]
    for row in ([index[v] for v in e] for e in h.edges):
        for p, q in itertools.permutations(row, 2):
            jac[p][q] += math.prod(x[u] for u in row if u not in (p, q))
    for p in range(nv):
        jac[p][p] -= (m - 1) * value * x[p] ** (m - 2)
        jac[p][nv] = -x[p] ** (m - 1)
        jac[nv][p] = x[p] ** (m - 1)
    return jac


def test_grouped_jacobian_matches_per_edge_oracle():
    """Entries k/8 with k <= 16 keep every float product and sum exact, so
    the Jacobian differentiated from the `_links` groups must equal the
    per-edge one entry for entry, at ranks 2, 3 and 4."""
    rng = random.Random(3)
    for _, h in random_hypergraphs(rng):
        x = [rng.randint(1, 16) / 8 for _ in h.vertices]
        value = rng.randint(1, 64) / 4
        got = spectral._jacobian(spectral._links(h), h.rank, x, value)
        assert got == per_edge_jacobian(h, x, value)


def fraction_solve(matrix, rhs):
    """Gauss-Jordan elimination in exact rationals: the oracle of the LU solve."""
    size = len(rhs)
    rows = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for k in range(size):
        p = next(i for i in range(k, size) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(size):
            if i != k and rows[i][k]:
                f = rows[i][k] / rows[k][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return [rows[i][size] / rows[i][i] for i in range(size)]


def test_lu_solve_matches_exact_elimination():
    rng = random.Random(11)
    systems = [([[rng.uniform(-1.0, 1.0) for _ in range(size)] for _ in range(size)],
                [rng.uniform(-1.0, 1.0) for _ in range(size)])
               for size in (1, 2, 3, 8, 17) for _ in range(4)]
    # a zero leading pivot: elimination without row exchanges divides by 0
    systems.append(([[0.0, 2.0, 1.0], [3.0, 1.0, 0.0], [1.0, 0.0, 4.0]], [1.0, 2.0, 3.0]))
    for matrix, rhs in systems:
        exact = fraction_solve(matrix, rhs)
        got = spectral._lu_solve(spectral._lu_factor([row[:] for row in matrix]), rhs)
        tol = 1e-9 * float(max(map(abs, exact)))
        assert all(abs(g - float(e)) <= tol for g, e in zip(got, exact))
    with pytest.raises(ValueError, match="singular"):
        spectral._lu_factor([[1.0, 2.0], [2.0, 4.0]])


def test_refined_eigenvector_certifies_tighter():
    h = family_hypergraph(FamilySpec("X", 3))
    pair = principal_eigenpair(h)
    lo0, hi0, _ = rational_bracket(h, [Fraction(float(t)) for t in pair.vector])
    vec, iterations, lo, hi = refined_eigenvector(h, start=pair.vector,
                                                  width=Fraction(1, 1 << 128))
    assert all(isinstance(t, Fraction) and t > 0 for t in vec)
    lo1, hi1, res1 = rational_bracket(h, vec)
    assert (lo, hi) == (lo1, hi1)         # the bracket it returns is that of its entries
    assert hi1 - lo1 < hi0 - lo0
    assert hi1 - lo1 < Fraction(1, 10 ** 25)
    assert lo0 <= hi1 and lo1 <= hi0      # both brackets enclose the same value
    assert iterations >= 1
    with pytest.raises(ValueError):
        refined_eigenvector(h, start=[1.0] * 8 + [0.0], width=Fraction(1, 1 << 128))


def test_newton_steps_yield_exact_brackets_up_to_the_bit_ceiling(monkeypatch):
    """The start and every kept step are yielded with the exact bracket of
    their vector, each step 50 bits on and strictly narrower, and the run
    ends before the working precision would pass MAX_REFINEMENT_BITS."""
    monkeypatch.setattr(spectral, "MAX_REFINEMENT_BITS", 300)
    h = family_hypergraph(FamilySpec("X", 3))
    yielded = list(spectral.newton_steps(h, principal_eigenpair(h).vector))
    assert [bits for _, bits, _, _ in yielded] == [64, 114, 164, 214, 264]
    for ints, bits, lo, hi in yielded:
        assert rational_bracket(h, [Fraction(a, 1 << bits) for a in ints])[:2] == (lo, hi)
    widths = [hi - lo for _, _, lo, hi in yielded]
    assert all(later < earlier for earlier, later in zip(widths, widths[1:]))


def test_refinement_step_adds_exactly_step_bits(monkeypatch):
    """Entries at denominator 2^B are carried at B bits, so each kept step
    adds _STEP_BITS and nothing more, on every call.  The working integers
    are read where the exact kernel receives them, because the returned
    fractions are reduced and a correction may end in zero bits."""
    h = family_hypergraph(FamilySpec("X", 3))
    pair = principal_eigenpair(h)
    vec, _, lo, hi = refined_eigenvector(h, start=pair.vector, width=Fraction(1, 1 << 128))
    seen = []
    kernel = spectral._exact_bracket

    def recording(links, m, ints):
        seen.append(list(ints))
        return kernel(links, m, ints)

    monkeypatch.setattr(spectral, "_exact_bracket", recording)
    more, steps, _, _ = refined_eigenvector(h, start=vec, width=(hi - lo) / 2)
    assert steps == 1
    bits = max(t.denominator.bit_length() - 1 for t in vec)
    start, kept = seen[:2]
    assert start == [t * 2 ** bits for t in vec]
    assert any(a % 2 for a in start)      # no scale below 2^bits holds vec
    assert kept == [t * 2 ** (bits + spectral._STEP_BITS) for t in more]


def test_solver_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        principal_eigenpair(Hypergraph(3, range(6), [(0, 1, 2), (3, 4, 5)]))


def test_solver_inside_exact_enclosure():
    """At the solver's vector x, m f(x) / sum x_i^m <= lambda <= max_i
    S_i(x) / x_i^{m-1}, both exact (variational and Collatz-Wielandt bounds);
    the two lie within 1e-8 relative and hold the solver's value, at ranks 2-4."""
    rng = random.Random(424242)
    for rank in (2, 3, 4):
        for _ in range(8):
            h = random_connected(rng, rank)
            pair = principal_eigenpair(h)
            assert pair.converged
            point = [Fraction(t) for t in pair.vector]
            lo = rank * lagrangian_of(h).evaluate_exact(dict(zip(h.vertices, point))) \
                / sum(t ** rank for t in point)
            hi = rational_bracket(h, point)[1]
            slack = 1e-8 * max(1.0, pair.value)
            assert lo <= hi
            assert hi - lo <= slack
            assert lo - slack <= pair.value <= hi + slack


def test_seeded_start_converges_to_same_pair():
    h = family_hypergraph(FamilySpec("Y", 3))
    base = principal_eigenpair(h)
    jitter = principal_eigenpair(h, seed=11)
    assert base.value == pytest.approx(jitter.value, abs=1e-11)
    assert base.vector == pytest.approx(jitter.vector, abs=1e-9)


def test_residual_at():
    h = cycle8()
    pair = principal_eigenpair(h)
    v = pair.vector
    defect = max(abs(s - pair.value * t ** 2) for s, t in zip(tensor_apply(h, v), v))
    assert pair.residual == pytest.approx(defect, abs=1e-15)
    at_ones = max(abs(s - 3.0) for s in tensor_apply(h, [1.0] * 8))
    assert at_ones == pytest.approx(0.0, abs=1e-15)


def test_vector_digest_deterministic():
    a = vector_digest([0.5, 0.25])
    b = vector_digest((Fraction(1, 2), 0.25))
    assert a == b
    assert len(a) == 64
    assert vector_digest([0.5, 0.2500001]) != a
