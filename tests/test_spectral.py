import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from hypospec import spectral
from hypospec.families import FamilySpec, family_hypergraph, theta_perm
from hypospec.hypergraph import Hypergraph, UnknownVertexError
from hypospec.spectral import (NotConnectedError, degree, is_connected, principal_eigenpair,
                               rational_bracket, refined_eigenvector, vector_digest)
from oracles import codegree, lagrangian_of


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
    out = spectral._edge_sums(spectral._links(h), [1.0] * 8)
    assert out == [3.0] * 8             # every vertex lies in 3 edges
    assert degree(h, 1) == 3


def test_tensor_apply_shapes_and_errors():
    h = single_edge()
    assert spectral._edge_sums(spectral._links(h), [2.0, 3.0, 4.0]) == [12.0, 8.0, 6.0]
    with pytest.raises(ValueError) as err:
        rational_bracket(h, [1, 2])
    assert str(err.value) == "vector of length 2 against 3 vertices"


def test_euler_identity_numeric():
    h = cycle8()
    rng = random.Random(7)
    for _ in range(10):
        v = [rng.uniform(0.2, 1.5) for _ in range(8)]
        lhs = math.fsum(map(math.prod, zip(spectral._edge_sums(spectral._links(h), v), v)))
        rhs = float(lagrangian_of(h).evaluate_exact(dict(zip(h.vertices, v))))
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
    assert not is_connected(Hypergraph(3, range(3), []))


def test_single_edge_closed_form():
    pair = principal_eigenpair(single_edge())
    assert pair.converged
    assert pair.value == pytest.approx(1.0, abs=1e-12)
    want = 3.0 ** (-1.0 / 3.0)
    assert pair.vector == pytest.approx((want,) * 3, abs=1e-10)
    assert pair.residual < 1e-12


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
        floats = [float(t) for t in ints]
        assert spectral._edge_sums(spectral._links(h), floats) == per_edge_bracket(h, ints)[0]


def per_pair_links(h):
    """The `_links` table built one (edge, member) pair at a time, the
    oracle of the table's groups and of their order."""
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
    and X^3..X^6 and Y^3..Y^6."""
    rng = random.Random(2026)
    samples = [h for _, h in random_hypergraphs(rng)]
    samples += [random_connected(rng, rank, max_vertices=9) for rank in (2, 3, 4) for _ in range(4)]
    samples += [family_hypergraph(FamilySpec(tag, n)) for tag in "XY" for n in range(3, 7)]
    for h in samples:
        assert spectral._links.__wrapped__(h) == per_pair_links(h)
    assert spectral._links(Hypergraph(3, range(4), [])) == ((),) * 4


def theta_cells(n):
    theta = theta_perm(n)
    return tuple(dict.fromkeys(tuple(sorted({v, theta[v]})) for v in range(2 ** n + 1)))


def per_pair_quotient(h, cells):
    """The `_quotient` table built one (edge, member) pair at a time: each
    pair whose member is the first of its cell adds the other members, mapped
    to their cells, to the group of its mapped prefix under that cell."""
    index = {v: i for i, v in enumerate(h.vertices)}
    cell_of = {index[v]: c for c, cell in enumerate(cells) for v in cell}
    first_of = {index[cell[0]]: c for c, cell in enumerate(cells)}
    groups = [{} for _ in cells]
    for edge in h.edges:
        row = [index[v] for v in edge]
        for p in row:
            if p in first_of:
                others = [cell_of[q] for q in row if q != p]
                groups[first_of[p]].setdefault(tuple(others[:-1]), []).append(others[-1])
    return tuple(tuple((prefix, tuple(lasts)) for prefix, lasts in g.items()) for g in groups)


def test_quotient_matches_per_pair_build():
    """The same merged groups in the same order, so every float sum over the
    quotient keeps its order: the theta-cells of X^3..X^6 and Y^3..Y^6, and
    seeded random partitions, with shuffled cells, of hypergraphs of rank 2,
    3 and 4."""
    rng = random.Random(23)
    cases = [(family_hypergraph(FamilySpec(tag, n)), theta_cells(n))
             for tag in "XY" for n in range(3, 7)]
    for _, h in random_hypergraphs(rng):
        labels = list(h.vertices)
        rng.shuffle(labels)
        cuts = sorted(rng.sample(range(1, len(labels)), rng.randint(0, len(labels) - 1)))
        cases.append((h, tuple(tuple(labels[a:b])
                               for a, b in zip([0] + cuts, cuts + [len(labels)]))))
    for h, cells in cases:
        assert spectral._quotient(h, cells).links == per_pair_quotient(h, cells)


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
        assert pair.converged and len(pair.vector) == h.num_vertices
        assert pair.vector == pytest.approx(full.vector, abs=1e-12)
        assert math.fsum(t ** 3 for t in pair.vector) == pytest.approx(1.0, abs=1e-14)
    steps = list(itertools.islice(spectral.newton_steps(h, pair.vector, cells), 4))
    for ints, bits, lo, hi in steps:
        assert len(ints) == h.num_vertices
        assert rational_bracket(h, [Fraction(a, 1 << bits) for a in ints])[:2] == (lo, hi)
    assert steps[-1][3] - steps[-1][2] < Fraction(1, 10 ** 40)


# Iterations and vector digest of the float solve from all-ones on X^n and
# Y^n, the same with and without the theta-cells.  They move only when the
# solver's arithmetic or stop rule does; update them on purpose.
FLOAT_SOLVE_PINS = {
    ("X", 3): (17, "fec337697816fea923df9388ffcd087ee7ec8dab778f8d1226c2e2ded227b5d1"),
    ("X", 4): (9, "f8982527c8fe92740a21ea950302c38e961fdec852dedc1b7eddf2cdaa4b9b28"),
    ("X", 5): (9, "0a4f28127e80e0ea601341600a55716f198eb1a3b9e212e21f8e23e2b004ba7c"),
    ("X", 6): (8, "8c0d36d4a5204e2186a5049a5333e1eef72e4d5d6715ce7c79d515e17a98b1b3"),
    ("Y", 3): (11, "e5844a59ba168f3fe32324adadc2aa6cf6419edc809580365b9b098f7f8340ed"),
    ("Y", 4): (9, "baa2b7296b572466b1e8e62fbb40a211e01796c9f8dabfa56b3f85618a876cc7"),
    ("Y", 5): (9, "0a4f28127e80e0ea601341600a55716f198eb1a3b9e212e21f8e23e2b004ba7c"),
    ("Y", 6): (8, "8c0d36d4a5204e2186a5049a5333e1eef72e4d5d6715ce7c79d515e17a98b1b3"),
}


# sha256 of ",".join(map(float.hex, pair.vector)) for the full solve and the
# theta-cell solve: the vectors bit for bit, where the 12-digit digest above
# gives X^5 and Y^5 one value, X^6 and Y^6 another, and each full solve the
# value of its theta-cell solve.
FLOAT_SOLVE_BITS = {
    ("X", 3): ("208867d8c2d324d0b13399905d3a162371e109fd0fedcd2b82f6b76590535cbc",
               "b63ab0cae66e0d2cfaa324f3744b63b7b460226e7eb71438ded3337ddb2fe57a"),
    ("X", 4): ("266285570b197526bc7eb7f73cb7575a73f3a1cdae05249d022a818a1b6b3856",
               "819ee3eeb634a329f8f34546989761e5018836df426bc5339c896766a42cb8e5"),
    ("X", 5): ("c69019009fe19af2e869f11c2eab941743afeb664a73145df1504b0cd484fd02",
               "bba6f8c326793b4a190e066478d22d8081108485f35a8c3784707fcca6178681"),
    ("X", 6): ("ea7c57c57f0e94f5fb936843bb9a5582bd397d1c42c086740ecd7ecda8e55c9a",
               "60f40bfa5955de203f5397f7d1d3159219e42379796859e2f72243104e18c9da"),
    ("Y", 3): ("f4bfb2960e0559efef619bd5ac5f5b9504bc6708e9d468dbf6de0e231c69467b",
               "8b401d553b12dc9178ac7e476d1f71c86d7d607ac72934462536be8fff9c6766"),
    ("Y", 4): ("0d15177df96f3dd73dfad00214541d7fde8968505bbd2a57265b56afbb942261",
               "10e2cceceee04c8ae7ba904df9ec4343c2353e9c1972d6d7cd5df1776787b5b9"),
    ("Y", 5): ("562af905341bcc99ff97513b66297c6830d3e8eb8563e99cceea5e7fb8ee1fd4",
               "bba6f8c326793b4a190e066478d22d8081108485f35a8c3784707fcca6178681"),
    ("Y", 6): ("9823928a5a552eba54cb4c3e9a07ac5b398a7397668b8dce6deaef6bd060e52d",
               "60f40bfa5955de203f5397f7d1d3159219e42379796859e2f72243104e18c9da"),
}


@pytest.mark.parametrize("tag,n", sorted(FLOAT_SOLVE_PINS))
def test_float_solve_is_pinned(tag, n):
    h = family_hypergraph(FamilySpec(tag, n))
    for cells, bits in zip((None, theta_cells(n)), FLOAT_SOLVE_BITS[tag, n]):
        pair = principal_eigenpair(h, cells=cells)
        assert pair.converged
        assert (pair.iterations, vector_digest(pair.vector)) == FLOAT_SOLVE_PINS[tag, n]
        exact = ",".join(map(float.hex, pair.vector))
        assert hashlib.sha256(exact.encode("ascii")).hexdigest() == bits


def test_float_kernels_add_left_to_right():
    """The float pins above rely on plain left-to-right addition.  From
    Python 3.12 on `sum` compensates float sums and would give 1.0 here."""
    values = [1e16, 1.0, -1e16]
    assert spectral._edge_sums([[((), (0, 1, 2))]], values) == [0.0]
    assert spectral._edge_sums([[((), (0,)), ((), (1,)), ((), (2,))]], values) == [0.0]
    jac = spectral._jacobian([[((3,), (0, 1, 2))], [], [], []], 3, values + [1.0], 0.0)
    assert jac[0][3] == 0.0
    rows = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
            [1.0, 1.0, 1.0, 1.0]]
    assert spectral._lu_solve((rows, [0, 1, 2, 3]), values + [0.0])[3] == 0.0


def test_exact_brackets_add_the_same_in_any_order():
    """At 1000-bit integers the exact bracket is the min and max of
    S_i / a_i^{m-1}, on the full table of X^5 and Y^5, on their
    theta-quotients, and on seeded connected hypergraphs of rank 2, 3 and 4."""
    rng = random.Random(1000)
    tables = []
    for tag in "XY":
        h = family_hypergraph(FamilySpec(tag, 5))
        tables += [(spectral._links(h), 3),
                   (spectral._quotient(h, theta_cells(5)).links, 3)]
    for rank in (2, 3, 4):
        for _ in range(4):
            h = random_connected(rng, rank, max_vertices=9)
            tables.append((spectral._links(h), rank))
    for links, rank in tables:
        ints = [rng.getrandbits(1000) | 1 << 999 for _ in links]
        sums, powered, lo, hi = spectral._exact_bracket(links, rank, ints)
        ratios = [Fraction(s, p) for s, p in zip(sums, powered)]
        assert (lo, hi) == (min(ratios), max(ratios))


def test_eigenpair_at_the_cap_describes_its_own_vector(monkeypatch):
    """Stopped at MAX_ITERATIONS, the pair's value and residual are the float
    Collatz-Wielandt midpoint and residual at the vector it returns."""
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 3)
    h = family_hypergraph(FamilySpec("X", 4))
    for cells in (None, theta_cells(4)):
        pair = principal_eigenpair(h, cells=cells)
        assert not pair.converged and pair.iterations == 3
        assert pair.message.endswith("after 3 iterations")
        powered = [t ** 2 for t in pair.vector]
        applied = spectral._edge_sums(spectral._links(h), pair.vector)
        ratios = [a / p for a, p in zip(applied, powered)]
        mid = 0.5 * (min(ratios) + max(ratios))
        residual = max(abs(a - mid * p) for a, p in zip(applied, powered))
        assert pair.value == pytest.approx(mid, rel=1e-9)
        assert pair.residual == pytest.approx(residual, rel=1e-9)


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


def test_newton_steps_reject_a_disconnected_hypergraph():
    run = spectral.newton_steps(Hypergraph(3, range(6), [(0, 1, 2), (3, 4, 5)]), [1] * 6)
    with pytest.raises(NotConnectedError):
        next(run)


@pytest.mark.parametrize("correction, brackets", [
    (lambda step: [0.0] * len(step), 2),       # a scaled copy: an equal bracket
    (lambda step: [-1e30] + step[1:], 1),      # entry 0 leaves the cone, unbracketed
], ids=["no-narrowing", "leaves-the-cone"])
def test_newton_steps_end_at_a_step_they_cannot_keep(correction, brackets, monkeypatch):
    """A step that does not narrow the bracket, or that drives an entry to
    <= 0, ends the run, which has then yielded its start alone."""
    solve, kernel = spectral._lu_solve, spectral._exact_bracket
    seen = []

    def recording(links, m, ints):
        seen.append(list(ints))
        return kernel(links, m, ints)

    monkeypatch.setattr(spectral, "_lu_solve", lambda lu, rhs: correction(solve(lu, rhs)))
    monkeypatch.setattr(spectral, "_exact_bracket", recording)
    h = family_hypergraph(FamilySpec("X", 3))
    start = principal_eigenpair(h).vector
    (ints, bits, lo, hi), = spectral.newton_steps(h, start)
    assert len(seen) == brackets
    assert [Fraction(a, 1 << bits) for a in ints] == [Fraction(t) for t in start]
    assert rational_bracket(h, start)[:2] == (lo, hi)


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
    applied = spectral._edge_sums(spectral._links(h), v)
    defect = max(abs(s - pair.value * t ** 2) for s, t in zip(applied, v))
    assert pair.residual == pytest.approx(defect, abs=1e-15)
    at_ones = max(abs(s - 3.0) for s in spectral._edge_sums(spectral._links(h), [1.0] * 8))
    assert at_ones == pytest.approx(0.0, abs=1e-15)


def test_vector_digest_deterministic():
    a = vector_digest([0.5, 0.25])
    b = vector_digest((Fraction(1, 2), 0.25))
    assert a == b
    assert len(a) == 64
    assert vector_digest([0.5, 0.2500001]) != a


@pytest.mark.parametrize("u, v", [(99, 1), (1, 99)])
def test_codegree_rejects_unknown_vertices(u, v):
    with pytest.raises(UnknownVertexError, match="vertex 99 is not in the hypergraph"):
        codegree(family_hypergraph(FamilySpec("X", 3)), u, v)
