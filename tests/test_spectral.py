import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypospec import spectral
from hypospec.families import FamilySpec, family_hypergraph
from hypospec.hypergraph import Hypergraph, UnknownVertexError, lagrangian_of
from hypospec.spectral import (DimensionMismatchError, NotConnectedError,
                               codegree, degree, is_connected, oracle_radius,
                               principal_eigenpair, rational_bracket,
                               refined_eigenvector, report_record,
                               tensor_apply, vector_digest)


def single_edge():
    return Hypergraph(3, (1, 2, 3), [(1, 2, 3)])


def cycle8():
    return family_hypergraph(FamilySpec("C3", 3))


def random_connected(rng, max_vertices=6):
    while True:
        nv = rng.randint(3, max_vertices)
        verts = tuple(range(nv))
        pool = [(a, b, c) for a in verts for b in verts for c in verts if a < b < c]
        count = rng.randint(1, len(pool))
        edges = rng.sample(pool, count)
        h = Hypergraph(3, verts, edges)
        if is_connected(h):
            return h


def test_tensor_apply_ones_gives_degrees():
    h = cycle8()
    out = tensor_apply(h, [1.0] * 8)
    assert np.allclose(out, 3.0)        # every vertex lies in 3 edges
    assert degree(h, 1) == 3


def test_tensor_apply_shapes_and_errors():
    h = single_edge()
    assert np.allclose(tensor_apply(h, [2.0, 3.0, 4.0]), [12.0, 8.0, 6.0])
    with pytest.raises(DimensionMismatchError):
        tensor_apply(h, [1.0, 2.0])


def test_euler_identity_numeric():
    h = cycle8()
    rng = random.Random(7)
    for _ in range(10):
        v = [rng.uniform(0.2, 1.5) for _ in range(8)]
        lhs = float(np.dot(tensor_apply(h, v), v))
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
    spread = float(pair.vector.max() - pair.vector.min())
    assert spread < 1e-12
    norm = float((pair.vector ** 3).sum())
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


def test_grouped_edge_sums_match_per_edge_products():
    """Seeded hypergraphs of rank 2, 3 and 4 on scattered labels, each with
    one vertex in no edge (sum 0), at entries of 1 to 700 bits."""
    rng = random.Random(20261018)
    checked = 0
    for rank in (2, 3, 4):
        for _ in range(8):
            nv = rng.randint(rank + 2, 12)
            labels = rng.sample(range(1000), nv)
            pool = list(itertools.combinations(sorted(labels[1:]), rank))
            h = Hypergraph(rank, labels, rng.sample(pool, rng.randint(1, len(pool))))
            for bits in (1, 2, 64, 700):
                ints = [rng.randint(1, 2 ** bits) for _ in range(nv)]
                got = spectral._exact_bracket(h, ints)
                assert got == per_edge_bracket(h, ints)
                assert got[0][h.vertices.index(labels[0])] == 0
                checked += 1
    assert checked == 96


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


def test_refinement_step_adds_exactly_step_bits():
    """Entries at denominator 2^B are carried at B bits, so each kept step
    adds _STEP_BITS and nothing more, on every call."""
    h = family_hypergraph(FamilySpec("X", 3))
    pair = principal_eigenpair(h)
    vec, _, lo, hi = refined_eigenvector(h, start=pair.vector, width=Fraction(1, 1 << 128))
    more, steps, _, _ = refined_eigenvector(h, start=vec, width=(hi - lo) / 2)
    assert steps == 1
    bits = max(t.denominator.bit_length() - 1 for t in vec)
    assert max(t.denominator.bit_length() - 1 for t in more) == bits + 50


def test_solver_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        principal_eigenpair(Hypergraph(3, range(6), [(0, 1, 2), (3, 4, 5)]))


def test_solver_matches_oracle_small():
    rng = random.Random(424242)
    for _ in range(8):
        h = random_connected(rng)
        pair = principal_eigenpair(h)
        assert pair.converged
        other = oracle_radius(h, restarts=6, seed=3)
        assert pair.value == pytest.approx(other, rel=1e-8)


def test_seeded_start_converges_to_same_pair():
    h = family_hypergraph(FamilySpec("Y", 3))
    base = principal_eigenpair(h)
    jitter = principal_eigenpair(h, seed=11)
    assert base.value == pytest.approx(jitter.value, abs=1e-11)
    assert np.allclose(base.vector, jitter.vector, atol=1e-9)


def test_residual_at():
    h = cycle8()
    pair = principal_eigenpair(h)
    v = pair.vector
    defect = float(np.max(np.abs(tensor_apply(h, v) - pair.value * v ** 2)))
    assert pair.residual == pytest.approx(defect, abs=1e-15)
    ones = np.ones(8)
    at_ones = float(np.max(np.abs(tensor_apply(h, ones) - 3.0 * ones ** 2)))
    assert at_ones == pytest.approx(0.0, abs=1e-15)


def test_vector_digest_deterministic():
    a = vector_digest([0.5, 0.25])
    b = vector_digest(np.array([0.5, 0.25]))
    assert a == b
    assert len(a) == 64
    assert vector_digest([0.5, 0.2500001]) != a


def test_report_record_shape():
    h = single_edge()
    pair = principal_eigenpair(h)
    rec = report_record(pair, "single", None)
    assert set(rec) == {"family", "n", "lambda_lo", "lambda_hi", "residual",
                        "iterations", "vector_digest"}
    assert rec["family"] == "single"
    assert rec["lambda_lo"] <= 1.0 <= rec["lambda_hi"]
