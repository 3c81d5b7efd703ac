"""Canonical forms, decks, and the hypomorphism certificate."""

import gc
import hashlib
import itertools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from hypospec import iso
from hypospec.families import FamilySpec, family_hypergraph
from hypospec.hypergraph import Hypergraph, UnknownVertexError
from hypospec.iso import SearchLimitError, canonical_form, deck, hypomorphic
from oracles import are_isomorphic, delete_vertex, relabel

X3 = family_hypergraph(FamilySpec("X", 3))
Y3 = family_hypergraph(FamilySpec("Y", 3))


def shuffled_copy(h: Hypergraph, rng: random.Random) -> tuple[Hypergraph, dict[int, int]]:
    targets = rng.sample(range(101, 400), len(h.vertices))
    mapping = dict(zip(h.vertices, targets))
    return relabel(h, mapping), mapping


def brute_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    if (a.rank, a.num_vertices, a.num_edges) != (b.rank, b.num_vertices, b.num_edges):
        return False
    eb = set(b.edges)
    for perm in itertools.permutations(b.vertices):
        m = dict(zip(a.vertices, perm))
        if all(tuple(sorted(m[v] for v in e)) in eb for e in a.edges):
            return True
    return False


def brute_automorphisms(h: Hypergraph) -> int:
    es = set(h.edges)
    count = 0
    for perm in itertools.permutations(h.vertices):
        m = dict(zip(h.vertices, perm))
        if all(tuple(sorted(m[v] for v in e)) in es for e in h.edges):
            count += 1
    return count


def random_instance(rng: random.Random, max_vertices: int = 6) -> Hypergraph:
    nv = rng.randint(3, max_vertices)
    verts = list(range(1, nv + 1))
    pool = list(itertools.combinations(verts, 3))
    return Hypergraph(3, verts, rng.sample(pool, rng.randint(1, len(pool))))


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(7)
    base = canonical_form(X3)
    for _ in range(12):
        moved, _ = shuffled_copy(X3, rng)
        assert canonical_form(moved).key() == base.key()


def circulant(n: int, bases, offset: int = 0) -> set[tuple[int, ...]]:
    """The rotations of each base triple in Z_n, shifted by offset."""
    return {tuple(sorted(offset + (b + r) % n for b in base)) for base in bases for r in range(n)}


def test_canonical_form_invariant_on_union_of_circulants():
    """Three vertex-transitive components give several cells refinement cannot
    split. Pruning there is sound only under automorphisms that fix the path."""
    edges = (circulant(8, [(3, 4, 6)]) | circulant(8, [(0, 1, 3), (1, 2, 7)], 8)
             | circulant(4, [(0, 1, 2), (0, 1, 3)], 16))
    union = Hypergraph(3, range(20), edges)
    base = canonical_form(union)
    assert base.automorphism_count == 36864
    rng = random.Random(3)
    for _ in range(10):
        moved, _ = shuffled_copy(union, rng)
        assert canonical_form(moved).key() == base.key()


def test_canonical_witness_maps_onto_canonical_edges():
    cf = canonical_form(X3)
    mapped = {tuple(sorted(cf.witness[v] for v in e)) for e in X3.edges}
    assert mapped == set(cf.edges)
    assert sorted(cf.witness.values()) == list(range(1, cf.size + 1))


def test_canonical_round_trip_through_text():
    cf = canonical_form(Y3)
    rebuilt = Hypergraph.from_text(cf.text())
    assert canonical_form(rebuilt).key() == cf.key()


def complete(vertices) -> Hypergraph:
    return Hypergraph(3, vertices, itertools.combinations(vertices, 3))


def test_automorphism_counts_frozen():
    assert canonical_form(X3).automorphism_count == 2
    assert canonical_form(Y3).automorphism_count == 2
    for k in range(3, 10):
        assert canonical_form(complete(range(k))).automorphism_count == math.factorial(k)
    two_k4 = Hypergraph(3, range(8), complete(range(4)).edges + complete(range(4, 8)).edges)
    assert canonical_form(two_k4).automorphism_count == 2 * 24 ** 2
    three_edges = Hypergraph(3, range(11), [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    assert canonical_form(three_edges).automorphism_count == 6 * 6 ** 3 * 2
    for k in range(7):
        assert canonical_form(Hypergraph(3, range(k), [])).automorphism_count == math.factorial(k)
    one_edge = canonical_form(Hypergraph(3, range(6), [(0, 1, 2)]))
    assert one_edge.automorphism_count == 36 and one_edge.edges == ((4, 5, 6),)


def test_pruning_keeps_symmetric_search_small(monkeypatch):
    """Each search node is one call of iso._refine. Without automorphism
    pruning K_9 visits a node per leaf, 9! of them."""
    calls = 0
    refine = iso._refine

    def counting(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    monkeypatch.setattr(iso, "_refine", counting)
    canonical_form(complete(range(9)))
    assert 0 < calls < 100


def test_vertex_labels_past_int64():
    big = 2 ** 64
    cf = canonical_form(Hypergraph(3, [0, 1, 5, big], [(0, 1, big), (1, 5, big)]))
    assert cf.edges == ((1, 3, 4), (2, 3, 4)) and cf.automorphism_count == 4
    assert cf.witness == {0: 1, 1: 3, 5: 2, big: 4}


def refine_by_tuples(cells, edge_list, incidence, n):
    """The pure-Python refinement that the array kernel replaced, kept as an
    oracle: each profile is the sorted tuple of the sorted cell tuples of a
    vertex's edges."""
    while True:
        cell_of = [0] * n
        for ci, cell in enumerate(cells):
            for p in cell:
                cell_of[p] = ci
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for p in cell:
                profile = tuple(sorted(
                    tuple(sorted(cell_of[q] for q in edge_list[ei])) for ei in incidence[p]))
                groups.setdefault(profile, []).append(p)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for profile in sorted(groups):
                    new_cells.append(tuple(sorted(groups[profile])))
        if not changed:
            return cells
        cells = tuple(new_cells)


def oracle_refine(h: Hypergraph, cells):
    n = h.num_vertices
    index = {v: i for i, v in enumerate(h.vertices)}
    edge_list = [tuple(index[v] for v in e) for e in h.edges]
    incidence = [[] for _ in range(n)]
    for ei, e in enumerate(edge_list):
        for p in e:
            incidence[p].append(ei)
    return refine_by_tuples(cells, edge_list, incidence, n)


def refinement_inputs(rng: random.Random):
    """Seeded hypergraphs of rank 2, 3 and 4 on up to 40 vertices, some of
    them isolated, with unequal degrees; and two vertex-transitive unions
    whose profiles all have one length."""
    for rank in (2, 3, 4):
        for _ in range(12):
            nv = rng.randint(rank + 1, 40)
            touched = rng.sample(range(nv), rng.randint(rank, nv))
            pool = list(itertools.combinations(sorted(touched), rank))
            edges = rng.sample(pool, rng.randint(1, min(len(pool), 12 * nv)))
            yield Hypergraph(rank, range(nv), edges)
    yield Hypergraph(3, range(16), circulant(8, [(0, 1, 3)]) | circulant(8, [(0, 1, 3)], 8))
    yield Hypergraph(3, range(20), circulant(8, [(3, 4, 6)]) | circulant(12, [(0, 1, 5)], 8))


def test_refine_matches_tuple_profiles():
    """Equal ordered partitions from the unit partition, after individualising
    one vertex of it, and after individualising the first vertex of the first
    non-singleton cell of its refinement, as the search does."""
    checked = 0
    for h in refinement_inputs(random.Random(20261018)):
        n = h.num_vertices
        inc = iso._incidence(h)
        unit = (tuple(range(n)),)
        p = n // 2
        starts = [unit, ((p,), tuple(q for q in range(n) if q != p))]
        refined = oracle_refine(h, unit)
        target = next((ci for ci, cell in enumerate(refined) if len(cell) > 1), None)
        if target is not None:
            cell = refined[target]
            starts.append(refined[:target] + ((cell[0],), cell[1:]) + refined[target + 1:])
        for cells in starts:
            assert iso._refine(cells, inc) == oracle_refine(h, cells)
            checked += 1
    assert checked > 100


def test_refine_orders_edge_codes_past_one_byte():
    """A path on 0..399 in singleton cells, and a last cell {400, 401} whose
    vertices meet the path at 200 and 300.  Their edges get codes 201 and 302,
    which differ in the order of their low bytes, so the profiles must compare
    by value: 400 goes first."""
    h = Hypergraph(2, range(402), [(i, i + 1) for i in range(399)] + [(200, 400), (300, 401)])
    cells = tuple((p,) for p in range(400)) + ((400, 401),)
    refined = iso._refine(cells, iso._incidence(h))
    assert refined == oracle_refine(h, cells)
    assert refined[-2:] == ((400,), (401,))


def test_automorphism_count_matches_brute_force_on_cycle_family():
    c3 = family_hypergraph(FamilySpec("C3", 3))
    assert canonical_form(c3).automorphism_count == brute_automorphisms(c3)


def test_automorphism_count_and_witness_match_brute_force():
    rng = random.Random(20261017)
    for _ in range(100):
        h = random_instance(rng, max_vertices=7)
        cf = canonical_form(h)
        assert cf.automorphism_count == brute_automorphisms(h)
        assert sorted(cf.witness.values()) == list(range(1, cf.size + 1))
        assert sorted(tuple(sorted(cf.witness[v] for v in e)) for e in h.edges) == list(cf.edges)


# sha256 of repr([(edges, sorted witness items, automorphism_count), ...]) over
# the decks of X^4 and Y^4 and 20 relabelled random instances, as computed by
# the exhaustive (unpruned) search: pruning must not change any of them.
FROZEN_CANONICAL_DIGEST = "2169d7f1d542b3e479b69a47b74d3072ad2a6d4eed59ea927500d52b66afaf9e"


def test_canonical_forms_match_exhaustive_search_digest():
    forms = [cf for tag in ("X", "Y") for _, cf in deck(family_hypergraph(FamilySpec(tag, 4)))]
    rng = random.Random(20261017)
    for _ in range(20):
        moved, _ = shuffled_copy(random_instance(rng, max_vertices=7), rng)
        forms.append(canonical_form(moved))
    rows = [(cf.edges, sorted(cf.witness.items()), cf.automorphism_count) for cf in forms]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == FROZEN_CANONICAL_DIGEST


def test_reference_deck_digest():
    """The benchmark checks each deck of X^5 and Y^5 against this digest of
    the sorted canonical card texts; a change of cell order fails here too."""
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text())["deck_digest"]["5"]
    for tag in ("X", "Y"):
        texts = sorted(cf.text() for _, cf in deck(family_hypergraph(FamilySpec(tag, 5))))
        assert hashlib.sha256(json.dumps(texts).encode("ascii")).hexdigest() == expected


def test_leaf_order_compares_labels_past_one_byte():
    """Refinement makes a path with a pendant vertex discrete, on labels
    1..250, and cannot split K_6 plus K_{5,5}, labelled 251..266.  Leaves
    differ only there, across label 256, so the relabelled edge lists must
    compare by label value.  The digest is that of the search that compared
    them as tuples."""
    path = [(i, i + 1) for i in range(248)] + [(2, 249)]
    k6 = list(itertools.combinations(range(250, 256), 2))
    k55 = [(256 + i, 261 + j) for i in range(5) for j in range(5)]
    cf = canonical_form(Hypergraph(2, range(266), path + k6 + k55))
    assert cf.automorphism_count == math.factorial(6) * 2 * math.factorial(5) ** 2
    assert hashlib.sha256(repr(cf.edges).encode()).hexdigest() == \
        "efdc12df339dce511698db1ded7426233ba309f1c951e191ff5ebd257241650b"


def test_pair_is_not_isomorphic():
    flag, witness = are_isomorphic(X3, Y3)
    assert flag is False and witness is None


def test_isomorphic_after_relabeling_with_valid_witness():
    rng = random.Random(11)
    moved, _ = shuffled_copy(X3, rng)
    flag, witness = are_isomorphic(X3, moved)
    assert flag
    mapped = {tuple(sorted(witness[v] for v in e)) for e in X3.edges}
    assert mapped == set(moved.edges)


def test_solver_agrees_with_brute_force_on_random_pairs():
    rng = random.Random(20260814)
    for _ in range(10):
        a = random_instance(rng)
        b = random_instance(rng)
        assert are_isomorphic(a, b)[0] == brute_isomorphic(a, b)
        moved, _ = shuffled_copy(a, rng)
        assert are_isomorphic(a, moved)[0]


def test_delete_vertex():
    h = delete_vertex(X3, 0)
    assert h.num_vertices == X3.num_vertices - 1
    assert all(0 not in e for e in h.edges)
    with pytest.raises(UnknownVertexError):
        delete_vertex(X3, 99)


def test_deck_entries_follow_vertex_order():
    assert [v for v, _ in deck(X3)] == list(X3.vertices)


def test_hypomorphic_pair_with_valid_eta():
    flag, eta = hypomorphic(X3, Y3)
    assert flag
    assert sorted(eta) == list(X3.vertices)
    assert sorted(eta.values()) == list(Y3.vertices)
    for v, w in eta.items():
        assert canonical_form(delete_vertex(X3, v)).key() == \
            canonical_form(delete_vertex(Y3, w)).key()


def test_hypomorphic_rejects_size_mismatch():
    single = Hypergraph(3, [1, 2, 3], [(1, 2, 3)])
    assert hypomorphic(X3, single) == (False, None)


def test_hypomorphic_rejects_edge_count_mismatch_before_any_deck(monkeypatch):
    """The card edge counts sum to m(n - r), so equal decks need equal m."""
    def no_search(hypergraph):
        raise AssertionError("canonical_form called")

    monkeypatch.setattr(iso, "canonical_form", no_search)
    fewer = Hypergraph(3, X3.vertices, X3.edges[1:])
    assert hypomorphic(X3, fewer) == (False, None)


def test_hypomorphic_rejects_equal_counts_with_different_decks():
    """X^3 with one edge moved keeps its vertex and edge counts, so only the
    comparison of the two decks can reject it."""
    moved = Hypergraph(3, X3.vertices, [e for e in X3.edges if e != (0, 1, 2)] + [(0, 1, 8)])
    assert (moved.num_vertices, moved.num_edges) == (X3.num_vertices, X3.num_edges)
    assert hypomorphic(X3, moved) == (False, None)
    assert hypomorphic(moved, X3) == (False, None)


def test_hypomorphic_compares_the_smallest_cards(monkeypatch):
    """Decks that differ in their smallest card alone are not equal.  No small
    pair of 3-graphs is known to have such decks, so both decks are planted."""
    copy = relabel(X3, {v: v + 100 for v in X3.vertices})
    codes = {X3: range(9, 18), copy: [8, *range(10, 18)]}

    def planted(hypergraph):
        return tuple((v, iso.CanonicalForm(3, 8, bytes([c]), {}, 1))
                     for v, c in zip(hypergraph.vertices, codes[hypergraph]))

    monkeypatch.setattr(iso, "deck", planted)
    assert hypomorphic(X3, copy) == (False, None)
    assert hypomorphic(copy, X3) == (False, None)


def test_hypomorphic_pairs_repeated_card_classes_in_increasing_order():
    """Fano plane on 0..6 plus K_4^(3) on 7..10: two card classes, seven and
    four cards.  Within each class eta pairs the vertices in increasing order."""
    fano = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    h = Hypergraph(3, range(11), fano + list(itertools.combinations(range(7, 11), 3)))
    moved = relabel(h, {v: (5 * v + 3) % 11 + 20 for v in h.vertices})
    flag, eta = hypomorphic(h, moved)
    assert flag
    assert eta == {0: 20, 1: 21, 2: 22, 3: 23, 4: 26, 5: 27, 6: 28,
                   7: 24, 8: 25, 9: 29, 10: 30}


def tuple_key_eta(first: Hypergraph, second: Hypergraph) -> dict[int, int]:
    """Eta built from keys holding the decoded edge tuples, as before the
    forms were keyed by their bytes."""
    cards_f = sorted(((cf.rank, cf.size, cf.edges), v) for v, cf in deck(first))
    cards_g = sorted(((cf.rank, cf.size, cf.edges), v) for v, cf in deck(second))
    assert [k for k, _ in cards_f] == [k for k, _ in cards_g]
    return {v: w for (_, v), (_, w) in zip(cards_f, cards_g)}


def test_byte_keys_give_the_tuple_key_eta():
    """Cards of unequal edge counts and repeated classes: bytes must sort as
    the edge tuples do, a shorter prefix first."""
    rng = random.Random(41)
    x4, _ = shuffled_copy(family_hypergraph(FamilySpec("X", 4)), rng)
    y4, _ = shuffled_copy(family_hypergraph(FamilySpec("Y", 4)), rng)
    fano = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    h = Hypergraph(3, range(11), fano + list(itertools.combinations(range(7, 11), 3)))
    moved = relabel(h, {v: (5 * v + 3) % 11 + 20 for v in h.vertices})
    for first, second in ((x4, y4), (h, moved)):
        flag, eta = hypomorphic(first, second)
        assert flag and eta == tuple_key_eta(first, second)


def test_code_holds_the_edges():
    for k in (0, 5):
        cf = canonical_form(Hypergraph(3, range(k), []))
        assert cf.code == b"" and cf.edges == ()
    for h in (X3, Y3, Hypergraph(2, range(4), [(0, 1), (1, 2), (2, 3)])):
        cf = canonical_form(h)
        assert len(cf.code) == 8 * cf.rank * len(cf.edges)
        assert cf.edges is cf.edges


def test_search_node_limit_enforced(monkeypatch):
    chain = Hypergraph(3, range(40), [(i, i + 1, i + 2) for i in range(38)])
    cf = canonical_form(chain)
    assert cf.size == 40 and cf.automorphism_count == 2
    k9 = Hypergraph(3, range(9), itertools.combinations(range(9), 3))
    monkeypatch.setattr(iso, "SEARCH_NODE_LIMIT", 10)
    with pytest.raises(SearchLimitError, match="9 vertices.* 10 nodes"):
        canonical_form(k9)


@pytest.mark.parametrize("h", [Hypergraph(3, range(1100), []),
                               Hypergraph(3, range(1560),
                                          [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(520)])],
                         ids=["edgeless-1100", "triples-520"])
def test_deep_search_raises_before_the_recursion_limit(h):
    """One search level per individualised vertex: these paths are about
    1,100 and 1,040 levels deep, past the default recursion limit of 1,000."""
    for search in (canonical_form, deck):
        with pytest.raises(SearchLimitError, match=f"on {h.num_vertices} vertices went deeper"):
            search(h)


def nested(depth, call, *args):
    """`call(*args)` from `depth` more Python frames."""
    return call(*args) if depth == 0 else nested(depth - 1, call, *args)


def test_deep_search_from_a_deep_caller():
    """A caller 300 frames deep leaves the search fewer levels before the
    recursion limit; it still raises SearchLimitError, not RecursionError,
    and leaves the limit as it was."""
    h = Hypergraph(3, range(1100), [])
    limit = sys.getrecursionlimit()
    for search, args in ((canonical_form, (h,)), (hypomorphic, (h, h))):
        with pytest.raises(SearchLimitError, match="on 1100 vertices went deeper"):
            nested(300, search, *args)
    assert sys.getrecursionlimit() == limit


def test_search_leaves_no_reference_cycle():
    """The recursive search closure is released when the search returns, so
    its incidence arrays and leaves go then, not at the next cyclic
    collection."""
    h = family_hypergraph(FamilySpec("X", 4))
    deck(h)
    gc.collect()
    gc.disable()
    try:
        canonical_form(h)
        deck(h)
        assert gc.collect() == 0
    finally:
        gc.enable()


def per_card_deck(h: Hypergraph) -> tuple[tuple[int, iso.CanonicalForm], ...]:
    """The deck with one search per card, as before orbits were used, kept
    as an oracle."""
    return tuple((v, canonical_form(delete_vertex(h, v))) for v in h.vertices)


def with_isolated_vertex(h: Hypergraph) -> Hypergraph:
    return Hypergraph(h.rank, h.vertices + (max(h.vertices) + 1,), h.edges)


def deck_inputs():
    """Relabelled X^3..X^5 and Y^3..Y^5, and inputs whose automorphism
    groups have large orbits, several generators, generators of order 7, or
    none, each with a name."""
    rng = random.Random(20261018)
    for n in (3, 4, 5):
        for tag in ("X", "Y"):
            yield f"{tag}{n}", shuffled_copy(family_hypergraph(FamilySpec(tag, n)), rng)[0]
    yield "K8", complete(range(8))
    fano = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    yield "Fano_K4", Hypergraph(3, range(11), fano + list(itertools.combinations(range(7, 11), 3)))
    yield "two_X3", Hypergraph(3, range(18), X3.edges + relabel(X3, {v: v + 9 for v in X3.vertices}).edges)
    # Aut is the rotation group Z_7, whose generators are not involutions,
    # so a witness composed with g in place of g^-1 fails here.
    yield "Z7", Hypergraph(3, range(7), circulant(7, [(0, 1, 2), (0, 1, 3)]))
    yield "edgeless5", Hypergraph(3, range(5), [])
    yield "one_vertex", Hypergraph(3, [4], [])
    for k in range(8):
        yield f"random{k}", shuffled_copy(with_isolated_vertex(random_instance(rng, max_vertices=7)), rng)[0]


DECK_INPUTS = [pytest.param(h, id=name) for name, h in deck_inputs()]


@pytest.mark.parametrize("h", DECK_INPUTS)
def test_deck_matches_per_card_deck(h):
    ours, oracle = deck(h), per_card_deck(h)
    assert [v for v, _ in ours] == [v for v, _ in oracle] == list(h.vertices)
    assert [cf.key() for _, cf in ours] == [cf.key() for _, cf in oracle]
    assert [cf.automorphism_count for _, cf in ours] == [cf.automorphism_count for _, cf in oracle]
    assert [(v, cf.text()) for v, cf in ours] == [(v, cf.text()) for v, cf in oracle]


@pytest.mark.parametrize("h", DECK_INPUTS)
def test_every_deck_witness_is_an_isomorphism(h):
    """Copied witnesses included: each maps the card's edges exactly onto its
    canonical edges, and its vertices onto 1..n-1.  The canonical text,
    built without the constructor's checks, is that of the validated card."""
    for v, cf in deck(h):
        card = delete_vertex(h, v)
        assert list(cf.witness) == list(card.vertices)
        assert sorted(cf.witness.values()) == list(range(1, h.num_vertices))
        assert sorted(tuple(sorted(cf.witness[u] for u in e)) for e in card.edges) == list(cf.edges)
        assert cf.text() == Hypergraph(cf.rank, range(1, cf.size + 1), cf.edges).to_text()


def test_incidence_columns_index_the_vertex_tuple():
    """columns[j, e] is the position in `vertices` of edge e's j-th vertex:
    scattered labels, an isolated vertex, and no edges."""
    h = Hypergraph(3, [900, 7, 41, 12, 5000], [(900, 7, 41), (5000, 41, 7), (12, 900, 5000)])
    index = {v: i for i, v in enumerate(h.vertices)}
    columns = iso._incidence(h).columns
    assert columns.T.tolist() == [[index[v] for v in e] for e in h.edges]
    assert columns.shape == (3, 3)
    isolated = Hypergraph(3, [3, 8, 20, 61], [(3, 20, 61)])  # 8 is in no edge
    assert iso._incidence(isolated).columns.tolist() == [[0], [2], [3]]
    assert iso._incidence(Hypergraph(3, [4, 9], [])).columns.shape == (3, 0)


def test_card_incidence_matches_the_deleted_card():
    """The first vertex, the last, and isolated ones: an added last vertex in
    no edge, and on the path the vertex 0 that no edge meets."""
    path = Hypergraph(3, range(7), [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6)])
    isolated = [with_isolated_vertex(X3), path]
    for h in isolated + [X3, random_instance(random.Random(8), max_vertices=7)]:
        parent = iso._incidence(h)
        for i, v in enumerate(h.vertices):
            derived = iso._card_incidence(parent, i)
            direct = iso._incidence(delete_vertex(h, v))
            assert np.array_equal(derived.columns, direct.columns)
            assert np.array_equal(derived.base, direct.base)
            assert derived.starts == direct.starts
    assert not any(max(isolated[0].vertices) in e for e in isolated[0].edges)
    assert not any(0 in e for e in path.edges)


def test_deck_raises_when_the_parent_search_passes_the_limit(monkeypatch):
    """The search on K_8 visits 36 nodes, on each of its cards 28.  Under a
    limit of 30 only the parent search, which runs first, passes it."""
    k8 = complete(range(8))
    monkeypatch.setattr(iso, "SEARCH_NODE_LIMIT", 30)
    canonical_form(delete_vertex(k8, 0))
    with pytest.raises(SearchLimitError, match="on 8 vertices"):
        deck(k8)
