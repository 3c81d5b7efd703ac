"""Canonical labeling, isomorphism, decks, and hypomorphism for hypergraphs.

The canonical form is computed by iterated partition refinement on vertex
invariants followed by individualization and backtracking; the
lexicographically smallest relabeled edge list over all leaves wins.  Labels
in a canonical form are 1..num_vertices.

The search is pruned by automorphisms (McKay & Piperno, "Practical graph
isomorphism, II", 2014; Junttila & Kaski, bliss, 2007).  A leaf whose relabeled
edge list equals that of the first leaf or of the best leaf so far yields an
automorphism.  The search then jumps back to the node where the two paths
split, and at every node it skips a child in the same orbit as an explored
child, under the automorphisms found so far that fix the node's path.  A
skipped branch is the image of one already searched, so the first leaf that
attains the minimum is always visited and the result equals that of the
exhaustive search.  |Aut| is the product, over the levels of the first path,
of the orbit size of the vertex individualised there under the automorphisms
fixing the path above it (orbit-stabiliser).

The search is exact at any size, but its node count is not bounded by a
polynomial in the vertex count.  `canonical_form` counts the nodes it visits
(one refinement each) and raises `SearchLimitError` past
`SEARCH_NODE_LIMIT`, so no input runs away silently.  The limit is on the
quantity that grows, not on the size: the 65 cards of X^6 take 67 nodes in
all, while one random Steiner triple system on 31 vertices takes about 27,000.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .hypergraph import Hypergraph, UnknownVertexError

SEARCH_NODE_LIMIT = 100_000


class SearchLimitError(ValueError):
    """The canonical search visited more than SEARCH_NODE_LIMIT nodes."""


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical relabeling of a hypergraph.

    edges: canonical edge list over labels 1..size, lexicographically sorted.
    witness: input vertex -> canonical label.
    automorphism_count: order of the automorphism group of the input.
    """

    rank: int
    size: int
    edges: tuple[tuple[int, ...], ...]
    witness: dict[int, int]
    automorphism_count: int

    def key(self) -> tuple:
        return (self.rank, self.size, self.edges)

    def hypergraph(self) -> Hypergraph:
        return Hypergraph(self.rank, range(1, self.size + 1), self.edges)

    def text(self) -> str:
        return self.hypergraph().to_text()


def _refine(cells: tuple[tuple[int, ...], ...], edge_list: list[tuple[int, ...]],
            incidence: list[list[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """Split cells by edge cell-profile until stable.  Refinement is
    isomorphism-invariant, which is what lets two leaves with equal relabeled
    edges define an automorphism."""
    while True:
        cell_of = [0] * n
        for ci, cell in enumerate(cells):
            for p in cell:
                cell_of[p] = ci
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple, list[int]] = {}
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


def _orbit(points, generators: list[list[int]]) -> set[int]:
    """The union of the orbits of `points` under the group the generators span."""
    orbit = set(points)
    stack = list(orbit)
    while stack:
        p = stack.pop()
        for g in generators:
            if g[p] not in orbit:
                orbit.add(g[p])
                stack.append(g[p])
    return orbit


def _fixing(generators: list[list[int]], path: tuple[int, ...]) -> list[list[int]]:
    return [g for g in generators if all(g[p] == p for p in path)]


def canonical_form(hypergraph: Hypergraph) -> CanonicalForm:
    verts = hypergraph.vertices
    n = len(verts)
    if n == 0:
        return CanonicalForm(hypergraph.rank, 0, (), {}, 1)
    index = {v: i for i, v in enumerate(verts)}
    edge_list = [tuple(index[v] for v in e) for e in hypergraph.edges]
    incidence: list[list[int]] = [[] for _ in range(n)]
    for ei, e in enumerate(edge_list):
        for p in e:
            incidence[p].append(ei)

    # A leaf is (path, order, edges): the individualised vertices, the vertex
    # at each canonical position, and the relabelled edge list.
    first: tuple | None = None
    best: tuple | None = None
    generators: list[list[int]] = []
    nodes = 0

    def visit(cells: tuple[tuple[int, ...], ...], path: tuple[int, ...]) -> int:
        """Search below the node reached by individualising `path`.  Returns the
        depth to resume at: len(path) to go on, less to jump back."""
        nonlocal first, best, nodes
        nodes += 1
        if nodes > SEARCH_NODE_LIMIT:
            raise SearchLimitError(f"canonical search on {n} vertices visited more "
                                   f"than SEARCH_NODE_LIMIT = {SEARCH_NODE_LIMIT} nodes")
        cells = _refine(cells, edge_list, incidence, n)
        target = next((ci for ci, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            order = [cell[0] for cell in cells]
            label = [0] * n
            for li, p in enumerate(order):
                label[p] = li + 1
            candidate = tuple(sorted(tuple(sorted(label[p] for p in e)) for e in edge_list))
            if first is None:
                first = best = (path, order, candidate)
                return len(path)
            for known_path, known_order, known_edges in (first, best):
                if candidate == known_edges:
                    # Equal relabelled edges: mapping this leaf onto the known
                    # one is an automorphism fixing their common prefix, so the
                    # rest of this branch mirrors one already searched.
                    generators.append([known_order[label[p] - 1] for p in range(n)])
                    common = 0
                    while path[common] == known_path[common]:
                        common += 1
                    return common
            if candidate < best[2]:
                best = (path, order, candidate)
            return len(path)
        depth = len(path)
        cell = cells[target]
        explored: list[int] = []
        covered: set[int] = set()
        for p in cell:
            if p in covered:
                continue
            rest = tuple(q for q in cell if q != p)
            level = visit(cells[:target] + ((p,), rest) + cells[target + 1:], path + (p,))
            if level < depth:
                return level
            explored.append(p)
            covered = _orbit(explored, _fixing(generators, path))
        return depth

    visit((tuple(range(n)),), ())
    assert first is not None and best is not None
    first_path = first[0]
    count = 1
    for level, p in enumerate(first_path):
        count *= len(_orbit((p,), _fixing(generators, first_path[:level])))
    position = {p: li + 1 for li, p in enumerate(best[1])}
    witness = {v: position[p] for p, v in enumerate(verts)}
    return CanonicalForm(hypergraph.rank, n, best[2], witness, count)


def automorphism_count(hypergraph: Hypergraph) -> int:
    return canonical_form(hypergraph).automorphism_count


def are_isomorphic(first: Hypergraph, second: Hypergraph) -> tuple[bool, dict[int, int] | None]:
    """Decide isomorphism; on success also return a vertex bijection witness."""
    if first.rank != second.rank or first.num_vertices != second.num_vertices \
            or first.num_edges != second.num_edges:
        return False, None
    cf = canonical_form(first)
    cg = canonical_form(second)
    if cf.key() != cg.key():
        return False, None
    inverse = {label: v for v, label in cg.witness.items()}
    witness = {v: inverse[cf.witness[v]] for v in first.vertices}
    return True, witness


def delete_vertex(hypergraph: Hypergraph, vertex: int) -> Hypergraph:
    """Remove a vertex and every edge through it (vertex-deleted subhypergraph)."""
    if vertex not in set(hypergraph.vertices):
        raise UnknownVertexError(vertex)
    return Hypergraph(hypergraph.rank,
                      (v for v in hypergraph.vertices if v != vertex),
                      (e for e in hypergraph.edges if vertex not in e))


@dataclass(frozen=True)
class Deck:
    """All vertex-deleted canonical forms, tagged by the deleted vertex."""

    entries: tuple[tuple[int, CanonicalForm], ...]

    def key(self) -> tuple:
        return tuple(sorted(cf.key() for _, cf in self.entries))

    def __iter__(self) -> Iterator[tuple[int, CanonicalForm]]:
        return iter(self.entries)

    def to_json_list(self) -> list[dict]:
        return [{"deleted": v, "canonical": cf.text()} for v, cf in self.entries]


def deck(hypergraph: Hypergraph) -> Deck:
    return Deck(tuple((v, canonical_form(delete_vertex(hypergraph, v)))
                      for v in hypergraph.vertices))


def hypomorphic(first: Hypergraph, second: Hypergraph) -> tuple[bool, dict[int, int] | None]:
    """Deck multiset equality; on success returns eta with H-v iso to G-eta(v).

    Within each class of isomorphic cards, eta pairs the deleted vertices of
    `first` with those of `second` in increasing order."""
    if first.rank != second.rank or first.num_vertices != second.num_vertices:
        return False, None
    cards_f = sorted((cf.key(), v) for v, cf in deck(first))
    cards_g = sorted((cf.key(), v) for v, cf in deck(second))
    if [k for k, _ in cards_f] != [k for k, _ in cards_g]:
        return False, None
    return True, {v: w for (_, v), (_, w) in zip(cards_f, cards_g)}
