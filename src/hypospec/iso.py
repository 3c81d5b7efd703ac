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

A refinement round is a few numpy passes over the edges.  Each edge's cell
indices are sorted, and the edge is coded by the dense lexicographic rank of
that sorted row.  Each vertex's codes are sorted, and the run is read as
big-endian bytes: the vertex's profile.  Bytes compare like the tuples of
sorted cell tuples they stand for, a shorter prefix first.  So a cell splits
into the same groups, in the same order, as under the tuple profiles, and
every node gets the same ordered partition.  A leaf's relabelled edge list
is built the same way and compared as bytes.

A canonical form is keyed by the bytes of its best leaf: the big-endian
64-bit words of the sorted relabelled edge list.  They compare as the tuple
of edge tuples does, so decks, isomorphism and hypomorphism compare bytes,
and the edge tuples are decoded from them only when read.

A deck needs one search per orbit of Aut(H) on the vertices, since g maps
the card H - v onto H - g(v) for every automorphism g.  `deck` searches the
parent H first, for generators of Aut(H) as permutations of vertex
positions, then the first card of each orbit.  That card's incidence comes
from the parent's: the edges at the deleted position are masked out and
the positions above it shift down by one, which gives exactly the arrays
of the card built as a hypergraph, so the search returns the same bytes.
The other cards of the orbit copy its code and |Aut|.  If g maps card v
to card w, w's witness is u -> witness_v(g^-1(u)), an isomorphism of H - w
onto the same canonical edges; it can differ from the witness a search on
H - w would return when that card has automorphisms.  X^n and Y^n have
2^(n-1) + 1 orbits, so their decks take about half the card searches, and
the deck of K_k takes one.

The search is exact at any size, but its node count is not bounded by a
polynomial in the vertex count.  Every search, the parent search of a deck
included, counts the nodes it visits (one refinement each) and raises
`SearchLimitError` past `SEARCH_NODE_LIMIT`, so no input runs away
silently.  The limit is on the quantity that grows, not on the size: the
deck of X^6, the parent and 33 cards, takes 38 nodes in all, while one
random Steiner triple system on 31 vertices takes about 27,000.  The search
recurses once per individualised vertex, so it also raises
`SearchLimitError` on a path deeper than the interpreter's recursion limit
leaves room for, about 950 levels under the default limit of 1,000: the
edgeless hypergraph on 1,100 vertices is one such input.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from .hypergraph import Hypergraph, UnknownVertexError

SEARCH_NODE_LIMIT = 100_000

# The search recurses once per individualised vertex.  It stops this many
# frames short of the interpreter's recursion limit, room enough for the
# calls one node makes.
_NODE_FRAMES = 50


class SearchLimitError(ValueError):
    """The canonical search visited more than SEARCH_NODE_LIMIT nodes, or
    went deeper than the interpreter's recursion limit leaves room for."""


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical relabeling of a hypergraph.

    code: the canonical edge list over labels 1..size, lexicographically
    sorted, as big-endian 64-bit words; `edges` decodes it once, on demand.
    witness: input vertex -> canonical label.
    automorphism_count: order of the automorphism group of the input.
    _generators: the automorphisms the search found, which generate the
    group, as permutations of vertex positions (indices into the input's
    vertex tuple).  A deck card copied from its orbit's representative has
    none.  They are not part of the key.
    """

    rank: int
    size: int
    code: bytes
    witness: dict[int, int]
    automorphism_count: int
    _generators: tuple[tuple[int, ...], ...] = field(default=(), repr=False, compare=False)

    def key(self) -> tuple:
        return (self.rank, self.size, self.code)

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        words = np.frombuffer(self.code, dtype=">u8").reshape(-1, self.rank)
        return tuple(map(tuple, words.tolist()))

    def text(self) -> str:
        return Hypergraph(self.rank, range(1, self.size + 1), self.edges).to_text()


class _Incidence(NamedTuple):
    """columns[j, e] is the index of the j-th vertex of edge e.  base holds
    the vertex of each vertex-edge incidence, in increasing order, times the
    edge count.  Vertex p's profile is bytes starts[p]:starts[p + 1] of a
    buffer with 8 bytes per incidence."""

    columns: np.ndarray
    base: np.ndarray
    starts: list[int]


def _incidence(hypergraph: Hypergraph) -> _Incidence:
    # Labels are unbounded ints, so the index map is a dict, not a search in
    # an int64 array.
    index = {v: i for i, v in enumerate(hypergraph.vertices)}
    m = hypergraph.num_edges
    flat = np.fromiter(map(index.__getitem__, chain.from_iterable(hypergraph.edges)),
                       dtype=np.int64, count=m * hypergraph.rank)
    return _from_columns(np.ascontiguousarray(flat.reshape(m, hypergraph.rank).T),
                         hypergraph.num_vertices)


def _from_columns(columns: np.ndarray, n: int) -> _Incidence:
    m = columns.shape[1]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(columns.ravel(), minlength=n), out=ptr[1:])
    return _Incidence(columns, np.sort(columns, axis=None) * m, (8 * ptr).tolist())


def _card_incidence(inc: _Incidence, i: int) -> _Incidence:
    """The incidence of the card that deletes the vertex at position i: the
    parent's edges with no entry i, in their order, with the entries above i
    shifted down by one.  It equals `_incidence(delete_vertex(h, v))`."""
    columns = inc.columns
    kept = np.ascontiguousarray(columns[:, (columns != i).all(axis=0)])
    kept -= kept > i
    return _from_columns(kept, len(inc.starts) - 2)


def _sorted_rows(table: np.ndarray) -> list[np.ndarray]:
    """The rows of an (r, m) table after sorting each column, by a bubble
    network of whole-row compare-exchanges."""
    rows = list(table)
    for top in range(len(rows) - 1, 0, -1):
        for j in range(top):
            low, high = rows[j], rows[j + 1]
            rows[j], rows[j + 1] = np.minimum(low, high), np.maximum(low, high)
    return rows


def _dense_rank(rows: list[np.ndarray], bound: int) -> np.ndarray:
    """The dense lexicographic rank of each column of `rows`, whose entries
    are in range(bound).  Folds in one row at a time: rank * bound + entry
    stays below m * bound, and is re-ranked by one argsort."""
    rank = rows[0]
    for row in rows[1:]:
        packed = rank * bound + row
        order = np.argsort(packed)
        ordered = packed[order]
        fresh = np.ones(len(packed), dtype=bool)
        fresh[1:] = ordered[1:] != ordered[:-1]
        rank = np.empty_like(packed)
        rank[order] = np.cumsum(fresh) - 1
    return rank


def _refine(cells: tuple[tuple[int, ...], ...], inc: _Incidence) -> tuple[tuple[int, ...], ...]:
    """Split cells by edge cell-profile until stable (see the module
    docstring for one round).  Refinement is isomorphism-invariant, which is
    what lets two leaves with equal relabelled edges define an automorphism."""
    columns, base, starts = inc
    n, m = len(starts) - 1, columns.shape[1]
    while len(cells) < n:
        cell_of = [0] * n
        for ci, cell in enumerate(cells):
            for p in cell:
                cell_of[p] = ci
        code = _dense_rank(_sorted_rows(np.array(cell_of)[columns]), n)
        keys = (columns * m + code).ravel()
        keys.sort()
        profiles = (keys - base).astype(">u8").tobytes()
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[bytes, list[int]] = {}
            for p in cell:
                groups.setdefault(profiles[starts[p]:starts[p + 1]], []).append(p)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for profile in sorted(groups):
                    new_cells.append(tuple(sorted(groups[profile])))
        if not changed:
            return cells
        cells = tuple(new_cells)
    return cells


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
    return _search(hypergraph.rank, hypergraph.vertices, _incidence(hypergraph))


def _search(rank: int, verts: tuple[int, ...], inc: _Incidence) -> CanonicalForm:
    """The canonical form of the hypergraph on `verts` whose edges `inc` holds
    by vertex position, with the automorphisms the search found."""
    n = len(verts)
    if n == 0:
        return CanonicalForm(rank, 0, b"", {}, 1)

    def relabelled(order: list[int]) -> bytes:
        """The edges under vertex order[i] -> label i + 1, as sorted rows in
        lexicographic order, in big-endian bytes, which compare as the list
        of tuples does."""
        label = np.empty(n, dtype=np.int64)
        label[order] = np.arange(1, n + 1)
        rows = _sorted_rows(label[inc.columns])
        edges = np.stack(rows, axis=1)[np.argsort(_dense_rank(rows, n + 1))]
        return edges.astype(">u8").tobytes()

    # A leaf is (path, order, code): the individualised vertices, the vertex
    # at each canonical position, and the relabelled edge list as bytes.
    first: tuple | None = None
    best: tuple | None = None
    generators: list[list[int]] = []
    nodes = 0
    frame, max_depth = sys._getframe(), sys.getrecursionlimit() - _NODE_FRAMES
    while frame is not None:
        frame, max_depth = frame.f_back, max_depth - 1

    def visit(cells: tuple[tuple[int, ...], ...], path: tuple[int, ...]) -> int:
        """Search below the node reached by individualising `path`.  Returns the
        depth to resume at: len(path) to go on, less to jump back."""
        nonlocal first, best, nodes
        nodes += 1
        if nodes > SEARCH_NODE_LIMIT:
            raise SearchLimitError(f"canonical search on {n} vertices visited more "
                                   f"than SEARCH_NODE_LIMIT = {SEARCH_NODE_LIMIT} nodes")
        if len(path) > max_depth:
            raise SearchLimitError(f"canonical search on {n} vertices went deeper than "
                                   f"{max_depth} individualised vertices, as deep as the "
                                   "interpreter's recursion limit allows")
        cells = _refine(cells, inc)
        target = next((ci for ci, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            order = [cell[0] for cell in cells]
            candidate = relabelled(order)
            if first is None:
                first = best = (path, order, candidate)
                return len(path)
            for known_path, known_order, known_code in (first, best):
                if candidate == known_code:
                    # Equal relabelled edges: mapping this leaf onto the known
                    # one is an automorphism fixing their common prefix, so the
                    # rest of this branch mirrors one already searched.
                    generators.append([q for _, q in sorted(zip(order, known_order))])
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
    return CanonicalForm(rank, n, best[2], witness, count, tuple(map(tuple, generators)))


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
    if vertex not in hypergraph.vertices:
        raise UnknownVertexError(vertex)
    return Hypergraph(hypergraph.rank, (v for v in hypergraph.vertices if v != vertex),
                      (e for e in hypergraph.edges if vertex not in e))


@dataclass(frozen=True)
class Deck:
    """All vertex-deleted canonical forms, tagged by the deleted vertex."""

    entries: tuple[tuple[int, CanonicalForm], ...]

    def __iter__(self) -> Iterator[tuple[int, CanonicalForm]]:
        return iter(self.entries)

    def to_json_list(self) -> list[dict]:
        return [{"deleted": v, "canonical": cf.text()} for v, cf in self.entries]


def deck(hypergraph: Hypergraph) -> Deck:
    """The canonical form of every card, in vertex order.  One search on the
    parent gives generators of its automorphism group; one search per orbit
    on the vertices gives the form of the orbit's first card, and the other
    cards of the orbit copy its code and |Aut| with a composed witness (see
    the module docstring).  `SearchLimitError` can come from any of these
    searches, the parent's first."""
    verts = hypergraph.vertices
    n = len(verts)
    generators = [np.array(g) for g in canonical_form(hypergraph)._generators]
    inc = _incidence(hypergraph)
    forms: list[CanonicalForm | None] = [None] * n
    for i in range(n):
        if forms[i] is not None:
            continue
        form = forms[i] = _search(hypergraph.rank, verts[:i] + verts[i + 1:],
                                  _card_incidence(inc, i))
        # labels[p]: the canonical label of the parent's vertex at position p
        # in the card; the deleted position holds a dummy 0.
        labels = {i: np.array([form.witness.get(v, 0) for v in verts])}
        stack = [i]
        while stack:
            q = stack.pop()
            for g in generators:
                w = int(g[q])
                if w in labels:
                    continue
                # g maps card q onto card w, so w's witness is q's after g^-1
                moved = labels[w] = np.empty(n, dtype=np.int64)
                moved[g] = labels[q]
                forms[w] = CanonicalForm(hypergraph.rank, n - 1, form.code,
                                         dict(zip(verts[:w] + verts[w + 1:],
                                                  np.delete(moved, w).tolist())),
                                         form.automorphism_count)
                stack.append(w)
    return Deck(tuple(zip(verts, forms)))


def hypomorphic(first: Hypergraph, second: Hypergraph) -> tuple[bool, dict[int, int] | None]:
    """Deck multiset equality; on success returns eta with H-v iso to G-eta(v).

    Within each class of isomorphic cards, eta pairs the deleted vertices of
    `first` with those of `second` in increasing order."""
    if first.rank != second.rank or first.num_vertices != second.num_vertices \
            or first.num_edges != second.num_edges:
        return False, None
    cards_f = sorted((cf.key(), v) for v, cf in deck(first))
    cards_g = sorted((cf.key(), v) for v, cf in deck(second))
    if [k for k, _ in cards_f] != [k for k, _ in cards_g]:
        return False, None
    return True, {v: w for (_, v), (_, w) in zip(cards_f, cards_g)}
