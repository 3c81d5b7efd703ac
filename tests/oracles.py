"""Reference functions and input builders that only the tests use.

No command needs them, so they live here and not in the package;
`tests/test_imports.py::test_every_function_is_reached_by_a_command` keeps
the package to what a command runs.  Each is the plain, direct version: an
oracle that the optimised code paths are compared against.
"""

from __future__ import annotations

from typing import Mapping

from hypospec.hypergraph import Hypergraph, UnknownVertexError
from hypospec.iso import canonical_form
from hypospec.polyalg import SparsePoly


def relabel(h: Hypergraph, mapping: Mapping[int, int]) -> Hypergraph:
    """Relabel vertices through an injective map covering every vertex."""
    missing = [v for v in h.vertices if v not in mapping]
    if missing:
        raise UnknownVertexError(missing[0])
    imgs = [mapping[v] for v in h.vertices]
    if len(set(imgs)) != len(imgs):
        raise ValueError("relabeling is not injective")
    return Hypergraph(h.rank, imgs, [tuple(mapping[v] for v in e) for e in h.edges])


def lagrangian_of(hypergraph: Hypergraph) -> SparsePoly:
    """Sum of the squarefree edge monomials."""
    return SparsePoly(dict.fromkeys(hypergraph.edges, 1))


def codegree(hypergraph: Hypergraph, u: int, v: int) -> int:
    vset = set(hypergraph.vertices)
    for w in (u, v):
        if w not in vset:
            raise UnknownVertexError(w)
    if u == v:
        raise ValueError("codegree needs two distinct vertices")
    return sum(1 for e in hypergraph.edges if u in e and v in e)


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
