"""Uniform hypergraphs, their generating polynomials, and file formats.

A rank-m hypergraph is a sorted vertex list plus a set of m-element edges.
Its generating polynomial is the sum of the squarefree edge monomials.

Two serializations are supported: a plain text format

    rank 3
    vertices 0 1 2
    0 1 2

with one sorted edge per line in lexicographic order, and the equivalent
JSON object {"rank": m, "vertices": [...], "edges": [[...], ...]}.

A hypergraph caches only its hash; `spectral` and `iso` build their own
vertex-position tables, so this module runs on the standard library.
`hypergraph_from_lagrangian` imports `polyalg` only to name a bad monomial.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .polyalg import SparsePoly


class UnknownVertexError(ValueError):
    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {vertex} is not in the hypergraph")


class Hypergraph:
    """Immutable uniform hypergraph with a deterministic edge order."""

    # `_hash` is filled on first use.  Hashing the edge tuple costs
    # milliseconds at n = 7, and the `lru_cache`s of `spectral` (`_links`,
    # `is_connected`) look each hypergraph up many times.
    __slots__ = ("rank", "vertices", "edges", "_hash")

    def __init__(self, rank: int, vertices: Iterable[int], edges: Iterable[Sequence[int]]) -> None:
        _check_rank(rank)
        verts = tuple(sorted(vertices))
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertices")
        if any(v < 0 for v in verts):
            raise ValueError("vertices must be nonnegative integers")
        vset = set(verts)
        norm = []
        for edge in edges:
            e = tuple(sorted(edge))
            if len(e) != rank or len(set(e)) != rank:
                raise ValueError(f"edge {edge!r} is not a {rank}-element set")
            for v in e:
                if v not in vset:
                    raise UnknownVertexError(v)
            norm.append(e)
        ordered = tuple(sorted(norm))
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a!r}")
        self.rank = rank
        self.vertices = verts
        self.edges = ordered
        self._hash = None

    @classmethod
    def _adopt(cls, rank: int, vertices: tuple[int, ...],
               edges: tuple[tuple[int, ...], ...]) -> "Hypergraph":
        """Wrap parts that are valid already: sorted distinct nonnegative
        vertices, and distinct edges in sorted order, each a sorted tuple of
        `rank` distinct vertices from `vertices`.  Only the rank is checked."""
        _check_rank(rank)
        hg = object.__new__(cls)
        hg.rank, hg.vertices, hg.edges = rank, vertices, edges
        hg._hash = None
        return hg

    # -- basic protocol -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.rank, self.vertices, self.edges) == (other.rank, other.vertices, other.edges)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rank, self.vertices, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Hypergraph(rank={self.rank}, vertices={len(self.vertices)}, edges={len(self.edges)})"

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    # -- text format ----------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"rank {self.rank}", "vertices " + " ".join(str(v) for v in self.vertices)]
        lines.extend(" ".join(str(v) for v in e) for e in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Hypergraph":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2:
            raise ValueError("hypergraph text needs a rank line and a vertices line")
        if not lines[0].startswith("rank "):
            raise ValueError(f"line 1 must be 'rank m', got {lines[0]!r}")
        rank_line = lines[0].split()
        if len(rank_line) != 2 or not _ascii_digits(rank_line[1]):
            raise ValueError(f"unparseable rank line: {lines[0]!r}")
        head = lines[1].split()
        if head[0] != "vertices":
            raise ValueError(f"line 2 must start with 'vertices', got {lines[1]!r}")
        rows = [ln.split() for ln in lines[2:]]
        # `int` alone would also read '1_0' as 10, '+4' as 4 and other
        # scripts' digits, none of which `to_text` writes back
        digits = "".join(head[1:]) + "".join(map("".join, rows))
        if digits and not _ascii_digits(digits):
            raise ValueError("non-integer token in hypergraph text")
        return cls(int(rank_line[1]), list(map(int, head[1:])),
                   [list(map(int, row)) for row in rows])

    # -- JSON format ----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"rank": self.rank, "vertices": list(self.vertices),
                           "edges": [list(e) for e in self.edges]}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Hypergraph":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"hypergraph JSON must be an object, not {type(data).__name__}")
        try:
            rank, vertices, edges = data["rank"], data["vertices"], data["edges"]
        except KeyError as exc:
            raise ValueError(f"missing key {exc.args[0]!r} in hypergraph JSON") from None
        if not (type(rank) is int and _int_list(vertices) and isinstance(edges, list)
                and all(map(_int_list, edges))):
            raise ValueError("hypergraph JSON needs an int rank, int vertices and int-list edges")
        return cls(rank, vertices, edges)


def _check_rank(rank) -> None:
    if not isinstance(rank, int) or rank < 2:
        raise ValueError(f"rank must be an int >= 2, got {rank!r}")


def _ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _int_list(items) -> bool:
    # `type(...) is int` rather than isinstance: JSON true/false load as bool
    return isinstance(items, list) and all(type(v) is int for v in items)


def hypergraph_from_lagrangian(poly: SparsePoly, rank: int) -> Hypergraph:
    """Read a hypergraph off a multilinear 0/1 generating polynomial.

    The vertex list is the union of edge supports.  Raises a ValueError
    naming the first offending monomial in canonical order when the
    polynomial is not a sum of distinct squarefree degree-`rank` monomials
    with coefficient 1.  A monomial that passes is a sorted tuple of `rank`
    distinct nonnegative indices, and the terms are distinct, so the edges
    are only put in order, not validated again.
    """
    edges = []
    offenders = []
    for mono, coef in poly.terms.items():
        if coef == 1 and len(mono) == rank and len(set(mono)) == rank:
            edges.append(mono)
        else:
            offenders.append(mono)
    if offenders:
        from .polyalg import monomial_key, monomial_text

        mono = min(offenders, key=monomial_key)
        text = monomial_text(mono)
        if len(set(mono)) != len(mono):
            raise ValueError(f"monomial {text} is not squarefree")
        if len(mono) != rank:
            raise ValueError(f"monomial {text} has degree {len(mono)}, expected {rank}")
        raise ValueError(f"monomial {text} has coefficient {poly.terms[mono]}, expected 1")
    edges.sort()
    vertices = tuple(sorted(set(chain.from_iterable(edges))))
    return Hypergraph._adopt(rank, vertices, tuple(edges))
