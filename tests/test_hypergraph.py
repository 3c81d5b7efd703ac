import json

import pytest

from hypospec.cli import main
from hypospec.hypergraph import Hypergraph, UnknownVertexError, hypergraph_from_lagrangian
from hypospec.polyalg import x
from oracles import lagrangian_of, relabel


def small():
    return Hypergraph(3, (0, 1, 2, 3), [(0, 1, 2), (1, 2, 3)])


def test_basic_counts_and_normalization():
    h = Hypergraph(3, [3, 1, 0, 2], [(2, 1, 3), (0, 2, 1)])
    assert h.vertices == (0, 1, 2, 3)
    assert h.edges == ((0, 1, 2), (1, 2, 3))
    assert h.num_vertices == 4
    assert h.num_edges == 2
    assert h == small()
    assert hash(h) == hash(small())


def test_validation_errors():
    with pytest.raises(ValueError):
        Hypergraph(1, (0, 1), [(0, 1)])
    with pytest.raises(ValueError):
        Hypergraph(3, (0, 1, 2), [(0, 1)])          # wrong edge size
    with pytest.raises(ValueError):
        Hypergraph(3, (0, 1, 2), [(0, 1, 1)])       # repeated vertex in edge
    with pytest.raises(UnknownVertexError):
        Hypergraph(3, (0, 1, 2), [(0, 1, 5)])       # edge leaves vertex set
    with pytest.raises(ValueError):
        Hypergraph(3, (0, 1, 1), [])                # duplicate vertex
    with pytest.raises(ValueError):
        Hypergraph(3, (0, 1, 2), [(0, 1, 2), (2, 1, 0)])  # duplicate edge
    with pytest.raises(ValueError):
        Hypergraph(3, (-1, 0, 1), [])               # negative label


def test_text_round_trip():
    h = small()
    text = h.to_text()
    lines = text.splitlines()
    assert lines[0] == "rank 3"
    assert lines[1] == "vertices 0 1 2 3"
    assert lines[2:] == ["0 1 2", "1 2 3"]
    assert Hypergraph.from_text(text) == h


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        Hypergraph.from_text("rank x\nvertices 1\n")
    with pytest.raises(ValueError):
        Hypergraph.from_text("vertices 1 2 3\n1 2 3\n")


@pytest.mark.parametrize("line", ["rank 3 junk", "rank 3 4", "rank +3", "rank 0_3"])
def test_rank_line_is_exactly_rank_and_an_int(line, tmp_path, capsys):
    text = f"{line}\nvertices 0 1 2\n0 1 2\n"
    with pytest.raises(ValueError, match="unparseable rank line"):
        Hypergraph.from_text(text)
    path = tmp_path / "bad.hg"
    path.write_text(text, encoding="ascii")
    assert main(["spectrum", str(path)]) == 2
    assert "unparseable rank line" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("rank 3\nvertices 1 2 1_0\n", "non-integer token"),
    ("rank 3\nvertices 0 1 +2\n0 1 2\n", "non-integer token"),
    ("rank 3\nvertices 0 1 2\n0 1 \u0662\n", "non-integer token"),   # Arabic-Indic 2
    ("rank \uff13\nvertices 0 1 2\n", "unparseable rank line"),       # fullwidth 3
], ids=["underscore", "plus", "non-ascii-digit", "non-ascii-rank"])
def test_text_tokens_are_ascii_digits(text, message, tmp_path, capsys):
    """`int` would read each of these, but `to_text` could not write it back."""
    with pytest.raises(ValueError, match=message):
        Hypergraph.from_text(text)
    path = tmp_path / "bad.hg"
    path.write_text(text, encoding="utf-8")
    assert main(["deck", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_json_round_trip():
    h = small()
    blob = h.to_json()
    parsed = json.loads(blob)
    assert parsed["rank"] == 3
    assert parsed["vertices"] == [0, 1, 2, 3]
    assert Hypergraph.from_json(blob) == h


@pytest.mark.parametrize("blob", [
    '[3, [0, 1, 2], [[0, 1, 2]]]',                                     # not an object
    '"rank 3"',
    '{"vertices": [0, 1, 2], "edges": [[0, 1, 2]]}',                   # rank missing
    '{"rank": "3", "vertices": [0, 1, 2], "edges": [[0, 1, 2]]}',
    '{"rank": true, "vertices": [0, 1], "edges": [[0, 1]]}',
    '{"rank": 3, "vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]}',
    '{"rank": 3, "vertices": [0.5, 1, 2], "edges": [[0.5, 1, 2]]}',
    '{"rank": 3, "vertices": [0, true, 2], "edges": [[0, true, 2]]}',
    '{"rank": 3, "vertices": "012", "edges": [[0, 1, 2]]}',
    '{"rank": 3, "vertices": [0, 1, 2], "edges": [0, 1, 2]}',
    '{"rank": 3, "vertices": [0, 1, 2], "edges": [[0, 1, 2.0]]}',
    '{"rank": 3, "vertices": [0, 1, 2], "edges": {"0": [0, 1, 2]}}',
])
def test_json_rejects_malformed_shape(blob):
    with pytest.raises(ValueError):
        Hypergraph.from_json(blob)


def test_relabel():
    h = small()
    shifted = relabel(h, {0: 10, 1: 11, 2: 12, 3: 13})
    assert shifted.vertices == (10, 11, 12, 13)
    assert shifted.edges == ((10, 11, 12), (11, 12, 13))
    with pytest.raises(ValueError):
        relabel(h, {0: 1, 1: 1, 2: 2, 3: 3})
    with pytest.raises(UnknownVertexError):
        relabel(h, {0: 1})


def test_lagrangian_round_trip():
    h = small()
    poly = lagrangian_of(h)
    assert poly == x(0) * x(1) * x(2) + x(1) * x(2) * x(3)
    back = hypergraph_from_lagrangian(poly, 3)
    assert back.edges == h.edges
    assert back.vertices == (0, 1, 2, 3)


def test_from_lagrangian_isolated_vertices_dropped():
    # vertex set of the rebuilt hypergraph is exactly the support
    h = hypergraph_from_lagrangian(x(4) * x(6) * x(9), 3)
    assert h.vertices == (4, 6, 9)


def test_from_lagrangian_errors():
    with pytest.raises(ValueError, match=r"^monomial x_1\^2\*x_2 is not squarefree$"):
        hypergraph_from_lagrangian(x(1) ** 2 * x(2), 3)
    with pytest.raises(ValueError,
                       match=r"^monomial x_1\*x_2\*x_3 has coefficient 2, expected 1$"):
        hypergraph_from_lagrangian(2 * x(1) * x(2) * x(3), 3)
    with pytest.raises(ValueError, match=r"^monomial x_1\*x_2 has degree 2, expected 3$"):
        hypergraph_from_lagrangian(x(1) * x(2), 3)
    with pytest.raises(ValueError, match=r"^monomial x_1\*x_2 has degree 2, expected 3$"):
        hypergraph_from_lagrangian(x(1) * x(2) * x(3) + x(1) * x(2), 3)


def test_from_lagrangian_reports_first_offender_in_canonical_order():
    # both terms offend; the later one in insertion order is first canonically
    poly = x(4) ** 2 * x(5) + 2 * x(1) * x(2) * x(3)
    assert list(poly.terms) == [(4, 4, 5), (1, 2, 3)]
    with pytest.raises(ValueError) as err:
        hypergraph_from_lagrangian(poly, 3)
    assert str(err.value) == "monomial x_1*x_2*x_3 has coefficient 2, expected 1"
    poly = x(6) ** 2 * x(7) + x(5) ** 2 * x(6) + x(2) * x(3)
    with pytest.raises(ValueError) as err2:
        hypergraph_from_lagrangian(poly, 3)
    assert str(err2.value) == "monomial x_2*x_3 has degree 2, expected 3"
    with pytest.raises(ValueError) as err3:
        hypergraph_from_lagrangian(x(6) ** 2 * x(7) + x(5) ** 2 * x(6), 3)
    assert str(err3.value) == "monomial x_5^2*x_6 is not squarefree"


@pytest.mark.parametrize("text, message", [
    ("rank 3\n", "needs a rank line and a vertices line"),
    ("rank 3\nverts 1 2 3\n", "line 2 must start with 'vertices', got 'verts 1 2 3'"),
], ids=["one-line", "no-vertices-line"])
def test_text_needs_rank_and_vertices_lines(text, message):
    with pytest.raises(ValueError, match=message):
        Hypergraph.from_text(text)


def test_protocol_against_other_types():
    assert (small() == "small") is False
    assert repr(small()) == "Hypergraph(rank=3, vertices=4, edges=2)"
