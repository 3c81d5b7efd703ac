"""What the benchmark under perfbench/ relies on in the package.

The tracer wraps named entry points and reads counters off their results,
and the `certify` workload checks the header line of `compare` literally.
Renaming a wrapped function, changing the shape of its result or changing
the header would otherwise break `--trace 1` or every `certify` operation
without failing a test here.  The two perfbench modules are loaded from their
files; the tracer's `install` is not run.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from hypospec import iso, spectral, verify
from hypospec.cli import main
from hypospec.families import FamilySpec, family_hypergraph
from oracles import delete_vertex

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    missing = [key for key, owner, attr, _ in tracer.TIMED if attr not in vars(owner)]
    assert missing == []
    assert callable(vars(iso)["_refine"])


def test_compare_header_matches_certify_check(capsys, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    assert main(["compare", "--n", "4", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == workloads.compare_header(1)


def test_tracer_hooks_read_real_results(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    tr = tracer.Tracer()
    h = family_hypergraph(FamilySpec("X", 3))
    pair = spectral.principal_eigenpair(h)
    tracer._float_solve(tr, pair, (h,), {})
    width = Fraction(1, 1 << 128)
    refined = spectral.refined_eigenvector(h, pair.vector, width=width)
    tracer._refine(tr, refined, (h, pair.vector), {"width": width})
    bracket = spectral.rational_bracket(h, refined[0])
    tracer._bracket(tr, bracket, (h, refined[0]), {})
    canonical = iso.canonical_form(h)
    tracer._canonical(tr, canonical, (h,), {})
    assert refined[1] >= 1
    assert tr.counters["spectral.refine_iterations"] == refined[1]
    assert tr.counters["spectral.float_iterations"] == pair.iterations
    # two distinct fractions less than 2^-128 apart need a denominator past 2^64
    assert tr.maxima["spectral.bracket_bits"] > 64
    assert tr.counters["iso.aut_total"] == canonical.automorphism_count


def test_deck_searches_the_parent_and_each_orbit_through_the_module_attributes(monkeypatch):
    """The tracer counts iso.canonical_calls by rebinding iso.canonical_form
    and iso.search_nodes by rebinding iso._refine.  `deck` looks the first up
    once, for the parent, and the second at every search node; a deck that
    bound either some other way would count too little.  On X^3 it runs one
    search on the parent and one per orbit of the reversal: 5 orbits on 9
    vertices."""
    h = family_hypergraph(FamilySpec("X", 3))
    reps = [0, 1, 2, 3, 4]
    nodes = 0
    refine = iso._refine

    def counting_refine(*args):
        nonlocal nodes
        nodes += 1
        return refine(*args)

    monkeypatch.setattr(iso, "_refine", counting_refine)
    for card in [h] + [delete_vertex(h, v) for v in reps]:
        iso.canonical_form(card)
    expected_nodes, nodes = nodes, 0

    parents = []
    searches = 0
    canonical = iso.canonical_form
    search = iso._search

    def counting_canonical(hypergraph):
        parents.append(hypergraph)
        return canonical(hypergraph)

    def counting_search(*args):
        nonlocal searches
        searches += 1
        return search(*args)

    monkeypatch.setattr(iso, "canonical_form", counting_canonical)
    monkeypatch.setattr(iso, "_search", counting_search)
    assert len(iso.deck(h)) == h.num_vertices
    assert parents == [h]
    assert searches == len(reps) + 1
    assert nodes == expected_nodes > 0


def test_cli_handlers_look_their_entry_points_up_when_called(monkeypatch, tmp_path):
    """The tracer rebinds the wrapped functions on the modules that define
    them.  The `cli` handlers import those names when they run, so `compare`,
    `verify` and `hypomorphic` must reach whatever the module holds then."""
    reached = []

    def passthrough(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            reached.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    passthrough(verify, "verify_main_theorem")
    passthrough(verify, "run_suite")
    passthrough(iso, "hypomorphic")
    x3, y3 = tmp_path / "x3.hg", tmp_path / "y3.hg"
    x3.write_text(family_hypergraph(FamilySpec("X", 3)).to_text(), encoding="ascii")
    y3.write_text(family_hypergraph(FamilySpec("Y", 3)).to_text(), encoding="ascii")
    assert main(["compare", "--n", "3"]) == 0
    assert main(["verify", "--n", "3", "--exact-only", "--out", str(tmp_path / "v.json")]) == 0
    assert main(["hypomorphic", str(x3), str(y3)]) == 0
    assert reached == ["verify_main_theorem", "run_suite", "hypomorphic"]
