"""Command line behavior: formats, exit codes, determinism."""

import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hypospec import iso, spectral, verify
from hypospec.cli import _load, _parse_n_range, main
from hypospec.families import (FAMILY_TAGS, N_CAP, NUMERIC_N_CAP, FamilySpec,
                               family_hypergraph)
from hypospec.hypergraph import Hypergraph

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.fixture
def x3_file(tmp_path):
    path = tmp_path / "x3.hg"
    assert main(["gen", "--family", "X", "--n", "3", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture
def y3_file(tmp_path):
    path = tmp_path / "y3.hg"
    assert main(["gen", "--family", "Y", "--n", "3", "--out", str(path)]) == 0
    return str(path)


def test_parse_n_range(capsys):
    assert _parse_n_range("4") == range(4, 5)
    assert _parse_n_range("3..5") == range(3, 6)
    # a range, not a list: a wide span costs nothing before the size cap
    assert _parse_n_range("3..2000000") == range(3, 2000001)
    with pytest.raises(ValueError):
        _parse_n_range("5..3")
    for text in ("3..", "..4", "3..4..5", "x", "\u0663"):
        with pytest.raises(ValueError, match="^--n takes N or A[.][.]B in ASCII digits, got "):
            _parse_n_range(text)
        assert main(["verify", "--n", text, "--out", ""]) == 2
        assert capsys.readouterr().err.startswith("error: --n takes N or A..B")


def test_gen_text_stdout(capsys):
    assert main(["gen", "--family", "X", "--n", "3"]) == 0
    out, err = capsys.readouterr()
    hg = Hypergraph.from_text(out)
    assert hg.num_vertices == 9 and hg.num_edges == 28
    assert "28 edges" in err


def test_gen_json_inferred_from_extension(tmp_path, capsys):
    path = tmp_path / "gamma3.json"
    assert main(["gen", "--family", "Gamma", "--n", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    hg = Hypergraph.from_json(path.read_text())
    assert hg == family_hypergraph(FamilySpec("Gamma", 3))


@pytest.mark.parametrize("suffix", [".hg", ".json"])
def test_gen_file_reads_back_through_the_loader(suffix, tmp_path, capsys):
    path = str(tmp_path / f"x3{suffix}")
    assert main(["gen", "--family", "X", "--n", "3", "--out", path]) == 0
    capsys.readouterr()
    assert _load(path) == family_hypergraph(FamilySpec("X", 3))


def test_gen_layer_family_needs_k(capsys):
    assert main(["gen", "--family", "G", "--n", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_rejects_unknown_family(capsys):
    """`FamilySpec` alone checks the tag, and its error names every tag, as
    the literal help does."""
    assert main(["gen", "--family", "Q", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert all(repr(tag) in err for tag in FAMILY_TAGS)
    assert main(["gen", "--help"]) == 0
    assert ", ".join(FAMILY_TAGS) in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv", [["compare", "--n", "\u0665"],
                                  ["compare", "--n", "3", "--seed", "\u0662"],
                                  ["gen", "--family", "G", "--n", "3", "--k", "+2"],
                                  ["gen", "--family", "X", "--n", "1_0"]],
                         ids=["compare-n", "compare-seed", "gen-k", "gen-n"])
def test_int_options_take_ascii_digits_only(argv, capsys):
    """`int` would read these as 5, 2, 2 and 10, as the file parser and
    `verify --n` do not."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.rstrip("\n").endswith(
        f"error: argument {argv[-2]}: takes ASCII digits, got {argv[-1]!r}")


@pytest.mark.parametrize("argv", [["compare", "--n", "-3"],
                                  ["gen", "--family", "G", "--n", "3", "--k", "-2"],
                                  ["compare", "--n", "3", "--seed", "-"]],
                         ids=["compare-n", "gen-k", "compare-seed"])
def test_only_the_seed_takes_a_leading_minus(argv, capsys):
    """`--seed` alone reads one '-', and then ASCII digits as every int option does."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.rstrip("\n").endswith(
        f"error: argument {argv[-2]}: takes ASCII digits, got {argv[-1]!r}")


def test_spectrum_text_output(tmp_path, capsys):
    path = tmp_path / "single.hg"
    path.write_text(Hypergraph(3, [1, 2, 3], [(1, 2, 3)]).to_text(), encoding="ascii")
    assert main(["spectrum", str(path)]) == 0
    out, _ = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "# tol 1e-12 max-iter 1000000 shift 1 seed 0"
    assert "rank 3 vertices 3 edges 1" in lines
    values = {line.split()[0]: line.split()[1] for line in lines if " " in line}
    assert abs(float(values["lambda_hi"]) - 1.0) < 1e-10


def test_spectrum_json_record(x3_file, tmp_path, capsys):
    single = tmp_path / "single.hg"
    single.write_text(Hypergraph(3, [1, 2, 3], [(1, 2, 3)]).to_text(), encoding="ascii")
    for path, family in ((x3_file, "x3"), (str(single), "single")):
        assert main(["spectrum", path, "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) == {"family", "n", "lambda_lo", "lambda_hi", "residual",
                               "iterations", "vector_digest"}
        assert record["family"] == family and record["n"] is None
        assert record["lambda_lo"] <= record["lambda_hi"]
    assert record["lambda_lo"] <= 1.0 <= record["lambda_hi"]


def test_spectrum_exits_one_when_the_float_stage_stops_at_its_cap(x3_file, monkeypatch,
                                                                  capsys):
    """Stopped at MAX_ITERATIONS, spectrum still prints its whole record,
    then reports the bracket width on stderr and exits 1."""
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 3)
    assert main(["spectrum", x3_file]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert "iterations 3" in lines and lines[-1].startswith("vector_digest ")
    assert err.rstrip("\n").endswith(
        "error: solver did not converge: bracket width 3.251e-03 after 3 iterations")


def test_spectrum_rejects_unknown_flag(x3_file, capsys):
    """The flag of the retired gradient-ascent cross-check is a usage error."""
    assert main(["spectrum", x3_file, "--restarts", "2"]) == 2
    assert capsys.readouterr().out == ""


def test_spectrum_missing_file(capsys):
    assert main(["spectrum", "/nonexistent/path.hg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_spectrum_rejects_an_edge_on_an_undeclared_vertex(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_text("rank 3\nvertices 1 2 3\n1 2 9\n", encoding="ascii")
    assert main(["spectrum", str(path)]) == 2
    assert capsys.readouterr().err == "error: vertex 9 is not in the hypergraph\n"


def test_compare_certifies_and_is_deterministic(capsys):
    assert main(["compare", "--n", "3"]) == 0
    first = capsys.readouterr().out
    assert "mu > lambda: certified" in first
    assert "lambda(X^3) in [" in first
    assert main(["compare", "--n", "3"]) == 0
    assert capsys.readouterr().out == first


# The four result lines of `compare --n 4` do not depend on the float start:
# the refinement stops only when both exact brackets are sharp to 64 bits
# beyond their separation.
COMPARE_4 = [
    "lambda(X^4) in [35.312979519613819, 35.312979519613819]",
    "mu(Y^4) in [35.312979519613819, 35.312979519613819]",
    "predicted gap 2.2907854686309685e-25",
    "mu > lambda: certified",
]


@pytest.mark.parametrize("seed", ["0", "2", "3"])
def test_compare_prints_reference_lines(seed, capsys):
    assert main(["compare", "--n", "4", "--seed", seed]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"# tol 1e-12 max-iter 1000000 shift 1 seed {seed}"] + COMPARE_4


# At n = 6 lambda is about 527, where the float solver's 1e-12 tolerance is a
# few ulps; the certificate still separates the pair by about 3e-174.
COMPARE_6 = [
    "lambda(X^6) in [527.26701380190434, 527.26701380190434]",
    "mu(Y^6) in [527.26701380190434, 527.26701380190434]",
    "predicted gap 2.9964089687610421e-174",
    "mu > lambda: certified",
]


@pytest.mark.parametrize("seed", ["0", "2"])
def test_compare_n6_prints_reference_lines(seed, capsys):
    assert main(["compare", "--n", "6", "--seed", seed]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"# tol 1e-12 max-iter 1000000 shift 1 seed {seed}"] + COMPARE_6


@pytest.mark.parametrize("seed", ["0", "7"])
def test_compare_n5_prints_benchmark_reference(seed, capsys):
    """The lines the benchmark's certify workload checks, at two starts."""
    expected = json.loads(REFERENCE.read_text())["compare"]["5"]
    assert main(["compare", "--n", "5", "--seed", seed]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == expected


def test_compare_rejects_negative_seed(capsys):
    assert main(["compare", "--n", "3", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be a nonnegative integer, got -1\n"


@pytest.fixture
def zero_gap(monkeypatch):
    """A predicted gap of 0 planted in `verify`, which fails main-theorem alone."""
    monkeypatch.setattr(verify, "_pair_gap", lambda n, vec: (Fraction(0), Fraction(0)))


def test_compare_exits_one_when_not_certified(zero_gap, capsys):
    assert main(["compare", "--n", "3"]) == 1
    out, err = capsys.readouterr()
    assert out.endswith("predicted gap 0\nmu > lambda: NOT certified\n")
    assert ("error: main-theorem n=3: gap polynomial at the X^3 eigenvector is "
            "0.000e+00, not positive\n") in err


def test_verify_reports_a_failed_claim_and_writes_the_verdict(zero_gap, tmp_path, capsys):
    verdict = tmp_path / "verdict.json"
    assert main(["verify", "--n", "3", "--out", str(verdict)]) == 1
    out, err = capsys.readouterr()
    claims = json.loads(verdict.read_text())
    failed = [c for c in claims if not c["passed"]]
    assert [c["id"] for c in failed] == ["main-theorem"]
    params = json.dumps(failed[0]["params"], sort_keys=True)
    assert f"[FAIL] main-theorem {params}\n" in out
    assert f"error: main-theorem {params}: {failed[0]['detail']}\n" in err
    assert out.endswith(f"passed {len(claims) - 1}/{len(claims)} claims\n")


@pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
def test_verify_stopped_early_leaves_the_old_verdict(error, tmp_path, monkeypatch, capsys):
    """--out is truncated only after the last claim, so a run stopped by an
    interrupt or an error leaves an existing file byte for byte."""
    verdict = tmp_path / "verdict.json"
    verdict.write_bytes(b'[{"kept": true}]')

    def stopped(ns, include_numeric):
        raise error("stopped inside the suite")

    monkeypatch.setattr(verify, "run_suite", stopped)
    argv = ["verify", "--n", "3", "--out", str(verdict)]
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: stopped inside the suite\n"
    assert verdict.read_bytes() == b'[{"kept": true}]'


def test_deck_writes_default_json(x3_file, tmp_path, capsys):
    assert main(["deck", x3_file]) == 0
    out, _ = capsys.readouterr()
    assert out.count("deleted ") == 9
    payload = json.loads((tmp_path / "x3.deck.json").read_text())
    assert [card["deleted"] for card in payload] == list(range(9))
    assert payload[0].keys() == {"deleted", "canonical"}
    assert payload[0]["canonical"].startswith("rank 3")


def test_deck_past_search_node_limit_exits_two(x3_file, monkeypatch, capsys):
    monkeypatch.setattr(iso, "SEARCH_NODE_LIMIT", 0)
    assert main(["deck", x3_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: canonical search on 9 vertices")


def test_a_fault_in_the_program_raises_with_its_traceback(x3_file, monkeypatch):
    """Only OSError and ValueError are input errors; a KeyError from a bug
    leaves main instead of exiting 2 as a usage error."""
    def broken(hypergraph):
        raise KeyError("fault")

    monkeypatch.setattr(iso, "deck", broken)
    with pytest.raises(KeyError, match="fault"):
        main(["deck", x3_file])


def test_hypomorphic_pair(x3_file, y3_file, capsys):
    assert main(["hypomorphic", x3_file, y3_file]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines()[0] == "hypomorphic: yes"
    assert out.count("eta ") == 9


def test_hypomorphic_mismatch(x3_file, tmp_path, capsys):
    other = tmp_path / "single.hg"
    other.write_text(Hypergraph(3, [1, 2, 3], [(1, 2, 3)]).to_text(), encoding="ascii")
    assert main(["hypomorphic", x3_file, str(other)]) == 1
    assert "hypomorphic: no" in capsys.readouterr().out


def test_verify_exact_only(tmp_path, capsys):
    verdict = tmp_path / "verdict.json"
    assert main(["verify", "--n", "3", "--exact-only", "--out", str(verdict)]) == 0
    out, _ = capsys.readouterr()
    assert out.count("[PASS]") == 25
    assert "[FAIL]" not in out
    assert "passed 25/25 claims" in out
    assert len(json.loads(verdict.read_text())) == 25


@pytest.mark.parametrize("n, code", [("3", 0), ("2", 2)])
def test_verify_leaves_the_collector_as_it_found_it(n, code, tmp_path, capsys):
    """verify raises the collector's threshold for the suite alone; it puts
    it back on return, also when the suite raises."""
    threshold = gc.get_threshold()
    assert main(["verify", "--n", n, "--exact-only", "--out", str(tmp_path / "v.json")]) == code
    assert gc.get_freeze_count() == 0
    assert gc.get_threshold() == threshold


def test_verify_rejects_small_n(tmp_path, capsys):
    assert main(["verify", "--n", "2", "--exact-only",
                 "--out", str(tmp_path / "v.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_past_size_cap_exits_two_before_any_claim(tmp_path, capsys):
    verdict = tmp_path / "v.json"
    assert main(["verify", "--n", f"3..{N_CAP + 1}", "--exact-only",
                 "--out", str(verdict)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: n = {N_CAP + 1} exceeds N_CAP")
    assert not verdict.exists()


def test_verify_unwritable_out_exits_two_before_any_claim(tmp_path, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("ran the suite with an unwritable --out")

    monkeypatch.setattr(verify, "run_suite", refused)
    for out in ("", str(tmp_path / "missing" / "v.json")):
        assert main(["verify", "--n", "3", "--out", out]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: [Errno 2] No such file or directory: ")


@pytest.mark.parametrize("verb", ["compare", "verify"])
def test_past_both_caps_names_n_cap_first(verb, tmp_path, capsys):
    """Past N_CAP, n is past NUMERIC_N_CAP too; both commands check
    N_CAP first, through `verify.check_sizes`."""
    verdict = tmp_path / "v.json"
    argv = [verb, "--n", str(N_CAP + 1)] + (["--out", str(verdict)] if verb == "verify" else [])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: n = {N_CAP + 1} exceeds N_CAP = {N_CAP}\n"
    assert not verdict.exists()


def test_compare_past_numeric_cap_exits_two_before_any_work(capsys, monkeypatch):
    def refused(spec):
        raise AssertionError(f"built {spec} past the numeric cap")

    monkeypatch.setattr(verify, "family_hypergraph", refused)
    assert main(["compare", "--n", str(NUMERIC_N_CAP + 1)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: n = {NUMERIC_N_CAP + 1} exceeds NUMERIC_N_CAP = 8")


def test_deck_past_search_depth_exits_two(tmp_path, capsys):
    path = tmp_path / "edgeless.hg"
    path.write_text(Hypergraph(3, range(1100), []).to_text(), encoding="ascii")
    assert main(["deck", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: canonical search on 1100 vertices went deeper than")


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["gen", "--family", "X"]) == 2  # --n missing
    capsys.readouterr()


def test_malformed_json_hypergraph_exits_two(tmp_path, capsys):
    """A bad input file is a usage error (2), never a failed claim (1)."""
    path = tmp_path / "bad.json"
    for blob in ('{"rank": 3, "vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]}',
                 '[3, [0, 1, 2], [[0, 1, 2]]]',
                 '{"rank": 3, "vertices": [0.5, 1, 2], "edges": [[0.5, 1, 2]]}'):
        path.write_text(blob, encoding="ascii")
        for argv in (["spectrum", str(path)], ["deck", str(path)],
                     ["hypomorphic", str(path), str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: hypergraph JSON")


def test_solver_tuning_flags_are_gone(capsys):
    """Only compare takes --seed; the float solver's other settings are fixed.
    gen takes no --format: the --out extension decides it."""
    for verb in (["compare", "--n", "3"], ["spectrum", "x.hg"],
                 ["verify", "--n", "3", "--exact-only"]):
        for flag in (["--tol", "1e-9"], ["--max-iter", "5"], ["--shift", "2"]):
            assert main(verb + flag) == 2
            assert "unrecognized arguments" in capsys.readouterr().err
    for verb in (["spectrum", "x.hg"], ["verify", "--n", "3", "--exact-only"]):
        assert main(verb + ["--seed", "5"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["gen", "--family", "X", "--n", "3", "--format", "json"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_entry_point():
    """The child process gets `src` on its path, as the test process does,
    so the test needs no installed package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hypospec", "gen",
                           "--family", "X", "--n", "3"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert Hypergraph.from_text(proc.stdout).num_edges == 28
