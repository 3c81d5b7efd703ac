"""Command line front end.

Subcommands: gen (construct a family member), spectrum (principal eigenpair
of a stored hypergraph), compare (certify the radius separation at a given
n), deck (vertex-deleted canonical forms), hypomorphic (deck equality of two
files), verify (the full claim suite).

compare takes --seed (0 starts the float solver from all-ones, as spectrum
and verify always do); the solver's other settings are fixed, and the
header line of spectrum and compare records them.  spectrum reports the
exact Collatz-Wielandt bracket at the solver's vector, rounded to floats.

Exit codes: 0 success, 1 failed claim, failed comparison, or a spectrum
whose float stage stopped at spectral.MAX_ITERATIONS (the record is printed
first, then the bracket width on stderr), 2 usage error (a malformed input
file, or an n past families.N_CAP, or past NUMERIC_N_CAP for a numeric
claim) or a canonical search past iso.SEARCH_NODE_LIMIT nodes or past the
depth the recursion limit allows.
Stdout is deterministic for fixed flags and seed; timings and progress go to
stderr.

Each handler imports what it runs when it is called, so a command loads only
its own modules, which keeps the start-up time and peak memory of each
command to what it uses; the README lists each command's modules and
`tests/test_imports.py` checks them.  The parser reads the --family choices
of gen from `families.FAMILY_TAGS` only when it checks or prints them.

`main` sets OPENBLAS_NUM_THREADS to 1 unless the caller has set it.  numpy's
bundled OpenBLAS otherwise starts cpu_count - 1 worker threads when numpy is
imported, which slows the import, and `iso` never calls BLAS.  Set the
variable in the environment to keep a pool.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from .hypergraph import Hypergraph


class _FamilyTags:
    """`families.FAMILY_TAGS`, imported when argparse checks or lists the
    --family choices, not when it builds the parser.  Argparse iterates
    `choices` at build time only when the argument has no metavar."""

    def __contains__(self, tag: object) -> bool:
        from .families import FAMILY_TAGS

        return tag in FAMILY_TAGS

    def __iter__(self):
        from .families import FAMILY_TAGS

        return iter(FAMILY_TAGS)


def _header(seed: int) -> str:
    from .spectral import MAX_ITERATIONS, SHIFT, TOLERANCE

    return f"# tol {TOLERANCE:g} max-iter {MAX_ITERATIONS} shift {SHIFT:g} seed {seed}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypospec",
        description="exact and numeric verification for the doubled-cycle "
                    "hypergraph pairs")
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="construct a family member and write it out")
    gen.add_argument("--family", required=True, choices=_FamilyTags(), metavar="FAMILY",
                     help="one of %(choices)s")
    gen.add_argument("--n", required=True, type=int)
    gen.add_argument("--k", type=int, default=None, help="layer index, G family only")
    gen.add_argument("--out", default=None,
                     help="output path, JSON if it ends in .json, else text; text to "
                          "stdout when omitted")

    spectrum = sub.add_parser("spectrum", help="principal eigenpair of a stored hypergraph")
    spectrum.add_argument("file")
    spectrum.add_argument("--format", choices=("text", "json"), default="text")

    compare = sub.add_parser("compare", help="certify the radius separation of the pair at n")
    compare.add_argument("--n", required=True, type=int)
    compare.add_argument("--seed", type=int, default=0, help="0 starts from all-ones")

    deck_cmd = sub.add_parser("deck", help="vertex-deleted canonical forms of a stored hypergraph")
    deck_cmd.add_argument("file")
    deck_cmd.add_argument("--out", default=None,
                          help="deck JSON path; defaults to <file>.deck.json")

    hypo = sub.add_parser("hypomorphic", help="deck equality of two stored hypergraphs")
    hypo.add_argument("first")
    hypo.add_argument("second")

    verify = sub.add_parser("verify", help="run the claim suite")
    verify.add_argument("--n", required=True,
                        help="single value or inclusive range, e.g. 4 or 3..5")
    verify.add_argument("--out", default="verdict.json", help="verdict JSON path")
    verify.add_argument("--exact-only", action="store_true", dest="exact_only",
                        help="skip the numeric claims")
    return parser


def _parse_n_range(text: str) -> list[int]:
    if ".." in text:
        first, _, last = text.partition("..")
        lo, hi = int(first), int(last)
        if lo > hi:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _load(path: str) -> Hypergraph:
    raw = Path(path).read_text(encoding="ascii")
    if path.endswith(".json"):
        return Hypergraph.from_json(raw)
    return Hypergraph.from_text(raw)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")


def _cmd_gen(args: argparse.Namespace) -> int:
    from .families import FamilySpec, family_hypergraph

    spec = FamilySpec(args.family, args.n, args.k)
    hg = family_hypergraph(spec)
    payload = hg.to_json() + "\n" if (args.out or "").endswith(".json") else hg.to_text()
    _emit(payload, args.out)
    where = args.out or "stdout"
    print(f"{args.family} n={args.n}: {hg.num_vertices} vertices, "
          f"{hg.num_edges} edges -> {where}", file=sys.stderr)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from .spectral import principal_eigenpair, rational_bracket, vector_digest

    hg = _load(args.file)
    started = time.perf_counter()
    pair = principal_eigenpair(hg)
    lo, hi, _ = rational_bracket(hg, pair.vector)
    print(f"solved in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    record = {
        "family": Path(args.file).stem,
        "n": None,
        "lambda_lo": float(lo),
        "lambda_hi": float(hi),
        "residual": pair.residual,
        "iterations": pair.iterations,
        "vector_digest": vector_digest(pair.vector),
    }
    if args.format == "json":
        print(json.dumps(record, sort_keys=True, indent=2))
    else:
        print(_header(0))
        print(f"file {args.file}")
        print(f"rank {hg.rank} vertices {hg.num_vertices} edges {hg.num_edges}")
        for key in sorted(record):
            if key == "family" or record[key] is None:
                continue
            value = record[key]
            print(f"{key} {value:.17g}" if isinstance(value, float) else f"{key} {value}")
    if not pair.converged:
        print(f"error: solver did not converge: {pair.message}", file=sys.stderr)
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .verify import verify_main_theorem

    claim = verify_main_theorem(args.n, seed=args.seed)
    print(f"claim finished in {claim.elapsed:.2f}s", file=sys.stderr)
    p = claim.params
    print(_header(args.seed))
    print(f"lambda(X^{args.n}) in [{p['lambda_lo']:.17g}, {p['lambda_hi']:.17g}]")
    print(f"mu(Y^{args.n}) in [{p['mu_lo']:.17g}, {p['mu_hi']:.17g}]")
    print(f"predicted gap {p.get('predicted_gap_text', format(p['predicted_gap'], '.17g'))}")
    if claim.passed:
        print("mu > lambda: certified")
        return 0
    print("mu > lambda: NOT certified")
    print(f"error: main-theorem n={args.n}: {claim.detail}", file=sys.stderr)
    return 1


def _cmd_deck(args: argparse.Namespace) -> int:
    from .iso import deck

    hg = _load(args.file)
    started = time.perf_counter()
    d = deck(hg)
    print(f"deck of {hg.num_vertices} computed in {time.perf_counter() - started:.2f}s",
          file=sys.stderr)
    for v, cf in d:
        print(f"deleted {v}: {cf.size} vertices, {len(cf.edges)} edges, "
              f"automorphisms {cf.automorphism_count}")
    out = args.out or str(Path(args.file).with_suffix(".deck.json"))
    Path(out).write_text(json.dumps(d.to_json_list(), sort_keys=True, indent=2) + "\n",
                         encoding="ascii")
    print(f"deck JSON -> {out}", file=sys.stderr)
    return 0


def _cmd_hypomorphic(args: argparse.Namespace) -> int:
    from .iso import hypomorphic

    first = _load(args.first)
    second = _load(args.second)
    ok, eta = hypomorphic(first, second)
    if not ok:
        print("hypomorphic: no")
        return 1
    print("hypomorphic: yes")
    for v in sorted(eta):
        print(f"eta {v} -> {eta[v]}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite, write_verdict

    claims = run_suite(_parse_n_range(args.n), include_numeric=not args.exact_only)
    failed = 0
    for claim in claims:
        tag = "PASS" if claim.passed else "FAIL"
        failed += 0 if claim.passed else 1
        params = json.dumps(claim.params, sort_keys=True)
        print(f"[{tag}] {claim.id} {params}")
        if not claim.passed:
            print(f"error: {claim.id} {params}: {claim.detail}", file=sys.stderr)
        print(f"{claim.id} {params} took {claim.elapsed:.2f}s", file=sys.stderr)
    print(f"passed {len(claims) - failed}/{len(claims)} claims")
    if args.out:
        write_verdict(args.out, claims)
        print(f"verdict JSON -> {args.out}", file=sys.stderr)
    return 1 if failed else 0


_DISPATCH = {
    "gen": _cmd_gen,
    "spectrum": _cmd_spectrum,
    "compare": _cmd_compare,
    "deck": _cmd_deck,
    "hypomorphic": _cmd_hypomorphic,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    # iso uses only sort, argsort, cumsum, bincount, minimum/maximum and fancy
    # indexing, none of which calls BLAS, so OpenBLAS's thread pool would only
    # cost start-up time.  A value the caller set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.verb](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
