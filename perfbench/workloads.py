"""The benchmark's workloads: the inputs made from the seed, the hypospec
arguments of one operation, and the check of one operation's output.

Inputs are made before any timing starts.  The seed sets the solver start
vector of `certify` and the vertex relabelling of `hypomorphism` and
`symmetric`; `identities` takes no input.  No check depends on the seed:
the expected outputs are in reference.json (rebuilt by make_reference.py)
or follow from the construction, such as the deck of a complete 3-graph.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Problem sizes of the full benchmark and of the smoke mode (smoke=True).
# The smoke certify uses n = 4, not 3: at n = 3 double precision separates
# the brackets, so the refinement ladder would not run, and the printed
# brackets would depend on the start vector.
SIZES = {
    False: {"compare_n": 5, "verify_n": "3..6", "pair_n": 5, "complete_k": 8},
    True: {"compare_n": 4, "verify_n": "3", "pair_n": 3, "complete_k": 6},
}


class CheckError(Exception):
    """The program gave a wrong output, or a step that makes inputs failed."""


@dataclass
class Context:
    root: Path      # checkout root; the program is imported from root/src
    work: Path      # scratch directory of this run
    seed: int
    smoke: bool

    @property
    def sizes(self) -> dict:
        return SIZES[self.smoke]

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def argv(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "hypospec", *args]

    def run(self, args: list[str]) -> str:
        """Run hypospec untimed (input preparation); return its stdout."""
        proc = subprocess.run(self.argv(args), cwd=self.work, env=self.env(),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise CheckError(f"hypospec {' '.join(args)} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-400:]}")
        return proc.stdout


@dataclass
class Operation:
    """One timed operation: hypospec arguments and the check of its stdout."""

    args: list[str]
    check: Callable[[str], None]   # raises CheckError
    outputs: tuple[Path, ...] = ()  # files it writes; removed before each run


# -- helpers ---------------------------------------------------------------------


def hypergraph_text(vertices, edges) -> str:
    """The hypospec text format, vertices and edges sorted as hypospec writes them."""
    lines = ["rank 3", "vertices " + " ".join(str(v) for v in sorted(vertices))]
    lines.extend(" ".join(str(v) for v in e) for e in sorted(tuple(sorted(e)) for e in edges))
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> tuple[list[int], list[tuple[int, ...]]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    return [int(t) for t in lines[1][1:]], [tuple(int(t) for t in ln) for ln in lines[2:]]


def deck_cards(path: Path) -> dict[int, str]:
    """deleted vertex -> canonical text, from a deck JSON file."""
    return {card["deleted"]: card["canonical"] for card in json.loads(path.read_text())}


def deck_digest(texts) -> str:
    """Digest of the multiset of canonical card texts."""
    return hashlib.sha256(json.dumps(sorted(texts)).encode("ascii")).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def compare_header(solver_seed: int) -> str:
    return f"# tol 1e-12 max-iter 1000000 shift 1 seed {solver_seed}"


def _relabelled(ctx: Context, text: str, rng: random.Random, name: str) -> Path:
    vertices, edges = parse_hypergraph(text)
    image = list(vertices)
    rng.shuffle(image)
    mapping = dict(zip(vertices, image))
    path = ctx.work / name
    path.write_text(hypergraph_text(image, [[mapping[v] for v in e] for e in edges]))
    return path


# -- workloads -------------------------------------------------------------------


def certify(ctx: Context, reference: dict) -> Operation:
    n = ctx.sizes["compare_n"]
    solver_seed = ctx.seed + 1   # solver seed 0 means all-ones; keep every start random
    expected = [compare_header(solver_seed)] + reference["compare"][str(n)]

    def check(stdout: str) -> None:
        lines = stdout.splitlines()
        if "mu > lambda: certified" not in lines:
            raise CheckError("no 'mu > lambda: certified' line")
        if lines != expected:
            diff = next((f"line {i + 1}: {a!r} != {b!r}"
                         for i, (a, b) in enumerate(zip(lines, expected)) if a != b),
                        f"{len(lines)} lines, expected {len(expected)}")
            raise CheckError(f"compare output differs from the reference: {diff}")

    return Operation(["compare", "--n", str(n), "--seed", str(solver_seed)], check)


def identities(ctx: Context, reference: dict) -> Operation:
    span = ctx.sizes["verify_n"]
    verdict = ctx.work / "verdict.json"
    expected = reference["identities"][span]

    def check(stdout: str) -> None:
        last = stdout.splitlines()[-1] if stdout.strip() else ""
        if last != f"passed {len(expected)}/{len(expected)} claims":
            raise CheckError(f"summary line is {last!r}")
        claims = json.loads(verdict.read_text())
        failed = [c["id"] for c in claims if c["passed"] is not True]
        if failed:
            raise CheckError(f"claims failed: {failed[:5]}")
        if [[c["id"], c["params"]] for c in claims] != expected:
            raise CheckError("claim ids or params differ from the reference")

    return Operation(["verify", "--n", span, "--exact-only", "--out", str(verdict)],
                     check, (verdict,))


def hypomorphism(ctx: Context, reference: dict) -> Operation:
    n = ctx.sizes["pair_n"]
    rng = random.Random(ctx.seed)
    paths, cards = [], []
    for family in ("X", "Y"):
        text = ctx.run(["gen", "--family", family, "--n", str(n)])
        path = _relabelled(ctx, text, rng, f"{family.lower()}{n}.hg")
        deck_json = path.with_suffix(".deck.json")
        ctx.run(["deck", str(path), "--out", str(deck_json)])
        found = deck_cards(deck_json)
        if deck_digest(found.values()) != reference["deck_digest"][str(n)]:
            raise CheckError(f"deck of relabelled {family}^{n} differs from the reference")
        paths.append(path)
        cards.append(found)
    first, second = cards

    def check(stdout: str) -> None:
        lines = stdout.splitlines()
        if not lines or lines[0] != "hypomorphic: yes":
            raise CheckError(f"first line is {lines[:1]!r}")
        eta = {}
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 4 or parts[0] != "eta" or parts[2] != "->":
                raise CheckError(f"unexpected line {ln!r}")
            eta[int(parts[1])] = int(parts[3])
        if len(lines) - 1 != len(first):
            raise CheckError(f"{len(lines) - 1} eta lines for {len(first)} vertices")
        if set(eta) != set(first) or sorted(eta.values()) != sorted(second):
            raise CheckError("eta is not a bijection between the two vertex sets")
        bad = [v for v in eta if first[v] != second[eta[v]]]
        if bad:
            raise CheckError(f"card of vertex {bad[0]} differs from its image's card")

    return Operation(["hypomorphic", str(paths[0]), str(paths[1])], check)


def symmetric(ctx: Context, reference: dict) -> Operation:
    k = ctx.sizes["complete_k"]
    labels = random.Random(ctx.seed).sample(range(100), k)
    path = ctx.work / f"k{k}.hg"
    path.write_text(hypergraph_text(labels, itertools.combinations(labels, 3)))
    deck_json = ctx.work / f"k{k}.deck.json"
    card = (f"{k - 1} vertices, {math.comb(k - 1, 3)} edges, "
            f"automorphisms {math.factorial(k - 1)}")
    expected_lines = [f"deleted {v}: {card}" for v in sorted(labels)]
    smaller = range(1, k)
    canonical = hypergraph_text(smaller, itertools.combinations(smaller, 3))

    def check(stdout: str) -> None:
        if stdout.splitlines() != expected_lines:
            raise CheckError(f"deck lines differ from '{card}' for each of {k} vertices")
        found = deck_cards(deck_json)
        if set(found) != set(labels) or any(t != canonical for t in found.values()):
            raise CheckError(f"a card's canonical text is not that of K_{k - 1}")

    return Operation(["deck", str(path), "--out", str(deck_json)], check, (deck_json,))


WORKLOADS = {
    "certify": certify,
    "identities": identities,
    "hypomorphism": hypomorphism,
    "symmetric": symmetric,
}
