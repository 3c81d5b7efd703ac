"""Rebuild perfbench/reference.json, the expected outputs the checks compare with.

    python3 perfbench/make_reference.py

Run it from a commit whose verdicts are trusted (all claims pass), for both
the full and the smoke sizes.  It stores, per size: the `compare` output
lines after the seed header, the verify claim ids and params, and the digest
of the sorted deck canonical texts of the unrelabelled X^n.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from workloads import REFERENCE, SIZES, Context, deck_cards, deck_digest


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    reference: dict = {"compare": {}, "identities": {}, "deck_digest": {}}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        ctx = Context(root, Path(tmp), seed=0, smoke=False)
        for sizes in SIZES.values():
            n = sizes["compare_n"]
            lines = ctx.run(["compare", "--n", str(n), "--seed", "1"]).splitlines()
            reference["compare"][str(n)] = lines[1:]
            verdict = ctx.work / "verdict.json"
            ctx.run(["verify", "--n", sizes["verify_n"], "--exact-only", "--out", str(verdict)])
            claims = json.loads(verdict.read_text())
            if not all(c["passed"] for c in claims):
                print("error: some claims fail; not writing a reference", file=sys.stderr)
                return 1
            reference["identities"][sizes["verify_n"]] = [[c["id"], c["params"]] for c in claims]
            n = sizes["pair_n"]
            path = ctx.work / f"x{n}.hg"
            ctx.run(["gen", "--family", "X", "--n", str(n), "--out", str(path)])
            ctx.run(["deck", str(path), "--out", str(ctx.work / "deck.json")])
            reference["deck_digest"][str(n)] = deck_digest(deck_cards(ctx.work / "deck.json").values())
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
