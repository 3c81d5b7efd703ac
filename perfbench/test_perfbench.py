"""Tests of the benchmark itself, at the smoke sizes (about 20 s in all).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END, metric_specs
from workloads import (WORKLOADS, CheckError, Context, certify, hypomorphism, identities,
                       load_reference, symmetric)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A per-layer count that stays 0 unless the tracer wraps the name the caller
# actually looks up (cli and verify bind through `from .x import ...`).
REACHED = {
    "certify": "spectral.refine_calls",
    "identities": "spectral.degree_calls",
    "hypomorphism": "iso.canonical_calls",
    "symmetric": "iso.search_nodes",
}


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metric_specs(True)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = metric_specs(trace == "1")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {name: unit for name, unit, _ in specs}
    if trace == "1":
        assert result["metrics"][REACHED[workload]]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture
def ctx(tmp_path):
    return Context(ROOT, tmp_path, seed=0, smoke=True)


def test_certify_check_rejects_a_failed_certificate(ctx):
    op = certify(ctx, load_reference())
    good = "\n".join(["# tol 1e-12 max-iter 1000000 shift 1 seed 1",
                      *load_reference()["compare"]["4"]]) + "\n"
    op.check(good)
    with pytest.raises(CheckError):
        op.check(good.replace("mu > lambda: certified", "mu > lambda: NOT certified"))
    with pytest.raises(CheckError):
        op.check(good.replace("35.312979519613819]", "35.31297951961382]", 1))


def test_identities_check_rejects_a_failed_claim(ctx):
    op = identities(ctx, load_reference())
    expected = load_reference()["identities"]["3"]
    claims = [{"id": cid, "params": params, "passed": True} for cid, params in expected]
    summary = f"passed {len(claims)}/{len(claims)} claims\n"
    (ctx.work / "verdict.json").write_text(json.dumps(claims))
    op.check(summary)
    claims[3]["passed"] = False
    (ctx.work / "verdict.json").write_text(json.dumps(claims))
    with pytest.raises(CheckError):
        op.check(summary)


def test_symmetric_check_rejects_a_wrong_automorphism_count(ctx):
    op = symmetric(ctx, load_reference())
    proc = subprocess.run(ctx.argv(op.args), cwd=ctx.work, env=ctx.env(),
                          capture_output=True, text=True, timeout=60)
    op.check(proc.stdout)
    with pytest.raises(CheckError):
        op.check(proc.stdout.replace("automorphisms 120", "automorphisms 60", 1))


def test_hypomorphism_check_rejects_a_non_bijective_eta(ctx):
    op = hypomorphism(ctx, load_reference())
    proc = subprocess.run(ctx.argv(op.args), cwd=ctx.work, env=ctx.env(),
                          capture_output=True, text=True, timeout=60)
    op.check(proc.stdout)
    lines = proc.stdout.splitlines()
    first_image = lines[1].split()[-1]
    lines[2] = " ".join(lines[2].split()[:-1] + [first_image])
    with pytest.raises(CheckError):
        op.check("\n".join(lines) + "\n")


def test_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark files it exits non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
