"""hypospec benchmark: time to a checked verdict.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # the four in turn
    python3 perfbench/run.py --workload symmetric --smoke    # tiny sizes, seconds

One operation is one fresh `python3 -m hypospec ...` process, so every
in-process cache starts empty as it does for a command-line user.
Operations run one at a time (closed loop, one client) for `--seconds`;
another starts only if the median operation so far still fits.
Inputs are made from the seed before timing starts (see workloads.py), and
every operation's output is checked.

--trace 0 reports the end-to-end metrics: the median wall time of an
operation, spawn to exit; the median time of a fresh interpreter to run
`import hypospec`; and the median peak resident memory of an operation.
Both times are rescaled to a reference machine speed (see CALIBRATION);
the raw medians are printed above the result line.
--trace 1 alternates plain operations with operations run under tracer.py,
and reports per-layer metrics (medians over the traced operations) plus the
tracing overhead, traced minus plain median wall time.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Machine facts and readable per-metric lines come before.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, CheckError, Context, Operation, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACER = HERE / "tracer.py"
RUN_LIMIT_S = 170.0   # every operation is killed by then, so a run ends in time

# The speed of a shared machine drifts by up to 2x over minutes, and a fixed
# loop in a fresh interpreter slows down with hypospec (r = 0.7 per adjacent
# pair on a shared 2-vCPU Xeon).  End-to-end times are therefore rescaled to
# the speed at which this loop takes CALIBRATION_REF_S, using its median over
# the run.  The loop does not touch hypospec, so a change to the program
# cannot move it.
CALIBRATION = "s = 0\nfor i in range(1_500_000):\n    s += i * i % 7\n"
CALIBRATION_REF_S = 0.3

# Calibration and set-up are sampled in pairs, adjacent in time: PROBES_FIRST
# pairs before the first operation, and after each operation one pair per
# PROBE_EVERY_S of its wall time, so that long operations get as many.
PROBES_FIRST = 4
PROBE_EVERY_S = 2.0

LAYERS = ("cli", "verify", "families", "polyalg", "hypergraph", "spectral", "iso")

# name, unit, better
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _refine_useful_ratio(rec: dict) -> float:
    """Refinement calls at the last ladder stage over all refinement calls."""
    calls = rec["calls"].get("spectral.refine", 0)
    top = rec["maxima"].get("spectral.refine_digits_max", 0)
    return rec["counters"].get(f"spectral.refine_calls_at_{top}", 0) / calls if calls else 0.0


def _nodes_per_aut(rec: dict) -> float:
    aut = rec["counters"].get("iso.aut_total", 0)
    return rec["counters"].get("iso.search_nodes", 0) / aut if aut else 0.0


def _calls(key):
    return lambda rec, wall: rec["calls"].get(key, 0)


def _incl(key):
    return lambda rec, wall: rec["incl_s"].get(key, 0.0)


def _own(layer):
    return lambda rec, wall: rec["self_s"].get(layer, 0.0)


def _counter(key):
    return lambda rec, wall: rec["counters"].get(key, 0)


def _maximum(key):
    return lambda rec, wall: rec["maxima"].get(key, 0)


# name, unit, better, value from (tracer record, traced wall seconds);
# trace.wall_s and trace.overhead_s are added from the op walls.
PER_LAYER = [
    ("cli.import_s", "s", "lower", lambda rec, wall: rec["import_s"]),
    ("cli.self_s", "s", "lower", lambda rec, wall: wall - rec["covered_s"]),
    *[(f"{layer}.self_s", "s", "lower", _own(layer)) for layer in LAYERS[1:]],
    ("verify.claims", "count", "higher", lambda rec, wall: rec["claims"]),
    ("verify.claims_failed", "count", "lower", lambda rec, wall: rec["claims_failed"]),
    ("verify.slowest_claim_s", "s", "lower",
     lambda rec, wall: rec["slowest_claim"]["elapsed"] if rec["slowest_claim"] else 0.0),
    ("families.family_poly_calls", "count", "lower", _calls("families.family_poly")),
    ("families.family_poly_s", "s", "lower", _incl("families.family_poly")),
    ("families.x_terms", "count", "lower", _maximum("families.x_terms")),
    ("polyalg.substitute_calls", "count", "lower", _calls("polyalg.substitute")),
    ("polyalg.substitute_s", "s", "lower", _incl("polyalg.substitute")),
    ("polyalg.substitute_terms_out", "count", "lower", _counter("polyalg.substitute_terms_out")),
    ("polyalg.mul_calls", "count", "lower", _calls("polyalg.mul")),
    ("polyalg.mul_s", "s", "lower", _incl("polyalg.mul")),
    ("polyalg.derivative_s", "s", "lower", _incl("polyalg.derivative")),
    ("polyalg.evaluate_exact_s", "s", "lower", _incl("polyalg.evaluate_exact")),
    ("hypergraph.from_text_s", "s", "lower", _incl("hypergraph.from_text")),
    ("hypergraph.from_lagrangian_calls", "count", "lower", _calls("hypergraph.from_lagrangian")),
    ("hypergraph.from_lagrangian_s", "s", "lower", _incl("hypergraph.from_lagrangian")),
    ("spectral.float_solve_s", "s", "lower", _incl("spectral.float_solve")),
    ("spectral.float_iterations", "count", "lower", _counter("spectral.float_iterations")),
    ("spectral.float_unconverged", "count", "lower", _counter("spectral.float_unconverged")),
    ("spectral.refine_calls", "count", "lower", _calls("spectral.refine")),
    ("spectral.refine_s", "s", "lower", _incl("spectral.refine")),
    ("spectral.refine_iterations", "count", "lower", _counter("spectral.refine_iterations")),
    ("spectral.refine_digits_max", "digits", "lower", _maximum("spectral.refine_digits_max")),
    ("spectral.refine_useful_ratio", "ratio", "higher", lambda rec, wall: _refine_useful_ratio(rec)),
    ("spectral.bracket_calls", "count", "lower", _calls("spectral.bracket")),
    ("spectral.bracket_s", "s", "lower", _incl("spectral.bracket")),
    ("spectral.bracket_bits", "bits", "lower", _maximum("spectral.bracket_bits")),
    ("spectral.degree_calls", "count", "lower", _calls("spectral.degree")),
    ("spectral.degree_s", "s", "lower", _incl("spectral.degree")),
    ("iso.canonical_calls", "count", "lower", _calls("iso.canonical")),
    ("iso.canonical_s", "s", "lower", _incl("iso.canonical")),
    ("iso.search_nodes", "count", "lower", _counter("iso.search_nodes")),
    ("iso.aut_total", "count", "higher", _counter("iso.aut_total")),
    ("iso.nodes_per_aut", "ratio", "lower", lambda rec, wall: _nodes_per_aut(rec)),
    ("iso.deck_s", "s", "lower", _incl("iso.deck")),
    ("iso.hypomorphic_s", "s", "lower", _incl("iso.hypomorphic")),
]
TRACE_OWN = [
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def metric_specs(trace: bool) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a run reports, in print order."""
    if not trace:
        return END_TO_END
    return [(name, unit, better) for name, unit, better, _ in PER_LAYER] + TRACE_OWN


# -- processes -------------------------------------------------------------------


@dataclass
class Sample:
    wall: float          # spawn to exit, seconds
    rss_mb: float        # peak resident memory of the process
    code: int
    stdout: str
    stderr: str


def spawn(argv: list[str], ctx: Context, deadline: float) -> Sample:
    """Run one process to its end and measure it; kill it at `deadline`."""
    out_path, err_path = ctx.work / "stdout.txt", ctx.work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ctx.work, env=ctx.env())
        timer = threading.Timer(max(0.0, deadline - started), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                  out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def verdict(sample: Sample, op: Operation) -> str | None:
    """None when the operation succeeded and its output checks out, else why not."""
    if sample.code != 0:
        return f"exit code {sample.code}: {sample.stderr.strip()[-300:]}"
    try:
        op.check(sample.stdout)
    except Exception as exc:  # a garbled output must count as a failure, not end the run
        return f"{type(exc).__name__}: {exc}"
    return None


# -- one run ---------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    facts: dict
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def count(self, sample: Sample, op: Operation) -> None:
        self.attempted += 1
        problem = verdict(sample, op)
        if problem is not None:
            self.errors.append(problem)

    def result(self) -> dict:
        specs = metric_specs(self.trace)
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": len(self.errors),
            "metrics": {name: {"value": self.values[name], "unit": unit}
                        for name, unit, _ in specs},
        }


def machine_facts(ctx: Context) -> dict:
    """Facts about the machine and the program under test.  Also warms the
    interpreter's file cache and writes the program's bytecode before timing."""
    probe = ("import json, sys, hypospec, numpy, mpmath, mpmath.libmp; "
             "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
             "'mpmath': mpmath.__version__, 'mpmath_backend': mpmath.libmp.BACKEND, "
             "'hypospec_file': hypospec.__file__}))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ctx.work, env=ctx.env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise CheckError(f"cannot import hypospec: {proc.stderr.strip()[-300:]}")
    facts = json.loads(proc.stdout)
    source = ctx.root / "src" / "hypospec"
    if Path(facts.pop("hypospec_file")).resolve().parent != source.resolve():
        raise CheckError(f"hypospec was not imported from {source}")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(source.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ctx.root, capture_output=True,
                            text=True).stdout.strip() if (ctx.root / ".git").exists() else ""
    return {"nproc": os.cpu_count(), "cpu": cpu, **facts,
            "commit": commit or "none (not a git checkout)",
            "source_sha256": digest.hexdigest()}


def _fits(durations: list[float], deadline: float) -> bool:
    """Whether another operation of median length ends before the deadline."""
    return time.perf_counter() + statistics.median(durations) <= deadline


def _fresh(op: Operation) -> None:
    for path in op.outputs:
        path.unlink(missing_ok=True)


def measure_end_to_end(run: Run, ctx: Context, op: Operation, seconds: float,
                       hard_stop: float) -> None:
    calibration, setup = [], []

    def probe() -> None:
        """One calibration spawn and one `import hypospec` spawn, adjacent in time."""
        calibration.append(spawn([sys.executable, "-c", CALIBRATION], ctx, hard_stop).wall)
        setup.append(spawn([sys.executable, "-c", "import hypospec"], ctx, hard_stop).wall)

    for _ in range(1 if ctx.smoke else PROBES_FIRST):
        probe()
    walls, rss = [], []
    deadline = time.perf_counter() + seconds
    while not walls or _fits(walls, deadline):
        _fresh(op)
        sample = spawn(ctx.argv(op.args), ctx, hard_stop)
        run.count(sample, op)
        walls.append(sample.wall)
        rss.append(sample.rss_mb)
        for _ in range(max(1, round(sample.wall / PROBE_EVERY_S))):
            probe()
    scale = CALIBRATION_REF_S / statistics.median(calibration)
    run.values.update(wall_s=statistics.median(walls) * scale,
                      setup_s=statistics.median(setup) * scale,
                      peak_rss_mb=statistics.median(rss))
    run.notes += [f"speed scale {scale:.4f} from {len(calibration)} calibration runs, "
                  f"median {statistics.median(calibration):.4f} s",
                  f"raw wall_s median {statistics.median(walls):.4f} of {len(walls)}: "
                  f"min {min(walls):.4f} max {max(walls):.4f}",
                  f"raw setup_s median {statistics.median(setup):.4f} of {len(setup)}"]


def measure_layers(run: Run, ctx: Context, op: Operation, seconds: float,
                   hard_stop: float) -> None:
    record_path = ctx.work / "trace.json"
    plain, traced = [], []
    records: list[dict] = []
    slowest = None
    deadline = time.perf_counter() + seconds
    while not traced or _fits([a + b for a, b in zip(plain, traced)], deadline):
        _fresh(op)
        untraced = spawn(ctx.argv(op.args), ctx, hard_stop)
        run.count(untraced, op)
        _fresh(op)
        record_path.unlink(missing_ok=True)
        sample = spawn([sys.executable, str(TRACER), str(record_path), *op.args], ctx, hard_stop)
        run.count(sample, op)
        plain.append(untraced.wall)
        traced.append(sample.wall)
        if record_path.exists():
            rec = json.loads(record_path.read_text())
            records.append({name: get(rec, sample.wall) for name, _, _, get in PER_LAYER})
            slowest = rec["slowest_claim"]
        else:
            run.errors.append("traced operation wrote no trace record")
    for name, _, _, _ in PER_LAYER:
        run.values[name] = statistics.median(r[name] for r in records) if records else 0.0
    run.values["trace.wall_s"] = statistics.median(traced)
    run.values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    run.notes.append(f"traced operations {len(traced)}, plain median wall "
                     f"{statistics.median(plain):.4f} s")
    if slowest:
        run.notes.append(f"slowest claim {slowest['id']} n={slowest['params'].get('n')} "
                         f"{slowest['elapsed']:.4f} s")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Run:
    hard_stop = time.perf_counter() + RUN_LIMIT_S
    work = HERE / "_work" / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = Context(ROOT, work, seed, smoke)
        run = Run(name, seed, trace, machine_facts(ctx))
        op = WORKLOADS[name](ctx, load_reference())
        if trace:
            measure_layers(run, ctx, op, seconds, hard_stop)
        else:
            measure_end_to_end(run, ctx, op, seconds, hard_stop)
        return run
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(run: Run) -> None:
    print("# machine " + json.dumps(run.facts, sort_keys=True))
    fail_ratio = len(run.errors) / run.attempted
    print(f"# {run.workload} seed {run.seed} trace {int(run.trace)}: {run.attempted} operations, "
          f"{len(run.errors)} failed, fail_ratio {fail_ratio:g}")
    for problem in run.errors[:5]:
        print(f"# failed: {problem}")
    for note in run.notes:
        print(f"# {note}")
    for name, unit, _ in metric_specs(run.trace):
        print(f"{name} {run.values[name]:.6g} {unit}")
    print(f"fail_ratio {fail_ratio:g} ratio")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "hypospec" / "__init__.py").is_file():
        print(f"error: no hypospec sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        except CheckError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(run)
        results[name] = run.result()
    if args.workload == "all" and not args.trace:
        print(f"{'workload':<14}" + "".join(f"{name + ' (' + unit + ')':>20}" for name, unit, _ in END_TO_END)
              + f"{'fail_ratio':>12}")
        for name, res in results.items():
            print(f"{name:<14}" + "".join(f"{res['metrics'][n]['value']:>20.6g}" for n, _, _ in END_TO_END)
                  + f"{res['failed'] / res['attempted']:>12g}")
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
