"""Run one hypospec command with a timing wrapper on each layer's entry points.

    python3 perfbench/tracer.py RECORD.json <hypospec arguments...>

behaves like `python3 -m hypospec <arguments...>` (same stdout, stderr and
exit code) and also writes RECORD.json with, per wrapped entry point, its
call count and inclusive time, per layer its self time, and a few work
counters read off the results (iterations, term counts, search nodes).

`verify` and `cli` bind most entry points through `from .x import ...`, so a
wrapper is installed on every name in every loaded hypospec module that is
bound to the original function, not only in the defining module.  Spans nest:
a layer's self time is the time inside its spans minus the time of the
wrapped calls made from them.  Nothing under src/ is changed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

_START = time.perf_counter()

# The import time is a measured quantity, so the clock starts above.
from hypospec import cli, families, hypergraph, iso, polyalg, spectral, verify  # noqa: E402

IMPORT_S = time.perf_counter() - _START


class Tracer:
    """Span bookkeeping shared by every wrapper in the process."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []   # per open span: [child seconds]
        self.covered_s = 0.0                 # time inside outermost spans
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.incl_s: dict[str, float] = defaultdict(float)
        self.active: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self.claims: list = []

    def wrap(self, key: str, fn, hook=None):
        layer = key.split(".", 1)[0]
        stack, now = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            self.active[key] += 1
            frame = [0.0]
            stack.append(frame)
            started = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = now() - started
                stack.pop()
                if stack:
                    stack[-1][0] += spent
                else:
                    self.covered_s += spent
                self.self_s[layer] += spent - frame[0]
                self.active[key] -= 1
                if not self.active[key]:
                    self.incl_s[key] += spent
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, fn):
        """Cheaper wrapper that only counts calls (for very hot functions)."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def record(self) -> dict:
        slowest = max(self.claims, key=lambda c: c.elapsed, default=None)
        return {
            "import_s": IMPORT_S,
            "covered_s": self.covered_s,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "claims": len(self.claims),
            "claims_failed": sum(1 for c in self.claims if not c.passed),
            "slowest_claim": None if slowest is None else {
                "id": slowest.id, "params": slowest.params, "elapsed": slowest.elapsed},
        }


# -- hooks: work counters read off results ---------------------------------------


def _terms_out(tr: Tracer, result, args, kwargs) -> None:
    tr.counters["polyalg.substitute_terms_out"] += len(result.terms)


def _family_terms(tr: Tracer, result, args, kwargs) -> None:
    spec = args[0] if args else kwargs["spec"]
    if spec.family == "X":
        tr.maxima["families.x_terms"] = max(tr.maxima["families.x_terms"], len(result))


def _float_solve(tr: Tracer, result, args, kwargs) -> None:
    tr.counters["spectral.float_iterations"] += result.iterations
    tr.counters["spectral.float_unconverged"] += 0 if result.converged else 1


def _refine(tr: Tracer, result, args, kwargs) -> None:
    digits = kwargs.get("digits", 60)
    tr.counters["spectral.refine_iterations"] += result[1]
    tr.counters[f"spectral.refine_calls_at_{digits}"] += 1
    tr.maxima["spectral.refine_digits_max"] = max(tr.maxima["spectral.refine_digits_max"], digits)


def _bracket(tr: Tracer, result, args, kwargs) -> None:
    bits = max(max(q.numerator.bit_length(), q.denominator.bit_length()) for q in result[:2])
    tr.maxima["spectral.bracket_bits"] = max(tr.maxima["spectral.bracket_bits"], bits)


def _canonical(tr: Tracer, result, args, kwargs) -> None:
    tr.counters["iso.aut_total"] += result.automorphism_count


def _suite(tr: Tracer, result, args, kwargs) -> None:
    tr.claims.extend(result)


def _main_theorem(tr: Tracer, result, args, kwargs) -> None:
    if not tr.active["verify.run_suite"]:
        tr.claims.append(result)


# -- what gets wrapped -------------------------------------------------------------

_SP = polyalg.SparsePoly
_HG = hypergraph.Hypergraph

# (key, owner, attribute, hook); the key's first part names the layer.  These are
# the entry points the four workloads reach; a layer's self time is only as
# complete as this list.
TIMED = [
    ("polyalg.substitute", _SP, "substitute", _terms_out),
    ("polyalg.mul", _SP, "__mul__", None),
    ("polyalg.add", _SP, "__add__", None),
    ("polyalg.sub", _SP, "__sub__", None),
    ("polyalg.neg", _SP, "__neg__", None),
    ("polyalg.pow", _SP, "__pow__", None),
    ("polyalg.derivative", _SP, "derivative", None),
    ("polyalg.evaluate_exact", _SP, "evaluate_exact", None),
    ("hypergraph.from_text", _HG, "from_text", None),
    ("hypergraph.to_text", _HG, "to_text", None),
    ("hypergraph.from_lagrangian", hypergraph, "hypergraph_from_lagrangian", None),
    ("families.family_poly", families, "family_poly", _family_terms),
    ("families.family_hypergraph", families, "family_hypergraph", None),
    ("families.e_map", families, "e_map", None),
    ("families.p_map", families, "p_map", None),
    ("families.p_eps", families, "p_eps", None),
    ("families.q_map", families, "q_map", None),
    ("families.sigma_endo", families, "sigma_endo", None),
    ("families.theta_endo", families, "theta_endo", None),
    ("families.tau_endo", families, "tau_endo", None),
    ("families.orbit_substitution", families, "orbit_substitution", None),
    ("spectral.float_solve", spectral, "principal_eigenpair", _float_solve),
    ("spectral.refine", spectral, "refined_eigenvector", _refine),
    ("spectral.bracket", spectral, "rational_bracket", _bracket),
    ("spectral.degree", spectral, "degree", None),
    ("iso.canonical", iso, "canonical_form", _canonical),
    ("iso.deck", iso, "deck", None),
    ("iso.hypomorphic", iso, "hypomorphic", None),
    ("verify.run_suite", verify, "run_suite", _suite),
    ("verify.main_theorem", verify, "verify_main_theorem", _main_theorem),
]


def _rebind(original, replacement) -> None:
    """Point every hypospec name bound to `original` at `replacement`."""
    modules = [m for name, m in sys.modules.items()
               if name == "hypospec" or name.startswith("hypospec.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def install(tracer: Tracer) -> None:
    for key, owner, attr, hook in TIMED:
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            # class attributes: aliases such as __rmul__ = __mul__ share the function
            is_cm = isinstance(raw, classmethod)
            func = raw.__func__ if is_cm else raw
            wrapped = tracer.wrap(key, func, hook)
            for name, value in list(vars(owner).items()):
                if value is raw:
                    setattr(owner, name, classmethod(wrapped) if is_cm else wrapped)
        else:
            _rebind(raw, tracer.wrap(key, raw, hook))
    # one search-tree node per call; too hot to time
    _rebind(iso._refine, tracer.count("iso.search_nodes", iso._refine))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py RECORD.json <hypospec arguments...>", file=sys.stderr)
        return 2
    record_path, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(args)
    finally:
        with open(record_path, "w", encoding="ascii") as fh:
            json.dump(tracer.record(), fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
