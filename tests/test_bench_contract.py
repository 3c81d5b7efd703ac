"""What the benchmark under perfbench/ relies on in the package.

The tracer wraps named entry points, and the `certify` workload checks the
header line of `compare` literally.  Renaming a wrapped function or changing
the header would otherwise break `--trace 1` or every `certify` operation
without failing a test here.  The two perfbench modules are loaded from their
files; the tracer's `install` is not run.
"""

import importlib.util
import sys
from pathlib import Path

from hypospec import iso
from hypospec.cli import main

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
