"""Exact and numeric verification for the doubled-cycle hypergraph pairs.

`polyalg` carries the exact sparse polynomial ring and its endomorphisms,
`hypergraph` the uniform hypergraph container and file formats, `families`
the recursive constructions, `spectral` the adjacency-tensor eigenpair
machinery, `iso` canonical labeling and decks, and `verify` turns the whole
stack into pass/fail claims.  `cli` exposes everything as subcommands.

The package exports the names the README's library example uses; everything
else is imported from its module, as in `from hypospec.iso import deck`.

Each export is imported from its module on first use (a module
`__getattr__`), so `import hypospec` loads no submodule, and each command
loads only what its handler runs: the README lists each command's modules,
and `tests/test_imports.py` checks them.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "FamilySpec", "family_hypergraph", "hypomorphic", "principal_eigenpair",
    "rational_bracket", "verify_main_theorem", "__version__",
]

_HOMES = {
    "FamilySpec": "families",
    "family_hypergraph": "families",
    "hypomorphic": "iso",
    "principal_eigenpair": "spectral",
    "rational_bracket": "spectral",
    "verify_main_theorem": "verify",
}


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(import_module(f".{_HOMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
