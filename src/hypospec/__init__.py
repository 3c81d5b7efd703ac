"""Exact and numeric verification for the doubled-cycle hypergraph pairs.

`polyalg` carries the exact sparse polynomial ring and its endomorphisms,
`hypergraph` the uniform hypergraph container and file formats, `families`
the recursive constructions, `spectral` the adjacency-tensor eigenpair
machinery, `iso` canonical labeling and decks, and `verify` turns the whole
stack into pass/fail claims.  `cli` exposes everything as subcommands.

Each name is imported from its module, as in
`from hypospec.verify import verify_main_theorem`, so `import hypospec`
loads no submodule, and each command loads only what its handler runs: the
README lists each command's modules, and `tests/test_imports.py` checks
them.
"""

__version__ = "0.1.0"
