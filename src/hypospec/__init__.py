"""Exact and numeric verification for the doubled-cycle hypergraph pairs.

`polyalg` carries the exact sparse polynomial ring and its endomorphisms,
`hypergraph` the uniform hypergraph container and file formats, `families`
the recursive constructions, `spectral` the adjacency-tensor eigenpair
machinery, `iso` canonical labeling and decks, and `verify` turns the whole
stack into pass/fail claims.  `cli` exposes everything as subcommands.

The package exports the names the README's library example uses; everything
else is imported from its module, as in `from hypospec.iso import deck`.
"""

from .families import FamilySpec, family_hypergraph
from .iso import hypomorphic
from .spectral import principal_eigenpair, rational_bracket
from .verify import verify_main_theorem

__version__ = "0.1.0"

__all__ = [
    "FamilySpec", "family_hypergraph", "hypomorphic", "principal_eigenpair",
    "rational_bracket", "verify_main_theorem", "__version__",
]
