"""Vertex arithmetic, symmetry endomorphisms, and the paired hypergraph families.

Everything lives on the vertex set {0, 1, ..., 2^n}.  Vertex 0 is the apex
and is fixed by every map built here; vertices 1..2^n carry the cyclic
structure, with arithmetic done by the representative-in-{1..2^n} reduction
`mod_v`.  The two rank-3 families X^n and Y^n share the vertex-transitive
bulk Gamma_n and differ only in how the apex is attached (M0 versus M1).

The recursive definitions below are the construction of record; closed-form
rebuilds used as an independent cross-check live in the verify module.

The structural maps `p_map`, `e_map`, `sigma_endo` and `theta_endo` are
memoised, as the family polynomials and hypergraphs are: every caller with
the same arguments gets the same Endomorphism object, so its tables are
shared and must not be mutated.  Derive new maps with `compose`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

from .hypergraph import Hypergraph, hypergraph_from_lagrangian
from .polyalg import Endomorphism, SparsePoly, x

FAMILY_TAGS = ("C3", "D3", "G", "H", "T", "Gamma", "M0", "M1", "X", "Y")

# The term count of X^n grows by about 8 per level, and memory with it.  On
# an 8 GB, 2-vCPU Xeon with Python 3.11, X^8 (707,200 terms) builds in 2.1 s
# at a 215 MB peak and X^9 (5,625,088 terms) in 20 s at 1,380 MB; X^10
# would need about 11 GB.  FamilySpec refuses n past this cap.
N_CAP = 9

# The certificate of mu > lambda separates X^8 and Y^8 at 3444 bits, its
# `refinement_bits`: the largest exponent among the reduced dyadic
# denominators, which trails the 3564-bit working precision of the Newton
# runs.  n = 9 would need about 7,800 bits (extrapolated from the gaps at
# n = 3..8), and the working precision would pass
# spectral.MAX_REFINEMENT_BITS = 4096.  The numeric claims refuse n past this.
NUMERIC_N_CAP = 8


def mod_v(n: int, value: int) -> int:
    """Representative of `value` in {1, ..., 2^n}; multiples of 2^n map to 2^n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return (value - 1) % (1 << n) + 1


# -- vertex permutations ------------------------------------------------------


def theta_perm(n: int) -> dict[int, int]:
    """The reversal x -> 2^n - x + 1 on 1..2^n, fixing 0.  An involution."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    size = 1 << n
    perm = {0: 0}
    for j in range(1, size + 1):
        perm[j] = size - j + 1
    return perm


def sigma_perm(n: int, i: int) -> dict[int, int]:
    """Block swap by 2^i inside consecutive blocks of 2^{i+1}; sigma_{-1} = id.

    Fixes 0.  Only i <= n-1 yields a permutation of 1..2^n.
    """
    if not -1 <= i <= n - 1:
        raise ValueError(f"sigma index must satisfy -1 <= i <= n-1, got i={i}, n={n}")
    return {0: 0} | {j: sigma_index(i, j) for j in range(1, (1 << n) + 1)}


def sigma_index(i: int, j: int) -> int:
    """sigma_i applied to a single positive integer, with no upper bound."""
    if i == -1:
        return j
    if j <= 0:
        raise ValueError(f"sigma acts on positive integers, got {j}")
    half = 1 << i
    block = half << 1
    c = j % block or block
    return j + half if c <= half else j - half


def permutation_endo(perm: Mapping[int, int]) -> Endomorphism:
    """x_j -> x_{perm(j)}; validates bijectivity on the permutation's domain."""
    if sorted(perm.keys()) != sorted(perm.values()):
        raise ValueError("map is not a permutation of its domain")
    return Endomorphism({j: x(img) for j, img in perm.items()})


# -- structural endomorphisms -------------------------------------------------


@lru_cache(maxsize=None)
def p_map(n: int, bit: int) -> Endomorphism:
    """Doubling map into V_n: x_i -> x_{2i - bit mod V_n}.  bit 0 hits the
    even vertices, bit 1 the odd ones."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    images = {i: x(mod_v(n, 2 * i - bit)) for i in range(1, (1 << n) + 1)}
    return Endomorphism(images)


def p_eps(n: int, bits: Sequence[int]) -> Endomorphism:
    """Composite doubling map p_{bits[0]} o ... o p_{bits[-1]} into V_n; the
    empty word gives the identity."""
    endo = Endomorphism.identity()
    for b in reversed(bits):
        endo = p_map(n, b).compose(endo)
    return endo


@lru_cache(maxsize=None)
def e_map(n: int, r: int) -> Endomorphism:
    """Class-sum map: x_i -> sum of x_j over j = i mod 2^r in V_n; E_n^n = id."""
    if not 2 <= r <= n:
        raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
    if r == n:
        return Endomorphism({})
    step = 1 << r
    # the 2^(n-r) indices of one class are distinct, so each image is one term dict
    images = {i: SparsePoly({(mod_v(n, i + s * step),): 1 for s in range(1, (1 << (n - r)) + 1)})
              for i in range(1, (1 << n) + 1)}
    return Endomorphism(images)


def q_map(n: int) -> Endomorphism:
    """Half-period fold x_i -> x_i + x_{i + 2^{n-1}}; equals E_{n-1}^n."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return e_map(n, n - 1)


@lru_cache(maxsize=None)
def sigma_endo(n: int, i: int) -> Endomorphism:
    return permutation_endo(sigma_perm(n, i))


@lru_cache(maxsize=None)
def theta_endo(n: int) -> Endomorphism:
    return permutation_endo(theta_perm(n))


def tau_endo() -> Endomorphism:
    """Multiplication by 3 on 1..8, fixing 0."""
    return permutation_endo({0: 0} | {j: mod_v(3, 3 * j) for j in range(1, 9)})


# -- orbit substitution -------------------------------------------------------


def orbit_substitution(n: int, generators: Iterable[Mapping[int, int]]) -> Endomorphism:
    """Endomorphism sending each variable to its orbit minimum under the
    group generated by the given vertex permutations of {0, ..., 2^n}.

    Substituting it into a polynomial restricts the polynomial to the
    subspace fixed by every generator, which is how identities that hold
    "for all x with g(x) = x" become exact zero-polynomial checks.
    """
    size = (1 << n) + 1
    domain = list(range(size))
    perms = []
    for gen in generators:
        table = [gen.get(v, -1) for v in domain]
        if sorted(table) != domain:
            raise ValueError(f"generator is not a permutation of 0..{size - 1}")
        perms.append(table)

    parent = list(range(size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for table in perms:
        for v in domain:
            ra, rb = find(v), find(table[v])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    images = {v: x(find(v)) for v in domain if find(v) != v}
    return Endomorphism(images)


# -- family constructions -----------------------------------------------------


class _FamilyFields(NamedTuple):
    family: str
    n: int
    k: int | None = None


class FamilySpec(_FamilyFields):
    """Tagged family selector; k is required exactly for the G family.  A
    NamedTuple, so it hashes as a memo key and loads no `dataclasses`."""

    __slots__ = ()

    def __new__(cls, family: str, n: int, k: int | None = None) -> "FamilySpec":
        if family not in FAMILY_TAGS:
            raise ValueError(f"unknown family {family!r}, expected one of {FAMILY_TAGS}")
        if family in ("C3", "D3") and n != 3:
            raise ValueError(f"{family} exists only at n = 3")
        if n < 3:
            raise ValueError(f"n must be >= 3, got {n}")
        if n > N_CAP:
            raise ValueError(f"n = {n} exceeds N_CAP = {N_CAP}")
        if family == "G":
            if k is None:
                raise ValueError("family G needs k")
            if not 2 <= k <= n:
                raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
        elif k is not None:
            raise ValueError(f"family {family} takes no k")
        return super().__new__(cls, family, n, k)


def _cycle_sum(offsets: Sequence[int], indices: Iterable[int]) -> SparsePoly:
    total = SparsePoly.zero()
    for i in indices:
        term = SparsePoly.constant(1)
        for off in offsets:
            term = term * x(mod_v(3, i + off))
        total = total + term
    return total


@lru_cache(maxsize=None)
def _family_poly(family: str, n: int, k: int | None) -> SparsePoly:
    if family == "C3":
        return _cycle_sum((-1, 0, 1), range(1, 9))
    if family == "D3":
        return _family_poly("C3", 3, None).substitute(tau_endo())
    if family == "G":
        assert k is not None
        if k == n:
            if n == 3:
                return _family_poly("C3", 3, None) + _family_poly("D3", 3, None)
            return _family_poly("G", 3, 3).substitute(e_map(n, 3))
        if n == 3:  # k == 2, the only k < n at the base level
            return _cycle_sum((0, 2, 4), range(1, 5))
        prev = _family_poly("G", n - 1, k)
        return prev.substitute(p_map(n, 0)) + prev.substitute(p_map(n, 1))
    if family == "H":
        if n == 3:
            return _family_poly("G", 3, 3)
        return _family_poly("H", n - 1, None).substitute(q_map(n))
    if family == "T":
        total = SparsePoly.zero()
        for j in range(2, n):
            total = total + _family_poly("G", n, j)
        return total
    if family == "Gamma":
        return _family_poly("T", n, None) + _family_poly("G", n, n)
    if family == "M0":
        seed = x(1) * x(2) + x(3) * x(4)
        return x(0) * seed.substitute(e_map(n, 2))
    if family == "M1":
        seed = x(1) * x(4) + x(2) * x(3)
        return x(0) * seed.substitute(e_map(n, 2))
    if family == "X":
        return _family_poly("Gamma", n, None) + _family_poly("M0", n, None)
    # family == "Y": FamilySpec admits no other tag
    return _family_poly("Gamma", n, None) + _family_poly("M1", n, None)


def family_poly(spec: FamilySpec) -> SparsePoly:
    """Generating polynomial of the requested family (memoized)."""
    return _family_poly(spec.family, spec.n, spec.k)


@lru_cache(maxsize=None)
def family_hypergraph(spec: FamilySpec) -> Hypergraph:
    """The family member as a rank-3 hypergraph (memoized)."""
    return hypergraph_from_lagrangian(family_poly(spec), 3)
