"""Exact sparse multivariate polynomial arithmetic over the integers.

Variables are indexed by nonnegative integers: x_0, x_1, x_2, ...  A monomial
is the sorted multiset of its variable indices, so x_1^2*x_3 is `(1, 1, 3)`
and the constant monomial is `()`.  The product of two monomials is the
sorted concatenation and the degree is the length.  Two kinds of traffic
were measured: squarefree cubics under variable renamings in the identity
suite, and substitutions of degree up to about 100, seven of them with
50k-160k terms, in the ring-homomorphism trials of acceptance criterion 9.
Nothing is packed into machine words.  The canonical graded-lexicographic
term order and the text form are defined on the run-length
`(variable, exponent)` form of a monomial.  A polynomial maps monomials to
nonzero integer coefficients.  Coefficients are plain Python ints, so every
computation is exact and an identity holds iff the difference has no terms at
all.

The public constructor validates its terms; ring operations combine
polynomials that are valid already, so their results are only cleared of
cancelled terms.

Ring endomorphisms substitute a polynomial image for each variable (variables
without an image are fixed).  They are the workhorse for all symmetry
arguments downstream: permutations of vertices, the doubling maps, the
class-sum maps, and orbit-representative substitutions are all instances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Iterator, Mapping, Sequence, Union

Monomial = tuple[int, ...]

ONE: Monomial = ()

# Rename-table entry of a variable whose image is not a bare variable.
_NOT_A_VARIABLE = -1


class MissingVariableError(KeyError):
    """Evaluation point does not bind a variable present in the polynomial."""

    def __init__(self, index: int) -> None:
        super().__init__(index)
        self.index = index

    def __str__(self) -> str:
        return f"no value bound for variable x_{self.index}"


def _runs(mono: Monomial) -> tuple[tuple[int, int], ...]:
    """Run-length form: ((variable, exponent), ...) in increasing variable order."""
    return tuple((v, len(list(group))) for v, group in groupby(mono))


def monomial_key(mono: Monomial) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Graded lexicographic key; fixes the canonical term order."""
    return (len(mono), _runs(mono))


def monomial_text(mono: Monomial) -> str:
    if not mono:
        return "1"
    return "*".join(f"x_{v}" if e == 1 else f"x_{v}^{e}" for v, e in _runs(mono))


def _dict_mul(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(sorted(ma + mb))
            out[m] = out.get(m, 0) + ca * cb
    return out


def _adopt(terms: dict[Monomial, int]) -> "SparsePoly":
    """Wrap `terms`, built by a ring operation from valid polynomials, as a
    polynomial.  Only cancelled terms are dropped; nothing is re-validated."""
    for mono in [m for m, c in terms.items() if not c]:
        del terms[mono]
    poly = object.__new__(SparsePoly)
    poly.terms = terms
    return poly


class SparsePoly:
    """Immutable-by-convention sparse polynomial with exact int coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None) -> None:
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, coef in terms.items():
                if not isinstance(coef, int):
                    raise TypeError(f"coefficient for {mono!r} is not an int: {coef!r}")
                if coef == 0:
                    continue
                if (not isinstance(mono, tuple) or not all(isinstance(v, int) for v in mono)
                        or (mono and mono[0] < 0)
                        or any(a > b for a, b in zip(mono, mono[1:]))):
                    raise ValueError(f"bad monomial {mono!r}: expected a sorted tuple of "
                                     "variable indices >= 0")
                clean[mono] = coef
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "SparsePoly":
        return cls({ONE: c})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Union["SparsePoly", int]) -> "SparsePoly":
        other = _coerce(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            out[mono] = out.get(mono, 0) + coef
        return _adopt(out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return _adopt({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Union["SparsePoly", int]) -> "SparsePoly":
        other = _coerce(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            out[mono] = out.get(mono, 0) - coef
        return _adopt(out)

    def __rsub__(self, other: int) -> "SparsePoly":
        return _coerce(other) - self

    def __mul__(self, other: Union["SparsePoly", int]) -> "SparsePoly":
        if isinstance(other, int):
            return _adopt({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return _adopt(_dict_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SparsePoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {exponent!r}")
        result = SparsePoly.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.terms == SparsePoly.constant(other).terms
        if isinstance(other, SparsePoly):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {len(m) for m in self.terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def variables(self) -> set[int]:
        out: set[int] = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def monomials(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in the canonical (graded lexicographic) order."""
        for mono in sorted(self.terms, key=monomial_key):
            yield mono, self.terms[mono]

    def single_variable(self) -> int | None:
        """Index v if the polynomial is exactly x_v, else None."""
        if len(self.terms) != 1:
            return None
        (mono, coef), = self.terms.items()
        if coef == 1 and len(mono) == 1:
            return mono[0]
        return None

    # -- calculus and evaluation --------------------------------------------

    def derivative(self, index: int) -> "SparsePoly":
        out: dict[Monomial, int] = {}
        for mono, coef in self.terms.items():
            if index not in mono:
                continue
            pos = mono.index(index)
            new = mono[:pos] + mono[pos + 1:]
            out[new] = out.get(new, 0) + coef * mono.count(index)
        return _adopt(out)

    def _lookup(self, values, index: int):
        if isinstance(values, Mapping):
            try:
                return values[index]
            except KeyError:
                raise MissingVariableError(index) from None
        try:
            return values[index]
        except IndexError:
            raise MissingVariableError(index) from None

    def evaluate(self, values: Union[Mapping[int, float], Sequence[float]]) -> float:
        """Float evaluation; `values` is a dense sequence or a mapping by index."""
        total = 0.0
        for mono, coef in self.terms.items():
            term = float(coef)
            for v, e in _runs(mono):
                term *= float(self._lookup(values, v)) ** e
            total += term
        return total

    def evaluate_exact(self, values: Union[Mapping[int, object], Sequence[object]]) -> Fraction:
        """Exact evaluation at rational points (ints, Fractions, or floats taken exactly)."""
        total = Fraction(0)
        for mono, coef in self.terms.items():
            term = Fraction(coef)
            for v in mono:
                term *= Fraction(self._lookup(values, v))
            total += term
        return total

    def substitute(self, endo: "Endomorphism") -> "SparsePoly":
        """Apply a ring endomorphism: replace each variable by its image."""
        acc: dict[Monomial, int] = {}
        rename = endo.rename.get
        for mono, coef in self.terms.items():
            targets = [rename(v, v) for v in mono]
            if _NOT_A_VARIABLE not in targets:
                key = tuple(sorted(targets))
                acc[key] = acc.get(key, 0) + coef
                continue
            prod: dict[Monomial, int] = {ONE: coef}
            for v in mono:
                prod = _dict_mul(prod, endo.image(v).terms)
            for m, c in prod.items():
                acc[m] = acc.get(m, 0) + c
        return _adopt(acc)

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: terms in graded-lex order, `coef*x_i^e*x_j`."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coef in self.monomials():
            if mono:
                parts.append(f"{coef}*{monomial_text(mono)}")
            else:
                parts.append(str(coef))
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        text = self.to_text()
        if len(text) > 120:
            text = text[:117] + "..."
        return f"SparsePoly({text})"

    def __len__(self) -> int:
        return len(self.terms)


def _coerce(value: Union[SparsePoly, int]) -> SparsePoly:
    if isinstance(value, SparsePoly):
        return value
    if isinstance(value, int):
        return SparsePoly.constant(value)
    raise TypeError(f"cannot coerce {value!r} to SparsePoly")


class Endomorphism:
    """Ring endomorphism determined by variable images; unmapped variables are fixed.

    `rename` maps each variable with an image to its image variable, or to
    -1 where the image is not a bare variable; substitution reads it instead
    of inspecting the images term by term.

    Composition is sequential application: (f.compose(g))(p) substitutes g
    first, then f, matching (f o g) on variables.
    """

    __slots__ = ("images", "rename")

    def __init__(self, images: Mapping[int, SparsePoly]) -> None:
        self.images: dict[int, SparsePoly] = {}
        self.rename: dict[int, int] = {}
        for v, img in images.items():
            if v < 0:
                raise ValueError(f"variable index must be >= 0, got {v}")
            if not isinstance(img, SparsePoly):
                raise TypeError(f"image of x_{v} is not a SparsePoly: {img!r}")
            target = img.single_variable()
            if target == v:
                continue  # identity images are implicit
            self.images[v] = img
            self.rename[v] = _NOT_A_VARIABLE if target is None else target

    @classmethod
    def identity(cls) -> "Endomorphism":
        return cls({})

    def image(self, index: int) -> SparsePoly:
        img = self.images.get(index)
        return img if img is not None else x(index)

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """Return self o other (apply `other` first)."""
        images: dict[int, SparsePoly] = {}
        for v, img in other.images.items():
            images[v] = img.substitute(self)
        for v, img in self.images.items():
            images.setdefault(v, img)
        return Endomorphism(images)

    def __repr__(self) -> str:
        return f"Endomorphism<{len(self.images)} images>"


def x(index: int) -> SparsePoly:
    """The variable x_index."""
    if not isinstance(index, int) or index < 0:
        raise ValueError(f"variable index must be an int >= 0, got {index!r}")
    return _adopt({(index,): 1})
