"""Exact sparse multivariate polynomial arithmetic over the integers.

Variables are indexed by nonnegative integers: x_0, x_1, x_2, ...  A monomial
is the sorted multiset of its variable indices, so x_1^2*x_3 is `(1, 1, 3)`
and the constant monomial is `()`.  The product of two monomials is the
sorted concatenation and the degree is the length.  Two kinds of traffic
were measured: squarefree cubics under variable renamings and linear maps
in the identity suite, and substitutions of degree up to about 100, seven
of them with 50k-160k terms, in the ring-homomorphism trials of acceptance
criterion 9.  The suite's products of three linear forms L_0 L_1 L_2 are
multiplied out on the linear path too, as x_0 x_1 x_2 under x_i -> L_i.
Nothing is packed into machine words.  The canonical graded-lexicographic
term order and the text form are defined on the run-length
`(variable, exponent)` form of a monomial.  A polynomial maps monomials to
nonzero integer coefficients.  Coefficients are plain Python ints, so every
computation is exact, and since no polynomial holds a zero coefficient, two
polynomials are equal iff their term dicts are: an identity is checked
without forming the difference.

The public constructor validates its terms; ring operations combine
polynomials that are valid already, so their results are only cleared of
cancelled terms.

Ring endomorphisms substitute a polynomial image for each variable (variables
without an image are fixed).  They are the workhorse for all symmetry
arguments downstream: permutations of vertices, the doubling maps, the
class-sum maps, and orbit-representative substitutions are all instances.
`substitute` dispatches once per call, on the kind of endomorphism.  A
renaming (permutations, doubling and orbit maps) relabels each term in one
pass.  A linear map (the class-sum maps) expands each cubic term by nested
loops over the image terms.  Every other term, and every term under any
other map (criterion 9's degree-100 products), is multiplied out by
`_dict_mul`.  All paths give the same terms in the same order.  A
renaming keeps one table, `rename`, and builds its images only when they are
asked for; two renamings compose on their tables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from typing import Iterator, Mapping, Sequence, Union

Monomial = tuple[int, ...]

ONE: Monomial = ()


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
    polynomial.  Only cancelled terms are dropped, and only when there is
    one; nothing is re-validated."""
    if 0 in terms.values():
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
                if (not isinstance(mono, tuple) or not all(map(int.__instancecheck__, mono))
                        or (mono and mono[0] < 0) or list(mono) != sorted(mono)):
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

    def evaluate_exact(self, values: Union[Mapping[int, object], Sequence[object]]) -> Fraction:
        """Exact evaluation at rational points (ints, Fractions, or floats taken
        exactly); `values` is a dense sequence or a mapping by index."""
        total = Fraction(0)
        for mono, coef in self.terms.items():
            term = Fraction(coef)
            for v in mono:
                try:
                    term *= Fraction(values[v])
                except (KeyError, IndexError):
                    raise ValueError(f"no value bound for variable x_{v}") from None
            total += term
        return total

    def substitute(self, endo: "Endomorphism") -> "SparsePoly":
        """Apply a ring endomorphism: replace each variable by its image."""
        acc: dict[Monomial, int] = {}
        if endo.is_renaming:
            get = endo.rename.get
            for mono, coef in self.terms.items():
                if len(mono) == 3:
                    a, b, c = mono
                    a, b, c = get(a, a), get(b, b), get(c, c)
                    if a > b:
                        a, b = b, a
                    if b > c:
                        b, c = c, b
                        if a > b:
                            a, b = b, a
                    key = (a, b, c)
                else:
                    key = tuple(sorted(map(get, mono, mono)))
                acc[key] = acc.get(key, 0) + coef
            return _adopt(acc)
        images, linear = endo.images, endo.is_linear
        for mono, coef in self.terms.items():
            if linear and len(mono) == 3:
                # The loops meet the products in the order _dict_mul would.
                iu, iv, iw = (images[v].terms if v in images else {(v,): 1} for v in mono)
                for (u,), cu in iu.items():
                    cu *= coef
                    for (v,), cv in iv.items():
                        cuv = cu * cv
                        a, b = (u, v) if u <= v else (v, u)
                        for (w,), cw in iw.items():
                            key = (w, a, b) if w < a else (a, w, b) if w < b else (a, b, w)
                            acc[key] = acc.get(key, 0) + cuv * cw
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

    `rename` maps each variable whose image is a bare variable to that
    variable.  `is_renaming` holds when every image is a bare variable, and
    `is_linear` when every image has only degree-1 terms (the zero image
    has none); substitution and composition dispatch on them once per call.
    A renaming keeps `rename` as its one table: `images` and `image(v)`
    build the bare-variable images from it when they are asked for.  Any
    other endomorphism keeps every image in `images` as well.

    Composition is sequential application: (f.compose(g))(p) substitutes g
    first, then f, matching (f o g) on variables.
    """

    __slots__ = ("_images", "rename", "is_renaming", "is_linear")

    def __init__(self, images: Mapping[int, SparsePoly]) -> None:
        own: dict[int, SparsePoly] = {}
        self.rename: dict[int, int] = {}
        self.is_renaming = self.is_linear = True
        for v, img in images.items():
            if v < 0:
                raise ValueError(f"variable index must be >= 0, got {v}")
            if not isinstance(img, SparsePoly):
                raise TypeError(f"image of x_{v} is not a SparsePoly: {img!r}")
            target = img.single_variable()
            if target == v:
                continue  # identity images are implicit
            own[v] = img
            if target is not None:
                self.rename[v] = target
                continue
            self.is_renaming = False
            self.is_linear = self.is_linear and all(len(mono) == 1 for mono in img.terms)
        self._images = None if self.is_renaming else own

    @classmethod
    def identity(cls) -> "Endomorphism":
        return cls({})

    @property
    def images(self) -> dict[int, SparsePoly]:
        """Every image that is not the identity."""
        if self.is_renaming:
            return {v: x(t) for v, t in self.rename.items()}
        return self._images

    def image(self, index: int) -> SparsePoly:
        if self.is_renaming:
            return x(self.rename.get(index, index))
        img = self._images.get(index)
        return img if img is not None else x(index)

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """Return self o other (apply `other` first)."""
        if self.is_renaming and other.is_renaming:
            get = self.rename.get
            rename: dict[int, int] = {}
            for v, w in other.rename.items():
                if (t := get(w, w)) != v:
                    rename[v] = t
            for v, t in self.rename.items():
                if v not in other.rename:
                    rename[v] = t
            # Every image is a bare variable, so __init__ would learn nothing.
            endo = object.__new__(Endomorphism)
            endo._images = None
            endo.rename = rename
            endo.is_renaming = endo.is_linear = True
            return endo
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
    poly = object.__new__(SparsePoly)
    poly.terms = {(index,): 1}
    return poly
