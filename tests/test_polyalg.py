import random
from collections import Counter
from fractions import Fraction

import pytest

from hypospec.families import p_eps, p_map, sigma_endo, theta_endo
from hypospec.polyalg import (Endomorphism, SparsePoly, _dict_mul,
                              monomial_key, monomial_text, x)
from hypospec.verify import fixed_point_map


def reference_substitute(p, endo):
    """Term by term through `_dict_mul` alone: the terms, in the insertion
    order, that every path of `substitute` must reproduce."""
    acc = {}
    for mono, coef in p.terms.items():
        prod = {(): coef}
        for v in mono:
            prod = _dict_mul(prod, endo.image(v).terms)
        for m, c in prod.items():
            acc[m] = acc.get(m, 0) + c
    return {m: c for m, c in acc.items() if c}


def reference_compose(f, g):
    images = {v: SparsePoly(reference_substitute(img, f)) for v, img in g.images.items()}
    for v, img in f.images.items():
        images.setdefault(v, img)
    return Endomorphism(images)


def test_monomial_helpers():
    a = (1, 1, 3)
    assert monomial_key(()) == (0, ())
    assert monomial_key(a)[0] == 3
    assert monomial_text(a) == "x_1^2*x_3"
    assert monomial_text(()) == "1"


def test_construction_cleans_zeros():
    p = SparsePoly({(1,): 2, (2,): 0})
    assert p.terms == {(1,): 2}
    assert SparsePoly.constant(0) == 0
    assert SparsePoly() == 0
    assert x(4) != 0


def test_construction_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        SparsePoly({((1, 1),): 0.5})


def test_public_constructor_validates_monomials():
    with pytest.raises(ValueError):
        SparsePoly({(-1, 2): 1})        # negative index
    with pytest.raises(ValueError):
        SparsePoly({(3, 1): 1})         # unsorted multiset
    with pytest.raises(TypeError):
        SparsePoly({(1, 2): 1.0})       # non-int coefficient
    assert SparsePoly({(1, 1, 2): 3}) == 3 * x(1) ** 2 * x(2)


def test_arithmetic_basics():
    p = x(1) + x(2)
    q = x(1) - x(2)
    assert p * q == x(1) ** 2 - x(2) ** 2
    assert (p + 1) - 1 == p
    assert 2 * p == p + p
    assert p * 0 == 0
    assert -q == x(2) - x(1)
    assert 1 - q == 1 - x(1) + x(2)
    assert (x(1) + 1) ** 3 == x(1) ** 3 + 3 * x(1) ** 2 + 3 * x(1) + 1
    assert x(1) ** 0 == 1


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        x(1) ** -1


def test_equality_against_ints():
    assert SparsePoly.constant(5) == 5
    assert SparsePoly.zero() == 0
    assert x(1) != 1
    assert (x(1) - x(1)) == 0


def test_variables_and_single_variable():
    p = x(3) * x(7) + x(3)
    assert p.variables() == {3, 7}
    assert x(5).single_variable() == 5
    assert (2 * x(5)).single_variable() is None
    assert (x(5) + x(6)).single_variable() is None


def test_monomials_graded_lex_order():
    p = x(2) + x(1) * x(2) + 3 + x(1)
    monos = [m for m, _ in p.monomials()]
    assert monos == [(), (1,), (2,), (1, 2)]


def test_derivative():
    p = x(1) ** 3 * x(2) + 2 * x(2)
    assert p.derivative(1) == 3 * x(1) ** 2 * x(2)
    assert p.derivative(2) == x(1) ** 3 + 2
    assert p.derivative(9) == 0
    assert SparsePoly.constant(7).derivative(1) == 0


def test_evaluate_sequence_and_mapping():
    p = x(0) * x(1) + x(2) ** 2
    assert p.evaluate_exact([2.0, 3.0, 4.0]) == 22
    assert p.evaluate_exact({0: 2, 1: 3, 2: 4}) == 22
    assert p.evaluate_exact({0: Fraction(1, 2), 1: Fraction(2, 3), 2: Fraction(1, 5)}) \
        == Fraction(1, 3) + Fraction(1, 25)


def test_evaluate_missing_variable():
    p = x(0) + x(5)
    with pytest.raises(ValueError) as err:
        p.evaluate_exact([1.0, 2.0])
    assert str(err.value) == "no value bound for variable x_5"
    with pytest.raises(ValueError) as err:
        p.evaluate_exact({0: 1})
    assert str(err.value) == "no value bound for variable x_5"


def test_substitute_identity_and_rename():
    p = x(1) * x(2) + x(3)
    assert p.substitute(Endomorphism.identity()) == p
    swap = Endomorphism({1: x(2), 2: x(1)})
    assert p.substitute(swap) == p
    collapse = Endomorphism({1: x(2)})
    assert (x(1) - x(2)).substitute(collapse) == 0
    assert (x(1) * x(2)).substitute(collapse) == x(2) ** 2


def test_substitute_general_images():
    p = x(1) ** 2
    e = Endomorphism({1: x(2) + x(3)})
    assert p.substitute(e) == x(2) ** 2 + 2 * x(2) * x(3) + x(3) ** 2
    zeroing = Endomorphism({1: SparsePoly.zero()})
    assert (x(1) * x(2) + 5).substitute(zeroing) == 5


def test_endomorphism_drops_identity_images_and_image_lookup():
    e = Endomorphism({1: x(1), 2: x(3)})
    assert 1 not in e.images
    assert e.image(2) == x(3)
    assert e.image(17) == x(17)


def test_compose_applies_other_first():
    # compose(other) means self after other: variables flow through other, then self
    first = Endomorphism({1: x(2)})
    second = Endomorphism({2: x(3)})
    combined = second.compose(first)
    assert combined.image(1) == x(3)
    assert x(1).substitute(combined) == x(1).substitute(first).substitute(second)


def test_substitution_is_ring_homomorphism_random():
    rng = random.Random(90125)

    def random_poly():
        total = SparsePoly.zero()
        for _ in range(rng.randint(1, 5)):
            term = SparsePoly.constant(rng.randint(-4, 4))
            for _ in range(rng.randint(0, 3)):
                term = term * x(rng.randint(0, 5))
            total = total + term
        return total

    for _ in range(60):
        p, q = random_poly(), random_poly()
        e = Endomorphism({i: random_poly() for i in range(6) if rng.random() < 0.6})
        assert (p + q).substitute(e) == p.substitute(e) + q.substitute(e)
        assert (p * q).substitute(e) == p.substitute(e) * q.substitute(e)


def test_substitute_agrees_with_evaluation_at_images():
    rng = random.Random(4417)

    def random_poly(max_degree):
        total = SparsePoly.zero()
        for _ in range(rng.randint(1, 6)):
            term = SparsePoly.constant(rng.choice([-3, -2, -1, 1, 2, 5]))
            for _ in range(rng.randint(0, max_degree)):
                term = term * x(rng.randint(0, 6))
            total = total + term
        return total

    def bare_rename():
        return {v: x(rng.randint(0, 6)) for v in range(7) if rng.random() < 0.7}

    def polynomial_images():
        return {v: random_poly(2) for v in range(7) if rng.random() < 0.7}

    def mixed():
        images = bare_rename()
        images.update(polynomial_images())
        return images

    for make in (bare_rename, polynomial_images, mixed):
        for _ in range(20):
            p = random_poly(4)
            endo = Endomorphism(make())
            point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for v in range(7)}
            at_images = {v: endo.image(v).evaluate_exact(point) for v in range(7)}
            assert p.substitute(endo).evaluate_exact(point) == p.evaluate_exact(at_images)


def test_every_substitution_path_matches_the_dict_mul_reference():
    """Renamings, linear images and general images each take their own path;
    each must give the reference's terms in the reference's order."""
    rng = random.Random(30301)
    coefs = [-5, -2, -1, 1, 3, 7]

    def random_poly(cubic_only):
        total = SparsePoly.zero()
        for _ in range(rng.randint(1, 12)):
            degree = 3 if cubic_only else rng.randint(0, 5)
            term = SparsePoly.constant(rng.choice(coefs))
            for _ in range(degree):
                term = term * x(rng.randint(0, 7))
            total = total + term
        return total

    def linear():
        return SparsePoly({(w,): rng.choice(coefs) for w in rng.sample(range(8), rng.randint(1, 3))})

    def renaming():  # merges variables: 8 variables onto at most 5
        return {v: x(rng.randint(0, 4)) for v in range(8) if rng.random() < 0.7}

    def linear_images():
        images = renaming()
        images.update({v: linear() for v in range(8) if rng.random() < 0.4})
        for v in range(8):
            if rng.random() < 0.15:
                images[v] = SparsePoly.zero()
        return images

    def general_images():
        images = linear_images()
        images[rng.randrange(8)] = rng.choice([SparsePoly.constant(rng.choice(coefs)),
                                               random_poly(False)])
        return images

    polys = [x(1) * x(2) * x(3), x(1) ** 2 * x(2) - 3 * x(2) ** 3 + x(0) * x(1) * x(2),
             x(1) * x(2) - x(2) * x(3) + 4, x(5) ** 3 - x(5)]
    polys += [random_poly(cubic_only) for cubic_only in (True, False) for _ in range(30)]
    endos = [Endomorphism({1: SparsePoly.zero(), 2: x(4) + x(5)}),
             Endomorphism({1: x(2), 2: x(1)}), Endomorphism({1: x(2) - x(3), 3: 2 * x(1)}),
             Endomorphism({1: SparsePoly.constant(-2), 2: x(3)})]
    endos += [Endomorphism(make()) for make in (renaming, linear_images, general_images)
              for _ in range(25)]
    kinds = Counter((e.is_renaming, e.is_linear) for e in endos)
    assert kinds[True, True] and kinds[False, True] and kinds[False, False]
    for p in polys:
        for e in endos:
            out = p.substitute(e)
            ref = reference_substitute(p, e)
            assert out.terms == ref and list(out.terms) == list(ref), (p, e.images)
    assert (x(1) * x(2) * x(3)).substitute(endos[0]) == 0
    # sums that cancel to 0 under a merging renaming and under a linear map
    assert (x(1) * x(2) ** 2 - x(1) ** 2 * x(2)).substitute(Endomorphism({1: x(2)})) == 0
    swap_sum = Endomorphism({1: x(2) + x(3), 2: x(3) + x(2)})
    assert (x(1) * x(2) * x(4) - x(1) ** 2 * x(4)).substitute(swap_sum) == 0


def test_endomorphism_records_its_kind():
    assert Endomorphism.identity().is_renaming
    assert Endomorphism({1: x(2), 2: x(2)}).is_renaming
    zero = Endomorphism({1: SparsePoly.zero(), 2: x(3)})
    assert (zero.is_renaming, zero.is_linear) == (False, True)
    assert zero.rename == {2: 3}
    scaled = Endomorphism({1: 2 * x(1) - x(3)})
    assert (scaled.is_renaming, scaled.is_linear, scaled.rename) == (False, True, {})
    for image in (SparsePoly.constant(1), x(1) * x(2), x(1) + 1):
        assert not Endomorphism({4: x(5), 1: image}).is_linear


def test_renamings_compose_on_their_tables():
    def same(f, g):
        return (f.images == g.images and list(f.images) == list(g.images)
                and f.rename == g.rename and list(f.rename) == list(g.rename)
                and (f.is_renaming, f.is_linear) == (g.is_renaming, g.is_linear))

    for n in range(3, 7):
        theta = theta_endo(n)
        assert theta.compose(theta).images == {} and theta.compose(theta).rename == {}
        assert same(theta.compose(theta), reference_compose(theta, theta))
        for r in range(n - 1):
            phi, sigma = fixed_point_map(n, r), sigma_endo(n, r)
            assert phi.is_renaming and sigma.is_renaming
            assert same(phi.compose(sigma), reference_compose(phi, sigma))
    rename = Endomorphism({1: x(2), 2: x(1), 4: x(1)})
    lin = Endomorphism({1: x(2) + x(3), 3: SparsePoly.zero(), 5: x(4)})
    for f, g in ((rename, lin), (lin, rename), (rename, rename)):
        assert same(f.compose(g), reference_compose(f, g))


def test_composed_renamings_derive_their_images_from_one_table():
    """A composed renaming keeps `rename` alone.  The `images` it derives
    equal, in the same order, the images that the general composition
    builds, and `image(v)` agrees with it on every variable."""
    rng = random.Random(15)
    pairs = []
    for n in range(3, 7):
        size = (1 << n) + 1
        pairs += [(fixed_point_map(n, r), sigma_endo(n, r), size)
                  for r in range(n - 1)]
        pairs += [(p_map(n, 1), p_eps(n, (0, 1, 1)), size), (theta_endo(n), theta_endo(n), size)]
    for _ in range(20):
        f, g = (Endomorphism({v: x(rng.randrange(6)) for v in range(6) if rng.random() < 0.6})
                for _ in range(2))
        pairs.append((f, g, 8))
    for f, g, size in pairs:
        fast, general = f.compose(g), reference_compose(f, g)
        assert fast.is_renaming and fast._images is None
        assert list(fast.images.items()) == list(general.images.items())
        assert all(fast.image(v) == general.image(v) for v in range(size))


def test_to_text():
    assert SparsePoly.zero().to_text() == "0"
    assert (x(2) * x(1) - 3 * x(4) ** 2).to_text() == "1*x_1*x_2 + -3*x_4^2"
    assert str(SparsePoly.constant(-2)) == "-2"


def test_len_counts_terms():
    assert len(SparsePoly.zero()) == 0
    assert len(x(1) + x(2) + 1) == 3


def test_unhashable():
    with pytest.raises(TypeError):
        hash(x(1))


@pytest.mark.parametrize("call, error, message", [
    (lambda: x(1) + "a", TypeError, "cannot coerce 'a' to SparsePoly"),
    (lambda: Endomorphism({-1: x(0)}), ValueError, "variable index must be >= 0, got -1"),
    (lambda: Endomorphism({1: 2}), TypeError, "image of x_1 is not a SparsePoly: 2"),
    (lambda: x(-1), ValueError, "variable index must be an int >= 0, got -1"),
])
def test_bad_operands_are_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_protocol_against_other_types():
    assert (x(1) == "x_1") is False
    with pytest.raises(TypeError):
        x(1) * "a"


def test_reprs():
    assert repr(x(1) * x(2) - 3) == "SparsePoly(-3 + 1*x_1*x_2)"
    long = sum((x(v) for v in range(40)), SparsePoly.zero())
    assert len(long.to_text()) > 120
    assert repr(long) == f"SparsePoly({long.to_text()[:117]}...)"
    assert repr(p_map(3, 0)) == "Endomorphism<7 images>"
