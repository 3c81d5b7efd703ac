import random
from fractions import Fraction

import pytest

from hypospec.polyalg import (Endomorphism, MissingVariableError, SparsePoly,
                              monomial_key, monomial_text, x)


def test_monomial_helpers():
    a = (1, 1, 3)
    assert monomial_key(()) == (0, ())
    assert monomial_key(a)[0] == 3
    assert monomial_text(a) == "x_1^2*x_3"
    assert monomial_text(()) == "1"


def test_construction_cleans_zeros():
    p = SparsePoly({(1,): 2, (2,): 0})
    assert p.terms == {(1,): 2}
    assert SparsePoly.constant(0).is_zero
    assert SparsePoly().is_zero
    assert not x(4).is_zero


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


def test_degree_and_homogeneity():
    cubic = x(1) * x(2) * x(3) + x(4) ** 3
    assert cubic.is_homogeneous()
    assert cubic.is_homogeneous(3)
    assert not cubic.is_homogeneous(2)
    assert not (cubic + x(1)).is_homogeneous()


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
    assert p.evaluate([2.0, 3.0, 4.0]) == pytest.approx(22.0)
    assert p.evaluate({0: 2.0, 1: 3.0, 2: 4.0}) == pytest.approx(22.0)
    assert p.evaluate_exact({0: Fraction(1, 2), 1: Fraction(2, 3), 2: Fraction(1, 5)}) \
        == Fraction(1, 3) + Fraction(1, 25)


def test_evaluate_missing_variable():
    p = x(0) + x(5)
    with pytest.raises(MissingVariableError) as err:
        p.evaluate([1.0, 2.0])
    assert err.value.index == 5
    with pytest.raises(MissingVariableError):
        p.evaluate_exact({0: 1})


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
