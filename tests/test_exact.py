import json
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitangent.exact import CoeffExpr, MzvMonomial, PiRational
from multitangent.lab import MtCombo
from multitangent.words import Composition
from multitangent.words import WordPoly

C = Composition.of


class TestPiRational:
    def test_ring_ops(self):
        a = PiRational({0: Fraction(1, 2), 2: Fraction(3)})
        b = PiRational({2: Fraction(-3), 4: Fraction(1, 5)})
        s = a + b
        assert s == PiRational({0: Fraction(1, 2), 4: Fraction(1, 5)})
        p = PiRational({2: 1}) * PiRational({4: Fraction(1, 2)})
        assert p == PiRational({6: Fraction(1, 2)})
        assert -a + a == PiRational(0)
        assert not PiRational(0)

    def test_rejects_odd_or_negative_exponents(self):
        with pytest.raises(ValueError):
            PiRational({1: 1})
        with pytest.raises(ValueError):
            PiRational({-2: 1})

    def test_numeric_image(self):
        with mp.workdps(30):
            val = PiRational({2: Fraction(1, 6)}).to_mpf()
            assert abs(val - mp.pi**2 / 6) < mp.mpf("1e-28")

    def test_scalar_coercion_and_division(self):
        assert PiRational(3) + 2 == PiRational(5)
        assert PiRational({2: 1}) / 2 == PiRational({2: Fraction(1, 2)})

    def test_homogeneity(self):
        assert PiRational({4: 1}).is_homogeneous(4)
        assert not PiRational({0: 1, 4: 1}).is_homogeneous(4)

    def test_rational_value_hashes_as_its_rational(self):
        for value in (3, 0, Fraction(-2, 7)):
            assert PiRational(value) == value and hash(PiRational(value)) == hash(value)
        assert {3: "x"}.get(PiRational(3)) == "x"
        assert {PiRational({0: 3}): "x"}.get(3) == "x"


class TestCoeffExpr:
    def test_formal_product_keeps_monomials(self):
        e = CoeffExpr.symbol(C(2)) * CoeffExpr.symbol(C(3))
        (mono, coef), = list(e.items())
        assert mono == MzvMonomial([C(2), C(3)])
        assert coef == 1 and type(coef) is Fraction

    def test_zero_pruning(self):
        e = CoeffExpr.symbol(C(2)) - CoeffExpr.symbol(C(2))
        assert not e
        assert len(e) == 0

    def test_weight_homogeneity(self):
        e = CoeffExpr.symbol(C(2, 2)) + CoeffExpr({MzvMonomial([C(2), C(2)]): Fraction(1, 3)})
        assert e.is_weight_homogeneous(4)
        assert not e.is_weight_homogeneous(5)
        assert not (e + CoeffExpr.scalar(2)).is_weight_homogeneous(4)
        assert CoeffExpr.scalar(2).is_weight_homogeneous(0)

    def test_json_wire_format(self):
        e = CoeffExpr({MzvMonomial([C(2, 1), C(3)]): Fraction(1, 3)})
        data = e.to_json()
        # factors ride in canonical order: (3) sorts before (2,1)
        assert data == {
            "terms": [{"pi2": 0, "coef": "1/3", "mzv": [[3], [2, 1]]}]
        }
        assert CoeffExpr.from_json(json.loads(json.dumps(data))) == e

    def test_json_rejects_pi_power(self):
        data = {"terms": [{"pi2": 2, "coef": "1/3", "mzv": [[3], [2, 1]]}]}
        with pytest.raises(ValueError, match=r"'pi2': 2.*'mzv': \[\[3\], \[2, 1\]\]"):
            CoeffExpr.from_json(data)

    def test_json_round_trip_multi(self):
        e = (
            CoeffExpr.symbol(C(4), Fraction(2))
            + CoeffExpr.scalar(Fraction(-1, 2))
            + CoeffExpr.symbol(C(2)) * CoeffExpr.symbol(C(2))
        )
        assert CoeffExpr.from_json(e.to_json()) == e

    def test_monomial_sorting_is_canonical(self):
        m1 = MzvMonomial([C(3), C(2, 1)])
        m2 = MzvMonomial([C(2, 1), C(3)])
        assert m1 == m2 and hash(m1) == hash(m2)


compositions = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple).map(Composition)
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)

# (class, keys, coefficients, key function of the canonical order)
COMBINATIONS = [
    (WordPoly, compositions, st.integers(-3, 3), Composition.sort_key),
    (PiRational, st.sampled_from([0, 2, 4, 6]), fractions, None),
    (CoeffExpr, st.lists(compositions, max_size=2).map(MzvMonomial), fractions, MzvMonomial.sort_key),
    (MtCombo, compositions, fractions, Composition.sort_key),
]


@pytest.mark.parametrize(
    "cls, keys, coefs, order", COMBINATIONS, ids=[c[0].__name__ for c in COMBINATIONS]
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_linear_combination_laws(cls, keys, coefs, order, data):
    """The laws every sparse combination class shares."""
    terms = data.draw(st.lists(st.tuples(keys, coefs), max_size=6))
    combos = st.dictionaries(keys, coefs, max_size=4).map(cls)
    a, b = data.draw(combos), data.draw(combos)
    assert a + b - b == a

    forward, backward = cls(), cls()
    for key, coef in terms:
        forward = forward + cls({key: coef})
    for key, coef in reversed(terms):
        backward = backward + cls({key: coef})
    assert forward == backward and hash(forward) == hash(backward)

    zero = a.scale(0)
    assert not zero and len(zero) == 0 and zero == cls()

    listed = [key for key, _ in a.items()]
    assert listed == sorted(listed, key=order) and len(listed) == len(a)
    assert all(coef for _, coef in a.items())
