import math
from fractions import Fraction

import mpmath as mp
import pytest

from multitangent.errors import NumericRecheckError
from multitangent import reduction
from multitangent.exact import CoeffExpr, MzvMonomial, PiRational
from multitangent.mzv import NumericContext, mzv_numeric, symmetrel_extend
from multitangent.reduction import (
    ReductionResult,
    _fragment,
    assert_clean,
    delta,
    reduce,
    z_coeff,
)
from multitangent.words import Composition, enumerate_compositions, repeat, stuffle

C = Composition.of
CTX = NumericContext(target_abs_error=1e-10)


def sym(*parts):
    return CoeffExpr.symbol(C(*parts))


def shift_vectors(total, slots):
    """All tuples of ``slots`` nonnegative integers summing to ``total``."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in shift_vectors(total - first, slots - 1):
            yield (first,) + rest


def z_by_shift_vectors(i, k, s):
    """Z(i, k; s) summed term by term over the shift vectors k_1..k_r
    (k_i = 0, sum k), each term

        (-1)^(sum_{l<i} k_l) (-1)^(sum_{l>i} s_l) prod_{l != i} C(s_l+k_l-1, s_l-1)
        * Ze[s_r+k_r, ..., s_{i+1}+k_{i+1}] * Ze[s_1+k_1, ..., s_{i-1}+k_{i-1}],

    symbols with a leading one through their symmetrel extension."""
    r, parts = s.length, s.parts
    out = CoeffExpr.zero()
    for partial in shift_vectors(k, r - 1):
        k_vec = partial[: i - 1] + (0,) + partial[i - 1 :]
        sign = (-1) ** sum(k_vec[: i - 1]) * (-1) ** sum(parts[i:])
        binom = math.prod(
            math.comb(parts[l] + k_vec[l] - 1, parts[l] - 1) for l in range(r) if l != i - 1
        )
        right = C(*(parts[l] + k_vec[l] for l in range(r - 1, i - 1, -1)))
        left = C(*(parts[l] + k_vec[l] for l in range(i - 1)))
        term = symmetrel_extend(right) * symmetrel_extend(left)
        out = out + term.scale(sign * binom)
    return out


class TestFragment:
    """_fragment(t, a) is the X^a coefficient of the fragment series
    Ze[t](X) = sum prod_l (n_l - X)^(-t_l)."""

    @pytest.mark.parametrize("p, a", [(2, 1), (3, 2), (1, 0), (1, 3)])
    def test_length_one_is_a_binomial_times_one_symbol(self, p, a):
        expected = symmetrel_extend(C(p + a)).scale(math.comb(p + a - 1, p - 1))
        assert _fragment((p,), a) == expected

    def test_length_one_is_one(self):
        assert _fragment((7,), 0) == sym(7)

    def test_simple_pair(self):
        assert _fragment((2, 2), 0) == sym(2, 2)

    def test_empty_fragment_is_the_unit_series(self):
        assert _fragment((), 0) == CoeffExpr.scalar(1)
        assert not _fragment((), 1)
        assert not _fragment((), 3)

    def test_enumeration_order(self):
        # shift vectors (0,2), (1,1), (2,0) with binomials C(3,1), C(2,1)^2, C(3,1)
        expected = sym(2, 4).scale(3) + sym(3, 3).scale(4) + sym(4, 2).scale(3)
        assert _fragment((2, 2), 2) == expected

    def test_leading_one_goes_through_symmetrel_extension(self):
        # shifts (1,0) and (0,1): Ze[2,2] + C(2,1) Ze[1,3]
        expected = sym(2, 2) + symmetrel_extend(C(1, 3)).scale(2)
        assert _fragment((1, 2), 1) == expected

    def test_mixed_signs(self):
        # Z(2,1;(2,2,3)): shift (1,0,0) has sign (-1)^1 (-1)^3 and weight
        # C(2,1); shift (0,0,1) has sign (-1)^3 and weight C(3,1)
        expected = (sym(3) * sym(3)).scale(2) - (sym(4) * sym(2)).scale(3)
        assert z_coeff(2, 1, C(2, 2, 3)) == expected


class TestZCoeff:
    def test_right_fragment_empty(self):
        assert z_coeff(2, 0, C(2, 2)) == sym(2)

    def test_single_pivot_trivial(self):
        assert z_coeff(1, 0, C(9)) == CoeffExpr.scalar(1)

    def test_left_fragment_empty(self):
        assert z_coeff(1, 0, C(2, 2)) == sym(2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            z_coeff(1, 2, C(2, 2))
        with pytest.raises(ValueError):
            z_coeff(3, 0, C(2, 2))


class TestDelta:
    def test_pair_of_ones(self):
        assert delta(C(1, 1)) == PiRational({2: Fraction(-1, 2)})

    def test_odd_run_is_zero(self):
        assert not delta(C(1, 1, 1))

    def test_non_ones_is_zero(self):
        assert not delta(C(2, 1))

    def test_four_ones(self):
        assert delta(repeat(1, 4)) == PiRational({4: Fraction(1, 24)})


class TestReduce:
    def test_two_two_exact(self):
        red = reduce(C(2, 2))
        assert not red.constant
        assert red.coeffs == {2: sym(2).scale(2)}

    def test_two_one_two_vanishes_numerically(self):
        red = reduce(C(2, 1, 2))
        for k, expr in red.coeffs.items():
            assert abs(mzv_numeric(expr, NumericContext(target_abs_error=1e-9))) <= 1e-9

    def test_divergent_pairs_vanish_exactly(self):
        assert reduce(C(1, 2)).is_zero()
        assert reduce(C(2, 1)).is_zero()

    def test_all_ones_pair(self):
        red = reduce(C(1, 1))
        assert red.constant == PiRational({2: Fraction(-1, 2)})
        assert not red.coeffs

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reduce(Composition())

    def test_te1_coefficient_of_212_matches_hand_expansion(self):
        # the order-1 coefficient is (Ze2)^2 - 2 Ze[2,2] - 4 Ze[3,1]
        expected = sym(2) * sym(2) - sym(2, 2).scale(2) - sym(3, 1).scale(4)
        assert reduce(C(2, 1, 2)).coefficient(1) == expected

    def test_weight_homogeneity_to_weight_ten(self):
        for w in range(1, 11):
            for s in enumerate_compositions(w, "all"):
                assert reduce(s).is_weight_homogeneous(), s

    def test_symmetric_odd_weight_12_sequences_vanish(self):
        # symmetric {1,2}-sequences of odd weight and length > 1 reduce to 0
        ctx = NumericContext(target_abs_error=1e-9)
        checked = 0
        for w in range(3, 10, 2):
            for s in enumerate_compositions(w, "convergent"):
                if (
                    s.length > 1
                    and s.reverse() == s
                    and all(p in (1, 2) for p in s.parts)
                ):
                    for k, expr in reduce(s).coeffs.items():
                        assert abs(mzv_numeric(expr, ctx)) <= 1e-8, (s, k)
                    checked += 1
        assert checked >= 3  # (2,1,2), (2,1,1,1,2), (2,1,2,1,2), ...

    def test_eisenstein_square_relation(self):
        # Te^2 Te^2 = 2 Te[2,2] + Te[4]; substituting reduce((2,2)) makes it
        # (Te^2)^2 = 4 Ze[2] Te^2 + Te^4 with exact coefficients
        expansion = stuffle(C(2), C(2))
        assert expansion[C(2, 2)] == 2 and expansion[C(4)] == 1
        red = reduce(C(2, 2))
        assert red.coeffs[2].scale(2) == sym(2).scale(4)

    def test_weight6_family_relation_numeric(self):
        # 3 reduce((2,2,2)) + 2 reduce((3,3)) has all-zero coefficients
        ctx = NumericContext(target_abs_error=1e-10)
        ra, rb = reduce(repeat(2, 3)), reduce(repeat(3, 2))
        for k in set(ra.coeffs) | set(rb.coeffs):
            total = ra.coefficient(k).scale(3) + rb.coefficient(k).scale(2)
            if total:
                assert abs(mzv_numeric(total, ctx)) <= 1e-9

    def test_monotangent_order_range(self):
        ctx = NumericContext(target_abs_error=1e-9)
        for s in [C(2, 2), C(3, 1, 2), C(2, 1, 1, 2), C(4, 3)]:
            red = reduce(s)
            assert max(red.coeffs) <= max(s.parts)
            low = [k for k in red.coeffs if k < 2]
            for k in low:
                assert abs(mzv_numeric(red.coeffs[k], ctx)) <= 1e-8


def test_reduce_matches_the_shift_vector_formula_to_weight_eight():
    for w in range(1, 9):
        for s in enumerate_compositions(w, "all"):
            coeffs = {}
            for i, s_i in enumerate(s.parts, 1):
                for k in range(1, s_i + 1):
                    coeffs[k] = coeffs.get(k, CoeffExpr.zero()) + z_by_shift_vectors(i, s_i - k, s)
            coeffs = {k: e for k, e in coeffs.items() if e}
            expected = ReductionResult(s, delta(s), coeffs)
            assert reduce(s).to_json() == expected.to_json(), s


def test_each_monomial_product_is_built_once(monkeypatch):
    """Reducing every composition of weight 8 multiplies each distinct pair
    of fragment monomials once; every other product is looked up."""
    built, mul = [], MzvMonomial.__mul__
    monkeypatch.setattr(MzvMonomial, "__mul__", lambda a, b: built.append((a, b)) or mul(a, b))
    reduction._product.cache_clear()
    for s in enumerate_compositions(8):
        reduce(s)
    info = reduction._product.cache_info()
    assert len(built) == len(set(built)) == info.misses == info.currsize
    assert info.hits > 10 * info.misses


class TestTe1Residual:
    """The Te^1 identity, checked through assert_clean's certified test."""

    @pytest.mark.parametrize("parts", [(2, 1, 2), (3, 2, 2), (2, 1, 3)])
    def test_small(self, parts):
        red = reduce(Composition(parts))
        assert red.coefficient(1)
        cleaned = assert_clean(red, CTX)
        assert cleaned.coeffs == {k: e for k, e in red.coeffs.items() if k != 1}
        assert cleaned.is_zero() == (parts == (2, 1, 2))

    def test_symbolically_zero_for_22(self):
        red = reduce(C(2, 2))
        assert not red.coefficient(1)
        assert assert_clean(red).coeffs == red.coeffs

    def test_requires_convergent(self):
        with pytest.raises(ValueError):
            assert_clean(reduce(C(1, 2)))


class TestAssertClean:
    def test_drops_verified_zero(self):
        cleaned = assert_clean(reduce(C(2, 1, 2)), CTX)
        assert cleaned.is_zero()

    def test_te1_check_compares_certificates(self, user_precision):
        # 5e-10 Ze[2] is below the target per term but outside the certificate
        red = reduce(C(2, 2, 1, 3))
        assert_clean(red)
        red.coeffs[1] = red.coeffs[1] + CoeffExpr.symbol(C(2), Fraction(5, 10**10))
        with pytest.raises(NumericRecheckError, match="Te\\^1 coefficient of 2,2,1,3"):
            assert_clean(red)

    def test_detects_corruption(self):
        red = reduce(C(2, 2))
        red.coeffs[1] = sym(3)  # nonzero junk in the order-1 slot
        with pytest.raises(NumericRecheckError):
            assert_clean(red, CTX)


class TestSerialization:
    def test_json_shape(self):
        data = reduce(C(2, 2)).to_json()
        assert data["sequence"] == [2, 2]
        assert data["constant"] == []
        assert "2" in data["coeffs"]

    def test_text_examples(self):
        assert reduce(C(2, 2)).text() == "Te[2,2] = 2·Ze[2]·Te^2"
        assert reduce(C(2, 1)).text() == "Te[2,1] = 0"
        assert reduce(C(2)).text() == "Te[2] = Te^2"
