import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from multitangent import families
from multitangent.errors import PrecisionUnreachableError
from multitangent.exact import CoeffExpr, PiRational
from multitangent.families import (
    te_nk_closed_form,
    te_nk_exact,
    te_ones_closed_form,
    zagier_ze2n,
)
from multitangent.mzv import NumericContext, even_zeta, mzv_numeric
from multitangent.numerics import monotangent_eval, multitangent_eval_direct
from multitangent.reduction import reduce
from multitangent.words import Composition, repeat

C = Composition.of
CTX = NumericContext(target_abs_error=1e-9)


def points(n, seed):
    rng = random.Random(seed)
    return [mp.mpc(rng.uniform(0.1, 0.9), rng.uniform(0.3, 0.9)) for _ in range(n)]


class TestOnesClosedForm:
    def test_examples(self):
        assert te_ones_closed_form(2) == (PiRational({2: Fraction(-1, 2)}), PiRational(0))
        assert te_ones_closed_form(0) == (PiRational(1), PiRational(0))
        assert te_ones_closed_form(3) == (PiRational(0), PiRational({2: Fraction(-1, 6)}))

    @pytest.mark.parametrize("r", range(1, 7))
    def test_matches_reduction(self, r):
        constant, te1 = te_ones_closed_form(r)
        red = reduce(repeat(1, r))
        assert red.constant == constant
        got = red.coefficient(1)
        if not te1:
            if got:
                assert abs(mzv_numeric(got, CTX)) < 1e-9
        else:
            # the Te^1 coefficient is a zeta expression, its closed form a
            # power of pi: compare values
            with CTX.workprec():
                assert abs(mzv_numeric(got, CTX) - te1.to_mpf()) < 1e-9
        for k in red.coeffs:
            if k >= 2:
                assert abs(mzv_numeric(red.coeffs[k], CTX)) < 1e-9


class TestRepeatedClosedForm:
    def test_pair_formula_coefficient(self):
        # Te[2,2] = (2^3 pi^2 / 4!) Te^2 = (pi^2/3) Te^2, exactly
        red = reduce(C(2, 2))
        coeff = red.coeffs[2]  # 2 Ze[2]
        from multitangent.mzv import even_zeta

        exact = even_zeta(1) * 2
        assert exact == PiRational({2: Fraction(1, 3)})
        z = points(1, 1)[0]
        lhs = te_nk_closed_form(2, 2, z, CTX)
        rhs = mp.pi**2 / 3 * monotangent_eval(2, z, CTX)
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize(
        "n,k",
        [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (8, 1)],
    )
    def test_matches_direct_evaluation(self, n, k):
        ctx = NumericContext(target_abs_error=1e-8)
        for z in points(3, 100 * n + k):
            closed = te_nk_closed_form(n, k, z, ctx)
            direct = multitangent_eval_direct(repeat(n, k), z, ctx)
            assert abs(closed - direct) < 1e-6, (n, k, z)

    def test_ones_family_constant(self):
        z = points(1, 4)[0]
        assert abs(te_nk_closed_form(1, 2, z, CTX) + mp.pi**2 / 2) < 1e-12

    def test_k_zero_is_unit(self):
        assert te_nk_closed_form(3, 0, points(1, 5)[0], CTX) == mp.mpc(1)

    @pytest.mark.parametrize("z", [mp.mpf("0.3"), mp.mpf("-1.7")], ids=["0.3", "-1.7"])
    def test_real_axis_certificate(self, z):
        """On the real axis, against the direct evaluation: the two targets
        added together bound the difference."""
        allowance = 2 * CTX.target_abs_error
        for n, k in [(2, 2), (3, 2), (2, 3)]:
            closed = te_nk_closed_form(n, k, z, CTX)
            direct = multitangent_eval_direct(repeat(n, k), z, CTX)
            assert abs(closed - direct) <= allowance, (n, k, z)

    def test_32_bits_raise_precision_unreachable(self):
        # at 32 bits the rounding alone is far above the default target
        with pytest.raises(PrecisionUnreachableError):
            te_nk_closed_form(3, 3, mp.mpf("0.3"), NumericContext(working_precision=32))

    def test_certified_at_200_bits(self, user_precision):
        # a value within the target, kept at 200 bits past the 53-bit ambient
        # precision: against other certified evaluators, the two targets
        # added together bound the difference
        ctx = NumericContext(target_abs_error=1e-30, working_precision=200)
        allowance = 2 * ctx.target_abs_error
        for z in points(2, 21):
            for n in range(1, 9):
                closed = te_nk_closed_form(n, 1, z, ctx)
                assert abs(closed - monotangent_eval(n, z, ctx)) <= allowance, (n, z)
            for n, k in [(2, 2), (2, 3), (3, 2), (4, 2)]:
                closed = te_nk_closed_form(n, k, z, ctx)
                direct = multitangent_eval_direct(repeat(n, k), z, ctx)
                assert abs(closed - direct) <= allowance, (n, k, z)


class TestFamilyRelation:
    def test_weight6_relation_both_paths(self):
        for z in points(3, 11):
            a = multitangent_eval_direct(repeat(2, 3), z, CTX)
            b = multitangent_eval_direct(repeat(3, 2), z, CTX)
            assert abs(3 * a + 2 * b) < 1e-7

    def test_recorded_signs_for_first_two_instances(self):
        # k = 1: 3 Te[2^3] + 2 Te[3^2] = 0;  k = 2: 3 Te[2^6] - 2 Te[3^4] = 0.
        # The alternation is (-1)^(k+1), not (-1)^k.
        z = points(1, 12)[0]
        signs = {}
        for k in (1, 2):
            a = te_nk_closed_form(2, 3 * k, z, CTX)
            b = te_nk_closed_form(3, 2 * k, z, CTX)
            plus = abs(3 * a + 2 * b)
            minus = abs(3 * a - 2 * b)
            signs[k] = 1 if plus < minus else -1
            assert min(plus, minus) < 1e-9 and max(plus, minus) > 1e-3
        assert signs == {1: 1, 2: -1}

    def test_first_two_instances_hold_exactly(self):
        # 3 q(2,3) + 2 q(3,2) = 0 and 3 q(2,6) - 2 q(3,4) = 0 on the exact
        # coefficients; the second is at weight 12, past the zeta table
        def scaled(n, k, a):
            return {m: a * q for m, q in te_nk_exact(n, k).items()}

        assert scaled(2, 3, 3) == scaled(3, 2, -2)
        assert scaled(2, 6, 3) == scaled(3, 4, 2)


class TestZagier:
    def test_closed_values(self):
        assert zagier_ze2n(1) == PiRational({2: Fraction(1, 6)})
        assert zagier_ze2n(2) == PiRational({4: Fraction(1, 120)})
        assert zagier_ze2n(3) == PiRational({6: Fraction(1, 5040)})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_nested_sums(self, n):
        exact = zagier_ze2n(n)
        numeric = mzv_numeric(CoeffExpr.symbol(repeat(2, n)), CTX)
        with CTX.workprec():
            assert abs(numeric - exact.to_mpf()) < 1e-9


def sin_product_series_check(order: int) -> bool:
    """Exact coefficientwise check, through X^(2*order), of

        exp(- sum_{n>=1} Ze[2n]/n X^(2n)) = sum_n (-1)^n (pi X)^(2n)/(2n+1)!,

    whose left side prod_m (1 - X^2/m^2) has (-1)^m Ze[2^m] at X^(2m)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return all(
        zagier_ze2n(m) == PiRational({2 * m: Fraction(1, math.factorial(2 * m + 1))})
        for m in range(1, order + 1)
    )


class TestSinProduct:
    @pytest.mark.parametrize("order", [0, 1, 3, 5])
    def test_holds(self, order):
        assert sin_product_series_check(order)

    def test_detects_a_relative_error_of_1e_12(self, monkeypatch):
        # a relative comparison at 1e-9 would let this through
        def off(n):
            value = even_zeta(n)
            return value * (1 + Fraction(1, 10**12)) if n == 2 else value

        monkeypatch.setattr(families, "even_zeta", off)
        assert not sin_product_series_check(5)
