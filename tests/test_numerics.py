import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitangent import numerics
from multitangent.errors import PoleProximityError
from multitangent.errors import MultitangentError
from multitangent.errors import PrecisionUnreachableError
from multitangent.mzv import NumericContext, mzv_numeric
from multitangent.numerics import (
    cot_poly,
    flatness_and_bounds_check,
    fourier_coefficient,
    fourier_partial_sum,
    fourier_tail_envelope,
    hurwitz_eval,
    monotangent_eval,
    multitangent_eval_direct,
    multitangent_eval_reduced,
    trifactorization_residual,
)
from multitangent.reduction import reduce
from multitangent.words import Composition, enumerate_compositions
from multitangent.zetasum import certified_product, shifted_nested_sum

C = Composition.of
CTX = NumericContext(target_abs_error=1e-9)


def points(n, seed, lo=0.3, hi=1.2):
    rng = random.Random(seed)
    return [mp.mpc(rng.uniform(0.05, 0.95), rng.uniform(lo, hi)) for _ in range(n)]


class TestMonotangent:
    def test_half_point(self):
        assert abs(monotangent_eval(2, mp.mpf("0.5"), CTX) - mp.pi**2) < 1e-20

    def test_quarter_point(self):
        assert abs(monotangent_eval(1, mp.mpf("0.25"), CTX) - mp.pi) < 1e-20

    def test_finite_difference_oracle_order3(self):
        # two applications of -(d/dz)/k: Te^3 = +(1/2) d^2/dz^2 Te^1,
        # checked by a central second difference
        z = mp.mpc(0, 1)
        h = mp.mpf("1e-4")
        second = (
            monotangent_eval(1, z + h, CTX)
            - 2 * monotangent_eval(1, z, CTX)
            + monotangent_eval(1, z - h, CTX)
        ) / h**2
        assert abs(monotangent_eval(3, z, CTX) - second / 2) < 1e-6

    def test_derivative_recurrence_is_exact(self):
        # polynomial recurrence: applying c' = -pi(1+c^2) to Te^k gives
        # -k Te^(k+1) identically; spot check degree/coefficients
        p3 = cot_poly(3)
        assert p3 == {1: 1, 3: 1}
        p4 = cot_poly(4)
        assert max(p4) == 4

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            monotangent_eval(2, mp.mpf("1e-5"), CTX)


class TestMultitangent:
    def test_null_sequence(self):
        z = mp.mpc("0.3", "0.7")
        assert abs(multitangent_eval_direct(C(2, 1, 2), z, NumericContext(target_abs_error=1e-7))) < 1e-7

    def test_factor_of_monotangent(self):
        z = points(1, 3)[0]
        lhs = multitangent_eval_direct(C(2, 2), z, NumericContext(target_abs_error=1e-7))
        rhs = 2 * mp.zeta(2) * monotangent_eval(2, z, CTX)
        assert abs(lhs - rhs) < 1e-7

    def test_length_one_agrees_with_monotangent(self):
        assert abs(
            multitangent_eval_direct(C(2), mp.mpf("0.5"), CTX) - mp.pi**2
        ) < 1e-9

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            multitangent_eval_direct(C(1, 2), mp.mpc(0, 1), CTX)

    def test_reduced_constant_family(self):
        # Te[1,1] is the constant -pi^2/2
        for z in points(2, 5):
            v = multitangent_eval_reduced(C(1, 1), z, CTX)
            assert abs(v + mp.pi**2 / 2) < 1e-9

    def test_reduced_divergent_null(self):
        for z in points(2, 6):
            assert abs(multitangent_eval_reduced(C(1, 2), z, CTX)) < 1e-12

    def test_cross_oracle_direct_vs_reduced(self):
        ctx = NumericContext(target_abs_error=1e-8)
        seqs = [
            s
            for w in range(2, 8)
            for s in enumerate_compositions(w, "convergent")
        ]
        rng = random.Random(99)
        for s in seqs:
            for z in points(3, rng.randrange(10**6)):
                d = multitangent_eval_direct(s, z, ctx)
                r = multitangent_eval_reduced(s, z, ctx)
                assert abs(d - r) < 2e-8, (s, z)

    def test_periodicity(self):
        z = points(1, 8)[0]
        a = multitangent_eval_direct(C(3, 2), z, CTX)
        b = multitangent_eval_direct(C(3, 2), z + 1, CTX)
        assert abs(a - b) < 1e-9


class TestHurwitz:
    def test_value_at_zero_is_zeta(self):
        assert abs(hurwitz_eval("+", C(2), 0, CTX) - mp.zeta(2)) < 1e-9

    def test_reflection_parity(self):
        z = points(1, 9)[0]
        lhs = hurwitz_eval("-", C(3, 2), z, CTX)
        rhs = (-1) ** 5 * hurwitz_eval("+", C(2, 3), -z, CTX)
        assert abs(lhs - rhs) < 1e-9

    def test_subtracted_series_telescopes(self):
        assert abs(hurwitz_eval("+", C(1), mp.mpf(1), CTX) + 1) < 1e-15

    def test_divergent_side_rejected(self):
        with pytest.raises(ValueError):
            hurwitz_eval("+", C(1, 2), 0.5, CTX)
        with pytest.raises(ValueError):
            hurwitz_eval("-", C(2, 1), 0.5, CTX)


class TestTrifactorization:
    @pytest.mark.parametrize("parts", [(2,), (3,), (2, 2), (3, 2), (2, 3)])
    def test_residuals(self, parts):
        for z in points(3, sum(parts)):
            assert trifactorization_residual(Composition(parts), z, CTX) < 1e-7


class TestFourier:
    def test_first_coefficient_of_te2(self):
        got = fourier_coefficient(C(2), 1, CTX)
        assert abs(got - 4 * mp.pi**2) < 1e-8

    def test_q_coefficient_oracle(self):
        # extract the q^1 coefficient of pi^2/sin^2 at large Im z:
        # Te^2(z) = -4 pi^2 q (1 + O(q)) so Te^2/q -> -4 pi^2
        z = mp.mpc("0.3", 4)
        q = mp.exp(2j * mp.pi * z)
        ratio = monotangent_eval(2, z, CTX) / q
        assert abs(ratio + fourier_coefficient(C(2), 1, CTX)) < 1e-8

    def test_null_sequence_coefficients(self):
        for n in (1, 2, 3):
            assert abs(fourier_coefficient(C(2, 1, 2), n, CTX)) < 1e-8

    def test_least_squares_sampling_oracle(self):
        # fit Te[2,2] against q^1..q^4 on the Im z = 1.5 line and compare the
        # n = 2 coefficient
        s = C(2, 2)
        xs = [mp.mpf(x) / 7 for x in range(7)]
        rows, rhs = [], []
        for x in xs:
            z = mp.mpc(x, "1.5")
            q = mp.exp(2j * mp.pi * z)
            rows.append([q**n for n in range(1, 5)])
            rhs.append(-multitangent_eval_direct(s, z, NumericContext(target_abs_error=1e-14)))
        fitted = mp.lu_solve(mp.matrix(rows[:4]), mp.matrix(rhs[:4]))
        assert abs(fitted[1] - fourier_coefficient(s, 2, CTX)) < 1e-5

    def test_partial_sums_converge_at_predicted_rate(self):
        s = C(3, 2)
        z = mp.mpc("0.21", "1.5")
        direct = multitangent_eval_direct(s, z, NumericContext(target_abs_error=1e-14))
        for n_terms in (1, 2, 3):
            partial = fourier_partial_sum(s, z, n_terms, CTX)
            envelope = fourier_tail_envelope(s, n_terms, 1.5, CTX) * mp.exp(
                -2 * mp.pi * (n_terms + 1) * mp.mpf("1.5")
            )
            assert abs(direct - partial) <= envelope

    def test_partial_sum_evaluates_each_zeta_once(self, monkeypatch):
        s, z, n_terms = C(3, 2, 3), mp.mpc("0.2", "0.8"), 4
        calls = []

        def counted(expr, ctx):
            calls.append(expr)
            return mzv_numeric(expr, ctx)

        monkeypatch.setattr(numerics, "mzv_numeric", counted)
        partial = fourier_partial_sum(s, z, n_terms, CTX)
        assert len(calls) == 5
        with CTX.workprec():
            q = mp.exp(2j * mp.pi * z)
            expected = mp.mpc(0)
            for n in range(1, n_terms + 1):
                expected -= fourier_coefficient(s, n, CTX) * q**n
        assert partial == expected

    def test_tail_envelope_failure_is_a_multitangent_error(self):
        # at y = 1e-6 the dominating series does not settle within its cap
        with pytest.raises(MultitangentError):
            fourier_tail_envelope(C(3, 2), 2, 1e-6)


def test_cached_nested_sum_respects_cap():
    """A cached sum whose cutoff exceeds the caller's cap must not serve it."""
    shifted_nested_sum((3,), 0, target=1e-10)
    with pytest.raises(PrecisionUnreachableError):
        shifted_nested_sum((3,), 0, target=1e-10, cap=20)


class TestBounds:
    def test_flatness_and_bounds_clean(self):
        samples = [mp.mpc("0.37", 1 + mp.mpf(i) / 4) for i in range(9)]
        for parts in [(2, 2), (3, 2), (2,)]:
            report = flatness_and_bounds_check(Composition(parts), samples, CTX)
            assert report.ok, report.violations

    def test_specific_bound_value(self):
        # |Te[2,2](3i)| <= 4*2/3^(4-2-1) = 8/3
        v = abs(multitangent_eval_direct(C(2, 2), mp.mpc(0, 3), CTX))
        assert v <= mp.mpf(8) / 3

    def test_parity_property(self):
        for parts in [(2, 3), (2, 1, 3)]:
            s = Composition(parts)
            z = points(1, 31)[0]
            lhs = multitangent_eval_direct(s, -z, CTX)
            rhs = (-1) ** s.weight * multitangent_eval_direct(s.reverse(), z, CTX)
            assert abs(lhs - rhs) < 1e-9

    def test_differentiation_property(self):
        s = C(2, 2)
        z = points(1, 37)[0]
        h = mp.mpf("1e-5")
        fd = (
            multitangent_eval_direct(s, z + h, CTX)
            - multitangent_eval_direct(s, z - h, CTX)
        ) / (2 * h)
        sym = -2 * multitangent_eval_direct(C(3, 2), z, CTX) - 2 * multitangent_eval_direct(C(2, 3), z, CTX)
        assert abs(fd - sym) < 1e-5


# a factor: value (re, im) and bound in units of 2^-10, both up to 4, and a
# perturbation direction (x, y) in units of 2^-10 inside the unit disc, often
# on its rim where the bound is tight
_DIRECTIONS = st.one_of(
    st.sampled_from([(2**10, 0), (0, 2**10), (-(2**10), 0), (0, -(2**10))]),
    st.tuples(st.integers(-(2**10), 2**10), st.integers(-(2**10), 2**10)).filter(
        lambda d: d[0] ** 2 + d[1] ** 2 <= 2**20
    ),
)
_FACTORS = st.lists(
    st.tuples(
        st.integers(-(2**12), 2**12),
        st.integers(-(2**12), 2**12),
        st.integers(0, 2**12),
        _DIRECTIONS,
    ),
    min_size=1,
    max_size=4,
)


@given(_FACTORS)
@settings(max_examples=200, deadline=None)
def test_certified_product_covers_every_perturbation(factors):
    """Moving each factor by at most its bound keeps the product within the
    returned bound of the returned value."""
    with mp.workprec(300):
        parts = [(mp.mpc(re, im) / 2**10, mp.mpf(e) / 2**10) for re, im, e, _ in factors]
        value, bound = certified_product(parts)
        perturbed = mp.mpf(1)
        for (v, e), (_, _, _, (x, y)) in zip(parts, factors):
            perturbed *= v + e * mp.mpc(x, y) / 2**10
        # the products are exact at 300 bits; only abs() inside the bound
        # rounds, by a relative 2^-300 per factor
        assert abs(perturbed - value) <= bound * (1 + mp.mpf(2) ** -290)
