import functools
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from mpmath.libmp import fone, from_float, from_int, from_man_exp, fzero, mpc_abs
from mpmath.libmp import mpf_add, mpf_mul, mpf_mul_int, mpf_shift, mpf_sub
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multitangent import lab, numerics, verify
from multitangent.families import te_nk_closed_form
from multitangent.errors import PoleProximityError
from multitangent.errors import MultitangentError
from multitangent.errors import PrecisionUnreachableError
from multitangent.mzv import DEFAULT_CONTEXT, NumericContext, mzv_numeric
from multitangent.numerics import (
    cot_poly,
    flatness_and_bounds_check,
    fourier_coefficient,
    hurwitz_eval,
    monotangent_eval,
    multitangent_eval_direct,
    multitangent_eval_reduced,
    trifactorization_residual,
)
from multitangent.exact import CoeffExpr
from multitangent.reduction import _order_terms, delta, reduce
from multitangent.verify import run_suite, sample_points
from multitangent.words import Composition, enumerate_compositions
from multitangent import zetasum
from multitangent.zetasum import (
    CertifiedCache,
    _FixedSum,
    certified_sum,
    shifted_nested_sum,
    shifted_nested_sum_fixed,
)

from fourier_sums import fourier_partial_sum, fourier_tail_envelope

C = Composition.of
CTX = NumericContext(target_abs_error=1e-9)


def _fresh(monkeypatch, module, *names, size=None):
    """Swap each named cache of ``module`` for an empty one of its size, or
    of ``size``."""
    for name in names:
        monkeypatch.setattr(module, name, CertifiedCache(size or getattr(module, name).maxsize))


def _fresh_nested_sums():
    """A context in which ``zetasum._cache`` is an empty cache of its size."""
    return mock.patch.object(zetasum, "_cache", CertifiedCache(zetasum._cache.maxsize))


IM = (0.3, 1.2)  # the Im z range of the sample points


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

    def test_precision_unreachable_near_a_pole(self):
        """Te^10 at 0.0011(1 + i) is about 1.2e28: at 53 bits its rounding
        alone is near 1e12, so the 1e-10 target is refused, not missed."""
        ctx = NumericContext(working_precision=53)
        with pytest.raises(PrecisionUnreachableError):
            monotangent_eval(10, mp.mpc(0.0011, 0.0011), ctx)

    @pytest.mark.parametrize("guard", [1e-3, Fraction(1, 1000), mp.mpf("1e-3")])
    def test_pole_guard_edge(self, guard):
        """The distance to the nearest integer against the guard, exactly,
        for a float, rational or mpf guard; the point comes back shifted by
        that integer, ties toward 0."""
        with pytest.raises(PoleProximityError):
            numerics._checked(1 + 0.000999j, guard)
        point = zetasum._point(mp.mpc(1 + 0.001001j))
        assert numerics._checked(1 + 0.001001j, guard) == point.shift(-1)
        assert numerics._checked(-2.5, 0.5) == zetasum._point(-0.5)

    @pytest.mark.parametrize("guard", [5 / 4096, Fraction(5, 4096), mp.mpf(5) / 4096],
                             ids=["float", "fraction", "mpf"])
    def test_pole_guard_is_compared_exactly(self, guard):
        """1 + (3 + 4i)/4096 lies exactly 5/4096 from 1: at the guard it
        passes, 2^-40 inside it is refused and 2^-40 outside it passes, for a
        float, rational or mpf guard of that value."""
        at, inside, outside = (complex(1 + 3 / 4096 + d, 4 / 4096) for d in (0, -(2**-40), 2**-40))
        assert numerics._checked(at, guard) == zetasum._point(at).shift(-1)
        with pytest.raises(PoleProximityError):
            numerics._checked(inside, guard)
        assert numerics._checked(outside, guard) == zetasum._point(outside).shift(-1)

    def test_pole_guard_finer_or_coarser_than_the_point(self):
        """An mpf guard with more fraction bits than the point (5/4096 +
        2^-80 refuses the point at 5/4096) and one with a positive exponent
        (2 against 2i, 1.999i and 2.001i)."""
        fine = mp.mpf(5) / 4096 + mp.mpf(2) ** -80
        with mp.workprec(200), pytest.raises(PoleProximityError):
            numerics._checked(complex(1 + 3 / 4096, 4 / 4096), fine)
        with pytest.raises(PoleProximityError):
            numerics._checked(1.999j, mp.mpf(2))
        for z in (2j, 2.001j):
            assert numerics._checked(z, mp.mpf(2)) == zetasum._point(z)


class TestMultitangent:
    def test_null_sequence(self):
        z = mp.mpc("0.3", "0.7")
        assert abs(multitangent_eval_direct(C(2, 1, 2), z, NumericContext(target_abs_error=1e-7))) < 1e-7

    def test_factor_of_monotangent(self):
        z = sample_points(1, 3, IM)[0]
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
        for z in sample_points(2, 5, IM):
            v = multitangent_eval_reduced(C(1, 1), z, CTX)
            assert abs(v + mp.pi**2 / 2) < 1e-9

    def test_reduced_divergent_null(self):
        for z in sample_points(2, 6, IM):
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
            for z in sample_points(3, rng.randrange(10**6), IM):
                d = multitangent_eval_direct(s, z, ctx)
                r = multitangent_eval_reduced(s, z, ctx)
                assert abs(d - r) < 2e-8, (s, z)

    def test_periodicity(self):
        z = sample_points(1, 8, IM)[0]
        a = multitangent_eval_direct(C(3, 2), z, CTX)
        b = multitangent_eval_direct(C(3, 2), z + 1, CTX)
        assert abs(a - b) < 1e-9


def _expanded_reduced(s, z, ctx):
    """The reduced evaluation through expanded coefficients, as an oracle:
    delta(s) + sum_k mzv_numeric(reduce(s).coeffs[k]) Te^k, each coefficient
    to target / (2 * orders * (|Te^k| + 1))."""
    red = reduce(s)
    n = max(1, len(red.coeffs))
    with ctx.workprec():
        total = mp.mpc(delta(s).to_mpf())
        for k, expr in red.coeffs.items():
            mono = monotangent_eval(k, z, ctx)
            budget = float(ctx.target_abs_error / (2 * n * (abs(mono) + 1)))
            total += mzv_numeric(expr, replace(ctx, target_abs_error=budget)) * mono
        return total


class TestReducedFromFragments:
    def test_agrees_with_expanded_coefficients(self, monkeypatch):
        """Every composition of weight 1..7, divergent ones included, at the
        recheck points and near the real axis.  Its tight nested sums stay
        out of the shared cache, which later tests read."""
        _fresh(monkeypatch, numerics, "_fragments")
        _fresh(monkeypatch, zetasum, "_cache")
        with mp.workprec(53):
            for z in [*sample_points(2), mp.mpc(0.5, 1e-3)]:
                for w in range(1, 8):
                    for s in enumerate_compositions(w):
                        new = multitangent_eval_reduced(s, z, CTX)
                        old = _expanded_reduced(s, z, CTX)
                        assert abs(new - old) <= 2 * CTX.target_abs_error, (s, z)

    def test_second_point_makes_no_nested_sum_pass(self, monkeypatch):
        """Fragment values do not depend on the point.  Every monotangent is
        smaller at the second point, so no coefficient budget is tighter."""
        _fresh(monkeypatch, numerics, "_fragments", "_orders")
        _fresh(monkeypatch, zetasum, "_cache")
        passes = []
        fixed = zetasum.shifted_nested_sum_fixed

        def counted(*args):
            passes.append(args)
            return fixed(*args)

        monkeypatch.setattr(zetasum, "shifted_nested_sum_fixed", counted)
        s = C(3, 1, 2, 1)
        multitangent_eval_reduced(s, mp.mpc("0.1", "0.6"), CTX)
        assert passes
        del passes[:]
        multitangent_eval_reduced(s, mp.mpc("0.1", "1.3"), CTX)
        assert passes == []

    def test_one_cotangent_per_point(self, monkeypatch):
        """The point is checked and cot(pi z) computed once, whatever the
        number of orders, and not again at the same point and precision;
        each Te^k is the value monotangent_eval returns."""
        _fresh(monkeypatch, numerics, "_points")
        s, z = C(3, 1, 2, 1), mp.mpc("0.1", "0.6")
        assert len(_order_terms(s)) > 1
        with mock.patch.object(mp, "cot", wraps=mp.cot) as cot, mock.patch.object(
            numerics, "_checked", wraps=numerics._checked
        ) as check:
            multitangent_eval_reduced(s, z, CTX)
            assert cot.call_count == check.call_count == 1
            multitangent_eval_reduced(s, z, CTX)
            assert cot.call_count == 1
            multitangent_eval_reduced(s, z, replace(CTX, working_precision=160))
            assert cot.call_count == 2
        with CTX.workprec():
            at_z = numerics._cot(numerics._checked(z, CTX.pole_guard))
            for k in _order_terms(s):
                assert numerics._monotangent(k, at_z)[0] == monotangent_eval(k, z, CTX)

    def test_tighter_target_replaces_the_entry(self, monkeypatch):
        _fresh(monkeypatch, numerics, "_fragments")
        _fresh(monkeypatch, zetasum, "_cache")
        cap = CTX.truncation_cap
        with CTX.workprec():
            key = ((2, 1), 2, mp.mp.prec, cap)
            _, loose = numerics._fragment_value((2, 1), 2, 1e-8, cap)
            assert len(numerics._fragments) == 1
            assert numerics._fragment_value((2, 1), 2, 1e-8, cap)[1] == loose
            _, tight = numerics._fragment_value((2, 1), 2, float(loose) / 1e6, cap)
        assert tight <= loose / 1e6
        assert len(numerics._fragments) == 1
        assert numerics._fragments.get(key)[1] == tight

    def test_fragment_cache_is_bounded(self, monkeypatch):
        """The fragments of the weight-9 sequences, 2^9 - 9 of them at one
        precision, overflow a cache of 100."""
        _fresh(monkeypatch, numerics, "_fragments", size=100)
        ctx = NumericContext(target_abs_error=1e-8, working_precision=64)
        for s in enumerate_compositions(9):
            multitangent_eval_reduced(s, mp.mpc("0.3", "0.7"), ctx)
        assert len(numerics._fragments) == 100


class TestPointCache:
    """cot(pi z) and Te^k(z) are computed once per point and precision, and
    an entry serves every target without changing a value or a refusal."""

    @pytest.fixture(autouse=True)
    def empty(self, monkeypatch):
        _fresh(monkeypatch, numerics, "_points")

    @staticmethod
    def _counted(monkeypatch) -> list:
        """Route ``_cot`` and ``_monotangent`` through a recorder of their
        keys: (point, precision) and (k, point, precision)."""
        seen, cot, mono = [], numerics._cot, numerics._monotangent

        def counted_cot(z):
            seen.append(("cot", z, mp.mp.prec))
            return cot(z)

        def counted_mono(k, c):
            seen.append((k, c[0], mp.mp.prec))
            return mono(k, c)

        monkeypatch.setattr(numerics, "_cot", counted_cot)
        monkeypatch.setattr(numerics, "_monotangent", counted_mono)
        return seen

    def test_cold_and_warm_calls_agree(self):
        """Every (value, bound), and every evaluator's value, is the same
        from an empty cache and from a warm one."""
        evaluators = [
            lambda z, ctx: monotangent_eval(3, z, ctx),
            lambda z, ctx: multitangent_eval_reduced(C(3, 1, 2), z, ctx),
            lambda z, ctx: te_nk_closed_form(2, 3, z, ctx),
        ]
        for z in sample_points(2, 11, IM):
            for prec in (64, 128):
                ctx = replace(CTX, working_precision=prec)
                numerics._points.clear()
                with ctx.workprec():
                    point = numerics._checked(z, ctx.pole_guard)
                    cold = [numerics._monotangent_at(k, point) for k in range(1, 7)]
                    warm = [numerics._monotangent_at(k, point) for k in range(1, 7)]
                    alone = [numerics._monotangent(k, numerics._cot(point)) for k in range(1, 7)]
                assert cold == warm == alone
                numerics._points.clear()
                cold = [evaluate(z, ctx) for evaluate in evaluators]
                assert [evaluate(z, ctx) for evaluate in evaluators] == cold

    def test_a_200_bit_point_never_serves_a_128_bit_call(self, monkeypatch):
        seen = self._counted(monkeypatch)
        with mp.workprec(200):
            z = mp.mpc(1, 3) / 7
        at_200 = monotangent_eval(2, z, replace(CTX, working_precision=200))
        assert len(seen) == 2
        at_128 = monotangent_eval(2, z, CTX)
        assert len(seen) == 4 and seen[2][2] == 128
        assert at_128 != at_200
        numerics._points.clear()
        assert monotangent_eval(2, z, CTX) == at_128

    def test_a_cached_bound_still_refuses_a_tighter_target(self):
        ctx = NumericContext(target_abs_error=1e-8, working_precision=53)
        z = mp.mpc("0.3", "0.4")
        monotangent_eval(4, z, ctx)
        with ctx.workprec():
            _, bound = numerics._points.get((numerics._checked(z, ctx.pole_guard), mp.mp.prec, 4))
        assert bound > 0
        with pytest.raises(PrecisionUnreachableError) as info:
            monotangent_eval(4, z, replace(ctx, target_abs_error=bound / 2))
        assert info.value.achieved == bound

    def test_cache_is_bounded(self, monkeypatch):
        _fresh(monkeypatch, numerics, "_points", size=16)
        for z in sample_points(20, 12, IM):
            monotangent_eval(2, z, CTX)
        assert len(numerics._points) == 16

    def test_recheck_computes_each_monotangent_once(self, monkeypatch):
        """Cleansing two sequences of weight 5 that are not convergent
        evaluates them through the reduction at the sample points: one
        cotangent per point and precision, one Te^k per order, point and
        precision, shared by both."""
        seen = self._counted(monkeypatch)
        for parts in [(1, 2, 2), (1, 4)]:
            lab.unit_cleanse(Composition(parts), CTX, recheck=True)
        cots = [key for key in seen if key[0] == "cot"]
        assert len(cots) == len(set(cots)) == len(sample_points(2))
        monos = [key for key in seen if key[0] != "cot"]
        assert len(monos) == len(set(monos)) >= 4


class TestPeriodicPoint:
    """Te[s] and Te^k are read at z shifted exactly by the nearest integer,
    so their cutoffs and errors do not grow with Re z; He_+ is not periodic
    and is read where it is."""

    def test_direct_far_from_the_origin(self):
        """Te[2,2] at 50000.3 + 0.5i: the unshifted floor cutoff, 200006,
        is past the default cap."""
        z, t = mp.mpc("50000.3", "0.5"), DEFAULT_CONTEXT.target_abs_error
        direct = multitangent_eval_direct(C(2, 2), z)
        reduced = multitangent_eval_reduced(C(2, 2), z)
        with DEFAULT_CONTEXT.workprec():
            value, bound = certified_sum([[(direct, t)], [(-reduced, t)]])
        assert abs(value) <= bound

    def test_monotangent_far_from_the_origin(self):
        """Te^2 at 10^8 + 0.3 + 0.5i, 128 bits, target 1e-30: the error of
        cot(pi z) no longer grows with |z|.  Te^2 = pi^2 / sin^2(pi z) at the
        rounded point, at 400 bits, is within the target."""
        ctx = NumericContext(target_abs_error=1e-30, working_precision=128)
        with ctx.workprec():
            z = mp.mpf("100000000.3") + 0.5j
        value = monotangent_eval(2, z, ctx)
        with mp.workprec(400):
            assert abs(value - mp.pi**2 / mp.sin(mp.pi * z) ** 2) <= 1e-30

    def test_z_and_z_plus_3_share_an_entry(self, monkeypatch):
        _fresh(monkeypatch, numerics, "_memo", "_points")
        z = mp.mpc("0.375", "0.625")
        for cache, evaluate in [
            (numerics._memo, lambda z: multitangent_eval_direct(C(2, 2), z, CTX)),
            (numerics._points, lambda z: monotangent_eval(2, z, CTX)),
        ]:
            first = evaluate(z)
            hits, misses = cache.cache_info()[:2]
            assert evaluate(z + 3) == first
            assert cache.cache_info()[:2] == (hits + 1, misses)

    def test_an_mpc_is_rounded_at_the_working_precision(self, monkeypatch):
        """An mpc made at 200 bits is read at the 53 bits of the context,
        like the same point as a Python complex: one point, one memo entry."""
        _fresh(monkeypatch, numerics, "_memo")
        ctx = NumericContext(target_abs_error=1e-8, working_precision=53)
        with mp.workprec(200):
            z = mp.mpc(1, 3) / 7
        with ctx.workprec():
            assert zetasum._point(z) == zetasum._point(complex(z))
            assert zetasum._point(z).k == 54
        assert multitangent_eval_direct(C(2, 3), z, ctx) == multitangent_eval_direct(
            C(2, 3), complex(z), ctx
        )
        assert numerics._memo.cache_info().misses == 1

    def test_hurwitz_is_not_shifted(self):
        """He_+[2](z) - He_+[2](z + 1) = (1 + z)^-2: a shifted He_+ would
        read both at the same point and leave the difference at -(1 + z)^-2."""
        z, t = mp.mpc("0.3", "0.7"), CTX.target_abs_error
        with mp.workprec(300):
            step = (1 + z) ** -2
        terms = [[(hurwitz_eval("+", C(2), z, CTX), t)],
                 [(-hurwitz_eval("+", C(2), z + 1, CTX), t)], [(-step, 1e-80)]]
        with CTX.workprec():
            value, bound = certified_sum(terms)
        assert abs(value) <= bound < 1e-8


class TestHurwitz:
    def test_value_at_zero_is_zeta(self):
        assert abs(hurwitz_eval("+", C(2), 0, CTX) - mp.zeta(2)) < 1e-9

    def test_reflection_parity(self):
        z = sample_points(1, 9, IM)[0]
        lhs = hurwitz_eval("-", C(3, 2), z, CTX)
        rhs = (-1) ** 5 * hurwitz_eval("+", C(2, 3), -z, CTX)
        assert abs(lhs - rhs) < 1e-9

    def test_subtracted_series_telescopes(self):
        assert abs(hurwitz_eval("+", C(1), mp.mpf(1), CTX) + 1) < 1e-15

    def test_rational_pole_guard(self):
        """A Fraction guard, which NumericContext accepts, decides the
        one-sided poles exactly: -2 is a pole of the + side only."""
        ctx = NumericContext(pole_guard=Fraction(1, 1000))
        z = mp.mpc(-1.5, 0.1)
        assert abs(hurwitz_eval("+", C(2, 3), z, ctx) - hurwitz_eval("+", C(2, 3), z, CTX)) < 2e-9
        with pytest.raises(PoleProximityError):
            hurwitz_eval("+", C(2), mp.mpc(-2, 0.0009), ctx)
        hurwitz_eval("-", C(2), mp.mpc(-2, 0.0009), ctx)
        hurwitz_eval("+", C(2), mp.mpc(-2, 0.0011), ctx)

    def test_divergent_side_rejected(self):
        with pytest.raises(ValueError):
            hurwitz_eval("+", C(1, 2), 0.5, CTX)
        with pytest.raises(ValueError):
            hurwitz_eval("-", C(2, 1), 0.5, CTX)

    @pytest.mark.parametrize(
        "side, parts, z",
        [("+", (1,), mp.inf), ("-", (1,), mp.mpc(mp.nan, 1)), ("+", (2, 3), mp.mpc(mp.inf, 0.5))],
        ids=["digamma-inf", "digamma-nan", "nested-inf"],
    )
    def test_refuses_a_point_that_is_not_finite(self, side, parts, z):
        """Before any branch: the digamma branch of (1) would return -inf or
        fail inside mpmath."""
        with pytest.raises(ValueError, match="is not finite"):
            hurwitz_eval(side, Composition(parts), z, CTX)


class TestTrifactorization:
    @pytest.mark.parametrize("parts", [(2,), (3,), (2, 2), (3, 2), (2, 3)])
    def test_residuals(self, parts):
        for z in sample_points(3, sum(parts), IM):
            value, bound = trifactorization_residual(Composition(parts), z, CTX)
            assert abs(value) <= bound and abs(value) < 1e-7

    def test_residual_carries_its_two_sides_certificates(self):
        """At the trifact suite's points the residual's bound is the sum of
        its two sides' own bounds, each within the target, not the target
        counted twice; a divergent sequence is refused."""
        ctx = DEFAULT_CONTEXT
        for parts in [(2,), (3,), (2, 2), (3, 2), (2, 3)]:
            s = Composition(parts)
            for z in sample_points(3, 17 + s.weight, verify._SUITE_IM_RANGE):
                assert trifactorization_residual(s, z, ctx)[1] < ctx.target_abs_error
        with pytest.raises(ValueError, match="not a convergent"):
            trifactorization_residual(C(1, 2), mp.mpc(0.3, 0.7), ctx)

    def test_suite_rejects_a_cot_poly_coefficient_off_by_1e_9(self, monkeypatch, user_precision):
        """The c^2 coefficient of Te^2 = pi^2 (1 + c^2) scaled by 1 + 1e-9
        moves the reduced side by about 1e-8 at the suite's points: below a
        fixed 1e-7, far outside the certificate of the difference."""
        exact = numerics.cot_poly

        def scaled(k):
            poly = dict(exact(k))
            if k == 2:
                poly[2] *= 1 + Fraction(1, 10**9)
            return poly

        monkeypatch.setattr(numerics, "cot_poly", scaled)
        # a Te^2 cached under the exact cot_poly would hide the change
        _fresh(monkeypatch, numerics, "_points")
        assert not run_suite("trifact").ok


def test_suite_sums_at_the_context_precision(monkeypatch, user_precision):
    """Te[4] 1e-20 off fails Te[2] Te[2] = 2 Te[2,2] + Te[4] at target 1e-40
    and 200 bits: the check is summed at 200 bits, not at the caller's 53,
    where its bound is 1.5e-13."""
    ctx = NumericContext(target_abs_error=1e-40, working_precision=200)
    assert verify.suite_symmetrel(ctx, max_weight=4).ok
    direct = verify._direct

    def off(s, z, ctx):
        value, bound = direct(s, z, ctx)
        return value + (mp.mpf(10) ** -20 if s == C(4) else 0), bound

    monkeypatch.setattr(verify, "_direct", off)
    result = verify.suite_symmetrel(ctx, max_weight=4)
    assert result.checks == 1 and not result.ok


def test_suite_record_decides_by_the_certificate():
    """A suite check fails exactly when 0 lies outside the certificate of
    its sum: on values of |sum| a few 2^-100 inside and outside the bound."""
    ctx = NumericContext(working_precision=128)
    with ctx.workprec():
        edge = mp.mpf(zetasum.certified_sum([[(mp.mpf(1), 1.0)]])[1])
        cases = [[[(edge + k * mp.mpf(2) ** -100, 1.0)]] for k in range(-3, 4)]
        held = [zetasum.certified_sum(terms).contains_zero() for terms in cases]
    verdicts = []
    for terms in cases:
        result = verify.SuiteResult("edge")
        result.record("edge", terms, ctx)
        verdicts.append(result.ok)
    assert verdicts == held and held == [True] * 3 + [held[3]] + [False] * 3


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
        certified = numerics._order_coefficient

        def counted(seq, k, terms, target, cap):
            calls.append(k)
            return certified(seq, k, terms, target, cap)

        monkeypatch.setattr(numerics, "_order_coefficient", counted)
        partial = fourier_partial_sum(s, z, n_terms, CTX)
        # orders 2 and 3 (the Te^3 terms cancel exactly, and are certified
        # all the same): one evaluation each, not one per Fourier term
        orders = [k for k in _order_terms(s) if k >= 2]
        assert len(orders) == 2 < n_terms
        assert len(calls) == len(orders)
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

    @pytest.mark.parametrize(
        "s, n_terms, y",
        [
            (C(1, 2), 2, 1.5),  # divergent
            (Composition(), 2, 1.5),  # empty
            (C(3, 2), -1, 1.5),
            (C(3, 2), 2, 0.0),
            (C(3, 2), 2, -1.0),
        ],
        ids=["divergent", "empty", "negative-terms", "real-axis", "lower-half-plane"],
    )
    def test_tail_envelope_rejects_invalid_input(self, s, n_terms, y):
        with pytest.raises(ValueError):
            fourier_tail_envelope(s, n_terms, y, CTX)

    @pytest.mark.parametrize(
        "s, n_terms, z",
        [
            (C(1, 2), 2, mp.mpc("0.2", "0.8")),
            (C(3, 2), -2, mp.mpc("0.2", "0.8")),
            (C(3, 2), 2, mp.mpc("0.2", "-0.8")),
        ],
        ids=["divergent", "negative-terms", "lower-half-plane"],
    )
    def test_partial_sum_rejects_invalid_input(self, s, n_terms, z):
        with pytest.raises(ValueError):
            fourier_partial_sum(s, z, n_terms, CTX)

    @pytest.mark.parametrize("z", [mp.mpc(0.3, mp.inf), mp.mpc(mp.nan, 1)], ids=str)
    def test_partial_sum_refuses_a_point_that_is_not_finite(self, z):
        """Not nan + nan i: both points pass the Im z > 0 check."""
        with pytest.raises(ValueError, match="is not finite"):
            fourier_partial_sum(C(2, 3), z, 3, CTX)


@pytest.mark.parametrize("z", [-1, mp.mpc(-2, 0)], ids=["int", "mpc"])
def test_nested_sum_refuses_a_negative_integer_shift(z):
    """m + z = 0 for a row m below the cutoff: a PoleProximityError, not a
    ZeroDivisionError from inside the pass."""
    with pytest.raises(PoleProximityError, match="has a pole"):
        shifted_nested_sum((2,), z)


def test_cached_nested_sum_respects_cap():
    """A cached sum made under another cap must not serve a call: the cap is
    in the key.  The target misses at the floor cutoff 16, so the sum is
    cached from the pass at 48, past the second call's cap."""
    shifted_nested_sum((3,), 0, target=1e-25)
    with pytest.raises(PrecisionUnreachableError):
        shifted_nested_sum((3,), 0, target=1e-25, cap=20)


def _counting_fixed(monkeypatch) -> list:
    """Route shifted_nested_sum's fixed-cutoff calls through a counter."""
    calls = []
    fixed = zetasum.shifted_nested_sum_fixed

    def counted(*args):
        calls.append(args)
        return fixed(*args)

    monkeypatch.setattr(zetasum, "shifted_nested_sum_fixed", counted)
    return calls


def test_certified_cache_counts_each_step():
    """One scripted sequence: (hits, misses, evictions, currsize) after each
    call of a cache of two entries ``(value, bound)``."""
    cache = CertifiedCache(2)

    def counts():
        hits, misses, maxsize, currsize = cache.cache_info()
        assert maxsize == 2 and currsize == len(cache)
        return hits, misses, cache.evictions, currsize

    assert cache.get("a", 1e-8) is None  # a miss
    assert counts() == (0, 1, 0, 0)
    cache.put("a", (1, 1e-10))  # a store
    assert counts() == (0, 1, 0, 1)
    assert cache.get("a", 1e-8) == (1, 1e-10)  # a hit
    assert counts() == (1, 1, 0, 1)
    assert cache.get("a", 1e-12) is None  # a miss on a tighter target
    assert counts() == (1, 2, 0, 1)
    # a fetch that misses makes a tighter entry, which replaces the old one
    assert cache.fetch("a", lambda: (2, 1e-13), 1e-12) == (2, 1e-13)
    assert counts() == (1, 3, 0, 1)
    assert cache.fetch("a", lambda: 1 / 0, 1e-12) == (2, 1e-13)  # a hit makes nothing
    assert counts() == (2, 3, 0, 1)
    cache.put("a", (3, 1e-9))  # a looser store is ignored
    assert cache.get("a", 1e-12) == (2, 1e-13)
    assert counts() == (3, 3, 0, 1)
    cache.put("b", (4, 1e-10))
    cache.put("c", (5, 1e-10))  # an overflow evicts "a", the least recently used
    assert counts() == (3, 3, 1, 2)
    assert cache.get("a") is None
    assert counts() == (3, 4, 1, 2)
    assert cache.get("b") == (4, 1e-10)  # a hit refreshes "b" first
    cache.put("d", (6, 1e-10))  # so the overflow evicts "c"
    assert counts() == (4, 4, 2, 2)
    assert cache.get("c") is None and cache.get("b") == (4, 1e-10)
    assert counts() == (5, 5, 2, 2)
    cache.clear()
    assert counts() == (0, 0, 0, 0)


def test_every_certified_cache_holds_entries(monkeypatch):
    """Each of the five certified caches holds ``_FixedSum`` entries, the cap
    in the key and no cutoff beside the entry."""
    _fresh(monkeypatch, zetasum, "_cache")
    _fresh(monkeypatch, numerics, "_memo", "_fragments", "_orders", "_points")
    z = mp.mpc(0.3, 0.7)
    multitangent_eval_direct(C(3, 2), z, CTX)
    multitangent_eval_reduced(C(3, 2), z, CTX)
    caches = (zetasum._cache, numerics._memo, numerics._fragments, numerics._orders,
              numerics._points)
    assert all(len(cache) for cache in caches)
    for cache in caches:
        for entry in cache._entries.values():
            assert type(entry) is _FixedSum
    for cache in caches[:4]:
        assert all(key[-1] == CTX.truncation_cap for key in cache._entries)


@pytest.mark.parametrize("target", [Fraction(1, 10**60), mp.mpf("1e-60")], ids=type)
def test_nested_sum_refusal_formats_any_real_target(target):
    """A Fraction or mpf target the rounding alone misses is refused with a
    PrecisionUnreachableError, its message formatting the target as a float."""
    with mp.workprec(53), pytest.raises(PrecisionUnreachableError, match="> 1.000e-60"):
        shifted_nested_sum((3,), 0, target=target, cap=100)


@pytest.mark.parametrize("z", [mp.inf, mp.mpc(mp.nan, 1), mp.mpc(1, mp.inf)], ids=str)
def test_nested_sums_refuse_a_point_that_is_not_finite(z):
    """mpmath keeps inf and nan as a zero mantissa with a nonzero exponent,
    which the exact dyadic of the point would read as 0."""
    with pytest.raises(ValueError, match="is not finite"):
        shifted_nested_sum((2,), z, target=1e-10)
    with pytest.raises(ValueError, match="is not finite"):
        shifted_nested_sum_fixed((2,), z, 16)


def test_nested_sum_cache_is_a_bounded_lru(monkeypatch):
    _fresh(monkeypatch, zetasum, "_cache")
    size = zetasum._cache.maxsize
    points = [mp.mpf(i) / 1024 for i in range(size + 40)]
    with mp.workprec(64):
        for z in points[:size]:
            shifted_nested_sum((2,), z, target=1e-8)
        shifted_nested_sum((2,), points[0], target=1e-8)  # a hit refreshes the oldest
        for z in points[size:]:
            shifted_nested_sum((2,), z, target=1e-8)
        assert len(zetasum._cache) <= size
        calls = _counting_fixed(monkeypatch)
        shifted_nested_sum((2,), points[-1], target=1e-8)
        shifted_nested_sum((2,), points[0], target=1e-8)
        assert calls == []
        shifted_nested_sum((2,), points[1], target=1e-8)  # evicted
        assert len(calls) == 1


def test_unreachable_target_is_refused_at_once(monkeypatch):
    """Below the rounding of the working precision no cutoff helps, so the
    first fixed-cutoff sum decides."""
    _fresh(monkeypatch, zetasum, "_cache")
    calls = _counting_fixed(monkeypatch)
    with mp.workprec(128):
        with pytest.raises(PrecisionUnreachableError) as info:
            shifted_nested_sum((3,), 0, target=1e-60)
    assert len(calls) == 1
    assert info.value.achieved > 1e-60


def test_bound_covers_rounding_below_working_precision(monkeypatch):
    _fresh(monkeypatch, zetasum, "_cache")
    with mp.workprec(128):
        v, e = shifted_nested_sum((3,), 0, target=1e-45)
    assert e <= 1e-45
    with mp.workprec(300):
        assert abs(v - mp.zeta(3)) <= e


def test_miss_and_hit_return_one_float_bound(monkeypatch):
    """The pass that certifies and the cache hits after it return the same
    (value, bound), the bound a float both times, for the full sum and for
    a stored prefix."""
    _fresh(monkeypatch, zetasum, "_cache")
    z = mp.mpc("0.3", "0.7")
    with mp.workprec(128):
        miss = shifted_nested_sum((3, 1, 2), z, target=1e-20)
        calls = _counting_fixed(monkeypatch)
        hit = shifted_nested_sum((3, 1, 2), z, target=1e-20)
        prefix = shifted_nested_sum((3, 1), z, target=1e-20)
        assert calls == []
        expected = shifted_nested_sum_fixed((3, 1, 2), z, 16)
    assert type(miss[1]) is type(hit[1]) is type(prefix[1]) is float
    assert hit == miss == tuple(expected)
    assert prefix == expected.prefixes[1]


# convergent sequences of depth 1..6 over parts 1..4; shifts on a 1/16 grid,
# 0 or with either sign of Im z
_SEQUENCES = st.tuples(st.integers(2, 4), st.lists(st.integers(1, 4), max_size=5)).map(
    lambda t: (t[0], *t[1])
)
_SHIFTS = st.one_of(
    st.just((0, 0)),
    st.tuples(st.integers(-32, 32), st.integers(1, 32), st.sampled_from((-1, 1))).map(
        lambda t: (t[0], t[1] * t[2])
    ),
)


@given(_SEQUENCES, _SHIFTS, st.sampled_from((64, 128, 200)), st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_certificate_covers_reference(parts, shift, prec, below):
    """|value - reference| <= bound + reference bound, for the fixed cutoffs
    16 and 48 and for targets below 2^-prec; the reference is a 400-bit sum
    at n0 = 144."""
    z = mp.mpc(*shift) / 16
    with mp.workprec(400):
        ref, ref_bound = shifted_nested_sum_fixed(parts, z, 144)
    results = []
    # a fresh cache: these sums must not serve later tests at their targets
    with mp.workprec(prec), _fresh_nested_sums():
        results += [shifted_nested_sum_fixed(parts, z, n0) for n0 in (16, 48)]
        target = 2.0 ** -(prec + below)
        try:
            results.append(shifted_nested_sum(parts, z, target=target, cap=48 * 27))
        except PrecisionUnreachableError as exc:
            assert exc.achieved > target
        else:
            assert results[-1][1] <= target
    with mp.workprec(400):
        for v, e in results:
            assert abs(v - ref) <= e + ref_bound


# sequences of weight <= 7 with a leading part >= 2; dyadic points with
# |Re z| <= 3 and |Im z| in [0.1, 2] on a 2^-10 grid, or 0
_WEIGHT_7 = [tuple(c) for w in range(2, 8) for c in enumerate_compositions(w, "mzv")]
_DYADIC_POINTS = st.one_of(
    st.just((0, 0)),
    st.tuples(
        st.integers(-3 * 2**10, 3 * 2**10), st.integers(103, 2**11), st.sampled_from((-1, 1))
    ).map(lambda t: (t[0], t[1] * t[2])),
)


@given(
    st.sampled_from(_WEIGHT_7), _DYADIC_POINTS, st.integers(8, 20), st.sampled_from((64, 128, 200))
)
@settings(max_examples=40, deadline=None)
def test_every_prefix_bound_covers_reference(parts, point, digits, prec):
    """The pass that certifies a target from 1e-8 to 1e-20: the sum returns
    its full (value, bound), and every prefix's float bound covers a 400-bit
    reference at n0 = 144."""
    z = mp.mpc(*point) / 2**10
    target = 10.0**-digits
    fixed, cutoffs = zetasum.shifted_nested_sum_fixed, []

    def counted(exponents, z, n0):
        cutoffs.append(n0)
        return fixed(exponents, z, n0)

    with mp.workprec(prec), _fresh_nested_sums():
        with mock.patch.object(zetasum, "shifted_nested_sum_fixed", counted):
            value, bound = shifted_nested_sum(parts, z, target=target)
        result = shifted_nested_sum_fixed(parts, z, cutoffs[-1])
    assert (value, bound) == tuple(result) and bound <= target
    with mp.workprec(400):
        reference = shifted_nested_sum_fixed(parts, z, 144).prefixes
        for (v, e), (ref, ref_bound) in zip(result.prefixes, reference):
            assert type(e) is float and e > 0
            assert abs(v - ref) <= e + ref_bound


def test_bound_stays_positive_where_the_ulp_underflows():
    """At 1100 bits 2^-wp lies below the least positive float: the rounding
    term rounds up to that float, not to 0, and every prefix's bound covers
    a 1400-bit reference."""
    z = mp.mpc(3, -5) / 8
    with mp.workprec(1100):
        result = shifted_nested_sum_fixed((3, 1, 2), z, 16)
    assert 2.0 ** -(1100 + zetasum.GUARD) == 0 < result.rounding <= result[1]
    with mp.workprec(1400):
        reference = shifted_nested_sum_fixed((3, 1, 2), z, 144).prefixes
        for (v, e), (ref, ref_bound) in zip(result.prefixes, reference):
            assert abs(v - ref) <= e + ref_bound


@given(st.integers(2, 5), st.integers(2, 5), _SHIFTS, st.sampled_from((16, 48, 144)))
@settings(max_examples=20, deadline=None)
def test_engine_agrees_with_independent_oracles(a, b, shift, n0):
    """At 300 bits, against references that share no code with the engine:
    depth 1 against mpmath's Hurwitz zeta, S(a; z) = zeta(a, 1+z), and depth
    2 through the stuffle S(a,b) + S(b,a) + S(a+b) = S(a) S(b).  Each
    difference is at most the sum of the bounds involved."""
    z = mp.mpc(*shift) / 16
    with mp.workprec(300):
        (va, ea), (vb, eb), (vs, es), (vab, eab), (vba, eba) = (
            shifted_nested_sum_fixed(p, z, n0) for p in ((a,), (b,), (a + b,), (a, b), (b, a))
        )
        for s, v, e in ((a, va, ea), (b, vb, eb), (a + b, vs, es)):
            assert abs(v - mp.zeta(s, 1 + z)) <= e
        product_bound = ea * abs(vb) + eb * abs(va) + ea * eb
        assert abs(vab + vba + vs - va * vb) <= eab + eba + es + product_bound


@pytest.mark.parametrize(
    "parts, z",
    [((3, 1, 2, 1, 2), ("0.3", "0.7")), ((2, 2, 1, 3), ("0", "0")), ((4, 1, 1), ("-1.6", "-0.4"))],
)
def test_prefixes_of_one_pass_match_separate_passes(parts, z):
    with mp.workprec(128):
        z = mp.mpc(*z)
        full = shifted_nested_sum_fixed(parts, z, 48)
        assert len(full.prefixes) == len(parts)
        assert full.prefixes[-1] == tuple(full)
        for a, (v, e) in enumerate(full.prefixes, 1):
            alone, bound = shifted_nested_sum_fixed(parts[:a], z, 48)
            assert abs(v - alone) <= e + bound


def _convergent(depth: int):
    """Sequences of ``depth`` parts in 1..3 with both ends at least 2."""
    if depth == 1:
        return [(2,), (3,)]
    inner = list(itertools.product((1, 2, 3), repeat=depth - 2))
    return [(a, *mid, b) for a in (2, 3) for mid in inner for b in (2, 3)]


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_direct_evaluation_makes_two_passes(monkeypatch, depth):
    """On a cold cache Te[s](z) costs one pass for s at z - 1 and one for
    the reversed s at -z; every shorter split piece is a stored prefix."""
    _fresh(monkeypatch, numerics, "_memo")
    _fresh(monkeypatch, zetasum, "_cache")
    calls = _counting_fixed(monkeypatch)
    z = mp.mpc("0.3", "0.7")  # exact at the working precision
    point = zetasum._point(z)
    for parts in _convergent(depth):
        zetasum._cache.clear()
        del calls[:]
        multitangent_eval_direct(Composition(parts), z, CTX)
        assert [args[:2] for args in calls] == [(parts, point.shift(-1)), (parts[::-1], -point)]


def test_shift_is_the_exact_dyadic():
    """z = 2^-200 + 0.5i at 128 bits: z - 1 is the exact dyadic, which the
    point rounded at 128 bits after subtracting 1 would lose."""
    z = mp.mpc(mp.ldexp(1, -200), 0.5)
    with mp.workprec(128):
        shifted = zetasum._point(z).shift(-1)
        rounded = zetasum._point(mp.mpc(z) - 1)
    with mp.workprec(400):
        exact = zetasum._point(z - 1)
    assert shifted == exact == (1 - 2**200, 2**199, 200) and shifted.floor == 16
    assert rounded != exact


def _trifactorization_terms(s: Composition, z, target: float, cap: int) -> list:
    """The paper's (2r+1)-term trifactorization of Te[s](z) as
    ``certified_sum`` terms: He_+[s_1..s_a](z) He_-[s_(a+1)..s_r](z) for
    a = 0..r, and He_+[s_1..s_(a-1)](z) z^(-s_a) He_-[s_(a+1)..s_r](z) for
    a = 1..r.  Each one-sided sum is within ``target``; z^(-s_a) is rounded
    at the working precision, with a bound of 2^8 ulps of its size."""
    point, parts = zetasum._point(z), s.parts

    def sides(left, right):
        return [numerics._one_sided(side, p, point, target, cap)
                for side, p in (("+", left), ("-", right)) if p]

    terms = [sides(parts[:a], parts[a:]) for a in range(s.length + 1)]
    for a, pivot in enumerate(parts):
        w = mp.power(z, -pivot)
        terms.append([(w, float(abs(w)) * 2.0 ** (8 - mp.mp.prec)), *sides(parts[:a], parts[a + 1 :])])
    return terms


@pytest.mark.parametrize(
    "z", [mp.mpc("0.3", "0.7"), mp.mpc("-1.2", "0.4"), mp.mpc("2.039", "-0.053"),
          mp.mpc("1.006", "0.005")],  # the last within 0.01 of the pole 1
    ids=str,
)
def test_direct_evaluation_matches_the_trifactorization(z):
    """Every convergent s of weight <= 7: 0 lies within the certificate of
    the paper's (2r+1)-term trifactorization less the direct evaluation,
    which folds each pivot into its positive side."""
    ctx = NumericContext(target_abs_error=1e-12)
    with ctx.workprec():
        for s in (s for w in range(2, 8) for s in enumerate_compositions(w, "convergent")):
            direct = multitangent_eval_direct(s, z, ctx)
            terms = _trifactorization_terms(s, z, 1e-20, ctx.truncation_cap)
            value, bound = certified_sum([*terms, [(-direct, ctx.target_abs_error)]])
            assert abs(value) <= bound, s


def test_near_pole_certifies_by_48():
    """Te[5,2] at 2.039+0.053i is read at 0.039+0.053i, so the pole at 0
    falls in the "+" side, S(5,2) at z - 1, whose prefix (5) has (n+z-1)^-5
    at n = 1 of about 1e6: it certifies at the floor cutoff or at 48, never
    at 144."""
    z = mp.mpc("2.039", "0.053")
    ctx = NumericContext(target_abs_error=1e-16)
    memo = CertifiedCache(numerics._memo.maxsize)
    with _fresh_nested_sums(), mock.patch.object(numerics, "_memo", memo):
        with mock.patch.object(
            zetasum, "shifted_nested_sum_fixed", wraps=shifted_nested_sum_fixed
        ) as fixed:
            direct = multitangent_eval_direct(C(5, 2), z, ctx)
    with ctx.workprec():
        near = [n0 for parts, point, n0 in (c.args for c in fixed.call_args_list)
                if parts == (5, 2) and point == numerics._checked(z, ctx.pole_guard).shift(-1)]
    assert 1 <= len(near) <= 2 and max(near) <= 48
    assert abs(direct - multitangent_eval_reduced(C(5, 2), z, ctx)) <= 2 * ctx.target_abs_error


def test_direct_evaluations_certify_at_the_floor(monkeypatch):
    """A seeded sample like the benchmark's direct evaluations: every sum
    starts at the floor cutoff, and at least 95% certify there."""
    _fresh(monkeypatch, numerics, "_memo")
    _fresh(monkeypatch, zetasum, "_cache")
    passes, requests = [], []
    fixed, nested = zetasum.shifted_nested_sum_fixed, zetasum.shifted_nested_sum

    def counted_fixed(exponents, z, n0):
        result = fixed(exponents, z, n0)
        passes.append((n0, zetasum._point(z).floor, result[1]))
        return result

    def counted_nested(exponents, z=0, target=1e-12, cap=200_000):
        start = len(passes)
        try:
            return nested(exponents, z, target, cap)
        finally:
            if passes[start:]:
                requests.append((target, passes[start:]))

    monkeypatch.setattr(zetasum, "shifted_nested_sum_fixed", counted_fixed)
    monkeypatch.setattr(numerics, "shifted_nested_sum", counted_nested)
    rng = random.Random(16)
    words = [c for w in range(2, 8) for c in enumerate_compositions(w, "convergent")]
    for _ in range(40):
        z = complex(rng.uniform(-2, 3), rng.choice((-1, 1)) * rng.uniform(0.1, 2))
        ctx = NumericContext(target_abs_error=rng.choice((1e-8, 1e-12, 1e-16)))
        multitangent_eval_direct(rng.choice(words), z, ctx)
    assert requests and all(n0 == floor for _, ((n0, floor, _), *_) in requests)
    first = sum(bound <= target for target, ((_, _, bound), *_) in requests)
    assert first >= 0.95 * len(requests)


def test_remainder_is_sharp():
    """Ze[2] at n0 = 48: the bound is within 20 times the actual error."""
    with mp.workprec(128):
        v, e = shifted_nested_sum_fixed((2,), 0, 48)
    with mp.workprec(300):
        assert e <= 20 * abs(v - mp.zeta(2))


_DEEP = [(2, 1, 1, 1, 1, 1, 1, 1, 1, 2), (3, 1, 2, 1, 1, 2, 1, 1, 1, 2)]


@functools.lru_cache(maxsize=None)
def _deep_pass(parts, z: tuple, n0: int, prec: int):
    """``shifted_nested_sum_fixed`` at the point z = (re, im), parsed at
    128 bits so every precision sees the same point."""
    with mp.workprec(128):
        point = mp.mpc(*z)
    with mp.workprec(prec):
        return shifted_nested_sum_fixed(parts, point, n0)


@pytest.mark.parametrize("parts", _DEEP)
@pytest.mark.parametrize("z", [("0", "0"), ("0.3", "0.7"), ("-1.2", "0.4")])
def test_deep_remainder_is_sharp(parts, z):
    """Depth 10 at n0 = 48: the bound, with the tails truncated and folded
    into the envelope, is within 20 times the error against a 400-bit pass
    at n0 = 144."""
    v, e = _deep_pass(parts, z, 48, 128)
    ref, ref_bound = _deep_pass(parts, z, 144, 400)
    with mp.workprec(400):
        assert ref_bound < abs(v - ref) / 1000
        assert e <= 20 * abs(v - ref)


@pytest.mark.parametrize("parts", _DEEP)
@pytest.mark.parametrize("z", [("0", "0"), ("0.3", "0.7"), ("-1.2", "0.4"), ("2.039", "0.053")])
def test_deep_certificate_covers_reference(parts, z):
    """Depth 10 at the floor cutoff and at three times it: |value - ref| is
    within the bound plus the reference's."""
    with mp.workprec(128):
        floor = zetasum._point(mp.mpc(*z)).floor
    ref, ref_bound = _deep_pass(parts, z, 144, 400)
    for n0 in (floor, 3 * floor):
        v, e = _deep_pass(parts, z, n0, 128)
        with mp.workprec(400):
            assert abs(v - ref) <= e + ref_bound, n0


def test_floor_cutoff_is_exact():
    """n0 > 4 (1 + |z|) decided exactly at integer edges: 4 (1 + 3) = 16 and
    4 (1 + |3 + 4i|) = 24 are refused."""
    assert zetasum._point(3).floor == 17
    assert zetasum._point(3 + 4j).floor == 25
    assert zetasum._point(mp.mpc("0.3", "0.7")).floor == 16
    with pytest.raises(ValueError):
        shifted_nested_sum_fixed((2,), 3, 16)


class TestEulerMaclaurinEngine:
    @pytest.mark.parametrize("z", ["0", "0.3+0.7i"])
    @pytest.mark.parametrize("b", [0, 1, 2])
    @pytest.mark.parametrize("a", [1, 2, 3, 5])
    def test_template_obeys_euler_maclaurin(self, a, b, z):
        """A level sums (n+z)^-a times each term (n+z)^-b of the tail below
        (b = 0 at the first level, where T_0 = 1).  Past N = 16 or 48 that
        sum is G_(a+b)(N+z) + R with |R| <= rho, the remainder the engine
        adds for it, against mpmath's Hurwitz zeta; a + b = 1 diverges and
        has no template."""
        if a + b < 2:
            with pytest.raises(ValueError):
                zetasum._em_template(a + b)
            return
        with mp.workprec(200):
            z = mp.mpc(0) if z == "0" else mp.mpc("0.3", "0.7")
            for N in (16, 48):
                G = mp.fsum(
                    mp.mpf(e.numerator) / e.denominator * mp.power(N + z, -k)
                    for k, e in zetasum._em_template(a + b)
                )
                cut = zetasum._Cutoff(zetasum._point(z), N, 1)
                rho = cut.envelope(zetasum._tail((a + b,)), 0.0)
                assert abs(mp.zeta(a + b, N + 1 + z) - G) <= rho, N

    def test_caches_do_not_leak_precision(self):
        def run():
            with mp.workprec(200):
                result = shifted_nested_sum_fixed((3, 1, 2), 0.3 + 0.7j, 48)
                return [(v.real._mpf_, v.imag._mpf_, e) for v, e in result.prefixes]

        caches = (zetasum._em_integers, zetasum._tail)
        with mp.workprec(64):
            shifted_nested_sum_fixed((3, 1, 2), 0.3 + 0.7j, 48)
        warm = run()
        for cache in caches:
            cache.cache_clear()
        assert run() == warm
        assert all(cache.cache_info().maxsize is not None for cache in caches)

    @staticmethod
    def _fraction_tails(prefixes):
        """The tail layouts (E, V, W, beta, top) built in Fraction dict
        arithmetic, keyed by prefix: the oracle of ``zetasum._tail``.  E keeps
        the powers below beta + M; each dropped e_k u^-k adds |e_k| to W at
        x^k."""

        def dense(coefs):
            lo = min(coefs)
            den = math.lcm(*(c.denominator for c in coefs.values()))
            return den, lo, tuple(int(coefs.get(k, 0) * den) for k in range(lo, max(coefs) + 1))

        # After K corrections the remainder of G_b at m >= N is at most the
        # first omitted term plus the remainder after it:
        # kappa (b)_(2K+1) (1 + pf) pf^(b+2K+1) m^-(b+2K+1), kappa = |B_(2K+2)|/(2K+2)!
        K, M = zetasum._EM_ORDER, zetasum._TAIL_MARGIN
        kappa = abs(Fraction(*mp.bernfrac(2 * K + 2))) / math.factorial(2 * K + 2)
        expansions = {(): ({0: Fraction(1)}, math.inf)}
        out = {}
        for prefix in sorted(prefixes, key=len):
            s = prefix[-1]
            inner, beta = expansions[prefix[:-1]]
            E, V, W = {}, {}, {}
            for b, c in inner.items():
                for k, e in zetasum._em_template(b + s):
                    E[k] = E.get(k, 0) + c * e
                V[b + s] = c
                W[b + s + 2 * K + 1] = abs(c) * kappa * math.prod(range(b + s, b + s + 2 * K + 1))
            # the envelope decays like its slowest part: a template remainder,
            # m^-(b+s+2K+1), or the level above summed against (n+z)^-s
            beta = min(min(W), beta + s - 1)
            for k in [k for k in E if k >= beta + M]:
                W[k] = W.get(k, 0) + abs(E.pop(k))
            for k, e in E.items():
                V[k] = V.get(k, 0) + e
            expansions[prefix] = {k: e for k, e in E.items() if e}, beta
            out[prefix] = dense(E), dense(V), dense(W), beta, max(V)
        return out

    def test_integer_tails_match_fraction_oracle(self):
        """Every prefix of every convergent word of weight <= 8, of its
        reversal and of (2,1,1,1,1,1,1,1,1,2): the same layouts, each over
        its least common denominator, and a tail value whose length does not
        grow with the depth."""
        words = [tuple(c) for w in range(2, 9) for c in enumerate_compositions(w, "mzv")]
        words += [w[::-1] for w in words if w[-1] >= 2] + [(2, 1, 1, 1, 1, 1, 1, 1, 1, 2)]
        prefixes = {w[:j] for w in words for j in range(1, len(w) + 1)}
        longest = 2 * zetasum._EM_ORDER + 2 + zetasum._TAIL_MARGIN
        for prefix, expected in self._fraction_tails(prefixes).items():
            tail = zetasum._tail(prefix)
            assert (tail.E, tail.V, tail.W, tail.beta, tail.top) == expected, prefix
            for den, _, nums in (tail.E, tail.V, tail.W):
                assert math.gcd(den, *nums) == 1
            assert tail.top - tail.V[1] <= longest, prefix

    def test_python_int_shift_stays_in_mp_arithmetic(self):
        # with float arithmetic anywhere the error would be near 1e-17
        with mp.workprec(200):
            v, e = shifted_nested_sum_fixed((3,), 0, 48)
            assert e < mp.mpf("1e-20")
            assert abs(v - mp.zeta(3)) <= e

    # (value, bound) of the engine at 128 bits, default target, pinned so
    # later changes to the cutoff, the tail truncation or the rounding have a
    # fixed reference; every one certifies at the floor cutoff n0 = 16
    GOLDEN = [
        (
            (2,),
            ("0", "0"),
            "1.64493406684822643647244133544876039787085",
            "0.0",
            "5.47101643706427775592449512202e-23",
        ),
        (
            (3, 1, 2),
            ("0", "0"),
            "0.0792213975652071659990979077047088458269818",
            "0.0",
            "1.69825942577891107604728703771e-22",
        ),
        (
            (2, 1, 1, 1, 1, 1, 1),
            ("0", "0"),
            "1.00407735619794433937895609019675833410721",
            "0.0",
            "1.81548242739920627819490777152e-21",
        ),
        (
            (4, 1),
            ("0.3", "0.7"),
            "0.00648879408786032986777609825882482853134012",
            "-0.0349082607773008532814825819154697200735751",
            "2.07682175715312195190302087983e-22",
        ),
        (
            (2, 2, 1),
            ("0.3", "0.7"),
            "0.0669311576546047760975278126707952895615961",
            "-0.0917892136696148919190131893009098598734703",
            "7.20139118308199828683973321828e-22",
        ),
        (
            (3,),
            ("-1.6", "-0.4"),
            "-3.06086468680552691564205182915030921033231",
            "6.8115738990661130565832799636541042858772",
            "4.15714651032323914307915203027e-22",
        ),
    ]

    @pytest.mark.parametrize(
        "parts, z, re, im, bound",
        GOLDEN,
        ids=[f"{','.join(map(str, g[0]))}@{g[1][0]},{g[1][1]}" for g in GOLDEN],
    )
    def test_golden_values(self, parts, z, re, im, bound, monkeypatch):
        # an entry cached by an earlier test to a tighter target would be
        # served at its longer cutoff, with a different value and bound
        _fresh(monkeypatch, zetasum, "_cache")
        with mp.workprec(128):
            v, e = shifted_nested_sum(parts, mp.mpc(*z))
            bound = mp.mpf(bound)
            assert abs(v - mp.mpc(re, im)) <= mp.mpf("1e-6") * bound
            assert abs(e - bound) <= mp.mpf("1e-20") * bound
        with mp.workprec(400):
            ref, ref_bound = shifted_nested_sum_fixed(parts, mp.mpc(*z), 144)
            assert abs(mp.mpc(re, im) - ref) <= bound + ref_bound


class TestBounds:
    def test_flatness_and_bounds_clean(self):
        samples = [mp.mpc("0.37", 1 + mp.mpf(i) / 4) for i in range(9)]
        for parts in [(2, 2), (3, 2), (2,)]:
            report = flatness_and_bounds_check(Composition(parts), samples, CTX)
            assert report.ok, report.violations

    @pytest.mark.parametrize("bound, labels", [
        (0.6, []), (0.4, ["generic_bound", "val2_bound", "flatness"])])
    def test_a_violation_is_certified(self, monkeypatch, bound, labels):
        """Every right side for Te[2] at z = 0.37 + i is 4.  An entry 4.5
        within 0.6 may lie below it and violates nothing; within 0.4 it
        cannot, and violates all three.  The entry is read at the sample's
        checked point, at the check's 160 bits."""
        seen = []

        def direct(s, z, ctx):
            seen.append((s, z, mp.mp.prec))
            return mp.mpc(4.5), bound

        monkeypatch.setattr(numerics, "_direct", direct)
        with CTX.workprec():
            z = mp.mpc("0.37", 1)
            point = numerics._checked(z, CTX.pole_guard)
        report = flatness_and_bounds_check(C(2), [z], CTX)
        assert [label for label, _, _ in report.violations] == labels
        assert seen == [(C(2), point, 160)]

    def test_specific_bound_value(self):
        # |Te[2,2](3i)| <= 4*2/3^(4-2-1) = 8/3
        v = abs(multitangent_eval_direct(C(2, 2), mp.mpc(0, 3), CTX))
        assert v <= mp.mpf(8) / 3

    def test_parity_property(self):
        for parts in [(2, 3), (2, 1, 3)]:
            s = Composition(parts)
            z = sample_points(1, 31, IM)[0]
            lhs = multitangent_eval_direct(s, -z, CTX)
            rhs = (-1) ** s.weight * multitangent_eval_direct(s.reverse(), z, CTX)
            assert abs(lhs - rhs) < 1e-9

    def test_differentiation_property(self):
        s = C(2, 2)
        z = sample_points(1, 37, IM)[0]
        h = mp.mpf("1e-5")
        fd = (
            multitangent_eval_direct(s, z + h, CTX)
            - multitangent_eval_direct(s, z - h, CTX)
        ) / (2 * h)
        sym = -2 * multitangent_eval_direct(C(3, 2), z, CTX) - 2 * multitangent_eval_direct(C(2, 3), z, CTX)
        assert abs(fd - sym) < 1e-5


# a factor: value (re, im) up to 4 with 40-bit mantissas, so that narrow
# working precisions round them, bound in units of 2^-10 up to 4, and a
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
        st.integers(-(2**40), 2**40),
        st.integers(-(2**40), 2**40),
        st.integers(0, 2**12),
        _DIRECTIONS,
    ),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("prec", [24, 53, 128])
@given(st.lists(_FACTORS, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_certified_sum_covers_every_perturbation(prec, terms):
    """Moving each factor by at most its bound keeps the sum of products
    within the returned bound of the returned value, rounding included: the
    reference is the 300-bit sum over the same inputs, rounded to ``prec``."""
    with mp.workprec(prec):
        parts = [
            [(mp.mpc(re, im) / 2**38, mp.mpf(e) / 2**10) for re, im, e, _ in term]
            for term in terms
        ]
        value, bound = certified_sum(parts)
    with mp.workprec(300):
        perturbed = mp.mpc(0)
        for term, factors in zip(parts, terms):
            product = mp.mpf(1)
            for (v, e), (_, _, _, (x, y)) in zip(term, factors):
                product *= v + e * mp.mpc(x, y) / 2**10
            perturbed += product
        assert abs(perturbed - value) <= bound


def _mpf_magnitude(v):
    """|v| of an int, mpf or mpc as a raw mpf rounded up to a 53-bit mantissa,
    for a complex v from the exact sum of squares."""
    real = v._mpf_ if isinstance(v, mp.mpf) else from_int(v) if isinstance(v, int) else None
    w = v._mpc_ if real is None else (real, fzero)
    (_, mr, er, _), (_, mi, ei, _) = w
    if not (mr and mi):  # a part is zero or not finite
        return mpc_abs(w, 53, "u")
    e = min(er, ei)
    s = (mr << (er - e)) ** 2 + (mi << (ei - e)) ** 2
    t = (s.bit_length() - 105) >> 1  # s / 4^t has 105 or 106 bits
    return from_man_exp(math.isqrt(s >> 2 * t if t > 0 else s << -2 * t) + 1, e + t)


def _mpf_certified_sum(terms):
    """The reference rule: ``certified_sum`` on mpf arithmetic at the working
    precision, bounds from prod(|v| + e) - prod |v| with each |v| rounded up
    at 53 bits, and the rounding term 2^(3-prec) sum (factors + terms)
    prod(|v| + e)."""
    prec, value, propagated, size = mp.mp.prec, mp.mpc(0), fzero, fzero
    for term in terms:
        product, mag, hi = 1, fone, fone
        for v, e in term:
            product *= v
            a, e = _mpf_magnitude(v), e._mpf_ if isinstance(e, mp.mpf) else from_float(e)
            mag = mpf_mul(mag, a, prec, "n")
            hi = mpf_mul(hi, mpf_add(a, e, prec, "n"), prec, "n")
        value += product
        propagated = mpf_add(propagated, mpf_sub(hi, mag, prec, "n"), prec, "n")
        size = mpf_add(size, mpf_mul_int(hi, len(term) + len(terms), prec, "n"), prec, "n")
    rounding = mpf_shift(size, 3 - prec)
    bound = mpf_add(propagated, rounding, prec, "u")
    return value, mp.make_mpf(bound), mp.make_mpf(rounding)


@pytest.mark.parametrize("prec", [53, 128])
@given(st.lists(_FACTORS, min_size=1, max_size=4))
@example(terms=[[(0, 1, 0, (0, 2**10))] * 3])  # i 2^-114 lies below the quantum 2^-101
@settings(max_examples=100, deadline=None)
def test_certified_sum_only_raises_the_mpf_bound(prec, terms):
    """Against the mpf rule, the fixed-point sum moves the value by less than
    the mpf bound plus one fixed-point ulp, 2^-(prec + GUARD), per factor:
    each product is rounded to that quantum, which no relative bound covers
    when the product lies below it, and later factors, at most 2^2.5, carry
    earlier roundings.  It never lowers the bound, up to the rounding of
    prod(|v| + e) - prod |v| at the working precision, which moves by ulps
    either way and which the rounding term covers many times over.  Factors
    with an odd bound are real."""
    with mp.workprec(prec):
        parts = [
            [
                (mp.mpf(re) / 2**38 if e % 2 else mp.mpc(re, im) / 2**38, mp.mpf(e) / 2**10)
                for re, im, e, _ in term
            ]
            for term in terms
        ]
        value, bound = certified_sum(parts)
        old_value, old_bound, old_rounding = _mpf_certified_sum(parts)
    with mp.workprec(300):
        ulps = sum(map(len, parts)) * mp.ldexp(1, -(prec + zetasum.GUARD))
        assert abs(value - old_value) <= old_bound + ulps
        assert bound >= old_bound - old_rounding / 4


@pytest.mark.parametrize(
    "factor",
    [(mp.mpf("nan"), 0.0), (mp.mpc(1, mp.inf), 0.0), (mp.mpf(1), math.inf), (1, mp.inf)],
    ids=["nan-value", "infinite-value", "infinite-float-bound", "infinite-mpf-bound"],
)
def test_certify_refuses_a_factor_that_is_not_finite(factor):
    """Refused on the first pass, and by certified_sum itself, so that a
    recheck cannot pass on a bound that says nothing."""
    with pytest.raises(PrecisionUnreachableError):
        certified_sum([[factor]])
    calls = []

    def piece(target):
        calls.append(target)
        return mp.mpf(2), 1e-30

    with pytest.raises(PrecisionUnreachableError) as info:
        zetasum.certify([[piece, factor], [(Fraction(1, 3), 0.0)]], 1e-10)
    assert len(calls) == 1
    assert info.value.achieved == math.inf


@pytest.mark.parametrize(
    "value", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "negative-int", "fraction"]
)
def test_factor_beyond_the_float_range_is_refused(value):
    """Its size is infinite, so it is refused like a factor that is not
    finite, by certified_sum and by certify's first-pass budget alike."""
    assert zetasum._read((value, 0.0), 64)[3] == math.inf
    with pytest.raises(PrecisionUnreachableError):
        certified_sum([[(value, 0.0)]])
    with pytest.raises(PrecisionUnreachableError) as info:
        zetasum.certify([[(value, 0.0), lambda t: (mp.mpf(1), t)]], 1e-10)
    assert info.value.achieved == math.inf


def test_certified_sum_reads_each_factor_once():
    """One ``_read`` per factor, whatever its type."""
    read = zetasum._read
    terms = [[(2, 0.0), (Fraction(1, 3), 1e-9)], [(mp.mpf(1) / 7, 0.0), (mp.mpc(1, 2), 1e-20)],
             [(0.5 + 1j, mp.mpf(2) ** -60)]]
    with mock.patch.object(zetasum, "_read", side_effect=read) as reader:
        certified_sum(terms)
    assert reader.call_count == 5


def test_factor_enters_with_its_own_bits(user_precision):
    """1/3 made at 200 bits less 1/3 is summed from the factor's own bits,
    not from the factor rounded to the 53 working bits (1.85e-17 away)."""
    with mp.workprec(200):
        third = mp.mpf(1) / 3
    value, bound = certified_sum([[(third, 0.0)], [(-Fraction(1, 3), 0.0)]])
    assert abs(value) < 1e-28 and abs(value) <= bound


def test_certify_refuses_a_failing_piece_under_its_own_target():
    """The piece's refusal is re-raised with the sum's target, carrying the
    piece's achieved bound, or more than the target where that is less."""

    def piece(achieved):
        def evaluate(target):
            raise PrecisionUnreachableError("piece missed", achieved=achieved)

        return evaluate

    with pytest.raises(PrecisionUnreachableError) as info:
        zetasum.certify([[(mp.mpf(3), 0.0), piece(1e-6)]], 1e-8)
    assert str(info.value) == (
        "piece missed; refused at the piece target 1.667e-09, set by m = 3.000e+00 "
        "of its term's other factors, under the sum's target 1.000e-08"
    )
    assert info.value.achieved == 1e-6
    with pytest.raises(PrecisionUnreachableError) as info:
        zetasum.certify([[(mp.mpf(1), 0.0), piece(1e-12)]], 1e-8)
    assert info.value.achieved > 1e-8


def test_reduced_refusal_names_the_fixed_factor(monkeypatch):
    """Te[9] at 0.0011 + 0.00001i, 128 bits, target 1e-10: Te^9's own bound
    of 3.338e-10 misses the target, and its coefficient is exactly 1, so the
    refusal names that bound and evaluates no piece: no c_k sum, no fragment
    and no nested-sum pass.  Te^9 alone refuses the same target."""
    _fresh(monkeypatch, numerics, "_fragments", "_orders", "_points")
    _fresh(monkeypatch, zetasum, "_cache")
    calls = _counting_fixed(monkeypatch)
    ctx = NumericContext(target_abs_error=1e-10, working_precision=128)
    z = mp.mpc(0.0011, 0.00001)
    with pytest.raises(PrecisionUnreachableError) as info:
        multitangent_eval_reduced(C(9), z, ctx)
    with ctx.workprec():
        _, bound = numerics._monotangent_at(9, numerics._checked(z, ctx.pole_guard))
    assert bound == pytest.approx(3.338e-10, rel=1e-3)
    assert f"its fixed factors' bounds carry {bound:.3e}" in str(info.value)
    assert info.value.achieved >= bound >= 3.3e-10
    assert calls == [] and len(numerics._orders) == len(numerics._fragments) == 0
    with pytest.raises(PrecisionUnreachableError) as mono:
        monotangent_eval(9, z, ctx)
    assert mono.value.achieved == bound


def test_certify_compares_the_fixed_terms_before_any_piece():
    """A term without a piece whose fixed factor's bound alone misses the
    target refuses the sum before the piece is evaluated, naming that bound.
    A fixed factor as loose next to a piece is not judged early: the piece
    may be small, and here the sum certifies."""
    calls = []

    def piece(value):
        def evaluate(target):
            calls.append(target)
            return mp.mpf(value), 0.0

        return evaluate

    with pytest.raises(PrecisionUnreachableError, match="fixed factors alone") as info:
        zetasum.certify([[piece(1)], [(mp.mpf(1), 1e-3)]], 1e-10)
    assert calls == [] and info.value.achieved >= 1e-3
    value, bound = zetasum.certify([[piece("1e-9"), (mp.mpf(1), 1e-3)]], 1e-10)
    assert len(calls) == 1 and bound <= 1e-10


def _recording_sums(passes, limit=8):
    """A stand-in for ``zetasum.certified_sum`` that keeps every result, and
    fails a certify loop that runs past ``limit`` passes instead of hanging."""

    def recording(terms):
        assert len(passes) < limit, "certify did not stop"
        passes.append(certified_sum(terms))
        return passes[-1]

    return mock.patch.object(zetasum, "certified_sum", side_effect=recording)


def test_certify_without_a_piece_raises_after_one_sum():
    """Nothing can tighten a sum of fixed factors, so a bound that misses
    is refused after the one certified sum."""
    passes = []
    with _recording_sums(passes), pytest.raises(PrecisionUnreachableError) as info:
        zetasum.certify([[(mp.mpf(1), 1e-3)], [(Fraction(1, 3), 0.0)]], 1e-10)
    assert len(passes) == 1
    assert info.value.achieved == passes[0][1]


def test_certify_refuses_when_the_fixed_factors_alone_miss():
    """A piece that meets every target next to a fixed factor whose bound
    alone misses: no piece target helps, so the sum is refused at once with
    the bound of the sum with the piece exact."""
    passes = []
    with _recording_sums(passes), pytest.raises(PrecisionUnreachableError) as info:
        zetasum.certify([[lambda t: (1, 0.0), (mp.mpf(3), 0.5)]], 1e-8)
    assert len(passes) <= 2
    assert info.value.achieved == passes[-1][1] >= 0.5


def test_certify_first_pass_targets():
    """Each piece first gets target / (2 n c max(1, m)): n terms, c pieces
    in its term, and m the product of |value| + bound of the other factors."""
    calls = {}

    def piece(name):
        def evaluate(target):
            calls[name] = target
            return mp.mpf(1), 0.0

        return evaluate

    target = 1e-8
    terms = [
        [piece("a"), (mp.mpf(3), 2.0**-30), piece("b")],
        [(Fraction(1, 3), 0.0)],
        [(mp.mpc("0.25", "0"), 0.0), piece("c")],
        [(-2, 0.0), (mp.mpf(5), 0.0), piece("d")],
    ]
    zetasum.certify(terms, target)
    n = len(terms)
    assert calls["a"] == pytest.approx(target / (2 * n * 2 * (3 + 2.0**-30)), rel=1e-12, abs=0)
    assert calls["b"] == calls["a"]
    assert calls["c"] == target / (2 * n)  # m = 1/4 is below 1
    assert calls["d"] == pytest.approx(target / (2 * n * 10), rel=1e-12, abs=0)


def test_piece_next_to_a_large_factor_certifies_on_the_first_pass():
    """A piece that uses all of its target, times a fixed 10^6, still meets
    the sum's target at once: the budget is divided by the factor's size."""
    calls, passes = [], []

    def piece(target):
        calls.append(target)
        return mp.mpf(1) / 3, target

    with _recording_sums(passes), mp.workprec(128):
        value, bound = zetasum.certify([[(mp.mpf(10) ** 6, 0.0), piece]], 1e-10)
    assert len(calls) == len(passes) == 1
    assert bound <= 1e-10


@pytest.mark.parametrize("prec", [24, 53, 128])
@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(-7, 5), Fraction(10**40, 3)])
def test_exact_rationals_round_once_within_their_certificate(prec, q):
    """An exact coefficient enters as (q, 0.0): its one conversion rounding,
    and the rounding of the value to the working precision, are counted."""
    with mp.workprec(prec):
        value, bound = certified_sum([[(q, 0.0)]])
    assert 0 < bound <= 2.0 ** (6 - prec) * abs(q)
    with mp.workprec(300):
        assert abs(value - mp.mpf(q.numerator) / q.denominator) <= bound


@pytest.mark.parametrize("k", range(1, 12))
@pytest.mark.parametrize(
    "z", [mp.mpc("0.0010001", "0"), mp.mpc("3.0010001", "0.0001"), mp.mpc("0.3", "2")],
    ids=["real-by-the-guard", "complex-by-the-guard", "im-2"],
)
def test_integer_monotangent_within_its_bound(k, z):
    """The Horner scheme on Gaussian integers against pi^k Q_k(cot pi z) at
    300 bits, next to the pole guard and far from the real axis."""
    with mp.workprec(128):
        value, bound = numerics._monotangent(k, numerics._cot(numerics._checked(z, CTX.pole_guard)))
    assert 0 < bound < math.inf
    with mp.workprec(300):
        c = mp.cot(mp.pi * z)
        exact = mp.pi**k * mp.fsum(mp.mpf(a.numerator) / a.denominator * c**j
                                   for j, a in cot_poly(k).items())
        assert abs(value - exact) <= bound


_TIGHT_CTX = NumericContext(target_abs_error=1e-45, working_precision=128)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda ctx: multitangent_eval_direct(C(2, 2), mp.mpc("0.3", "0.7"), ctx),
        lambda ctx: mzv_numeric(CoeffExpr.symbol(C(2)) * CoeffExpr.symbol(C(3)), ctx),
        lambda ctx: mzv_numeric(
            CoeffExpr.symbol(C(2, 2), 3) - CoeffExpr.symbol(C(3, 1)), ctx
        ),
    ],
    ids=["Te[2,2]", "Ze[2]*Ze[3]", "3Ze[2,2]-Ze[3,1]"],
)
def test_products_never_claim_below_their_rounding(evaluate):
    """A target the working precision cannot certify raises after one
    certify pass, or the value comes back within it of a 300-bit value."""
    with mp.workprec(300):
        ref = evaluate(NumericContext(target_abs_error=1e-55, working_precision=300))
    passes = []

    def recording(terms):
        passes.append(certified_sum(terms))
        return passes[-1]

    with mock.patch.object(zetasum, "certified_sum", side_effect=recording):
        try:
            value = evaluate(_TIGHT_CTX)
        except PrecisionUnreachableError as exc:
            # refused on the first pass's own bound, not by a piece later on
            assert [float(bound) for _, bound in passes] == [exc.achieved]
            return
    with mp.workprec(300):
        assert abs(value - ref) <= _TIGHT_CTX.target_abs_error


def test_nested_sum_cache_key_is_the_exact_point(monkeypatch):
    """Two points one ulp apart print alike at 128 bits; each keeps its own
    sum, so neither is served the other's value under its bound."""
    _fresh(monkeypatch, zetasum, "_cache")
    with mp.workprec(128):
        a = mp.mpc("0.3", "0.7")
        man, exp = a.real.man, a.real.exp
        b = mp.mpc(mp.mpf(from_man_exp(man + 1, exp)), a.imag)
        assert a != b and str(a) == str(b)
        shifted_nested_sum((3,), a, target=1e-42)
        value, bound = shifted_nested_sum((3,), b, target=1e-42)
    with mp.workprec(300):
        assert abs(value - mp.zeta(3, 1 + b)) <= bound


_POINT_CTX = NumericContext(target_abs_error=1e-40, working_precision=200)


def _te2_from_hurwitz(z):
    """Te[2] = He_+[2] + z^-2 + He_-[2]."""
    plus, minus = (hurwitz_eval(side, C(2), z, _POINT_CTX) for side in "+-")
    with _POINT_CTX.workprec():
        return plus + z**-2 + minus


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda z: multitangent_eval_direct(C(2), z, _POINT_CTX),
        lambda z: multitangent_eval_reduced(C(2), z, _POINT_CTX),
        lambda z: monotangent_eval(2, z, _POINT_CTX),
        _te2_from_hurwitz,
    ],
    ids=["direct", "reduced", "monotangent", "hurwitz"],
)
def test_point_keeps_the_working_precision(evaluate):
    """A 200-bit point is evaluated as given, not rounded to the caller's
    precision first: Te[2](z) = pi^2 / sin^2(pi z) within the 1e-40 target."""
    with mp.workprec(200):
        z = mp.mpf(1) / 3 + mp.mpc(0, 1) / 7
        exact = mp.pi**2 / mp.sin(mp.pi * z) ** 2
    value = evaluate(z)
    with mp.workprec(200):
        assert abs(value - exact) <= 1e-39


def _counting_certify(monkeypatch) -> list:
    """A fresh memo, and a counter of the certify calls behind it."""
    _fresh(monkeypatch, numerics, "_memo")
    calls = []
    certify = numerics.certify

    def counted(terms_at, target):
        calls.append(target)
        return certify(terms_at, target)

    monkeypatch.setattr(numerics, "certify", counted)
    return calls


_MEMO_Z = mp.mpc("0.3", "0.7")


class TestDirectMemo:
    def test_repeated_call_makes_no_certify_pass(self, monkeypatch):
        calls = _counting_certify(monkeypatch)
        first = multitangent_eval_direct(C(2, 3), _MEMO_Z, CTX)
        again = multitangent_eval_direct(C(2, 3), _MEMO_Z, CTX)
        assert len(calls) == 1
        assert again == first

    def test_tighter_target_recomputes_then_serves_looser(self, monkeypatch):
        calls = _counting_certify(monkeypatch)
        loose = NumericContext(target_abs_error=1e-6)  # met at about 2e-22
        tight = NumericContext(target_abs_error=1e-30)
        multitangent_eval_direct(C(3, 2), _MEMO_Z, loose)
        value = multitangent_eval_direct(C(3, 2), _MEMO_Z, tight)
        assert len(calls) == 2
        assert multitangent_eval_direct(C(3, 2), _MEMO_Z, CTX) == value
        assert multitangent_eval_direct(C(3, 2), _MEMO_Z, loose) == value
        assert len(calls) == 2

    def test_larger_cap_does_not_serve_smaller(self, monkeypatch):
        """Mirrors test_cached_nested_sum_respects_cap one layer up: the
        target misses at the floor cutoff 16, so the pieces are cached at 48."""
        calls = _counting_certify(monkeypatch)
        tight = NumericContext(target_abs_error=1e-24)
        multitangent_eval_direct(C(3), _MEMO_Z, tight)
        capped = NumericContext(target_abs_error=tight.target_abs_error, truncation_cap=20)
        with pytest.raises(PrecisionUnreachableError):
            multitangent_eval_direct(C(3), _MEMO_Z, capped)
        assert len(calls) == 2

    def test_refused_evaluation_is_not_stored(self, monkeypatch):
        calls = _counting_certify(monkeypatch)
        with pytest.raises(PrecisionUnreachableError):
            multitangent_eval_direct(C(2, 2), _MEMO_Z, _TIGHT_CTX)
        assert len(numerics._memo) == 0
        with pytest.raises(PrecisionUnreachableError):
            multitangent_eval_direct(C(2, 2), _MEMO_Z, _TIGHT_CTX)
        assert len(calls) == 2

    def test_memo_is_a_bounded_lru(self, monkeypatch):
        calls = _counting_certify(monkeypatch)
        ctx = NumericContext(target_abs_error=1e-6, working_precision=64)
        size = numerics._memo.maxsize
        points = [mp.mpc(mp.mpf(i) / 1024 + 0.25, 0.5) for i in range(size + 8)]
        for z in points[:size]:
            multitangent_eval_direct(C(2), z, ctx)
        multitangent_eval_direct(C(2), points[0], ctx)  # a hit refreshes the oldest
        for z in points[size:]:
            multitangent_eval_direct(C(2), z, ctx)
        assert len(numerics._memo) == size
        del calls[:]
        multitangent_eval_direct(C(2), points[-1], ctx)
        multitangent_eval_direct(C(2), points[0], ctx)
        assert calls == []
        multitangent_eval_direct(C(2), points[1], ctx)  # evicted
        assert len(calls) == 1


def _golden_sums(prec: int):
    """``certified_sum`` over int, Fraction, mpf, mpc and nested-sum entry
    factors at prec bits."""
    with mp.workprec(prec):
        entry = shifted_nested_sum((3, 1, 2), mp.mpc("0.3", "0.7"), target=1e-20)
        third = mp.mpf(1) / 3
        return certified_sum([[(7, 0.0), (Fraction(-5, 3), 0.0)],
                              [(third, 1e-30), (mp.mpc("0.25", "-1.5"), 2e-31)],
                              [entry, (Fraction(1, 7), 0.0)], [(-2, 0.0), entry, entry]])


def _golden_ctx(prec: int, target: float) -> NumericContext:
    return NumericContext(target_abs_error=target, working_precision=prec)


_GOLDEN_CASES = [
    lambda: multitangent_eval_direct(C(2, 3), mp.mpc("0.3", "0.7"), _golden_ctx(128, 1e-10)),
    lambda: multitangent_eval_direct(C(3, 1, 2), mp.mpc("-1.2", "0.4"), _golden_ctx(128, 1e-16)),
    lambda: multitangent_eval_direct(C(2, 1, 2), mp.mpc("2.039", "0.053"), _golden_ctx(100, 1e-12)),
    lambda: multitangent_eval_direct(C(5), mp.mpc("0.37", "1.1"), _golden_ctx(200, 1e-30)),
    lambda: multitangent_eval_reduced(C(1, 2, 2), mp.mpc("0.3", "0.7"), _golden_ctx(128, 1e-10)),
    lambda: multitangent_eval_reduced(C(3, 1, 2, 1), mp.mpc("0.1", "0.6"), _golden_ctx(128, 1e-12)),
    lambda: multitangent_eval_reduced(C(4), mp.mpc("0.25", "0.5"), _golden_ctx(128, 1e-10)),
    lambda: multitangent_eval_reduced(C(2, 2), mp.mpc("50000.3", "0.5"), _golden_ctx(128, 1e-10)),
    lambda: monotangent_eval(1, mp.mpf("0.25"), _golden_ctx(128, 1e-10)),
    lambda: monotangent_eval(3, mp.mpc("0.1", "0.6"), _golden_ctx(128, 1e-12)),
    lambda: monotangent_eval(7, mp.mpc("3.0010001", "0.0001"), _golden_ctx(200, 1e-10)),
    lambda: mzv_numeric(C(2, 1), _golden_ctx(128, 1e-20)),
    lambda: mzv_numeric(CoeffExpr.symbol(C(2, 2), 3) - CoeffExpr.symbol(C(3, 1)), _golden_ctx(200, 1e-40)),
    lambda: mzv_numeric(C(1, 2), _golden_ctx(64, 1e-12)),
    lambda: te_nk_closed_form(2, 3, mp.mpc("0.3", "0.7"), _golden_ctx(128, 1e-10)),
    lambda: hurwitz_eval("-", C(2, 3), mp.mpc("0.3", "0.7"), _golden_ctx(128, 1e-14)),
    lambda: shifted_nested_sum((2,), 0, target=1e-20),
    lambda: shifted_nested_sum((4, 1), mp.mpc("0.3", "0.7"), target=1e-25),
    lambda: _golden_sums(128),
    lambda: _golden_sums(53),
]
# (kind, mantissas and exponents of the value, bound or None), computed from
# cold caches at the session's ambient precision by the code before values
# travelled as fixed-point entries
_GOLDEN = [
    ('direct', (245611767461294307932664326934862968811, -126, 32626364100499645002533770868628792425, -125), None),
    ('direct', (270226818095510860679140695722958332081, -124, 153495286203380125697480289746346609771, -125), None),
    ('direct', (2290555915048905523941617, -146, 5149073282781658303177377, -146), None),
    ('direct', (465818278476790817612241134843258270386473359838975909543845, -200, 27985820978157393896426860687180577936431730359247874152881, -196), None),
    ('reduced', (261009410689477162123890173182392596347, -129, 46491135900332232115797284563624227523, -125), None),
    ('reduced', (88558288283800717829544764722246020505, -123, 132086506685452821665565992311702671849, -124), None),
    ('reduced', (81307232386907372899116715822813787367, -124, 113399402126448930166009354348796074805, -123), None),
    ('reduced', (178726318140524937566732730445148599205, -126, 26775887066605660037532254305985469741, -122), None),
    ('mono', (267257146016241686964920093290467695825, -126, 0, 0), None),
    ('mono', (330882548180176629085741699284002147989, -127, 203318021937768963547646068819821594869, -126), None),
    ('mono', (1006739636114906191931380421421377757879385371854239055610413, -130, 843862405400593671896554205856907523497923022764065724366213, -130), None),
    ('mzv', (204519384090400028213639061487325115543, -127), None),
    ('mzv', (869613190217921229506369744965953984293451750730191765856987, -198), None),
    ('mzv', (5543509013655225569, -61), None),
    ('te_nk', (117505481089927668301804208210925810651, -127, 10465069584952690949084881208563155309, -122), None),
    ('hurwitz', (259957054280200437315949890875834393907, -130, 117942006442374643855571478356007745255, -129), None),
    ('nested', (2347728351562562353929573074544529323574836335, -150, 0, 0), 5.471016437064278e-23),
    ('nested', (9261116390342729324611763836519764714033793, -150, 99645469301561200923802994940532200162993907, -151), 1.2552105174852423e-33),
    ('sum', (61577567409397441394452697361758080463, -122, 1338281136194690403426692964843267477, -121), 9.966908777604136e-23),
    ('sum', (6519778550941533, -49, 4534272860183289, -53), 6.490302104204823e-14),
]


@pytest.mark.parametrize("case, pinned", list(zip(_GOLDEN_CASES, _GOLDEN)),
                         ids=[f"{i}-{g[0]}" for i, g in enumerate(_GOLDEN)])
def test_public_values_are_pinned(case, pinned, monkeypatch):
    """Each public evaluator returns an mpmath number equal bit for bit to
    the pinned value, and a (value, bound) pair a bound no larger than the
    pinned one; a second call, a cache hit, returns the same value and
    bound."""
    _fresh(monkeypatch, numerics, "_memo", "_fragments", "_orders", "_points")
    _fresh(monkeypatch, zetasum, "_cache")
    kind, mantissas, pinned_bound = pinned
    first, again = case(), case()
    value, bound = first if pinned_bound is not None else (first, None)
    assert isinstance(value, mp.mpf if len(mantissas) == 2 else mp.mpc)
    parts = [value] if isinstance(value, mp.mpf) else [value.real, value.imag]
    assert tuple(x for part in parts for x in part.man_exp) == mantissas
    if pinned_bound is not None:
        assert type(bound) is float and bound <= pinned_bound
    assert again == first
