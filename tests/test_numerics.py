import random
from unittest import mock

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
from multitangent.exact import CoeffExpr
from multitangent.reduction import reduce
from multitangent.words import Composition, enumerate_compositions
from multitangent import zetasum
from multitangent.zetasum import (
    certified_sum,
    shifted_nested_sum,
    shifted_nested_sum_fixed,
)

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


def _counting_fixed(monkeypatch) -> list:
    """Route shifted_nested_sum's fixed-cutoff calls through a counter."""
    calls = []
    fixed = zetasum.shifted_nested_sum_fixed

    def counted(*args):
        calls.append(args)
        return fixed(*args)

    monkeypatch.setattr(zetasum, "shifted_nested_sum_fixed", counted)
    return calls


def test_nested_sum_cache_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(zetasum, "_cache", {})
    size = zetasum._CACHE_SIZE
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
    monkeypatch.setattr(zetasum, "_cache", {})
    calls = _counting_fixed(monkeypatch)
    with mp.workprec(128):
        with pytest.raises(PrecisionUnreachableError) as info:
            shifted_nested_sum((3,), 0, target=1e-60)
    assert len(calls) == 1
    assert info.value.achieved > 1e-60


def test_bound_covers_rounding_below_working_precision(monkeypatch):
    monkeypatch.setattr(zetasum, "_cache", {})
    with mp.workprec(128):
        v, e = shifted_nested_sum((3,), 0, target=1e-45)
    assert e <= 1e-45
    with mp.workprec(300):
        assert abs(v - mp.zeta(3)) <= e


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
    """|value - reference| <= bound + reference bound, for the fixed cutoff
    and for targets below 2^-prec; the reference is a 400-bit sum at
    n0 = 144."""
    z = mp.mpc(*shift) / 16
    with mp.workprec(400):
        ref, ref_bound = shifted_nested_sum_fixed(parts, z, 144)
    results = []
    # a fresh cache: these sums must not serve later tests at their targets
    with mp.workprec(prec), mock.patch.dict(zetasum._cache, clear=True):
        results.append(shifted_nested_sum_fixed(parts, z, 48))
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


class TestEulerMaclaurinEngine:
    @pytest.mark.parametrize("z", ["0", "0.3+0.7i"])
    @pytest.mark.parametrize("b", [0, 1, 2])
    @pytest.mark.parametrize("a", [1, 2, 3, 5])
    def test_template_obeys_euler_maclaurin(self, a, b, z):
        """sum_{m=N}^{n-1} g(m) = G(n) - G(N) + R with |R| <= rho(a, b)."""
        with mp.workprec(200):
            z = 0 if z == "0" else mp.mpc("0.3", "0.7")
            D, flat_g, _ = zetasum._em_template(a, b)

            def G(t):
                terms = zetasum._triples(flat_g)
                return mp.fsum(
                    num * mp.power(t + z, -a2) * mp.log(t + z) ** b2 for a2, b2, num in terms
                ) / D

            N, n = 48, 248
            g = [mp.power(m + z, -a) * mp.log(m + z) ** b for m in range(N, n)]
            rho = zetasum._Cutoff(z, N).rho(a, b)
            assert abs(mp.fsum(g) - (G(n) - G(N))) <= rho

    def test_caches_do_not_leak_precision(self):
        def run():
            with mp.workprec(200):
                v, e = shifted_nested_sum_fixed((3, 1, 2), 0.3 + 0.7j, 48)
                return v.real._mpf_, v.imag._mpf_, e._mpf_

        caches = (zetasum._em_template, zetasum._int_powlog)
        with mp.workprec(64):
            shifted_nested_sum_fixed((3, 1, 2), 0.3 + 0.7j, 48)
        warm = run()
        for cache in caches:
            cache.cache_clear()
        assert run() == warm
        assert all(cache.cache_info().maxsize is not None for cache in caches)

    def test_python_int_shift_stays_in_mp_arithmetic(self):
        # with float arithmetic anywhere the error would be near 1e-17
        with mp.workprec(200):
            v, e = shifted_nested_sum_fixed((3,), 0, 48)
            assert e < mp.mpf("1e-20")
            assert abs(v - mp.zeta(3)) <= e

    # (value, bound) of the engine at 128 bits, default target, pinned so
    # later changes to the cutoff or the rounding have a fixed reference
    GOLDEN = [
        (
            (2,),
            ("0", "0"),
            "1.64493406684822643647241509630888624473646",
            "0.0",
            "3.52516390356720873138448259042e-23",
        ),
        (
            (3, 1, 2),
            ("0", "0"),
            "0.0792213975652071659990327885973465636921836",
            "0.0",
            "7.98798512964936888168082454086e-23",
        ),
        (
            (2, 1, 1, 1, 1, 1, 1),
            ("0", "0"),
            "1.00407735619794433937868523520145753719794",
            "0.0",
            "2.31633199980870084280178045279e-16",
        ),
        (
            (4, 1),
            ("0.3", "0.7"),
            "0.00648879408786032986777054326336256916392558",
            "-0.034908260777300853281468509044513844548512",
            "5.82221724617657314695239385252e-24",
        ),
        (
            (2, 2, 1),
            ("0.3", "0.7"),
            "0.0669311576546047760975157591231984285385678",
            "-0.0917892136696148919189774964050295441684103",
            "1.10514497989745371167843959134e-22",
        ),
        (
            (3,),
            ("-1.6", "-0.4"),
            "-3.06086468680552691564219169658722633762081",
            "6.81157389906611305658318267792551167665005",
            "8.06524226855569763398229507803e-24",
        ),
    ]

    @pytest.mark.parametrize(
        "parts, z, re, im, bound",
        GOLDEN,
        ids=[f"{','.join(map(str, g[0]))}@{g[1][0]},{g[1][1]}" for g in GOLDEN],
    )
    def test_golden_values(self, parts, z, re, im, bound):
        with mp.workprec(128):
            v, e = shifted_nested_sum(parts, mp.mpc(*z))
            bound = mp.mpf(bound)
            assert abs(v - mp.mpc(re, im)) <= mp.mpf("1e-6") * bound
            assert abs(e - bound) <= mp.mpf("1e-20") * bound


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
