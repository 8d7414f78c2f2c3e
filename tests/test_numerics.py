import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from mpmath.libmp import from_man_exp, fzero
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
from multitangent.reduction import _order_terms, delta, reduce
from multitangent.verify import sample_points
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
        monkeypatch.setattr(numerics, "_fragments", {})
        monkeypatch.setattr(zetasum, "_cache", {})
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
        monkeypatch.setattr(numerics, "_fragments", {})
        monkeypatch.setattr(zetasum, "_cache", {})
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

    def test_tighter_target_replaces_the_entry(self, monkeypatch):
        monkeypatch.setattr(numerics, "_fragments", {})
        monkeypatch.setattr(zetasum, "_cache", {})
        cap = CTX.truncation_cap
        with CTX.workprec():
            _, loose = numerics._fragment_value((2, 1), 2, 1e-8, cap)
            (key,) = numerics._fragments
            assert numerics._fragment_value((2, 1), 2, 1e-8, cap)[1] == loose
            _, tight = numerics._fragment_value((2, 1), 2, float(loose) / 1e6, cap)
        assert tight <= loose / 1e6
        assert list(numerics._fragments) == [key]
        assert numerics._fragments[key][1] == tight

    def test_fragment_cache_is_bounded(self, monkeypatch):
        """The fragments of the weight-9 sequences, 2^9 - 9 of them at one
        precision, overflow a cache of 100."""
        monkeypatch.setattr(numerics, "_fragments", {})
        monkeypatch.setattr(numerics, "_FRAGMENT_SIZE", 100)
        ctx = NumericContext(target_abs_error=1e-8, working_precision=64)
        for s in enumerate_compositions(9):
            multitangent_eval_reduced(s, mp.mpc("0.3", "0.7"), ctx)
        assert len(numerics._fragments) == 100


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
        certified = numerics._order_coefficient

        def counted(terms, target, cap):
            calls.append(terms)
            return certified(terms, target, cap)

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


@given(st.integers(2, 5), st.integers(2, 5), _SHIFTS, st.sampled_from((48, 144)))
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
    """On a cold cache Te[s](z) costs one pass for s at z and one for the
    reversed s at -z; every shorter split piece is a stored prefix."""
    monkeypatch.setattr(numerics, "_memo", {})
    monkeypatch.setattr(zetasum, "_cache", {})
    calls = _counting_fixed(monkeypatch)
    for parts in _convergent(depth):
        zetasum._cache.clear()
        del calls[:]
        multitangent_eval_direct(Composition(parts), mp.mpc("0.3", "0.7"), CTX)
        assert [args[0] for args in calls] == [parts, parts[::-1]]


class TestEulerMaclaurinEngine:
    @pytest.mark.parametrize("z", ["0", "0.3+0.7i"])
    @pytest.mark.parametrize("b", [0, 1, 2])
    @pytest.mark.parametrize("a", [1, 2, 3, 5])
    def test_template_obeys_euler_maclaurin(self, a, b, z):
        """A level sums (n+z)^-a times each term (n+z)^-b of the tail below
        (b = 0 at the first level, where T_0 = 1).  Past N that sum is
        G_(a+b)(N+z) + R with |R| <= rho, the remainder the engine adds for
        it, against mpmath's Hurwitz zeta; a + b = 1 diverges and has no
        template."""
        if a + b < 2:
            with pytest.raises(ValueError):
                zetasum._em_template(a + b)
            return
        with mp.workprec(200):
            z = mp.mpc(0) if z == "0" else mp.mpc("0.3", "0.7")
            N = 48
            G = mp.fsum(
                mp.mpf(e.numerator) / e.denominator * mp.power(N + z, -k)
                for k, e in zetasum._em_template(a + b)
            )
            rho = zetasum._Cutoff(z, N, 1).envelope(zetasum._tail((a + b,)), fzero)
            assert abs(mp.zeta(a + b, N + 1 + z) - G) <= mp.make_mpf(rho)

    def test_caches_do_not_leak_precision(self):
        def run():
            with mp.workprec(200):
                result = shifted_nested_sum_fixed((3, 1, 2), 0.3 + 0.7j, 48)
                return [(v.real._mpf_, v.imag._mpf_, e._mpf_) for v, e in result.prefixes]

        caches = (zetasum._em_template, zetasum._em_integers, zetasum._tail)
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
        arithmetic, keyed by prefix: the oracle of ``zetasum._tail``."""

        def dense(coefs):
            lo = min(coefs)
            den = math.lcm(*(c.denominator for c in coefs.values()))
            return den, lo, tuple(int(coefs.get(k, 0) * den) for k in range(lo, max(coefs) + 1))

        K = zetasum._EM_ORDER
        expansions = {(): ({0: Fraction(1)}, 2 * K)}
        out = {}
        for prefix in sorted(prefixes, key=len):
            s = prefix[-1]
            inner, beta = expansions[prefix[:-1]]
            E, V, W = {}, {}, {}
            for b, c in inner.items():
                for k, e in zetasum._em_template(b + s):
                    E[k] = E.get(k, 0) + c * e
                V[b + s] = c
                W[b + s + 2 * K] = abs(c) * zetasum._remainder_weight(b + s)
            for k, e in E.items():
                V[k] = V.get(k, 0) + e
            expansions[prefix] = {k: e for k, e in E.items() if e}, beta + s - 1
            out[prefix] = dense(E), dense(V), dense(W), beta + s - 1, max(V)
        return out

    def test_integer_tails_match_fraction_oracle(self):
        """Every prefix of every convergent word of weight <= 8, of its
        reversal and of (2,1,1,1,1,1,1,1,1,2): the same layouts, each over
        its least common denominator."""
        words = [tuple(c) for w in range(2, 9) for c in enumerate_compositions(w, "mzv")]
        words += [w[::-1] for w in words if w[-1] >= 2] + [(2, 1, 1, 1, 1, 1, 1, 1, 1, 2)]
        prefixes = {w[:j] for w in words for j in range(1, len(w) + 1)}
        for prefix, expected in self._fraction_tails(prefixes).items():
            tail = zetasum._tail(prefix)
            assert (tail.E, tail.V, tail.W, tail.beta, tail.top) == expected, prefix
            for den, _, nums in (tail.E, tail.V, tail.W):
                assert math.gcd(den, *nums) == 1

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
            "1.64493406684822643647241509630888624473071",
            "0.0",
            "3.52516390356721033023574798273e-23",
        ),
        (
            (3, 1, 2),
            ("0", "0"),
            "0.0792213975652071659990327464988313769098181",
            "0.0",
            "2.8593416176164226641079031313e-23",
        ),
        (
            (2, 1, 1, 1, 1, 1, 1),
            ("0", "0"),
            "1.00407735619794433937868213777023011715254",
            "0.0",
            "1.96503794087919926720625476542e-21",
        ),
        (
            (4, 1),
            ("0.3", "0.7"),
            "0.00648879408786032986777054119969595709637012",
            "-0.0349082607773008532814685085256813677660524",
            "2.9559441185940478814456262643e-24",
        ),
        (
            (2, 2, 1),
            ("0.3", "0.7"),
            "0.0669311576546047760975157000987273694746458",
            "-0.0917892136696148919189774705065448335350587",
            "8.10248966962173526108627130099e-23",
        ),
        (
            (3,),
            ("-1.6", "-0.4"),
            "-3.06086468680552691564219169658722633763752",
            "6.81157389906611305658318267792551167668995",
            "8.06524226855569905651958706298e-24",
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
        monkeypatch.setattr(zetasum, "_cache", {})
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


def test_nested_sum_cache_key_is_the_exact_point(monkeypatch):
    """Two points one ulp apart print alike at 128 bits; each keeps its own
    sum, so neither is served the other's value under its bound."""
    monkeypatch.setattr(zetasum, "_cache", {})
    with mp.workprec(128):
        a = mp.mpc("0.3", "0.7")
        man, exp = zetasum._man_exp(a.real)
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
    monkeypatch.setattr(numerics, "_memo", {})
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
        """Mirrors test_cached_nested_sum_respects_cap one layer up."""
        calls = _counting_certify(monkeypatch)
        multitangent_eval_direct(C(3), _MEMO_Z, CTX)
        capped = NumericContext(target_abs_error=CTX.target_abs_error, truncation_cap=20)
        with pytest.raises(PrecisionUnreachableError):
            multitangent_eval_direct(C(3), _MEMO_Z, capped)
        assert len(calls) == 2

    def test_refused_evaluation_is_not_stored(self, monkeypatch):
        calls = _counting_certify(monkeypatch)
        with pytest.raises(PrecisionUnreachableError):
            multitangent_eval_direct(C(2, 2), _MEMO_Z, _TIGHT_CTX)
        assert numerics._memo == {}
        with pytest.raises(PrecisionUnreachableError):
            multitangent_eval_direct(C(2, 2), _MEMO_Z, _TIGHT_CTX)
        assert len(calls) == 2

    def test_memo_is_a_bounded_lru(self, monkeypatch):
        calls = _counting_certify(monkeypatch)
        ctx = NumericContext(target_abs_error=1e-6, working_precision=64)
        size = zetasum._MEMO_SIZE
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
