"""Acceptance criteria, one test per criterion, each printing a pass line.

Tolerances and runtime budgets are pinned here; run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion report.
"""

import time
from fractions import Fraction

import mpmath as mp
import pytest

from multitangent.exact import CoeffExpr, PiRational
from multitangent.families import te_nk_closed_form, te_nk_exact
from multitangent.lab import (
    MtCombo,
    kernel_contains,
    projection,
    rank_matrix,
    relation_kernel,
    te2_basis_coefficient,
)
from multitangent.mzv import NumericContext, even_zeta, mzv_numeric
from multitangent.numerics import (
    fourier_coefficient,
    monotangent_eval,
    multitangent_eval_direct,
    multitangent_eval_reduced,
    trifactorization_residual,
)
from multitangent.reduction import reduce
from multitangent.verify import run_suite, sample_points
from multitangent.words import Composition, repeat, stuffle

from fourier_sums import fourier_partial_sum, fourier_tail_envelope

C = Composition.of


def report(number: int, description: str, elapsed: float | None = None):
    suffix = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    print(f"[PASS] criterion {number}: {description}{suffix}")


IM = (0.4, 1.2)  # the Im z range of the sample points


@pytest.fixture(scope="module", autouse=True)
def warm_table():
    # table verification and caches are shared state, not part of any
    # criterion's runtime budget
    from multitangent.basis_table import MzvBasisTable

    MzvBasisTable.shared()
    yield


def test_criterion_1_reduction_exactness():
    t0 = time.monotonic()
    red = reduce(C(2, 2))
    assert not red.constant
    assert red.coeffs == {2: CoeffExpr.symbol(C(2), 2)}

    ctx = NumericContext(target_abs_error=1e-10)
    for k, expr in reduce(C(2, 1, 2)).coeffs.items():
        assert abs(mzv_numeric(expr, ctx)) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, "reduce((2,2)) = 2 Ze[2] Te^2 exactly; reduce((2,1,2)) = 0 at 1e-9", elapsed)


def test_criterion_2_weight6_relation_both_pipelines():
    t0 = time.monotonic()
    ctx = NumericContext(target_abs_error=1e-9)
    a, b = repeat(2, 3), repeat(3, 2)
    for z in sample_points(5, 206, IM):
        direct = 3 * multitangent_eval_direct(a, z, ctx) + 2 * multitangent_eval_direct(b, z, ctx)
        reduced = 3 * multitangent_eval_reduced(a, z, ctx) + 2 * multitangent_eval_reduced(b, z, ctx)
        assert abs(direct) <= 1e-7
        assert abs(reduced) <= 1e-7
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(2, "3 Te[2,2,2] + 2 Te[3,3] = 0 at 1e-7, 5 points, both pipelines", elapsed)


def test_criterion_3_zagier_family():
    t0 = time.monotonic()
    ctx = NumericContext(target_abs_error=1e-10)
    for n in range(1, 5):
        nested = mzv_numeric(CoeffExpr.symbol(repeat(2, n)), ctx)
        with ctx.workprec():
            closed = mp.pi ** (2 * n) / mp.factorial(2 * n + 1)
            assert abs(nested - closed) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(3, "Ze[2^n] = pi^(2n)/(2n+1)! at 1e-9 for n = 1..4", elapsed)


def test_criterion_4_divergent_regularization():
    assert reduce(C(2, 1)).is_zero()
    assert reduce(C(1, 2)).is_zero()
    red = reduce(C(1, 1))
    assert red.constant == PiRational({2: Fraction(-1, 2)}) and not red.coeffs

    # symmetrelity with the vanishing pair: Te^2 Te^1 = Te^3
    expansion = stuffle(C(2), C(1))
    assert expansion[C(2, 1)] == 1 and expansion[C(1, 2)] == 1 and expansion[C(3)] == 1
    ctx = NumericContext(target_abs_error=1e-9)
    for z in sample_points(3, 204, IM):
        lhs = monotangent_eval(2, z, ctx) * monotangent_eval(1, z, ctx)
        rhs = monotangent_eval(3, z, ctx)
        assert abs(lhs - rhs) <= 1e-7
    report(4, "reduce((2,1)) = reduce((1,2)) = 0, reduce((1,1)) = -pi^2/2, Te^2 Te^1 = Te^3")


def test_criterion_5_closed_family():
    t0 = time.monotonic()
    ctx = NumericContext(target_abs_error=1e-8)
    cases = [(2, 1), (2, 2), (2, 3), (3, 2)]
    for n, k in cases:
        for z in sample_points(2, 500 + 10 * n + k, IM):
            closed = te_nk_closed_form(n, k, z, ctx)
            direct = multitangent_eval_direct(repeat(n, k), z, ctx)
            assert abs(closed - direct) <= 1e-6

    # exact coefficient: Te[2,2] = (2^(2k-1) pi^(2k-2)/(2k)!) Te^2 at k = 2,
    # i.e. 2 Ze[2] = 2^3 pi^2/4! = pi^2/3
    coeff = reduce(C(2, 2)).coeffs[2]
    assert coeff == CoeffExpr.symbol(C(2), 2)
    formula = PiRational({2: Fraction(2**3, 24)})
    assert even_zeta(1) * 2 == formula == PiRational({2: Fraction(1, 3)})
    assert te_nk_exact(2, 2) == {2: Fraction(1, 3)}
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(5, "closed family matches direct sums at 1e-6; Te[2,2] = (pi^2/3) Te^2 exactly", elapsed)


def test_criterion_6_trifactorization():
    ctx = NumericContext(target_abs_error=1e-9)
    for parts in [(2,), (3,), (2, 2), (3, 2), (2, 3)]:
        for z in sample_points(3, 600 + sum(parts), IM):
            value, bound = trifactorization_residual(Composition(parts), z, ctx)
            assert abs(value) <= bound and abs(value) <= 1e-7
    report(
        6,
        "trifactorization residual within its bound and <= 1e-7 "
        "on {(2),(3),(2,2),(3,2),(2,3)} x 3 points",
    )


def test_criterion_7_fourier():
    ctx = NumericContext(target_abs_error=1e-10)
    # T_hat_1 for Te^2 against the q-expansion of pi^2/sin^2(pi z)
    t_hat_1 = fourier_coefficient(C(2), 1, ctx)
    assert abs(t_hat_1 - 4 * mp.pi**2) <= 1e-8
    with ctx.workprec():
        z = mp.mpc("0.3", 4)
        q = mp.exp(2j * mp.pi * z)
        q_coeff = monotangent_eval(2, z, ctx) / q  # -> -4 pi^2 as Im z grows
        assert abs(-q_coeff - t_hat_1) <= 1e-8

    # partial sums against direct evaluation with the predicted envelope
    s = C(2, 2)
    y = mp.mpf("1.5")
    z = mp.mpc("0.21", y)
    direct = multitangent_eval_direct(s, z, NumericContext(target_abs_error=1e-14))
    for n_terms in (1, 2, 3):
        partial = fourier_partial_sum(s, z, n_terms, ctx)
        envelope = fourier_tail_envelope(s, n_terms, float(y), ctx) * mp.exp(
            -2 * mp.pi * (n_terms + 1) * y
        )
        assert abs(direct - partial) <= envelope
    report(7, "T_hat_1[Te^2] = 4 pi^2 at 1e-8; Fourier partials obey the e^(-2 pi (N+1) 1.5) envelope")


def test_criterion_8_relation_kernels():
    t0 = time.monotonic()
    ctx = NumericContext(target_abs_error=1e-9)
    kernel6 = relation_kernel(6, ctx)
    assert len(kernel6) == 4
    kernel7 = relation_kernel(7, ctx)
    assert len(kernel7) == 10
    assert kernel_contains(
        6, MtCombo({C(3, 1, 2): 1, C(2, 1, 3): 1, C(2, 1, 1, 2): 1})
    )
    assert kernel_contains(7, MtCombo({C(2, 1, 1, 1, 2): 1}))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(8, "kernel dims 4 (weight 6) and 10 (weight 7); the classical relations are members", elapsed)


def test_criterion_9_rank_matrices():
    for p, expected in [(4, 1), (5, 2), (6, 2), (7, 3)]:
        _, r = rank_matrix(p)
        assert r == expected

    # reference eight-equation system at weight 4 (the (2,4) equation listed
    # twice); its Te^2 column over the Ze[4] basis is (4,-6,4,4,-1,4,-1,2)
    reference_rows = [
        (2, 4), (3, 3), (4, 2), (2, 4), (2, 1, 3), (2, 2, 2), (3, 1, 2), (2, 1, 1, 2),
    ]
    reference_column = [4, -6, 4, 4, -1, 4, -1, 2]
    computed = [te2_basis_coefficient(Composition(parts))[0] for parts in reference_rows]
    assert sorted(computed) == sorted(Fraction(v) for v in reference_column)
    # the remaining convergent weight-6 sequence is the monotangent, row 0
    assert te2_basis_coefficient(C(6)) == [Fraction(0)]
    report(9, "ranks 1,2,2,3 for p = 4..7; weight-4 column (4,-6,4,4,-1,4,-1,2) reproduced")


def test_criterion_10_projections():
    ctx = NumericContext(target_abs_error=1e-9)
    zeta = lambda parts: mzv_numeric(CoeffExpr.symbol(Composition(parts)), ctx)

    cases = {
        (2,): MtCombo({C(2, 2): Fraction(1, 2)}),
        (3,): MtCombo({C(3, 2): Fraction(1, 6), C(2, 3): Fraction(-1, 6)}),
        (5,): MtCombo(
            {
                C(2, 5): Fraction(1, 30),
                C(3, 4): Fraction(1, 15),
                C(4, 3): Fraction(-1, 15),
                C(5, 2): Fraction(-1, 30),
            }
        ),
    }
    for parts, expected in cases.items():
        sigma = Composition(parts)
        got = projection(sigma, ctx)  # includes the mandatory numeric recheck
        diff = got - expected
        if diff:
            assert kernel_contains(sigma.weight + 2, diff)
        for z in sample_points(2, 1000 + sum(parts), IM):
            lhs = zeta(parts) * monotangent_eval(2, z, ctx)
            assert abs(lhs - got.evaluate(z, ctx)) <= 1e-7
    report(10, "projections of Ze[2], Ze[3], Ze[5] match the tables mod kernel, rechecked at 1e-7")


def test_criterion_11_property_suites():
    t0 = time.monotonic()
    # exhaustive word algebra
    from multitangent.words import compositions_of, WordPoly
    from test_words import stuffle_poly

    seqs5 = [s for w in range(0, 6) for s in compositions_of(w)]
    for a in seqs5:
        for b in seqs5:
            if a.weight + b.weight <= 5:
                assert stuffle(a, b) == stuffle(b, a)
    for a in seqs5:
        for b in seqs5:
            for c in seqs5:
                if a.weight + b.weight + c.weight <= 5:
                    assert stuffle_poly(stuffle(a, b), WordPoly.single(c)) == stuffle_poly(
                        WordPoly.single(a), stuffle(b, c)
                    )

    # analytic suites; flatness runs the 20-point vertical sweep
    for name in ("symmetrel", "parity", "diff", "flatness"):
        result = run_suite(name)
        assert result.ok, (name, result.failures)
    elapsed = time.monotonic() - t0
    report(11, "word-algebra laws exhaustive to weight 5; analytic suites clean", elapsed)
