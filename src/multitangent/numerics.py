"""Numeric evaluation of monotangents, multitangents and Hurwitz-type sums,
plus the analytic cross-checks (trifactorization, Fourier data, growth
bounds, exponential flatness).

Monotangents are evaluated through exact cotangent polynomials.  Bilateral
multitangent sums are evaluated by splitting the summation range into a
positive part, the n = 0 pivot and a negative part; each one-sided piece is
an absolutely convergent shifted nested sum handled by
:mod:`multitangent.zetasum` with a certified error bound, and
``zetasum.certify`` certifies the sum over splits.  This direct bilateral
evaluation is the right side of the trifactorization check.

The left side is the reduction into monotangents, evaluated without
expanding its coefficients: each coefficient is a certified sum of products
of two fragment values, zeta values at 0 that do not depend on the point.
They are cached per fragment, precision and cap.  The two sides share no
nested-sum value: zeta values at 0 times cotangent polynomials on the left,
shifted sums at +-z on the right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import PoleProximityError, PrecisionUnreachableError
from .mzv import DEFAULT_CONTEXT, NumericContext, _certified
from .reduction import _fragment, _order_terms, delta
from .words import Composition, is_multitangent_convergent
from .zetasum import (
    _FRAGMENT_SIZE,
    _MEMO_SIZE,
    cache_lookup,
    cache_store,
    certify,
    shifted_nested_sum,
)

_memo: dict = {}  # multitangent_eval_direct's (value, bound), least recently used first
_fragments: dict = {}  # _fragment_value's (value, bound), least recently used first


def check_point(z, guard: float = DEFAULT_CONTEXT.pole_guard):
    """The point rounded at the working precision; raises ValueError if it
    is not finite and PoleProximityError within ``guard`` of an integer pole."""
    z = mp.mpc(z)
    if not mp.isfinite(z):
        raise ValueError(f"evaluation point {z} is not finite")
    nearest = mp.mpc(mp.nint(mp.re(z)), 0)
    if abs(z - nearest) < guard:
        raise PoleProximityError(f"{z} is within {guard} of an integer")
    return z


@lru_cache(maxsize=64)
def cot_poly(k: int) -> dict[int, Fraction]:
    """Te^k / pi^k as an exact polynomial in c = cot(pi z): degree -> rational.

    Te^1 = pi c, and Te^(k+1) = -(1/k) d/dz Te^k with c' = -pi (1 + c^2),
    so the recurrence stays polynomial and every Te^k carries pi^k overall;
    the caller multiplies pi^k back in.
    """
    if k < 1:
        raise ValueError("monotangent order must be >= 1")
    if k == 1:
        return {1: Fraction(1)}
    nxt: dict[int, Fraction] = {}
    for j, a in cot_poly(k - 1).items():
        for jj in (j - 1, j + 1):
            nxt[jj] = nxt.get(jj, Fraction(0)) + a * j
    return {j: a / (k - 1) for j, a in nxt.items() if a}


def monotangent_eval(k: int, z, ctx: NumericContext = DEFAULT_CONTEXT):
    """Te^k(z) through the exact cotangent polynomial, so the derivative
    relation Te^(k+1) = -(1/k) d/dz Te^k holds by construction."""
    with ctx.workprec():
        z = check_point(z, ctx.pole_guard)
        c = mp.cot(mp.pi * z)
        total = mp.mpc(0)
        for j, coef in cot_poly(k).items():
            total += mp.mpf(coef.numerator) / coef.denominator * c**j
        return mp.pi**k * total


def _splits(s: Composition):
    """Deconcatenations s1 . s2 . s3 with the middle of length <= 1.  The
    two with an empty side come first: their one-sided sums run over all of
    s, and each pass stores every prefix, so the shorter pieces are cache
    hits."""
    r = s.length
    for a in (r, *range(r)):
        yield s.parts[:a], (), s.parts[a:]
    for a in range(r):
        yield s.parts[:a], (s.parts[a],), s.parts[a + 1 :]


def _one_sided(side: str, parts: tuple, z, target: float, cap: int):
    """(value, error bound) of the one-sided sum He_side[parts](z); the "-"
    side is (-1)^weight times the "+" side of the reversed parts at -z (the
    sign's rounding is the one ``zetasum.certified_sum`` counts per factor)."""
    if side == "+":
        return shifted_nested_sum(parts, z, target=target, cap=cap)
    v, e = shifted_nested_sum(tuple(reversed(parts)), -z, target=target, cap=cap)
    return v * (-1) ** sum(parts), e


def multitangent_eval_direct(
    s: Composition, z, ctx: NumericContext = DEFAULT_CONTEXT
):
    """Bilateral nested sum for a convergent sequence, via the three-way
    split into positive-index, zero-pivot and negative-index chains: the
    trifactorization sum over splits of He_+ * Ce * He_-.

    The split terms are certified by ``zetasum.certify``, which shrinks the
    piece targets until the bound, rounding included, meets the context
    target.  The last ``_MEMO_SIZE`` results serve later calls they meet.
    """
    if not is_multitangent_convergent(s):
        raise ValueError(f"{s} is not a convergent multitangent index")
    with ctx.workprec():
        z = check_point(z, ctx.pole_guard)
        key = (s, z._mpc_, mp.mp.prec, ctx.truncation_cap)
        hit = cache_lookup(_memo, key, ctx.target_abs_error)
        if hit is not None:
            return hit[0]
        pieces = list(_splits(s))
        budget = ctx.target_abs_error / (8 * len(pieces))

        def terms_at(scale):
            target, cap = budget * scale, ctx.truncation_cap
            terms = []
            for left, mid, right in pieces:
                factors = []
                if left:
                    factors.append(_one_sided("+", left, z, target, cap))
                if mid:
                    # the exact power rounded at 4 extra bits, then its reciprocal
                    w = mp.power(z, -mid[0])
                    factors.append((w, mp.ldexp(abs(w), 1 - mp.mp.prec)))
                if right:
                    factors.append(_one_sided("-", right, z, target, cap))
                terms.append(factors)
            return terms

        value, bound = certify(terms_at, ctx.target_abs_error)
        cache_store(_memo, key, (value, bound), _MEMO_SIZE)
        return value


def _fragment_value(parts: tuple, a: int, target: float, cap: int):
    """(value, bound) of the fragment coefficient [X^a] Ze[parts](X) at the
    working precision, within ``target``.  It does not depend on the point,
    so one entry serves every point and every sequence that shares it."""
    key = (parts, a, mp.mp.prec, cap)
    hit = cache_lookup(_fragments, key, target)
    if hit is None:
        hit = _certified(_fragment(parts, a), target, cap)
        cache_store(_fragments, key, hit, _FRAGMENT_SIZE)
    return hit


def _order_coefficient(terms: list, target, cap: int):
    """(value, bound) of c_k within ``target``: the certified sum of the
    fragment products of its terms in ``reduction._order_terms``."""
    # most fragment values are below 1 (a few reach 35 by weight 9);
    # when a first pass misses, certify retries at tighter targets
    first = target / (4 * len(terms))

    def terms_at(scale):
        piece, products = first * scale, []
        for sign, right, a_r, left, a_l in terms:
            v, e = _fragment_value(right, a_r, piece, cap)
            products.append([(sign * v, e), _fragment_value(left, a_l, piece, cap)])
        return products

    return certify(terms_at, target)


def multitangent_eval_reduced(
    s: Composition, z, ctx: NumericContext = DEFAULT_CONTEXT
):
    """Evaluate Te[s](z) from its reduction into monotangents,

        Te[s](z) = delta(s) + sum_k c_k Te^k(z),

    where c_k, the sum over i of Z(i, s_i - k; s), is certified as a sum of
    products of two cached fragment values (``_order_coefficient``), the
    terms that ``reduction.z_coeff`` folds exactly.  No exact coefficient is
    expanded; a second point costs the monotangents and these products.

    Monotangent values can be large near the real axis, so each coefficient's
    error budget is scaled by the monotangent magnitude it multiplies.
    """
    if not s:
        raise ValueError("empty sequence")
    with ctx.workprec():
        z = check_point(z, ctx.pole_guard)
        orders = _order_terms(s)
        total = mp.mpc(delta(s).to_mpf())
        for k, terms in sorted(orders.items()):
            mono = monotangent_eval(k, z, ctx)
            budget = float(ctx.target_abs_error / (2 * len(orders) * (abs(mono) + 1)))
            total += _order_coefficient(terms, budget, ctx.truncation_cap)[0] * mono
        return total


def hurwitz_eval(side: str, s: Composition, z, ctx: NumericContext = DEFAULT_CONTEXT):
    """One-sided Hurwitz nested sum He_+ / He_- at z.

    side "+": sum over 0 < n_r < ... < n_1, convergent for first part >= 2;
    side "-": sum over n_r < ... < n_1 < 0, convergent for last part >= 2.
    The length-one sequence (1) uses the subtracted series
    sum (1/(n+z) - 1/n), i.e. a digamma value.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    with ctx.workprec():
        # poles sit at z = -1, -2, ... for the + side and 1, 2, ... for the - side
        z = mp.mpc(z)
        pole_dir = -1 if side == "+" else 1
        nearest = mp.nint(mp.re(z))
        if pole_dir * nearest >= 1 and abs(z - mp.mpc(nearest, 0)) < ctx.pole_guard:
            raise PoleProximityError(f"{z} is within {ctx.pole_guard} of a pole")
        if not s:
            return mp.mpc(1)
        if s.parts == (1,):
            if side == "+":
                return -mp.digamma(1 + z) - mp.euler
            return mp.digamma(1 - z) + mp.euler
        if s.parts[0 if side == "+" else -1] < 2:
            raise ValueError(f"He_{side}[{s}] diverges")
        return _one_sided(side, s.parts, z, ctx.target_abs_error, ctx.truncation_cap)[0]


def trifactorization_residual(
    s: Composition, z, ctx: NumericContext = DEFAULT_CONTEXT
) -> float:
    """|Te[s](z) - sum over splits He_+ * Ce * He_-|.

    The left side is evaluated through the reduction: zeta values at 0,
    certified per fragment of the reduction and independent of z, times
    cotangent polynomials.  The right side is the direct bilateral
    evaluation, whose split terms are certified one-sided sums at z and -z,
    so the two sides share no code path above the nested sums.
    """
    with ctx.workprec():
        rhs = multitangent_eval_direct(s, z, ctx)
        return float(abs(multitangent_eval_reduced(s, z, ctx) - rhs))


def _fourier_zetas(s: Composition, ctx: NumericContext):
    """(k, (value, bound)) of sum_j Z(j, s_j - k; s), the zeta data of the
    Fourier coefficient formula, for each order k >= 2 of the reduction of s,
    certified to the context target by ``_order_coefficient``."""
    for k, terms in sorted(_order_terms(s).items()):
        if k >= 2:
            yield k, _order_coefficient(terms, ctx.target_abs_error, ctx.truncation_cap)


def _fourier_from_zetas(zetas, n: int):
    """T_hat_n from the (k, (value, bound)) pairs of ``_fourier_zetas``."""
    total = mp.mpc(0)
    for k, (zval, _) in zetas:
        total += (-2j * n * mp.pi) ** (k - 1) / mp.factorial(k - 1) * zval
    return 2j * mp.pi * total


def fourier_coefficient(
    s: Composition, n: int, ctx: NumericContext = DEFAULT_CONTEXT
):
    """Coefficient T_hat_n of the expansion Te[s](z) = -sum_{n>0} T_hat_n q^n
    (Im z > 0, q = e^(2 pi i z)), from the reduction coefficients:

        T_hat_n = 2 i pi * sum_j sum_{k=2}^{s_j} (-2 i n pi)^(k-1)/(k-1)!
                  * Z(j, s_j - k; s).
    """
    if not is_multitangent_convergent(s):
        raise ValueError(f"{s} is not convergent")
    if n == 0:
        raise ValueError("n must be nonzero")
    with ctx.workprec():
        return _fourier_from_zetas(_fourier_zetas(s, ctx), n)


def _check_fourier_sum(s: Composition, n_terms: int, y) -> None:
    """Fourier sums of N >= 0 terms hold for convergent s at Im z = y > 0."""
    if not is_multitangent_convergent(s):
        raise ValueError(f"{s} is not convergent")
    if n_terms < 0:
        raise ValueError("the number of Fourier terms must be >= 0")
    if not y > 0:
        raise ValueError("Fourier sums require Im z > 0")


def fourier_partial_sum(
    s: Composition, z, n_terms: int, ctx: NumericContext = DEFAULT_CONTEXT
):
    """-sum_{n=1}^{N} T_hat_n q^n, valid for Im z > 0."""
    with ctx.workprec():
        z = mp.mpc(z)
        _check_fourier_sum(s, n_terms, mp.im(z))
        q = mp.exp(2j * mp.pi * z)
        zetas = list(_fourier_zetas(s, ctx))
        total = mp.mpc(0)
        for n in range(1, n_terms + 1):
            total -= _fourier_from_zetas(zetas, n) * q**n
        return total


def fourier_tail_envelope(s: Composition, n_terms: int, y: float,
                          ctx: NumericContext = DEFAULT_CONTEXT) -> float:
    """Upper bound C with |Te[s](z) - partial sum| <= C * e^(-2 pi (N+1) y).

    Uses |T_hat_n| <= A * n^(M-1) with M = max part and A read off the
    coefficient formula, then sums the dominated geometric tail.
    """
    _check_fourier_sum(s, n_terms, y)
    with ctx.workprec():
        big_m = max(s.parts)
        amp = mp.mpf(0)
        for k, (zval, bound) in _fourier_zetas(s, ctx):
            amp += 2 * mp.pi * (2 * mp.pi) ** (k - 1) / mp.factorial(k - 1) * (abs(zval) + bound)
        x = mp.exp(-2 * mp.pi * y)
        # sum_{n > N} n^(M-1) x^n <= x^(N+1) * sum_{m>=0} (N+1+m)^(M-1) x^m
        tail = mp.mpf(0)
        m = 0
        while True:
            term = mp.mpf(n_terms + 1 + m) ** (big_m - 1) * x**m
            tail += term
            ratio = x * ((n_terms + 2 + m) / (n_terms + 1 + m)) ** (big_m - 1)
            if ratio < 0.5 and term < tail * mp.mpf("1e-30"):
                tail += term * ratio / (1 - ratio)
                break
            m += 1
            if m > 10_000:
                raise PrecisionUnreachableError(
                    "tail envelope failed to converge", achieved=math.inf
                )
        return float(amp * tail)


@dataclass
class BoundsReport:
    """Outcome of the growth-bound and flatness checks on a sample set."""

    sequence: Composition
    samples: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def flatness_and_bounds_check(
    s: Composition, z_samples, ctx: NumericContext = DEFAULT_CONTEXT
) -> BoundsReport:
    """Verify the two growth bounds and the exponential-flatness envelope.

    For every sample z off the real axis:
      * |Te[s](z)| <= 4 l / |Im z|^(w - l - 1);
      * if every part is >= 2 and |z| >= 1, additionally
        |Te[s](z)| <= (1/l!) (2/sqrt(|Im z|))^w;
      * for Im z >= 1, |Te[s](z)| e^(2 pi Im z) <= 4 l e^(2 pi)
        (Schwarz-lemma envelope anchored on the Im z = 1 line).
    """
    if not is_multitangent_convergent(s):
        raise ValueError(f"{s} is not convergent")
    report = BoundsReport(sequence=s)
    w, l = s.weight, s.length
    val2 = all(p >= 2 for p in s.parts)
    with ctx.workprec():
        for z in z_samples:
            z = mp.mpc(z)
            y = abs(mp.im(z))
            if y == 0:
                raise ValueError("samples must lie off the real axis")
            eval_ctx = replace(
                ctx,
                target_abs_error=min(1e-8, float(mp.exp(-2 * mp.pi * y)) * 1e-4 + 1e-30),
                working_precision=max(ctx.working_precision, 160),
            )
            value = abs(multitangent_eval_direct(s, z, eval_ctx))
            entry = {"z": complex(z), "abs_value": float(value)}
            # (violation label, sample key, bound) for each bound that applies
            bounds = [("generic_bound", "bound_generic", 4 * l / y ** (w - l - 1))]
            if val2 and abs(z) >= 1:
                bound = (2 / mp.sqrt(y)) ** w / math.factorial(l)
                bounds.append(("val2_bound", "bound_val2", bound))
            if y >= 1:
                envelope = 4 * l * mp.exp(2 * mp.pi) * mp.exp(-2 * mp.pi * y)
                bounds.append(("flatness", "flatness_envelope", envelope))
            for label, key, bound in bounds:
                entry[key] = float(bound)
                if value > bound * (1 + 1e-9):
                    report.violations.append((label, complex(z), float(value)))
            report.samples.append(entry)
    return report
