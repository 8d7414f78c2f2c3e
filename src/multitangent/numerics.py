"""Numeric evaluation of monotangents, multitangents and Hurwitz-type sums,
plus the analytic cross-checks (trifactorization, Fourier data, growth
bounds, exponential flatness).

Te[s] and Te^k are 1-periodic, and each evaluator of them reads its point
once, through ``_checked``: the exact dyadic ``zetasum._Point`` shifted by
the nearest integer to |Re z| <= 1/2.  Monotangents are evaluated through
exact cotangent polynomials, with an error bound.  cot(pi z) and each
Te^k(z) are kept in ``_points``, keyed on that point, the working precision
and k, for ``monotangent_eval``, the reduced evaluator ``_reduced`` and
``families.te_nk_closed_form``.  This module's four caches are
``zetasum.CertifiedCache``s of entries under its one rule, each sized where
it is made and read through ``fetch``, which stores what it makes.

Bilateral multitangent sums are evaluated by splitting each chain once,
where its indices change sign: n_1 > ... > n_a >= 0 sums to
S(s_1, ..., s_a; z - 1) and 0 > n_(a+1) > ... > n_r to
(-1)^(s_(a+1) + ... + s_r) S(s_r, ..., s_(a+1); -z).  This is the paper's
trifactorization sum of He_+ * Ce * He_- with each pivot folded into its
positive side, He_+[s_1..s_a] + He_+[s_1..s_(a-1)] z^(-s_a).  Each one-sided
piece is an absolutely convergent shifted nested sum handled by
:mod:`multitangent.zetasum` with a certified error bound, and
``zetasum.certify`` certifies the sum over splits.  This direct bilateral
evaluation is the right side of the trifactorization check.

The left side is the reduction into monotangents, evaluated without
expanding its coefficients: each is a certified sum of products of two
fragment values, zeta values at 0 that do not depend on the point, cached
like them; the sum over orders is certified too.  The two sides share no
nested-sum value: zeta values at 0 times cotangent polynomials on the left,
shifted sums at z - 1 and -z on the right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial

import mpmath as mp
from mpmath.libmp import from_man_exp, from_rational, pi_fixed

from .errors import PoleProximityError, PrecisionUnreachableError
from .mzv import DEFAULT_CONTEXT, NumericContext, _certified
from .reduction import _fragment, _order_terms, delta
from .words import Composition, _accumulate, is_multitangent_convergent
from .zetasum import GUARD, CertifiedCache, _FixedSum, _entry, _point, _ratio, _read
from .zetasum import certified_sum, certify, shifted_nested_sum


def _checked(z, guard):
    """The exact dyadic ``zetasum._Point`` every periodic evaluator reads: z
    rounded at the working precision and shifted by the nearest integer, ties
    toward 0, to |Re z| <= 1/2, so z + n shares z's cache entries.  Raises
    ValueError if z is not finite, PoleProximityError within ``guard`` of 0."""
    zr, zi, k = point = _point(z)
    n = -(((1 << k) - 2 * abs(zr)) >> (k + 1))  # the integer nearest |Re z|
    point = point.shift(-n if zr > 0 else n)
    # exactly, in integers: guard = 2^e p / q against |z| = |re + i zi| / 2^k
    man, e = guard.man_exp if isinstance(guard, mp.mpf) else (guard, 0)
    p, q = man.as_integer_ratio()
    norm, shift = (point.re**2 + zi * zi) * q * q, 2 * (k + e)
    if (norm << -shift if shift < 0 else norm) < (p * p << shift if shift > 0 else p * p):
        raise PoleProximityError(f"{mp.mpc(z)} is within {guard} of an integer")
    return point


@lru_cache(maxsize=16)
def _pi(prec: int):
    """pi as an entry at prec bits: correctly rounded, so within half an ulp."""
    with mp.workprec(prec):
        return _entry((+mp.pi, math.ldexp(2.0, -prec)), prec + GUARD)


@lru_cache(maxsize=64)
def cot_poly(k: int) -> dict[int, Fraction]:
    """Te^k / pi^k as an exact polynomial in c = cot(pi z): degree -> rational.

    Te^1 = pi c, and Te^(k+1) = -(1/k) d/dz Te^k with c' = -pi (1 + c^2),
    so the recurrence stays polynomial and every Te^k carries pi^k overall;
    the caller multiplies pi^k back in.  The loop runs on the integers
    (k-1)! Te^k / pi^k, which the recurrence keeps integral, and divides
    once at the end.
    """
    if k < 1:
        raise ValueError("monotangent order must be >= 1")
    poly = {1: 1}
    for _ in range(1, k):
        poly = _accumulate((jj, a * j) for j, a in poly.items() for jj in (j - 1, j + 1))
    scale = math.factorial(k - 1)
    return {j: Fraction(a, scale) for j, a in poly.items()}


def _cot(z):
    """cot(pi z) at the point z of ``_checked`` at the working precision, as
    an entry: its integers c as ``zetasum._read`` reads them, its size m >=
    |c| and its bound err >= |cot(pi z) - c|.  The one trust placed in
    mpmath's cot: pi z rounds by a relative 2^(2-prec), which cot' =
    -(1 + cot^2) carries, and cot adds 2^(2-prec) (1 + |c|); err is twice
    that, which covers c's ulps too.  Its |z| <= sqrt(1/4 + (Im z)^2)."""
    z = mp.make_mpc(tuple(from_man_exp(x, -z.k) for x in (z.re, z.im)))
    wp, c = mp.mp.prec + GUARD, mp.cot(mp.pi * z)
    cr, ci, verr, m, _ = _read((c, 0.0), wp)
    err = math.ldexp(4 * abs(complex(z)) * (1 + m * m) + 1 + m, max(-1070, 3 - mp.mp.prec))
    return _FixedSum((cr, ci, verr, m, err), wp, value=c)


def _monotangent(k: int, cot):
    """The entry of Te^k at the point where ``_cot`` gave ``cot``, c within
    err, so x = m + err >= |cot(pi z)|.  With p = k mod 2, den Q(c) =
    c^p R(c^2) has integer coefficients; a Horner scheme on Gaussian
    integers gives it exactly at the scaled c, and times
    pi^k to pq bits (within q 2^-wp, q = Q(x)) it is rounded once to the
    working precision.  The coefficients are positive, so the error of c
    moves Q by at most err Q'(x), and the rounding is at most
    2^(3-prec) (k + 4) q; pi^k scales both, and 1 + 2^-40 covers the float
    rounding of the bound.  A bound past the float range comes first: its
    entry, size and bound inf, forms no value, as every caller refuses it."""
    cr, ci, _, m, err = cot.read
    x, prec, poly, p = m + err, mp.mp.prec, cot_poly(k), k % 2
    wp, den = prec + GUARD, math.lcm(*(a.denominator for a in poly.values()))
    wr, wi, y = cr * cr - ci * ci, 2 * cr * ci, x * x  # c^2 over 2^(2 wp)
    ar, ai, h, dh = 0, 0, 0.0, 0.0  # the exact sum, and R(x^2), R'(x^2) in floats
    for j in range(k, p - 1, -2):  # sum of den a_j c^j over 2^(wp j), times 2^(wp k)
        n = int(poly.get(j, 0) * den)
        ar, ai = ar * wr - ai * wi + (n << wp * (k - j)), ar * wi + ai * wr
        h, dh = h * y + _ratio(n, 1), dh * y + h
    try:
        q, dq = x**p * h / den, (h + 2 * y * dh if p else 2 * x * dh) / den
        bound = (err * dq + math.ldexp(8 * (k + 4) * q, max(-1070, -prec))) * math.pi**k
        bound = (bound + q * 2.0 ** -min(wp, 1000)) * (1 + 2.0**-40)
    except OverflowError:  # den or pi^k past the float range
        bound = math.inf
    if not bound < math.inf:
        return _FixedSum((0, 0, 0.0, math.inf, math.inf), wp)
    if p:
        ar, ai = ar * cr - ai * ci, ar * ci + ai * cr
    pq = wp + 2 * k + k.bit_length()  # pi to pq bits: its k-th power is within 2^-wp
    big, d = pi_fixed(pq) ** k, den << (k * (wp + pq))
    value = mp.make_mpc(tuple(from_rational(a * big, d, prec, "n") for a in (ar, ai)))
    return _entry((value, bound), wp)


_points = CertifiedCache(256)  # the rechecks: a cotangent and up to 11 orders per point


def _monotangent_at(k: int, z):
    """The entry of Te^k at the point z of ``_checked``: ``_cot`` and
    ``_monotangent``, each computed once per point and working precision.
    Neither depends on a target, so an entry serves every caller, which
    compares the bound with its own target."""
    point = (z, mp.mp.prec)
    cot = partial(_points.fetch, point, partial(_cot, z))
    return _points.fetch((*point, k), lambda: _monotangent(k, cot()))


def monotangent_eval(k: int, z, ctx: NumericContext = DEFAULT_CONTEXT):
    """Te^k(z) through the exact cotangent polynomial, so the derivative
    relation Te^(k+1) = -(1/k) d/dz Te^k holds by construction; raises
    PrecisionUnreachableError if its bound misses the context target."""
    with ctx.workprec():
        value, bound = _monotangent_at(k, _checked(z, ctx.pole_guard))
    if not bound <= ctx.target_abs_error:
        raise PrecisionUnreachableError(f"Te^{k} reached bound {bound:.3e}", achieved=bound)
    return value


def _splits(s: Composition):
    """The r + 1 deconcatenations (s[:a], s[a:]), one per sign boundary.
    The two with an empty side come first: their one-sided sums run over all
    of s, and each pass stores every prefix, so the shorter pieces are cache
    hits."""
    r = s.length
    for a in (r, *range(r)):
        yield s[:a], s[a:]


def _one_sided(side: str, parts: tuple, z, target: float, cap: int):
    """The entry of the one-sided sum He_side[parts](z); the "-" side is
    (-1)^weight times the "+" side of the reversed parts at -z."""
    if side == "+":
        return shifted_nested_sum(parts, z, target=target, cap=cap)
    entry = shifted_nested_sum(tuple(reversed(parts)), -z, target=target, cap=cap)
    return -entry if sum(parts) % 2 else entry


_memo = CertifiedCache(256)  # the rechecks to weight 8 keep about 210 values


def multitangent_eval_direct(
    s: Composition, z, ctx: NumericContext = DEFAULT_CONTEXT
):
    """Bilateral nested sum for a convergent sequence: the trifactorization
    with each pivot folded into its positive side (module docstring), the
    value of ``_direct`` at z read once through ``_checked``."""
    if not is_multitangent_convergent(s):
        raise ValueError(f"{s} is not a convergent multitangent index")
    with ctx.workprec():
        return _direct(s, _checked(z, ctx.pole_guard), ctx).value


def _direct(s: Composition, z, ctx: NumericContext):
    """The entry of Te[s] for a convergent s at the point z of ``_checked``,
    at the working precision, within the context target.  Each of the r + 1
    splits is a term of ``zetasum.certify``, its one-sided sums pieces at the
    exact dyadics of z - 1 ("+") and z ("-").  The last 256 entries
    (``_memo``) serve later calls they meet."""
    target, cap = ctx.target_abs_error, ctx.truncation_cap
    return _memo.fetch((s, z, mp.mp.prec, cap), lambda: certify(
        [[partial(_one_sided, side, parts, point, cap=cap)
          for (side, point), parts in zip((("+", z.shift(-1)), ("-", z)), split) if parts]
         for split in _splits(s)], target), target)


_fragments = CertifiedCache(1024)  # weight <= w needs 2^w - w per precision and cap


def _fragment_value(parts: tuple, a: int, target: float, cap: int):
    """(value, bound) of the fragment coefficient [X^a] Ze[parts](X) at the
    working precision, within ``target``.  It does not depend on the point,
    so one entry serves every point and every sequence that shares it."""
    return _fragments.fetch((parts, a, mp.mp.prec, cap),
                            lambda: _certified(_fragment(parts, a), target, cap), target)


_orders = CertifiedCache(1024)  # one c_k per order: the rechecks to weight 8 need about 570


def _order_coefficient(s: Composition, k: int, terms: list, target, cap: int):
    """(value, bound) of the c_k of s within ``target``: the certified sum of
    the fragment products of its ``terms``, ``reduction._order_terms(s)[k]``,
    cached."""
    return _orders.fetch((s, k, mp.mp.prec, cap), lambda: certify([
        [(sign, 0.0), partial(_fragment_value, right, a_r, cap=cap),
         partial(_fragment_value, left, a_l, cap=cap)]
        for sign, right, a_r, left, a_l in terms
    ], target), target)


def multitangent_eval_reduced(
    s: Composition, z, ctx: NumericContext = DEFAULT_CONTEXT
):
    """Evaluate Te[s](z) from its reduction into monotangents, the value of
    ``_reduced`` at z read once through ``_checked``."""
    if not s:
        raise ValueError("empty sequence")
    with ctx.workprec():
        return _reduced(s, _checked(z, ctx.pole_guard), ctx).value


def _reduced(s: Composition, z, ctx: NumericContext):
    """The entry of Te[s] at the point z of ``_checked``, at the working
    precision, within the context target, from

        Te[s](z) = delta(s) + sum_k c_k Te^k(z),

    where c_k, the sum over i of Z(i, s_i - k; s), is certified and cached
    as a sum of products of two fragment values (``_order_coefficient``),
    the terms that ``reduction.z_coeff`` folds exactly, and ``certify``
    certifies the sum, each c_k a piece whose target shrinks with its Te^k,
    which can be large near the real axis.
    """
    cap, pi = ctx.truncation_cap, _pi(mp.mp.prec)
    constant = [[(q, 0.0), *[pi] * r] for r, q in delta(s).items()]
    # Te[s] = Te^s for one part s: its one coefficient is exactly 1
    orders = [[(1, 0.0) if s.length == 1 else partial(_order_coefficient, s, k, terms, cap=cap),
               _monotangent_at(k, z)] for k, terms in sorted(_order_terms(s).items())]
    return certify(constant + orders, ctx.target_abs_error)


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
        point = _point(z)  # raises ValueError if z is not finite; not shifted
        if (-1 if side == "+" else 1) * mp.nint(z.real) >= 1:
            _checked(z, ctx.pole_guard)
        if not s:
            return mp.mpc(1)
        if s == (1,):
            if side == "+":
                return -mp.digamma(1 + z) - mp.euler
            return mp.digamma(1 - z) + mp.euler
        if s[0 if side == "+" else -1] < 2:
            raise ValueError(f"He_{side}[{s}] diverges")
        return _one_sided(side, tuple(s), point, ctx.target_abs_error, ctx.truncation_cap)[0]


def trifactorization_residual(
    s: Composition, z, ctx: NumericContext = DEFAULT_CONTEXT
) -> _FixedSum:
    """Certified (value, float bound) of Te[s](z) - sum over splits He_+ * Ce * He_-,
    the ``_reduced`` entry less the ``_direct`` one (each pivot Ce folded into
    its positive side) at z read once, each with its own bound: the module
    docstring says why they share no nested-sum value."""
    if not is_multitangent_convergent(s):
        raise ValueError(f"{s} is not a convergent multitangent index")
    with ctx.workprec():
        z = _checked(z, ctx.pole_guard)
        return certified_sum([[_reduced(s, z, ctx)], [(-1, 0.0), _direct(s, z, ctx)]])


def _fourier_zetas(s: Composition, ctx: NumericContext):
    """(k, (value, bound)) of sum_j Z(j, s_j - k; s), the zeta data of the
    Fourier coefficient formula, for each order k >= 2 of the reduction of s,
    certified to the context target by ``_order_coefficient``."""
    for k, terms in sorted(_order_terms(s).items()):
        if k >= 2:
            yield k, _order_coefficient(s, k, terms, ctx.target_abs_error, ctx.truncation_cap)


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
    A bound fails when |value| less the bound of the ``_direct`` entry at
    the sample's ``_checked`` point exceeds it.
    """
    if not is_multitangent_convergent(s):
        raise ValueError(f"{s} is not convergent")
    report = BoundsReport(sequence=s)
    w, l = s.weight, s.length
    val2 = all(p >= 2 for p in s)
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
            with eval_ctx.workprec():
                value, err = _direct(s, _checked(z, eval_ctx.pole_guard), eval_ctx)
            value = abs(value)
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
                if value - err > bound:
                    report.violations.append((label, complex(z), float(value)))
            report.samples.append(entry)
    return report
