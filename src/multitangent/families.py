"""Closed forms for repeated-part multitangents and related series identities.

Covers the all-ones family Te[1^r], the general repeated family Te[n^k]
through a 2^n-term trigonometric sum, the closed form for Ze[2^n], and the
power-series identity tying the even zeta generating function to
sin(pi X)/(pi X).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from .errors import NumericRecheckError
from .exact import PiRational
from .mzv import DEFAULT_CONTEXT, NumericContext, even_zeta
from .numerics import check_point


def te_ones_closed_form(r: int) -> tuple[PiRational, PiRational]:
    """Te[1^r] = constant + coefficient * Te^1, both exact.

    Even r = 2p gives the constant (-1)^p pi^(2p)/(2p)! and no Te^1 term;
    odd r = 2p+1 gives no constant and coefficient (-1)^p pi^(2p)/(2p+1)!.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return PiRational(1), PiRational(0)
    p, odd = divmod(r, 2)
    coef = Fraction((-1) ** p, math.factorial(r))
    if odd:
        return PiRational(0), PiRational({2 * p: coef})
    return PiRational({2 * p: coef}), PiRational(0)


def _gray_sign_sequence(n: int):
    """Iterate over {+1,-1}^n in Gray-code order, yielding (signs, flip_pos);
    flip_pos is None for the first word."""
    signs = [1] * n
    yield tuple(signs), None
    for g in range(1, 1 << n):
        flip = (g ^ (g >> 1)) ^ ((g - 1) ^ ((g - 1) >> 1))
        pos = flip.bit_length() - 1
        signs[pos] = -signs[pos]
        yield tuple(signs), pos


def te_nk_closed_form(n: int, k: int, z, ctx: NumericContext = DEFAULT_CONTEXT):
    """Te[n^k](z) via the trigonometric closed form.

    With eps ranging over {+1,-1}^n, sg = prod eps_i, s = sum eps_i and
    e = sum eps_i exp((2i-1) i pi / n):

        Te[n^k](z) = (-1)^(n-1+floor((kn+1)/2)) pi^(kn)
                     / ((kn)! (2 sin(pi z))^n)
                     * sum_eps sg * e^(kn) * t_{kn,n}(s pi z),

    where t_{m,n}(x) is the (n-1)-st derivative of cos for odd m and of sin
    for even m, evaluated through a phase shift.  At real z the value is
    real and its imaginary part is checked against the context tolerance;
    at complex z the value is genuinely complex and no check applies.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if k == 0:
        return mp.mpc(1)
    with ctx.workprec():
        z = check_point(z, ctx.pole_guard)
        kn = k * n
        roots = [mp.exp((2 * j - 1) * 1j * mp.pi / n) for j in range(1, n + 1)]
        # phase-shifted derivative: cos^(n-1)(x) = cos(x + (n-1) pi/2), same
        # for sin; odd kn selects cos, even kn selects sin
        phase = (n - 1) * mp.pi / 2
        trig = mp.cos if kn % 2 else mp.sin

        e_val = sum(roots)
        s_val = n
        total = mp.mpc(0)
        for signs, pos in _gray_sign_sequence(n):
            if pos is not None:
                e_val += 2 * signs[pos] * roots[pos]
                s_val += 2 * signs[pos]
            sg = 1 if signs.count(-1) % 2 == 0 else -1
            total += sg * e_val**kn * trig(s_val * mp.pi * z + phase)
        prefactor = (
            (-1) ** (n - 1 + (kn + 1) // 2)
            * mp.pi**kn
            / (mp.factorial(kn) * (2 * mp.sin(mp.pi * z)) ** n)
        )
        value = prefactor * total
        if mp.im(z) == 0 and abs(mp.im(value)) > max(
            ctx.target_abs_error, abs(value) * 1e-12
        ):
            raise NumericRecheckError(
                f"closed form for Te[{n}^{k}] returned imaginary part "
                f"{mp.im(value)} at real z={z}"
            )
        return value


def zagier_ze2n(n: int) -> PiRational:
    """Ze[2^n] = pi^(2n) / (2n+1)!, exactly."""
    if n < 1:
        raise ValueError("need n >= 1")
    return PiRational({2 * n: Fraction(1, math.factorial(2 * n + 1))})


def sin_product_series_check(order: int) -> bool:
    """Coefficientwise check, through X^(2*order), of

        exp(- sum_{n>=1} Ze[2n]/n X^(2n)) = sum_n (-1)^n (pi X)^(2n)/(2n+1)!.

    Even zeta values enter through their Bernoulli closed form, so at X^(2m)
    both sides are a rational times pi^(2m); they are compared exactly.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    # exponent series a_n = -zeta(2n)/n at X^(2n); the exponential of a series
    # with zero constant term has e_m = (1/m) sum_j j a_j e_(m-j)
    a = [PiRational(0)] + [even_zeta(n) / -n for n in range(1, order + 1)]
    exp_coeffs = [PiRational(1)]
    for m in range(1, order + 1):
        acc = sum((a[j] * exp_coeffs[m - j]).scale(j) for j in range(1, m + 1))
        exp_coeffs.append(acc / m)
    return all(
        exp_coeffs[m] == PiRational({2 * m: Fraction((-1) ** m, math.factorial(2 * m + 1))})
        for m in range(order + 1)
    )
