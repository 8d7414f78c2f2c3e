"""Fourier partial sums of Te[s] and their tail envelope, from the certified
zeta data of ``numerics.fourier_coefficient``: test oracles, not part of
the program."""

from __future__ import annotations

import math

import mpmath as mp

from multitangent.errors import PrecisionUnreachableError
from multitangent.mzv import DEFAULT_CONTEXT, NumericContext
from multitangent.numerics import _fourier_from_zetas, _fourier_zetas
from multitangent.words import Composition, is_multitangent_convergent
from multitangent.zetasum import _point


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
        _point(z)  # raises ValueError if z is not finite; a Fourier sum has no poles
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
