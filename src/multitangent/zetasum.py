"""High-precision evaluation of shifted nested sums

    S(s_1, ..., s_r; z) = sum over n_1 > n_2 > ... > n_r >= 1 of
                          prod_i (n_i + z)^(-s_i)

with a rigorous error bound that covers truncation and rounding.  The shift
z = 0 gives multiple zeta values; a complex shift gives one-sided
Hurwitz-type sums.

Method
------
Exact partial sums up to a cutoff N are computed by a running prefix pass
over the powers (m+z)^(-s).  The truncated remainder at each nesting level
is completed through the Euler-Maclaurin formula applied to the level's
weight function, a finite combination of terms c * g with
g = (t+z)^(-a) * log(t+z)^b.  That class is closed under differentiation and
antidifferentiation, so the completion
G = antideriv(g) - g/2 + sum_k B_2k/(2k)! g^(2k-1) and the g^(2K) whose
integral bounds the remainder stay in closed form.  Both depend only on the
shape (a, b): they are derived once in exact rational arithmetic and kept as
integers over one common denominator in a bounded cache that is independent
of the working precision.  The remainder bound |B_2K|/(2K)! * integral of
|g^(2K)| is evaluated by integral comparison as rho(a, b); its part that
does not depend on z is cached per shape, cutoff and precision, and the term
adds |c| * rho(a, b).  The order K is fixed (``_EM_ORDER``).  All truncation
errors are accumulated into a single envelope of mpmath upper bounds.

The values themselves are computed in fixed point: a complex number x is
held as a pair of Python ints (re, im) that approximate x * 2^wp, with
wp = working precision + ``GUARD`` bits.  Body terms are scaled: the term
c * (t+z)^(-a) log^b(t+z) stores c * N^(-a), so a template image is one
integer division by D * N^k and the expansion is evaluated at N from the
powers of N/(N+z) and log(N+z), which stay moderate where c alone spans
dozens of orders of magnitude.  Every rounding is counted in ulps of 2^-wp:
each power (m+z)^(-s), one rounding of an exact Gaussian rational; each
running prefix sum, accumulated exactly and rounded once; each rescaling
and template division; each power of N/(N+z) and log(N+z) (the log comes
from mpmath at 32 extra bits); and each evaluation at N, summed exactly per
log power.  Earlier errors are carried through the later prefix sums,
templates and evaluations, weighted by upper bounds on what they multiply.
The count is kept in floats and scaled by 1 + 2^-20 to absorb their own
rounding.  The total, times 2^-wp, is the rounding term.  It is added to
the returned bound, and ``shifted_nested_sum`` refuses at once a target
below it: the count grows with the cutoff, whose prefix sums alone add n0
roundings per level.  The value is returned exactly as the integers hold
it, so the bound covers the number handed back.

Certified results are cached under one rule, ``cache_lookup``: keyed on the
exact point at the working precision, an entry serves only calls whose target
and cap it meets.  Bounded LRUs hold 1024 nested sums (``_CACHE_SIZE``) and
256 ``multitangent_eval_direct`` values (``_MEMO_SIZE``).

Convergence requires s_1 >= 2; interior and trailing parts may equal 1, in
which case the intermediate expansions pick up log powers.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp

from .errors import PrecisionUnreachableError

# Class functions: dict[(a, b)] -> coefficient, meaning
#   sum c * (t+z)^(-a) * log(t+z)^b,  a >= 0, b >= 0 integers.
Cls = dict

_EM_ORDER = 6  # K: Bernoulli corrections B_2..B_{2K}, remainder uses f^(2K)
# 2 zeta(2K) / (2 pi)^(2K), the Euler-Maclaurin remainder kernel
_EM_KERNEL = abs(Fraction(*mp.bernfrac(2 * _EM_ORDER))) / math.factorial(2 * _EM_ORDER)

GUARD = 48  # fixed-point bits carried beyond the working precision
_CACHE_SIZE = 1024  # nested sums kept by shifted_nested_sum
_MEMO_SIZE = 256  # certified values kept by numerics.multitangent_eval_direct


def _cls_add(into: Cls, key: tuple[int, int], coef) -> None:
    cur = into.get(key)
    coef = coef if cur is None else cur + coef
    if coef:
        into[key] = coef
    elif key in into:
        del into[key]


def _cls_diff(cls_fn: Cls) -> Cls:
    out: Cls = {}
    for (a, b), c in cls_fn.items():
        _cls_add(out, (a + 1, b), -a * c)
        if b:
            _cls_add(out, (a + 1, b - 1), b * c)
    return out


def _cls_antideriv(cls_fn: Cls) -> Cls:
    """Termwise antiderivative; every exponent must satisfy a >= 1."""
    out: Cls = {}
    for (a, b), c in cls_fn.items():
        if a == 0:
            raise ValueError("antiderivative needs a >= 1")
        if a == 1:
            _cls_add(out, (0, b + 1), c / (b + 1))
        else:
            # d/du [u^(1-a) log^j u] = (1-a) u^(-a) log^j + j u^(-a) log^(j-1)
            coef = c
            for j in range(b, -1, -1):
                _cls_add(out, (a - 1, j), coef / (1 - a))
                if j:
                    coef = coef * (-j) / (1 - a)
    return out


def _sup_powlog(a: int, b: int, n: float):
    """sup over t >= n of t^(-a) log^b t, for a >= 1 (unimodal in t)."""
    if b == 0:
        return mp.power(n, -a)
    t_star = math.exp(b / a)
    if t_star <= n:
        return mp.power(n, -a) * mp.log(n) ** b
    return mp.exp(-b) * mp.mpf(b / a) ** b


@functools.lru_cache(maxsize=1024)
def _int_powlog(a: int, b: int, n: int, prec: int):
    """integral over [n, inf) of t^(-a) log^b t dt, for a >= 2, at ``prec``
    bits (the caller's working precision, part of the cache key)."""
    if a < 2:
        raise ValueError("tail integral needs a >= 2")
    with mp.workprec(prec):
        total = mp.mpf(0)
        fac = mp.mpf(1)
        lg = mp.log(n)
        for j in range(b, -1, -1):
            total += fac * lg**j / (a - 1)
            fac = fac * j / (a - 1)
        return total * mp.power(n, 1 - a)


def _tail_sum_bound(a: int, b: int, n: float):
    """Upper bound for sum over integers m >= n of m^(-a) log^b m, a >= 2."""
    return _int_powlog(a, b, n, mp.mp.prec) + _sup_powlog(a, b, n)


class _Expansion:
    """Asymptotic description of one level's partial sums for n >= N.

    P(n) ~ sum of ``terms`` with |P(n) - terms(n)| <= env(n).  ``terms``
    maps (a, b) to a fixed-point [re, im, err]: the coefficient of
    (n+z)^(-a) log^b(n+z), scaled by N^(-a), and a bound on its rounding in
    ulps; key (0, 0) is the constant.  env is a class function with
    nonnegative real mpmath coefficients (key (0, 0) = constant error floor).
    """

    __slots__ = ("terms", "env")

    def __init__(self, terms: dict, env: Cls):
        self.terms = terms
        self.env = env


def _abs_fudges(z, n0: int) -> tuple[mp.mpf, mp.mpf]:
    """Per-power and per-log factors converting |(t+z)^-a log^b(t+z)| into a
    real envelope in t, valid for t >= n0 >= 4(1+|z|)."""
    az = abs(mp.mpc(z))
    pow_fudge = 1 / (1 - az / n0)
    # |log(t+z)| <= log t + log(1+|z|/t) + pi <= log t + 3.5 for t >= n0 >= 4|z|
    log_fudge = 1 + mp.mpf("3.5") / mp.log(n0)
    return pow_fudge, log_fudge


@functools.lru_cache(maxsize=1024)
def _em_template(a: int, b: int) -> tuple[int, tuple, tuple]:
    """Exact Euler-Maclaurin data ``(D, G, R)`` of g = (t+z)^(-a) log^b(t+z).

    G = antideriv(g) - g/2 + sum_k B_2k/(2k)! g^(2k-1) is sum N/D *
    (t+z)^(-a') log^b'(t+z) over the flat triples (a', b', N, a', b', N, ...)
    of ``G``; R holds the integer coefficients of g^(2K) in the same layout.
    """
    chain = [{(a, b): Fraction(1)}]
    for _ in range(2 * _EM_ORDER):
        chain.append(_cls_diff(chain[-1]))
    G = _cls_antideriv(chain[0])
    _cls_add(G, (a, b), Fraction(-1, 2))
    for k in range(1, _EM_ORDER + 1):
        factor = Fraction(*mp.bernfrac(2 * k)) / math.factorial(2 * k)
        for key, c in chain[2 * k - 1].items():
            _cls_add(G, key, factor * c)
    D = math.lcm(*(c.denominator for c in G.values()))
    flat_g = tuple(x for (a2, b2), c in G.items() for x in (a2, b2, int(c * D)))
    flat_r = tuple(x for (a2, b2), c in chain[-1].items() for x in (a2, b2, int(c)))
    return D, flat_g, flat_r


def _triples(flat: tuple):
    it = iter(flat)
    return zip(it, it, it)


@functools.lru_cache(maxsize=4096)
def _shape(a: int, b: int) -> tuple[int, int]:
    """One shared (a, b) key per term shape for the image tables."""
    return a, b


@functools.lru_cache(maxsize=1024)
def _images(a: int, b: int) -> tuple[int, tuple]:
    """``(D, flat)``: the template of shape (a, b) as (key, N, k, |N| / D)
    per image, with k = a' - a + 1 >= 0.  For a coefficient scaled by
    n0^(1-a), the image coefficient scaled by n0^(-a') is its N / (D n0^k)."""
    D, flat_g, _ = _em_template(a, b)
    flat = tuple(
        x for a2, b2, n in _triples(flat_g) for x in (_shape(a2, b2), n, a2 - a + 1, abs(n) / D)
    )
    return D, flat


def _man_exp(x) -> tuple[int, int]:
    """(m, e) with the mpf x = m 2^e exactly; m carries the sign."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


@functools.lru_cache(maxsize=1024)
def _rho_unit(a: int, b: int, n0: int, prec: int):
    """rho(a, b) at cutoff n0 over pow_fudge^(a + 2K): every term of g^(2K)
    has exponent a + 2K, so only the power of pow_fudge depends on z."""
    with mp.workprec(prec):
        log_fudge = _abs_fudges(0, n0)[1]
        total = mp.mpf(0)
        for a2, b2, d in _triples(_em_template(a, b)[2]):
            total += abs(d) * log_fudge**b2 * _int_powlog(a2, b2, n0, prec)
        return mp.mpf(_EM_KERNEL.numerator) / _EM_KERNEL.denominator * total


def _dyadic(z) -> tuple[int, int, int]:
    """(zr, zi, k) with z = (zr + i zi) / 2^k exactly, k >= 0."""
    (mr, er), (mi, ei) = _man_exp(z.real), _man_exp(z.imag)
    k = max(0, -er, -ei)
    return mr << (er + k), mi << (ei + k), k


def _to_fixed(x, wp: int) -> int:
    """The mpf x times 2^wp, rounded to the nearest integer."""
    man, exp = _man_exp(x)
    exp += wp
    return man << exp if exp >= 0 else (man + (1 << (-exp - 1))) >> -exp


class _Cutoff:
    """What every level of one call at cutoff n0 shares: the envelope
    fudges and their powers, rho per term shape, the exact shift, and the
    fixed-point powers (n0/u)^a and log(u)^b at u = n0 + z.

    Fixed-point numbers carry wp = prec + GUARD fractional bits; errors are
    counted in ulps of 2^-wp, magnitudes are real floats.  ``ulp`` is an
    upper bound on 2^-wp that does not underflow."""

    def __init__(self, z, n0: int):
        z = mp.mpc(z)
        self.n0 = n0
        self.wp = wp = mp.mp.prec + GUARD
        self.one = 1 << wp
        self.half = 1 << (wp - 1)
        self.ulp = 2.0 ** -min(wp, 1000)
        self.fudges = _abs_fudges(z, n0)
        self.pow_fudges = [mp.mpf(1)]
        # n0^k and an upper bound on n0^-k for the template images
        self.n0_pows = [n0**k for k in range(2 * _EM_ORDER + 1)]
        self.inv_n0_pows = [float(n0) ** -k * (1 + 2.0**-50) for k in range(2 * _EM_ORDER + 1)]
        self.shift = zr, zi, k = _dyadic(z)
        ur = (n0 << k) + zr
        den = ur * ur + zi * zi
        num = (n0 << (k + wp)) * ur, -(n0 << (k + wp)) * zi
        r = [(x + (den >> 1)) // den for x in num]  # n0 / u
        with mp.workprec(wp + 32):
            lg = mp.log(n0 + z)
        lg = [_to_fixed(lg.real, wp), _to_fixed(lg.imag, wp)]
        # [re, im, magnitude, error in ulps]; log(u) from mpmath at 32 extra
        # bits is within 2^-32 ulps before rounding
        self.powers = [[self.one, 0, 1.0, 0.0], [*r, self._mag(*r), 1.0]]
        self.logs = [[self.one, 0, 1.0, 0.0], [*lg, self._mag(*lg), 2.0]]

    def _mag(self, x: int, y: int) -> float:
        """Upper bound on |x + iy| * 2^-wp, up to float rounding."""
        return (abs(x) + abs(y)) / self.one

    def _mul(self, p: list, q: list) -> list:
        """Rounded fixed-point product of two [re, im, mag, err] entries."""
        x = (p[0] * q[0] - p[1] * q[1] + self.half) >> self.wp
        y = (p[0] * q[1] + p[1] * q[0] + self.half) >> self.wp
        err = p[2] * q[3] + (q[2] + q[3] * self.ulp) * p[3] + 1.0
        return [x, y, self._mag(x, y), err]

    def _power(self, table: list, k: int) -> list:
        """Entry k of ``powers`` or ``logs``, grown on demand."""
        while len(table) <= k:
            table.append(self._mul(table[-1], table[1]))
        return table[k]

    def pow_fudge(self, a: int):
        """pow_fudge^a, grown on demand."""
        pows = self.pow_fudges
        while len(pows) <= a:
            pows.append(pows[-1] * self.fudges[0])
        return pows[a]

    def rho(self, a: int, b: int):
        """Remainder bound for the sum over [n0, inf) of (t+z)^(-a) log^b(t+z):
        kernel * integral of a real envelope of |g^(2K)|."""
        return self.pow_fudge(a + 2 * _EM_ORDER) * _rho_unit(a, b, self.n0, mp.mp.prec)

    def evaluate(self, terms: dict) -> list:
        """The scaled terms at t = n0, as [re, im, error in ulps]: per log
        power b, the exact sum over a of c (n0/u)^a, rounded once and
        multiplied by log(u)^b."""
        one, ulp, wp, half = self.one, self.ulp, self.wp, self.half
        powers = self.powers
        by_log: dict = {}  # b -> [re, im, err], re and im scaled by 2^(2 wp)
        for (a, b), (x, y, e) in terms.items():
            pr, pi, pm, pe = powers[a] if a < len(powers) else self._power(powers, a)
            acc = by_log.get(b)
            if acc is None:
                acc = by_log[b] = [0, 0, 0.0]
            acc[0] += x * pr - y * pi
            acc[1] += x * pi + y * pr
            acc[2] += e * (pm + pe * ulp) + (abs(x) + abs(y)) / one * pe
        tr, ti, err = by_log.pop(0, [0, 0, 0.0])
        for b, (xr, xi, e) in by_log.items():
            x, y = (xr + half) >> wp, (xi + half) >> wp
            lr, li, lm, le = self._power(self.logs, b)
            tr += x * lr - y * li
            ti += x * li + y * lr
            err += (e + 1.0) * (lm + le * ulp) + (abs(x) + abs(y)) / one * le
        return [(tr + half) >> wp, (ti + half) >> wp, err + 1.0]


def _level_step(s_j: int, inner: _Expansion, prefix: list, cut: _Cutoff) -> _Expansion:
    """Expansion for P_j from the expansion of P_{j+1}.

    P_j(n) = P_j(N) + sum_{m=N}^{n-1} (m+z)^(-s_j) P_{j+1}(m); the sum over
    each class term c*g is c*(G(n) - G(N)) + R with |R| <= |c| rho(g) and G
    from ``_em_template``.  Each term is first rescaled from n0^(-a) to
    n0^(1-a-s_j), one rounding when s_j > 1.  Its error e then becomes
    e * |N| / (D n0^k) in each image, plus the image's own rounding.
    """
    body: dict = {}
    # a -> sum over b of |c| n0^-a 2^wp rho(a + s_j, b) / pow_fudge^(a + s_j + 2K)
    rho_parts: dict = {}
    prec = mp.mp.prec
    step = cut.n0 ** (s_j - 1)
    n0_pows, inv_pows = cut.n0_pows, cut.inv_n0_pows
    for (a, b), (x, y, e) in inner.terms.items():
        if not (x or y or e):
            continue
        # |c| of the ideal coefficient, in ulps of the scaled one
        mag = math.isqrt(x * x + y * y) + 1 + math.ceil(e)
        part = mag * _rho_unit(a + s_j, b, cut.n0, prec)
        rho_parts[a] = rho_parts[a] + part if a in rho_parts else part
        if step > 1:  # the term of (m+z)^(-s_j) P_{j+1}, scaled by n0^(1-a-s_j)
            half = step >> 1
            x, y, e = (x + half) // step, (y + half) // step, e / step + 1.0
        D, flat = _images(a + s_j, b)
        it = iter(flat)
        for key, n, k, f in zip(it, it, it, it):
            dn = D * n0_pows[k]
            half = dn >> 1
            xi = (x * n + half) // dn
            yi = (y * n + half) // dn
            acc = body.get(key)
            if acc is None:
                body[key] = [xi, yi, e * f * inv_pows[k] + 1.0]
            else:
                acc[0] += xi
                acc[1] += yi
                acc[2] += e * f * inv_pows[k] + 1.0
    rho_total = mp.mpf(0)
    for a, part in rho_parts.items():
        rho_total += cut.pow_fudge(a + s_j + 2 * _EM_ORDER) * cut.n0**a * part
    rho_total = mp.ldexp(rho_total, -cut.wp)
    env: Cls = {(0, 0): rho_total}

    # propagate the inner envelope through sum_{m=N}^{n-1} |(m+z)^-s_j| env(m)
    pow_fudge, log_fudge = cut.fudges
    for (a, b), c in inner.env.items():
        alpha = a + s_j
        c_real = c * pow_fudge ** (a + s_j) * log_fudge**b
        if alpha >= 2:
            _cls_add(env, (0, 0), c_real * _tail_sum_bound(alpha, b, cut.n0))
        else:
            # alpha == 1: sum_{m=N}^{n-1} log^b(m)/m <= log^{b+1}(n)
            _cls_add(env, (0, b + 1), c_real)

    vx, vy, ve = cut.evaluate(body)
    px, py, pe = prefix
    body[(0, 0)] = [px - vx, py - vy, pe + ve]
    return _Expansion(body, env)


def _exact_prefixes(exponents: tuple[int, ...], cut: _Cutoff) -> list:
    """Nested partial sums of levels j.. over chains below n0, for
    j = r-1 down to 0, as fixed-point [re, im, error in ulps].  Each level's
    running sums are kept only while the next level is built.

    Each power (m+z)^(-s) is one rounding of an exact Gaussian rational
    (error <= 1 ulp); each running sum is an exact sum of products rounded
    once.  With E, A the error and a magnitude bound of the level below and
    S = sum_m |(m+z)^(-s)|, a level's sums are off by at most
    S E + (n0 - 1) A + 1 ulps and bounded by S A."""
    zr, zi, k = cut.shift
    n0, wp, one, half = cut.n0, cut.wp, cut.one, cut.half
    powers = {}
    for s in set(exponents):
        row, size, shift = [], 0, wp + k * s
        for m in range(1, n0):
            ur, ui = (m << k) + zr, -zi  # 2^k conj(m + z)
            vr, vi = ur, ui
            for _ in range(s - 1):
                vr, vi = vr * ur - vi * ui, vr * ui + vi * ur
            den = (ur * ur + ui * ui) ** s
            pr = ((vr << shift) + (den >> 1)) // den
            pi = ((vi << shift) + (den >> 1)) // den
            row.append((pr, pi))
            size += abs(pr) + abs(pi)
        powers[s] = row, size / one + (n0 - 1) * cut.ulp

    at_n0 = []
    current = None
    err, size = 0.0, 1.0
    for s_j in reversed(exponents):
        row, total = powers[s_j]
        sums = []
        tr = ti = 0
        if current is None:  # innermost level: the chains below are empty
            for pr, pi in row:
                sums.append((tr, ti))
                tr += pr
                ti += pi
            err = (n0 - 1) * 1.0
        else:
            for (pr, pi), (cr, ci) in zip(row, current):
                sums.append(((tr + half) >> wp, (ti + half) >> wp))
                tr += pr * cr - pi * ci
                ti += pr * ci + pi * cr
            tr, ti = (tr + half) >> wp, (ti + half) >> wp
            err = total * err + (n0 - 1) * size + 1.0
        size *= total
        at_n0.append([tr, ti, err])
        current = sums
    return at_n0


class _FixedSum(tuple):
    """``(value, bound)``.  ``rounding`` is the part of the bound that covers
    rounding; for a nested sum it grows with the cutoff."""

    def __new__(cls, value, bound, rounding):
        self = super().__new__(cls, (value, bound))
        self.rounding = rounding
        return self


def shifted_nested_sum_fixed(
    exponents: tuple[int, ...], z, n0: int
) -> tuple[mp.mpc, mp.mpf]:
    """One-shot evaluation with cutoff n0; returns (value, error bound)."""
    if not exponents:
        return _FixedSum(mp.mpc(1), mp.mpf(0), mp.mpf(0))
    if exponents[0] < 2:
        raise ValueError(f"divergent nested sum: leading exponent {exponents[0]} < 2")
    if any(s < 1 for s in exponents):
        raise ValueError("exponents must be positive")
    z = mp.mpc(z)
    if n0 < 4 * (1 + abs(z)) or n0 < 16:
        raise ValueError("cutoff too small for the tail bounds")

    cut = _Cutoff(z, n0)
    prefixes = _exact_prefixes(exponents, cut)
    expansion = _Expansion({(0, 0): [cut.one, 0, 0.0]}, {})  # empty chain below every n
    for s_j, prefix in zip(reversed(exponents), prefixes):
        expansion = _level_step(s_j, expansion, prefix, cut)
    x, y, e = expansion.terms[(0, 0)]
    value = mp.make_mpc((from_man_exp(x, -cut.wp), from_man_exp(y, -cut.wp)))
    # the float accounting rounds by at most 2^-53 relative per operation
    rounding = mp.ldexp(mp.mpf(e * (1 + 2.0**-20)), -cut.wp)
    # s_0 >= 2 and inner envelopes are keyed (0, b): all top-level error is (0, 0)
    truncation = expansion.env.get((0, 0), mp.mpf(0))
    return _FixedSum(value, mp.fadd(truncation, rounding, rounding="u"), rounding)


def cache_lookup(cache: dict, key, target, cap=math.inf):
    """The entry ``(value, bound)`` or ``(value, bound, cutoff)`` under
    ``key`` if it meets ``target`` and ``cap``, made the most recently used."""
    entry = cache.get(key)
    if entry is not None and entry[1] <= target and (len(entry) < 3 or entry[2] <= cap):
        cache[key] = cache.pop(key)
        return entry
    return None


def cache_store(cache: dict, key, entry: tuple, size: int) -> None:
    """Keep ``entry`` under ``key`` as the most recently used, unless the one
    there is at least as tight; past ``size`` the oldest goes."""
    old = cache.pop(key, None)
    cache[key] = entry if old is None or entry[1] < old[1] else old
    if len(cache) > size:
        del cache[next(iter(cache))]


_cache: dict = {}  # least recently used first


def shifted_nested_sum(
    exponents: tuple[int, ...],
    z=0,
    target: float = 1e-12,
    cap: int = 200_000,
) -> tuple[mp.mpc, mp.mpf]:
    """Evaluate the nested sum to absolute error <= target.

    The cutoff is grown geometrically until the certified bound meets the
    target; raises PrecisionUnreachableError (carrying the achieved bound)
    if the cap is hit first, or at once if the rounding at this working
    precision alone exceeds the target.  The last ``_CACHE_SIZE`` results
    used are cached with their cutoff, which the caller's cap must admit.
    """
    z = mp.mpc(z)
    key = (exponents, z._mpc_, mp.mp.prec)
    hit = cache_lookup(_cache, key, target, cap)
    if hit is not None:
        return hit[:2]

    n0 = max(int(4 * (1 + abs(z))) + 1, 48)
    best = None
    while n0 <= cap:
        best = shifted_nested_sum_fixed(exponents, z, n0)
        if best[1] <= target:
            cache_store(_cache, key, (*best, n0), _CACHE_SIZE)
            return best[:2]
        if best.rounding > target:
            break
        n0 *= 3
    achieved = float(best[1]) if best else math.inf
    if best is not None and best.rounding > target:
        why = f"rounding at {mp.mp.prec} bits alone is {float(best.rounding):.3e}"
    else:
        why = f"within cutoff cap {cap}"
    raise PrecisionUnreachableError(
        f"nested sum for {exponents} reached bound {achieved:.3e} > {target:.3e} {why}",
        achieved=achieved,
    )


def certified_sum(terms) -> _FixedSum:
    """Sum over ``terms`` of the products of their factors ``(value, bound)``.
    If each true factor is within its bound of its value, the true sum is
    within the returned bound of the returned value.  A term's bounds add
    prod(|v| + e) - prod |v|.  Each product (one per factor, from 1) and each
    sum rounds by a relative 2^-prec; ``rounding`` counts each at 2^(3-prec)
    prod(|v| + e), which also covers the rounding of the bound arithmetic,
    the cancellation in that difference included."""
    value = mp.mpc(0)
    propagated = size = mp.mpf(0)
    for term in terms:
        product, mag, hi = 1, 1, 1
        for v, e in term:
            product *= v
            a = abs(v)
            mag *= a
            hi *= a + e
        value += product
        propagated += hi - mag
        size += (len(term) + len(terms)) * hi
    rounding = mp.ldexp(size, 3 - mp.mp.prec)
    return _FixedSum(value, mp.fadd(propagated, rounding, rounding="u"), rounding)


def certify(terms_at, target) -> _FixedSum:
    """``certified_sum(terms_at(scale))`` within ``target``, where
    ``terms_at`` evaluates the certified pieces to ``scale`` times their
    first-pass targets.  The scale starts at 1 and shrinks by
    target / (4 bound) while the bound misses, until a piece refuses its
    target.  Raises PrecisionUnreachableError at once when the rounding alone
    exceeds half the target, which no scale can shrink."""
    scale = 1.0
    while True:
        result = certified_sum(terms_at(scale))
        if result[1] <= target:
            return result
        if result.rounding > target / 2:
            raise PrecisionUnreachableError(
                f"sum reached bound {float(result[1]):.3e} > {float(target):.3e}: rounding "
                f"at {mp.mp.prec} bits alone is {float(result.rounding):.3e}",
                achieved=float(result[1]),
            )
        scale *= float(target / (4 * result[1]))
