"""High-precision evaluation of shifted nested sums

    S(s_1, ..., s_r; z) = sum over n_1 > n_2 > ... > n_r >= 1 of
                          prod_i (n_i + z)^(-s_i)

with a rigorous error bound that covers truncation and rounding.  The shift
z = 0 gives multiple zeta values; a complex shift gives one-sided
Hurwitz-type sums.

Method
------
One pass over the exponents, outermost first, evaluates every prefix.  With
T_0 = 1 and T_j(m) = sum over n > m of (n+z)^(-s_j) T_(j-1)(n), the prefix
sum S(s_1, ..., s_a; z) is T_a(0).

Past the cutoff N, T_j(m) is E_j(m+z) up to an envelope C_j m^(-beta_j),
where E_j(u) is a finite sum of e_k u^(-k), k >= 1, with exact rational
coefficients that depend on neither z, N nor the precision.  E_1 is the
Euler-Maclaurin completion G_(s_1) of the tail of u^(-s_1), and E_j is the
sum of c G_(b+s_j) over the terms c u^(-b) of E_(j-1), where for b >= 2

    G_b(u) = u^(1-b)/(b-1) - u^(-b)/2 + sum_k B_2k/(2k)! (b)_(2k-1) u^(1-b-2k)

is sum over n > m of (n+z)^(-b) at u = m+z, k = 1..K (``_EM_ORDER``), with
(b)_k the rising factorial.  Its remainder is at most
kappa (b)_(2K) pf^(b+2K) m^(1-b-2K) / (b+2K-1), kappa = |B_2K|/(2K)!, where
pf = N/(N-|z|) bounds t/|t+z| for t >= N; the envelope below is carried
through the sum as pf^s C m^(1-s-beta)/(s+beta-1).  Every exponent that
appears is at least beta_j = beta_(j-1) + s_j - 1, beta_0 = 2K, so with
x = pf/N the envelope of level j at N is

    c_j = N (sum over b of w_b x^(b+s_j+2K) + c_(j-1) x^(s_j) / beta_j),

w_b = |c| kappa (b')_(2K) / (b'+2K-1), b' = b+s_j.  E_j, the tail value
V_j = E_j + u^(-s_j) E_(j-1) and the w_b are built per exponent prefix from
the parent prefix's entry, in integers: the numerators of E_(j-1), of each
G_b over its own denominator (``_em_integers``) and of each w_b are combined
over common denominators, and the result is divided by its gcd, so each is
kept over its least denominator in a bounded cache (``_tail``).  The bound
rounds upward: |z| is bounded from above through the integer square root of
the exact dyadic |z|^2, x by a 64-bit fraction, the sum over b by a ceiling
Horner scheme on integers, and every other step by mpmath's upward rounding
at 53 bits.

Below N the running sums go backward: P_j(N-1) = V_j(N+z), which is
T_j(N-1) within eps_j = c_j + x^(s_j) c_(j-1), and P_j(m-1) = P_j(m) +
(m+z)^(-s_j) P_(j-1)(m) with P_0 = 1.  The truncation error of P_j(m) is at
most delta_j(m) = eps_j + sum over m < n < N of |(n+z)^(-s_j)| delta_(j-1)(n),
kept per m as an integer count of 2^-wp with every product rounded up, so a
large power near a pole at a small n reaches only the sums below n.

The values themselves are computed in fixed point: a complex number x is
held as a pair of Python ints (re, im) that approximate x * 2^wp, with
wp = working precision + ``GUARD`` bits.  A tail value is one exact dot
product of the integer coefficients of V_j with a shared table of the
powers (N/u)^k N^(top-k), rounded once.  Every rounding is counted in ulps
of 2^-wp: each power (m+z)^(-s), one rounding of an exact Gaussian
rational; each power of N/u, one rounded product; each tail value; and each
running sum, accumulated exactly and rounded once.  Earlier errors are
carried through the later sums, weighted by upper bounds on what they
multiply.  The count is kept in floats and scaled by 1 + 2^-20 to absorb
their own rounding.  The total, times 2^-wp, is the rounding term.  It is
added to the returned bound, and ``shifted_nested_sum`` refuses at once a
target below it: the count grows with the cutoff, whose running sums alone
add N roundings per level.  The value is returned exactly as the integers
hold it, so the bound covers the number handed back.

Certified results are cached under one rule, ``cache_lookup``: keyed on the
exact point at the working precision, an entry serves only calls whose target
and cap it meets.  A pass stores every prefix it evaluated.  Bounded LRUs hold
1024 nested sums (``_CACHE_SIZE``), 256 ``multitangent_eval_direct``
values (``_MEMO_SIZE``) and 1024 fragment values of
``multitangent_eval_reduced``, which have no point (``_FRAGMENT_SIZE``).

Convergence requires s_1 >= 2; later parts may equal 1.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul

import mpmath as mp
from mpmath.libmp import fzero, from_int, from_man_exp, mpf_add, mpf_div, mpf_mul, mpf_pow_int

from .errors import PrecisionUnreachableError

_EM_ORDER = 6  # K: Bernoulli corrections B_2..B_{2K}, remainder uses f^(2K)
# 2 zeta(2K) / (2 pi)^(2K), the Euler-Maclaurin remainder kernel
_EM_KERNEL = abs(Fraction(*mp.bernfrac(2 * _EM_ORDER))) / math.factorial(2 * _EM_ORDER)

GUARD = 48  # fixed-point bits carried beyond the working precision
_BOUND_PREC = 53  # bits of the upward-rounded truncation bound
_CACHE_SIZE = 1024  # nested sums kept by shifted_nested_sum
_MEMO_SIZE = 256  # certified values kept by numerics.multitangent_eval_direct
# fragment values kept by numerics._fragment_value; the sequences up to
# weight w need 2^w - w per precision and cap
_FRAGMENT_SIZE = 1024


def _up(op, x, y):
    """``op`` (mpf_add, mpf_mul or mpf_div) of raw mpfs, rounded upward."""
    return op(x, y, _BOUND_PREC, "u")


def _ulps_up(x, wp: int) -> int:
    """The raw mpf x >= 0 in units of 2^-wp, rounded up."""
    _, man, exp, _ = x
    exp += wp
    return man << exp if exp >= 0 else -(-man >> -exp)


def _rising(b: int, k: int) -> int:
    return math.prod(range(b, b + k))


@functools.lru_cache(maxsize=256)
def _em_template(b: int) -> tuple:
    """The completion G_b of sum over n > m of (n+z)^(-b), b >= 2, as pairs
    (k, e_k): the sum is e_k u^(-k) summed over k at u = m+z, up to the
    remainder ``_remainder_weight(b)`` x^(b+2K) N."""
    if b < 2:
        raise ValueError(f"the tail of (n+z)^-{b} diverges")
    terms = [(b - 1, Fraction(1, b - 1)), (b, Fraction(-1, 2))]
    for k in range(1, _EM_ORDER + 1):
        bern = Fraction(*mp.bernfrac(2 * k)) / math.factorial(2 * k)
        terms.append((b - 1 + 2 * k, bern * _rising(b, 2 * k - 1)))
    return tuple(terms)


def _remainder_weight(b: int) -> Fraction:
    """kappa (b)_(2K) / (b+2K-1): the remainder of G_b at m >= N is at most
    this times pf^(b+2K) m^(1-b-2K)."""
    return _EM_KERNEL * _rising(b, 2 * _EM_ORDER) / (b + 2 * _EM_ORDER - 1)


@functools.lru_cache(maxsize=256)
def _em_integers(b: int) -> tuple:
    """``_em_template(b)`` over one common denominator, with the remainder
    weight: (den, ((k, num), ...), rho_num, rho_den), e_k = num / den and
    ``_remainder_weight(b)`` = rho_num / rho_den."""
    terms = _em_template(b)
    den = math.lcm(*(e.denominator for _, e in terms))
    rho = _remainder_weight(b)
    nums = tuple((k, e.numerator * (den // e.denominator)) for k, e in terms)
    return den, nums, rho.numerator, rho.denominator


def _layout(den: int, lo: int, nums: list[int]) -> tuple[int, int, tuple]:
    """(den, lo, nums) with the gcd of den and every num divided out, so
    den is the least common denominator of the nums[i] / den."""
    g = math.gcd(den, *nums)
    return den // g, lo, tuple(n // g for n in nums)


class _Tail:
    """The tail expansion of one exponent prefix (s_1, ..., s_j), free of z,
    N and the precision.  ``E``, ``V`` and ``W`` are ``_layout``s, with
    coefficient lo + i equal to nums[i] / den: E_j, the tail value
    V_j = E_j + u^(-s_j) E_(j-1), and the w_b keyed by the exponent
    b + s_j + 2K of x they multiply.  ``top`` is the largest power of 1/u
    in V_j."""

    __slots__ = ("E", "V", "W", "beta", "top")

    def __init__(self, E: tuple, V: tuple, W: tuple, beta: int):
        self.E, self.V, self.W, self.beta = E, V, W, beta
        self.top = V[1] + len(V[2]) - 1


@functools.lru_cache(maxsize=1024)
def _tail(prefix: tuple[int, ...]) -> _Tail:
    """The ``_Tail`` of ``prefix``, built from its parent prefix's entry in
    integers: E_j and V_j over den(E_(j-1)) times the lcm of the template
    denominators, the w_b over den(E_(j-1)) times the lcm of the remainder
    weight denominators."""
    s = prefix[-1]
    if len(prefix) == 1:
        (den, start, nums), beta = (1, 0, (1,)), 2 * _EM_ORDER
    else:
        parent = _tail(prefix[:-1])
        (den, start, nums), beta = parent.E, parent.beta
    # the terms c u^(-b) of E_(j-1), c = n / den, with the integers of G_(b+s)
    inner = [(start + i, n, _em_integers(start + i + s)) for i, n in enumerate(nums) if n]
    e_den = math.lcm(*(t[0] for _, _, t in inner))
    w_den = math.lcm(*(t[3] for _, _, t in inner))
    first, last = inner[0][0], inner[-1][0]
    lo = first + s - 1  # the least power of 1/u in E_j and V_j
    E = [0] * (last - first + 2 * _EM_ORDER + 1)
    W = [0] * (last - first + 1)
    for b, n, (t_den, terms, rho_num, rho_den) in inner:
        scale = n * (e_den // t_den)
        for k, t in terms:
            E[k - lo] += scale * t
        W[b - first] = abs(n) * rho_num * (w_den // rho_den)
    V = E[:]
    for b, n, _ in inner:
        V[b + s - lo] += n * e_den
    return _Tail(
        _layout(den * e_den, lo, E),
        _layout(den * e_den, lo, V),
        _layout(den * w_den, first + s + 2 * _EM_ORDER, W),
        beta + s - 1,
    )


def _man_exp(x) -> tuple[int, int]:
    """(m, e) with the mpf x = m 2^e exactly; m carries the sign."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def _dyadic(z) -> tuple[int, int, int]:
    """(zr, zi, k) with z = (zr + i zi) / 2^k exactly, k >= 0."""
    (mr, er), (mi, ei) = _man_exp(z.real), _man_exp(z.imag)
    k = max(0, -er, -ei)
    return mr << (er + k), mi << (ei + k), k


class _Cutoff:
    """What every level of one pass at cutoff n0 shares: the exact shift,
    the rows (m+z)^(-s), the table of scaled powers of n0/u at u = n0 + z,
    and the upward bound on x = 1/(n0 - |z|) with its powers.

    Fixed-point numbers carry wp = prec + GUARD fractional bits; errors are
    counted in ulps of 2^-wp, magnitudes are real floats.  ``ulp`` is an
    upper bound on 2^-wp that does not underflow."""

    def __init__(self, z, n0: int, top: int):
        self.n0 = n0
        self.wp = wp = mp.mp.prec + GUARD
        self.one = 1 << wp
        self.half = 1 << (wp - 1)
        self.ulp = 2.0 ** -min(wp, 1000)
        self.shift = zr, zi, k = _dyadic(z)
        # x = 1/(n0 - |z|) <= 2^k / (n0 2^k - root) <= X 2^-64, with root the
        # ceiling of the square root of |2^k z|^2
        norm = zr * zr + zi * zi
        root = math.isqrt(norm)
        rest = (n0 << k) - root - (root * root < norm)
        if rest <= 0:
            raise ValueError("cutoff too small for the tail bounds")
        self.X = -(-1 << (64 + k)) // rest
        self.x = from_man_exp(self.X, -64)
        self._xpow: dict = {}

        # r = n0/u rounded once and its powers by rounded products, scaled by
        # n0^(top-k) for the exact dot products of ``tail_value``
        ur = (n0 << k) + zr
        den = ur * ur + zi * zi
        num = (n0 << (k + wp)) * ur, -(n0 << (k + wp)) * zi
        rr, ri = [(x + (den >> 1)) // den for x in num]
        r_mag = self._mag(rr, ri) + self.ulp
        # a power (x, y), off by err ulps, times r (off by 1 ulp), rounded once
        re, im, x, y, err = [self.one, rr], [0, ri], rr, ri, 1.0
        self.power_err = err  # the largest error of a power
        half = self.half
        for _ in range(top - 1):
            err = self._mag(x, y) + r_mag * err + 1.0
            x, y = (x * rr - y * ri + half) >> wp, (x * ri + y * rr + half) >> wp
            re.append(x)
            im.append(y)
            self.power_err = max(self.power_err, err)
        self.scales = [n0 ** (top - k) for k in range(top + 1)]
        self.re = list(map(mul, re, self.scales))
        self.im = list(map(mul, im, self.scales))
        self.denom = n0**top

    def _mag(self, x: int, y: int) -> float:
        """Upper bound on |x + iy| * 2^-wp, up to float rounding."""
        return (abs(x) + abs(y)) / self.one

    def rows(self, exponents) -> dict:
        """s -> (row, weights): the powers (m+z)^(-s) for m = n0-1 down to 1,
        each one rounding of an exact Gaussian rational (error <= 1 ulp), and
        integers with |(m+z)^(-s)| <= weight 2^-64."""
        zr, zi, k = self.shift
        wp = self.wp
        rows = {s: [] for s in exponents}
        for m in range(self.n0 - 1, 0, -1):
            ur, ui = (m << k) + zr, -zi  # 2^k conj(m + z)
            norm = ur * ur + ui * ui
            vr, vi, den = 1, 0, 1
            for s in range(1, max(rows) + 1):
                vr, vi, den = vr * ur - vi * ui, vr * ui + vi * ur, den * norm
                if s in rows:
                    shift = wp + k * s
                    half = den >> 1
                    rows[s].append((((vr << shift) + half) // den, ((vi << shift) + half) // den))
        return {
            s: (row, [(((abs(x) + abs(y) + 1) << 64) >> wp) + 1 for x, y in row])
            for s, row in rows.items()
        }

    def tail_value(self, tail: _Tail) -> tuple[int, int, float]:
        """V_j at u = n0 + z as (re, im, error in ulps): the exact sum of
        nums[i] (n0/u)^(lo+i) n0^(top-lo-i), divided by den n0^top once."""
        den, lo, nums = tail.V
        x = sum(map(mul, nums, self.re[lo:]))
        y = sum(map(mul, nums, self.im[lo:]))
        size = sum(map(mul, map(abs, nums), self.scales[lo:]))
        d = den * self.denom
        h = d >> 1
        return (x + h) // d, (y + h) // d, size / d * self.power_err + 1.0

    def xpow(self, n: int):
        """The upper bound on x to the n, rounded upward."""
        p = self._xpow.get(n)
        if p is None:
            p = self._xpow[n] = mpf_pow_int(self.x, n, _BOUND_PREC, "u")
        return p

    def envelope(self, tail: _Tail, carried):
        """c_j = n0 (sum_b w_b x^(b+s_j+2K) + carried / beta_j), upward, with
        carried = c_(j-1) x^(s_j).  The sum over b runs as a Horner scheme on
        integers with 64 fraction bits that rounds every product up."""
        den, lo, nums = tail.W
        X = self.X
        acc = nums[-1] << 64
        for n in nums[-2::-1]:
            acc = -((-acc * X) >> 64) + (n << 64)
        total = _up(mpf_mul, _up(mpf_div, from_man_exp(acc, -64), from_int(den)), self.xpow(lo))
        total = _up(mpf_add, total, _up(mpf_div, carried, from_int(tail.beta)))
        return _up(mpf_mul, total, from_int(self.n0))


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
    """One pass with cutoff n0; returns (value, error bound) of the full
    sum, with ``prefixes`` holding (value, error bound) of every prefix
    S(s_1, ..., s_a; z), a = 1..r."""
    if not exponents:
        result = _FixedSum(mp.mpc(1), mp.mpf(0), mp.mpf(0))
        result.prefixes = ()
        return result
    if exponents[0] < 2:
        raise ValueError(f"divergent nested sum: leading exponent {exponents[0]} < 2")
    if any(s < 1 for s in exponents):
        raise ValueError("exponents must be positive")
    z = mp.mpc(z)
    if n0 < 4 * (1 + abs(z)) or n0 < 16:
        raise ValueError("cutoff too small for the tail bounds")

    tails = [_tail(exponents[:j]) for j in range(1, len(exponents) + 1)]
    cut = _Cutoff(z, n0, max(t.top for t in tails))
    rows = cut.rows(exponents)
    wp, half = cut.wp, cut.half
    # P_(j-1)(m) and delta_(j-1)(m) for m = n0-1 down to 1; None for P_0 = 1
    below = deltas = None
    err, size = 0.0, 1.0  # rounding (ulps) and magnitude bound of P_(j-1)
    env = fzero  # c_(j-1)
    prefixes = []
    for j, (s, tail) in enumerate(zip(exponents, tails), 1):
        row, weights = rows[s]
        total = sum(weights) / 2**64
        tr, ti, terr = cut.tail_value(tail)
        tmag = cut._mag(tr, ti) + terr * cut.ulp
        carried = _up(mpf_mul, env, cut.xpow(s))
        env = cut.envelope(tail, carried)
        delta = _ulps_up(_up(mpf_add, env, carried), wp)  # eps_j
        keep = j < len(exponents)  # the last level's sums feed nothing
        sums, next_deltas = [], []
        if below is None:  # exact sums of the rounded powers
            for pr, pi in row:
                if keep:
                    sums.append((tr, ti))
                tr += pr
                ti += pi
            next_deltas = [delta] * len(row)
            err = terr + (n0 - 1)
        else:
            ar, ai = tr << wp, ti << wp
            for (pr, pi), (cr, ci), w, d in zip(row, below, weights, deltas):
                if keep:
                    sums.append(((ar + half) >> wp, (ai + half) >> wp))
                    next_deltas.append(delta)
                ar += pr * cr - pi * ci
                ai += pr * ci + pi * cr
                delta -= (-w * d) >> 64  # plus w d 2^-64, rounded up
            tr, ti = (ar + half) >> wp, (ai + half) >> wp
            err = terr + total * err + (n0 - 1) * size + 1.0
        size = tmag + total * size
        below, deltas = sums, next_deltas

        value = mp.make_mpc((from_man_exp(tr, -wp), from_man_exp(ti, -wp)))
        # the float accounting rounds by at most 2^-53 relative per operation
        rounding = mp.ldexp(mp.mpf(err * (1 + 2.0**-20)), -wp)
        truncation = mp.make_mpf(from_man_exp(delta, -wp))
        prefixes.append(_FixedSum(value, mp.fadd(truncation, rounding, rounding="u"), rounding))
    result = prefixes[-1]
    result.prefixes = tuple(p[:2] for p in prefixes)
    return result



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
    used are cached with their cutoff, which the caller's cap must admit; a
    certifying pass stores every prefix it evaluated, the full sum last.
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
            for j, prefix in enumerate(best.prefixes, 1):
                cache_store(_cache, (exponents[:j], *key[1:]), (*prefix, n0), _CACHE_SIZE)
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
