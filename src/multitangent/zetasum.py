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
(b)_k the rising factorial.  Its remainder R_K is the first omitted term
T_(K+1) = B_(2K+2)/(2K+2)! (b)_(2K+1) u^(-b-2K-1) plus the remainder R_(K+1)
after it, and R_(K+1) is at most |B_(2K+2)|/(2K+2)! times the integral of
|f^(2K+2)| past m, f(t) = (t+z)^(-b).  With pf = N/(N-|z|), which bounds
t/|t+z| for t >= N, both parts are O(m^(-b-2K-1)) for complex z, and

    |R_K(m)| <= kappa (b)_(2K+1) (1 + pf) pf^(b+2K+1) m^(-b-2K-1),

kappa = |B_(2K+2)|/(2K+2)!.  The envelope below is carried through the sum
as pf^s C m^(1-s-beta)/(s+beta-1).  Every exponent that appears is at least
beta_j = beta_(j-1) + s_j - 1, beta_0 = 2K+2.  E_j keeps only its powers
below beta_j + M (``_TAIL_MARGIN``): for m >= N, with x = pf/N, a dropped
e_k u^(-k) is at most |e_k| x^k (m/N)^(-beta_j), so it joins the envelope of
level j at N,

    c_j = (1 + pf) sum over k of W_k x^k + N c_(j-1) x^(s_j) / beta_j,

W_k = sum of w_b over b+s_j+2K+1 = k plus the dropped |e_k|, where
w_b = |c| kappa (b')_(2K+1), b' = b+s_j.  E_j, the tail value
V_j = E_j + u^(-s_j) E_(j-1) and W are built per exponent prefix from the
parent prefix's entry, in integers: the numerators of E_(j-1), of each G_b
over its own denominator (``_em_integers``) and of each w_b are combined
over common denominators, and the result is divided by its gcd, so each is
kept over its least denominator in a bounded cache (``_tail``).  The bound
rounds upward: |z| is bounded from above through the integer square root of
the exact dyadic |z|^2, x by a 64-bit fraction, the sum over k by a ceiling
Horner scheme on integers, and every other step in floats, each result
moved up one ulp (``math.nextafter``), so a bound that underflows becomes
the least positive float, never 0.

The cutoff N starts at the floor the tail bounds allow, N > 4 (1 + |z|)
and N >= 16 (``_Point.floor``, exact on the dyadic z), so pf < 4/3.  K = 9
certifies the targets of the direct evaluations at the floor almost always;
a pass that misses is retried at three times the cutoff.

Below N the running sums go backward: P_j(N-1) = V_j(N+z), which is
T_j(N-1) within eps_j = c_j + x^(s_j) c_(j-1), and P_j(m-1) = P_j(m) +
(m+z)^(-s_j) P_(j-1)(m) with P_0 = 1.  The truncation error of P_j(m) is at
most delta_j(m) = eps_j + sum over m < n < N of |(n+z)^(-s_j)| delta_(j-1)(n),
kept per m as an integer count of 2^-wp with every product rounded up, so a
large power near a pole at a small n reaches only the sums below n.  At the
first level P_0 = 1 and delta_0 = 0, so the running sums are V_1(N+z) plus
the exact prefix sums of the row, with no product and no count to update.

The values themselves are computed in fixed point: a complex number x is
held as a pair of Python ints (re, im) that approximate x * 2^wp, with
wp = working precision + ``GUARD`` bits.  A tail value is one exact dot
product of the integer coefficients of V_j with a shared table of the
powers (N/u)^k N^(top-k), rounded once; the integers N^(top-k) and N^top
and the floats N^-k are kept per (N, top) (``_scales``).  The rows
(m+z)^(-s) of every exponent of the pass are built in one loop over m (the
exponents ascending, each one product past the one before, by a power raised
by squaring where the step is 2 or more), and each entry is one rounding of
an exact Gaussian rational.  Every rounding is
counted in ulps of 2^-wp: each row entry; each power of N/u, one rounded
product; each tail value; and each running sum past the first level,
accumulated exactly and rounded once.  Earlier errors are carried through
the later sums, weighted by upper bounds on what they multiply.  The count
is kept in floats and scaled by 1 + 2^-20 to absorb their own rounding.  The
total, times 2^-wp, is the rounding term.  It is added to the returned
bound, and ``shifted_nested_sum`` refuses at once a target below it: the
count grows with the cutoff, whose running sums alone add N roundings per
level.  Every int-to-float step of the count and the bound (a row's total
weight, the envelope, the count of delta) saturates to inf: a row past the
float range makes the rounding term of every later level inf, and such a
target is refused at once too.  The value is returned exactly as the
integers hold it, so the bound covers the number handed back.  The point
enters as its exact dyadic (``_Point``), and every bound is a float rounded
up.

Certified sums
--------------
Values travel in one format from pass to certificate, the entry
``_FixedSum``: the Gaussian integer at wp that the pass or ``certified_sum``
holds, its float size and bound.  Every certified cache stores entries; an
mpc is built from one only where a public function returns a value.
``certified_sum`` adds products of factors (value, bound) at the working
precision (a sum made outside an evaluator runs at its context's) and
rounds the sum to it in integers, as mpmath rounds.  One reader, ``_read``,
reads each factor once: an entry made at wp as it is, any other value (int,
exact Fraction, mpf or mpc) with its own bits, verr ulps away, and its size
and bound as upward floats.  A running product P rounds once per factor v,
and its error becomes err |v| + |P| verr + 1 ulps; the sums are exact.  The
propagated bound runs in floats by a recursion that never cancels, with
a_k >= |v_k| and e_k the bounds: D_k = D_(k-1) a_k + H_(k-1) e_k,
H_k = H_(k-1) (a_k + e_k), D_0 = 0, H_0 = 1.  The rounding term adds the
ulps and 2^(3-prec) times the sum over terms of (factors + terms) H, which
covers rounding each factor and the value to the working precision.  Bounds
are floats scaled by 1 + 2^-20 and rounded up (``math.nextafter``), as the
nested-sum pass returns them: upward-rounded floats from pass to certificate.
``certify`` holds the one budget rule.  Its pieces are factors it evaluates
itself: in a term of n with c pieces whose other factors multiply to
m = prod (size + bound), each piece first gets target / (2 n c max(1, m)),
and all piece targets shrink by target / (4 bound) while the bound misses.
Terms without a piece meet the target before any piece is evaluated.  A
pass that misses is summed again with every piece at its value and bound 0:
if that misses too, no piece target can help, and the sum is refused.  A
piece that refuses its own target is refused under the sum's target.

Certified results are cached under one rule, ``CertifiedCache``: an entry's
key holds all its value depends on but the target (the exact point, working
precision and truncation cap), it serves calls whose target its bound meets,
only a tighter entry replaces it, and past its size the least recently used
goes.  Each cache counts hits, misses and evictions and is sized where it is
made; ``_cache`` keeps every prefix a pass evaluated.

Convergence requires s_1 >= 2; later parts may equal 1.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate
from fractions import Fraction
from operator import mul
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero, to_fixed, to_float

from .errors import PoleProximityError, PrecisionUnreachableError

_EM_ORDER = 9  # K: Bernoulli corrections B_2..B_{2K}
# |B_(2K+2)| / (2K+2)!: the size of the first omitted Euler-Maclaurin term and
# the kernel of the remainder after it
_EM_KERNEL = abs(Fraction(*mp.bernfrac(2 * _EM_ORDER + 2))) / math.factorial(2 * _EM_ORDER + 2)
# M: V_j holds at most 2K+2+M powers of 1/u at any depth.  Against unfolded
# tails, the bounds of depth-10 words at the floor cutoff, three times it and
# 48 grow by at most 1.10x at M = 4, 1.49x at M = 2, 4.5x at M = 0; a pass
# costs the same from M = 2 to 6
_TAIL_MARGIN = 4

GUARD = 48  # fixed-point bits carried beyond the working precision


def _upward(x: float) -> float:
    """The float above x, the result of one rounded operation: it bounds the
    exact result from above, also where that underflowed to 0."""
    return math.nextafter(x, math.inf)


def _ratio(n: int, d: int) -> float:
    """n / d >= 0 as a float, correctly rounded; inf beyond the float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf


def _ulps(x: float, wp: int) -> int:
    """The float x >= 0 in units of 2^-wp, rounded up; inf as 2^(wp+1024)
    units, a count that ``_ratio`` reads back as inf and that only grows."""
    if x == math.inf:
        return 1 << (wp + 1024)
    n, d = x.as_integer_ratio()
    return -((-n << wp) // d)


def _rising(b: int, k: int) -> int:
    return math.prod(range(b, b + k))


def _em_template(b: int) -> tuple:
    """The completion G_b of sum over n > m of (n+z)^(-b), b >= 2, as pairs
    (k, e_k): the sum is e_k u^(-k) summed over k at u = m+z, up to the
    remainder kappa (b)_(2K+1) (1 + pf) x^(b+2K+1)."""
    if b < 2:
        raise ValueError(f"the tail of (n+z)^-{b} diverges")
    terms = [(b - 1, Fraction(1, b - 1)), (b, Fraction(-1, 2))]
    for k in range(1, _EM_ORDER + 1):
        bern = Fraction(*mp.bernfrac(2 * k)) / math.factorial(2 * k)
        terms.append((b - 1 + 2 * k, bern * _rising(b, 2 * k - 1)))
    return tuple(terms)


@functools.lru_cache(maxsize=256)
def _em_integers(b: int) -> tuple:
    """``_em_template(b)`` over one common denominator, with the remainder
    weight: (den, ((k, num), ...), rho_num, rho_den), e_k = num / den and
    kappa (b)_(2K+1) = rho_num / rho_den, the remainder of G_b at m >= N
    being at most that times (1 + pf) pf^(b+2K+1) m^(-b-2K-1)."""
    terms = _em_template(b)
    den = math.lcm(*(e.denominator for _, e in terms))
    rho = _EM_KERNEL * _rising(b, 2 * _EM_ORDER + 1)
    nums = tuple((k, e.numerator * (den // e.denominator)) for k, e in terms)
    return den, nums, rho.numerator, rho.denominator


def _layout(den: int, lo: int, nums: list[int]) -> tuple[int, int, tuple]:
    """(den, lo, nums) without trailing zeros and with the gcd of den and
    every num divided out, so den is the least common denominator."""
    while not nums[-1]:
        nums = nums[:-1]
    g = math.gcd(den, *nums)
    return den // g, lo, tuple(n // g for n in nums)


class _Tail:
    """The tail expansion of one exponent prefix (s_1, ..., s_j), free of z,
    N and the precision.  ``E``, ``V`` and ``W`` are ``_layout``s, with
    coefficient lo + i equal to nums[i] / den: E_j below the power
    beta_j + M, the tail value V_j = E_j + u^(-s_j) E_(j-1), and W by powers
    of x.  ``mags`` holds the floats |nums[i]| / den of V_j, and ``top`` is
    the largest power of 1/u in V_j."""

    __slots__ = ("E", "V", "W", "beta", "top", "mags")

    def __init__(self, E: tuple, V: tuple, W: tuple, beta: int):
        self.E, self.V, self.W, self.beta = E, V, W, beta
        self.top = V[1] + len(V[2]) - 1
        self.mags = tuple(abs(n) / V[0] for n in V[2])


@functools.lru_cache(maxsize=1024)
def _tail(prefix: tuple[int, ...]) -> _Tail:
    """The ``_Tail`` of ``prefix``, built from its parent prefix's entry in
    integers: E_j and V_j over den(E_(j-1)) times the lcm of the template
    denominators, W over den(E_(j-1)) times the lcm of those and of the
    remainder weight denominators."""
    s = prefix[-1]
    if len(prefix) == 1:
        (den, start, nums), beta = (1, 0, (1,)), 2 * _EM_ORDER + 2
    else:
        parent = _tail(prefix[:-1])
        (den, start, nums), beta = parent.E, parent.beta
    beta += s - 1
    # the terms c u^(-b) of E_(j-1), c = n / den, with the integers of G_(b+s)
    inner = [(start + i, n, _em_integers(start + i + s)) for i, n in enumerate(nums) if n]
    e_den = math.lcm(*(t[0] for _, _, t in inner))
    w_den = math.lcm(e_den, *(t[3] for _, _, t in inner))
    first, last = inner[0][0], inner[-1][0]
    lo = first + s - 1  # the least power of 1/u in E_j and V_j
    w_lo = first + s + 2 * _EM_ORDER + 1  # the least power of x in W, beta_j
    E = [0] * (last - first + 2 * _EM_ORDER + 1)
    W = [0] * (last - first + 1)
    for b, n, (t_den, terms, rho_num, rho_den) in inner:
        scale = n * (e_den // t_den)
        for k, t in terms:
            E[k - lo] += scale * t
        W[b - first] = abs(n) * rho_num * (w_den // rho_den)
    # fold each e_k u^(-k), k >= beta_j + M, into W as |e_k| x^k
    cut = beta + _TAIL_MARGIN - lo
    for i, e in enumerate(E[cut:], cut + lo - w_lo):
        W[i] += abs(e) * (w_den // e_den)
    del E[cut:]
    V = E + [0] * (last - first + 2 - len(E))  # room for u^(-s) E_(j-1)
    for b, n, _ in inner:
        V[b + s - lo] += n * e_den
    return _Tail(
        _layout(den * e_den, lo, E),
        _layout(den * e_den, lo, V),
        _layout(den * w_den, w_lo, W),
        beta,
    )


class _Point(NamedTuple):
    """The point z = (re + i im) / 2^k exactly, k >= 0 least.  ``floor`` is
    the least cutoff the tail bounds allow at z: n0 > 4 (1 + |z|) and
    n0 >= 16, where floor(4 |z|) = floor(isqrt(16 |2^k z|^2) / 2^k)."""

    re: int
    im: int
    k: int

    def __neg__(self):
        return _Point(-self.re, -self.im, self.k)

    def shift(self, n: int) -> _Point:
        """z + n exactly: k stays least, as re keeps its parity when k > 0."""
        return _Point(self.re + (n << self.k), self.im, self.k)

    @property
    def floor(self) -> int:
        return max(16, 5 + (math.isqrt(16 * (self.re**2 + self.im**2)) >> self.k))


def _point(z) -> _Point:
    """z as a ``_Point``: an int as it is, any other number, an mpc too,
    rounded at the working precision."""
    if type(z) is _Point:
        return z
    if type(z) is int:
        return _Point(z, 0, 0)
    (sr, mr, er, _), (si, mi, ei, _) = mp.mpc(z)._mpc_
    if not mr and er or not mi and ei:  # mpmath's inf and nan: mantissa 0
        raise ValueError(f"evaluation point {mp.mpc(z)} is not finite")
    k = max(0, -er, -ei)
    return _Point((-mr if sr else mr) << (er + k), (-mi if si else mi) << (ei + k), k)


@functools.lru_cache(maxsize=64)
def _scales(n0: int, top: int) -> tuple[tuple, int, tuple]:
    """The integers n0^(top-k), n0^top and the floats n0^-k, k = 0..top: all
    that the scaled power table of one cutoff needs beyond the point."""
    ks = range(top + 1)
    return tuple(n0 ** (top - k) for k in ks), n0**top, tuple(n0**-k for k in ks)


class _Cutoff:
    """What every level of one pass at cutoff n0 shares: the exact shift,
    the rows (m+z)^(-s), the table of scaled powers of n0/u at u = n0 + z,
    and the upward bound on x = 1/(n0 - |z|) with its powers.

    Fixed-point numbers carry wp = prec + GUARD fractional bits; errors are
    counted in ulps of 2^-wp, magnitudes are real floats.  ``ulp`` is an
    upper bound on 2^-wp that does not underflow."""

    def __init__(self, z: _Point, n0: int, top: int):
        self.n0 = n0
        self.wp = wp = mp.mp.prec + GUARD
        self.one = 1 << wp
        self.half = 1 << (wp - 1)
        self.ulp = 2.0 ** -min(wp, 1000)
        self.shift = zr, zi, k = z.re, z.im, z.k
        # x = 1/(n0 - |z|) <= 2^k / (n0 2^k - root) <= X 2^-64, with root the
        # ceiling of the square root of |2^k z|^2
        norm = zr * zr + zi * zi
        root = math.isqrt(norm)
        rest = (n0 << k) - root - (root * root < norm)
        if rest <= 0:
            raise ValueError("cutoff too small for the tail bounds")
        self.X = -(-1 << (64 + k)) // rest

        # r = n0/u rounded once and its powers by rounded products, scaled by
        # n0^(top-k) for the exact dot products of ``tail_value``
        ur = (n0 << k) + zr
        den = ur * ur + zi * zi
        num = (n0 << (k + wp)) * ur, -(n0 << (k + wp)) * zi
        rr, ri = [(x + (den >> 1)) // den for x in num]
        one, half = self.one, self.half
        r_mag = self._mag(rr, ri) + self.ulp
        # a power (x, y), off by err ulps, times r (off by 1 ulp), rounded once
        re, im, x, y, err = [one, rr], [0, ri], rr, ri, 1.0
        power_err = err  # the largest error of a power
        for _ in range(top - 1):
            err = (abs(x) + abs(y)) / one + r_mag * err + 1.0
            x, y = (x * rr - y * ri + half) >> wp, (x * ri + y * rr + half) >> wp
            re.append(x)
            im.append(y)
            power_err = max(power_err, err)
        self.power_err = power_err
        scales, self.denom, self.inv = _scales(n0, top)
        self.re = list(map(mul, re, scales))
        self.im = list(map(mul, im, scales))

    def _mag(self, x: int, y: int) -> float:
        """Upper bound on |x + iy| * 2^-wp, up to float rounding."""
        return (abs(x) + abs(y)) / self.one

    def rows(self, exponents) -> dict:
        """s -> (re, im, weights): the powers (m+z)^(-s) 2^wp for m = n0-1
        down to 1 as their real and imaginary parts, and integers with
        |(m+z)^(-s)| <= weight 2^-64.  One loop over m runs the exponents in
        ascending order: at u = (ur + i zi) / 2^k, u^(-s) is the exact
        Gaussian rational conj(2^k u)^s 2^(k s) / |2^k u|^(2 s), each part
        rounded once (error <= 1 ulp).  Each power is the one before times
        conj(2^k u)^step by binary powering: one product for a step of 1, at
        most 2 log2(step) for a larger step."""
        zr, zi, k = self.shift
        wp, wanted = self.wp, sorted(set(exponents))
        out = {s: ([], []) for s in wanted}
        # per exponent: its step past the one before, its shift, its lists
        plan = [(s - t, wp + k * s, out[s][0].append, out[s][1].append)
                for s, t in zip(wanted, [1, *wanted])]
        for m in range(self.n0 - 1, 0, -1):
            ur = (m << k) + zr
            norm = ur * ur + zi * zi
            vr, vi, den = ur, -zi, norm  # conj(2^k u) over its norm
            for steps, shift, put_re, put_im in plan:
                pr, pi, pn = ur, -zi, norm  # conj(2^k u) and its norm, squared j times
                while steps:
                    if steps & 1:
                        vr, vi, den = vr * pr - vi * pi, vr * pi + vi * pr, den * pn
                    steps >>= 1
                    if steps:
                        pr, pi, pn = (pr + pi) * (pr - pi), 2 * pr * pi, pn * pn
                h = den >> 1
                put_re(((vr << shift) + h) // den)
                put_im(((vi << shift) + h) // den)
        return {
            s: (re, im, [(((abs(x) + abs(y) + 1) << 64) >> wp) + 1 for x, y in zip(re, im)])
            for s, (re, im) in out.items()
        }

    def tail_value(self, tail: _Tail) -> tuple[int, int, float]:
        """V_j at u = n0 + z as (re, im, error in ulps): the exact sum of
        nums[i] (n0/u)^(lo+i) n0^(top-lo-i), divided by den n0^top once.
        The powers' errors weigh sum |v_k| n0^-k, summed in floats."""
        den, lo, nums = tail.V
        x = sum(map(mul, nums, self.re[lo:]))
        y = sum(map(mul, nums, self.im[lo:]))
        size = sum(map(mul, tail.mags, self.inv[lo:]))
        d = den * self.denom
        h = d >> 1
        return (x + h) // d, (y + h) // d, size * self.power_err + 1.0

    def xpow(self, n: int) -> float:
        """An upper bound on x to the n: X^n 2^(-64 n), rounded once upward."""
        return _upward(self.X**n / (1 << 64 * n))

    def envelope(self, tail: _Tail, carried: float) -> float:
        """c_j = (1 + n0 x) sum_k W_k x^k + n0 carried / beta_j, upward,
        with carried = c_(j-1) x^(s_j) and W the w_b and the dropped |e_k|.
        The sum over k runs as a Horner scheme on integers with 64 fraction
        bits that rounds every product up; the rest runs in floats."""
        den, lo, nums = tail.W
        X = self.X
        acc = nums[-1] << 64
        for n in nums[-2::-1]:
            acc = -((-acc * X) >> 64) + (n << 64)
        # times 1 + n0 x >= 1 + pf (x = X 2^-64), rounded up
        acc = -((-acc * ((1 << 64) + self.n0 * X)) >> 64)
        total = _upward(_upward(_ratio(acc, den << 64)) * self.xpow(lo))
        return _upward(total + _upward(_upward(carried * self.n0) / tail.beta))


def _round(n: int, prec: int) -> int:
    """n to prec significant bits, to nearest with ties to even, as mpmath
    rounds a mantissa."""
    shift = abs(n).bit_length() - prec
    if shift <= 0:
        return n
    q, r = divmod(n, 1 << shift)
    return (q + (r > 1 << (shift - 1) or r == 1 << (shift - 1) and q & 1)) << shift


class _FixedSum:
    """A certified value as the numeric core hands it on: ``read`` is what
    ``_read`` returns for it at ``wp``, (x, y, err, size, bound).  ``rounding``
    is the part of the bound that covers rounding; for a nested sum it grows
    with the cutoff.  It reads as the pair (value, bound), the value an mpc
    built from x + iy on first use."""

    __slots__ = ("read", "wp", "rounding", "prefixes", "_value")

    def __init__(self, read: tuple, wp: int, rounding: float = 0.0, value=None):
        self.read, self.wp, self.rounding, self._value = read, wp, rounding, value

    @classmethod
    def exact(cls, x: int, y: int, wp: int, bound: float, rounding: float):
        """The entry whose value is exactly (x + iy) / 2^wp."""
        try:
            size = abs(complex(x / (1 << wp), y / (1 << wp))) * (1 + 2.0**-50)
        except OverflowError:
            size = math.inf
        return cls((x, y, 0.0, size, bound), wp, rounding)

    @property
    def value(self):
        if self._value is None:
            self._value = mp.make_mpc(tuple(from_man_exp(x, -self.wp) for x in self.read[:2]))
        return self._value

    def __getitem__(self, i):
        return self.read[4] if i == 1 else (self.value, self.read[4])[i]

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, (tuple, _FixedSum)) else other)

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __neg__(self) -> _FixedSum:
        """-value of an entry that holds its value (err 0), rounded to the
        working precision as mpmath negates."""
        x, y, _, _, bound = self.read
        x, y = (-_round(v, mp.mp.prec) for v in (x, y))
        return _FixedSum.exact(x, y, self.wp, bound, self.rounding)

    def contains_zero(self) -> bool:
        """|value| <= bound, exactly, for an entry that holds its value (err 0)."""
        n, d = self.read[4].as_integer_ratio()
        return (self.read[0] ** 2 + self.read[1] ** 2) * d * d <= (n << self.wp) ** 2


def shifted_nested_sum_fixed(exponents: tuple[int, ...], z, n0: int) -> _FixedSum:
    """One pass with cutoff n0 at z (a number or ``_Point``); returns
    (value, error bound) of the full sum, with ``prefixes`` holding
    (value, error bound) of every prefix S(s_1, ..., s_a; z), a = 1..r.
    Raises PoleProximityError at a negative integer z, where a term has a pole."""
    if not exponents:
        result = _FixedSum.exact(1, 0, 0, 0.0, 0.0)  # exact at any precision
        result.prefixes = ()
        return result
    if exponents[0] < 2:
        raise ValueError(f"divergent nested sum: leading exponent {exponents[0]} < 2")
    if any(s < 1 for s in exponents):
        raise ValueError("exponents must be positive")
    z = _point(z)
    if z.k == 0 and z.im == 0 and z.re <= -1:
        raise PoleProximityError(f"the term n = {-z.re} of the nested sum at z = {z.re} has a pole")
    if n0 < z.floor:
        raise ValueError("cutoff too small for the tail bounds")

    tails = [_tail(exponents[:j]) for j in range(1, len(exponents) + 1)]
    cut = _Cutoff(z, n0, max(t.top for t in tails))
    rows = cut.rows(exponents)
    wp, half = cut.wp, cut.half
    err, size = 0.0, 1.0  # rounding (ulps) and magnitude bound of P_(j-1)
    env = 0.0  # c_(j-1)
    prefixes = []
    for j, (s, tail) in enumerate(zip(exponents, tails), 1):
        row_re, row_im, weights = rows[s]
        total = _ratio(sum(weights), 1 << 64)
        tr, ti, terr = cut.tail_value(tail)
        tmag = cut._mag(tr, ti) + terr * cut.ulp
        carried = _upward(env * cut.xpow(s))
        env = cut.envelope(tail, carried)
        delta = _ulps(_upward(env + carried), wp)  # eps_j
        keep = j < len(exponents)  # the last level's sums feed nothing
        # below_re, below_im and deltas: P_(j-1)(m) and delta_(j-1)(m) for
        # m = n0-1 down to 1
        if j == 1:
            # P_0 = 1 and delta_0 = 0: the running sums are tr plus the exact
            # prefix sums of the row, and delta_1(m) = eps_1
            if keep:
                below_re = list(accumulate(row_re, initial=tr))
                below_im = list(accumulate(row_im, initial=ti))
                tr, ti, deltas = below_re.pop(), below_im.pop(), [delta] * (n0 - 1)
            else:
                tr, ti = tr + sum(row_re), ti + sum(row_im)
        else:
            sums_re, sums_im, next_deltas = [], [], []
            ar, ai = tr << wp, ti << wp
            for pr, pi, cr, ci, w, d in zip(row_re, row_im, below_re, below_im, weights, deltas):
                if keep:
                    sums_re.append((ar + half) >> wp)
                    sums_im.append((ai + half) >> wp)
                    next_deltas.append(delta)
                ar += pr * cr - pi * ci
                ai += pr * ci + pi * cr
                delta -= (-w * d) >> 64  # plus w d 2^-64, rounded up
            tr, ti = (ar + half) >> wp, (ai + half) >> wp
            below_re, below_im, deltas = sums_re, sums_im, next_deltas
        # err is 0 at the first level, where total may be inf
        err = terr + (total * err if err else 0.0) + (n0 - 1) * size + (j > 1)
        size = tmag + total * size

        # the float accounting rounds by at most 2^-53 relative per operation
        rounding = _upward(math.ldexp(err * (1 + 2.0**-20), -wp))
        bound = _upward(_upward(_ratio(delta, cut.one)) + rounding)
        prefixes.append(_FixedSum.exact(tr, ti, wp, bound, rounding))
    result = _FixedSum(prefixes[-1].read, wp, rounding)  # no cycle through prefixes
    result.prefixes = tuple(prefixes)
    return result


class CertifiedCache:
    """A bounded LRU of certified entries ``(value, bound)``, under the rule
    above; ``put`` returns the new entry, ``fetch`` the hit or the entry it
    makes and stores, and ``cache_info()`` reads as an lru_cache's."""

    def __init__(self, maxsize: int):
        self.maxsize, self._entries = maxsize, {}  # least recently used first
        self.clear()

    def get(self, key, target=math.inf):
        entry = self._entries.get(key)
        if entry is not None and entry[1] <= target:
            self._entries[key] = self._entries.pop(key)
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def put(self, key, entry: tuple) -> tuple:
        old = self._entries.pop(key, None)
        self._entries[key] = entry if old is None or entry[1] < old[1] else old
        if len(self._entries) > self.maxsize:
            del self._entries[next(iter(self._entries))]
            self.evictions += 1
        return entry

    def fetch(self, key, make, target=math.inf):
        """The entry under ``key`` that meets ``target``, else ``make()`` stored."""
        hit = self.get(key, target)
        return self.put(key, make()) if hit is None else hit

    def clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def cache_info(self):
        return functools._CacheInfo(self.hits, self.misses, self.maxsize, len(self))


_cache = CertifiedCache(1024)  # certified prefixes: the table and rechecks keep about 660


def shifted_nested_sum(
    exponents: tuple[int, ...],
    z=0,
    target: float = 1e-12,
    cap: int = 200_000,
) -> _FixedSum:
    """Evaluate the nested sum at z (a number or ``_Point``) to absolute
    error <= target.

    The first pass runs at the floor cutoff ``_Point.floor``, 16 unless
    |z| >= 3, and the cutoff triples while the certified bound misses the
    target; raises PrecisionUnreachableError (carrying the achieved bound)
    if the cap is hit first, or at once if the rounding at this working
    precision alone exceeds the target.  The last 1024 results used are
    cached in ``_cache``, keyed on the point, the working precision and the
    cap; a certifying pass stores every prefix it evaluated, the full sum
    last, and a hit returns the entry the pass returned.
    """
    z = _point(z)
    key = (exponents, z, mp.mp.prec, cap)
    hit = _cache.get(key, target)
    if hit is not None:
        return hit

    n0 = z.floor
    best = None
    while n0 <= cap:
        best = shifted_nested_sum_fixed(exponents, z, n0)
        if best[1] <= target:
            for j, prefix in enumerate(best.prefixes, 1):
                _cache.put((exponents[:j], *key[1:]), prefix)
            return prefix
        if best.rounding > target:
            break
        n0 *= 3
    achieved = best[1] if best else math.inf
    why = (f"rounding at {mp.mp.prec} bits alone is {best.rounding:.3e}"
           if best is not None and best.rounding > target else f"within cutoff cap {cap}")
    raise PrecisionUnreachableError(
        f"nested sum for {exponents} reached bound {achieved:.3e} > {float(target):.3e} {why}",
        achieved=achieved,
    )


def _read(factor, wp: int) -> tuple[int, int, float, float, float]:
    """(x, y, err, size, bound) of a factor (value, bound): the value (an
    int, Fraction, mpf or mpc with its own bits, or what ``mp.mpc`` takes)
    times 2^wp is x + iy within err units, a part that is not finite becoming
    0; size >= |value| is a float, inf beyond the float range and inf or nan
    if the value is not finite; the bound is a float rounded up.  A
    ``_FixedSum`` made at wp is read as it holds itself."""
    if type(factor) is _FixedSum:
        if factor.wp == wp:
            return factor.read
        factor = factor.value, factor.read[4]
    v, e = factor
    if isinstance(v, int):
        x, y, err = v << wp, 0, 0.0
    elif isinstance(v, Fraction):
        x, y, err = (v.numerator << wp) // v.denominator, 0, 1.0
    else:
        re, im = v._mpc_ if isinstance(v, mp.mpc) else (
            (v._mpf_, fzero) if isinstance(v, mp.mpf) else mp.mpc(v)._mpc_)
        x, y, err = to_fixed(re, wp), to_fixed(im, wp), 1.5
        v = complex(to_float(re, rnd="n"), to_float(im, rnd="n"))
    try:
        size = abs(complex(v)) * (1 + 2.0**-50)
    except OverflowError:
        size = math.inf
    return x, y, err, size, e if type(e) is float else _upward(float(e))


def _entry(factor, wp: int) -> _FixedSum:
    """The factor (value, bound) as a ``_FixedSum`` at wp, read once."""
    if type(factor) is _FixedSum and factor.wp == wp:
        return factor
    return _FixedSum(_read(factor, wp), wp, value=factor[0])


def certified_sum(terms) -> _FixedSum:
    """Sum over ``terms`` of the products of their factors ``(value, bound)``.
    If each true factor is within its bound of its value, the true sum is
    within the returned float bound of the returned value ("Certified sums"
    above); raises PrecisionUnreachableError if a factor is not finite."""
    prec = mp.mp.prec
    wp = prec + GUARD
    ulp, half, n = 2.0 ** -min(wp, 1000), 1 << (wp - 1), len(terms)
    sr = si = 0  # the exact sum of the rounded products, times 2^wp
    propagated = size = ulps = 0.0
    for term in terms:
        pr, pi, err, d, h = 1 << wp, 0, 0.0, 0.0, 1.0
        for factor in term:
            x, y, verr, a, e = _read(factor, wp)
            a += verr * ulp  # verr ulps cover a part that underflows
            pr, pi = (pr * x - pi * y + half) >> wp, (pr * y + pi * x + half) >> wp
            err = err * a + (h + err * ulp) * verr + 1.0
            d = d * a + h * e
            h *= a + e
        sr += pr
        si += pi
        propagated += d
        ulps += err
        size += (len(term) + n) * h
    rounding = (math.ldexp(size, max(3 - prec, -1000)) + ulps * ulp) * (1 + 2.0**-20)
    bound = math.nextafter(propagated * (1 + 2.0**-20) + rounding, math.inf)
    if not bound < math.inf:
        raise PrecisionUnreachableError("a factor or its bound is not finite", achieved=math.inf)
    return _FixedSum.exact(_round(sr, prec), _round(si, prec), wp, bound, _upward(rounding))


def certify(terms, target) -> _FixedSum:
    """``certified_sum`` of ``terms`` within ``target``.  A factor is a
    certified ``(value, bound)`` or a piece, a callable t -> (value, bound)
    within t; each fixed factor is read once, as a ``_FixedSum``.  In a term
    of n with c pieces whose other factors multiply to m = prod (size +
    bound), each piece first gets target / (2 n c max(1, m)); the piece
    targets shrink by target / (4 bound) while the bound misses.  Raises
    PrecisionUnreachableError before any piece is evaluated when the terms
    without a piece carry a propagated bound above the target, which every
    sum's bound holds (a term with a piece is judged with its pieces' values,
    which may be small); when the bound misses with no piece target to
    shrink, when the rounding alone exceeds half the target, or when the sum
    with every piece at its value and bound 0 misses too, since no piece
    target can then help; the error carries that sum's bound.  A piece that
    refuses is refused under this target, with an achieved bound above it,
    naming its piece target and m."""
    n, budgets, scale, wp = len(terms), [], 1.0, mp.mp.prec + GUARD
    terms = [[f if callable(f) else _entry(f, wp) for f in term] for term in terms]
    fixed = 0.0  # the propagated bound of the terms without a piece
    for term in terms:  # each term's first piece target and its m
        c, d, m = sum(map(callable, term)), 0.0, 1.0
        for _, _, _, a, e in (f.read for f in term if not callable(f)):
            d, m = d * a + m * e, m * (a + e)
        budgets.append((c and target / (2 * n * c * max(1.0, m)), m))
        fixed += 0.0 if c else d
    pieces = any(t for t, _ in budgets)
    if pieces and fixed > target:
        raise PrecisionUnreachableError(f"the fixed factors alone of the terms without a piece"
                                        f" reach bound {fixed:.3e} > {float(target):.3e}", fixed)

    def evaluate(piece, t, m):
        try:
            return piece(t)
        except PrecisionUnreachableError as exc:
            why = (f"{exc}; refused at the piece target {float(t):.3e}, set by m = {m:.3e}"
                   f" of its term's other factors, under the sum's target {float(target):.3e}")
            raise PrecisionUnreachableError(why, max(_upward(float(target)), exc.achieved)) from exc

    while True:
        factors = [[evaluate(f, t * scale, m) if callable(f) else f for f in term]
                   for term, (t, m) in zip(terms, budgets)]
        result = certified_sum(factors)
        if result[1] <= target:
            return result
        why = f": rounding at {mp.mp.prec} bits alone is {result.rounding:.3e}" if pieces else (
            f" with no piece: its fixed factors' bounds carry {result[1] - result.rounding:.3e}")
        if result.rounding <= target / 2 and pieces:
            exact = certified_sum([
                [(got[0], 0.0) if callable(f) else got for f, got in zip(term, row)]
                for term, row in zip(terms, factors)
            ])
            if exact[1] <= target:
                scale *= float(target / (4 * result[1]))
                continue
            result, why = exact, " with every piece exact"
        raise PrecisionUnreachableError(
            f"sum reached bound {float(result[1]):.3e} > {float(target):.3e}{why}",
            achieved=float(result[1]),
        )
