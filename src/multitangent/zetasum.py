"""High-precision evaluation of shifted nested sums

    S(s_1, ..., s_r; z) = sum over n_1 > n_2 > ... > n_r >= 1 of
                          prod_i (n_i + z)^(-s_i)

with a rigorous, analytically derived error bound.  The shift z = 0 gives
multiple zeta values; a complex shift gives one-sided Hurwitz-type sums.

Method
------
Exact partial sums up to a cutoff N are computed by a running prefix pass
that forms each power (m+z)^(-s) once per distinct exponent.  The truncated
remainder at each nesting level is completed through the Euler-Maclaurin
formula applied to the level's weight function, a finite combination of
terms c * g with g = (t+z)^(-a) * log(t+z)^b.  That class is closed under
differentiation and antidifferentiation, so the completion
G = antideriv(g) - g/2 + sum_k B_2k/(2k)! g^(2k-1) and the g^(2K) whose
integral bounds the remainder stay in closed form.  Both depend only on the
shape (a, b): they are derived once in exact rational arithmetic and kept as
integers over one common denominator in a bounded cache that is independent
of the working precision.  The remainder bound 2*zeta(2K)/(2pi)^(2K) *
integral of |g^(2K)| is evaluated by integral comparison once per shape and
call, as rho(a, b), and the term adds |c| * rho(a, b).  The order K is fixed
(``_EM_ORDER``).  Each level's expansion is evaluated at N from powers of
1/(N+z) and log(N+z) formed once per call.  All truncation errors are
accumulated into a single envelope that is returned with the value.

Convergence requires s_1 >= 2; interior and trailing parts may equal 1, in
which case the intermediate expansions pick up log powers.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

import mpmath as mp

from .errors import PrecisionUnreachableError

# Class functions: dict[(a, b)] -> mpmath coefficient, meaning
#   sum c * (t+z)^(-a) * log(t+z)^b,  a >= 0, b >= 0 integers.
Cls = dict

_EM_ORDER = 6  # K: Bernoulli corrections B_2..B_{2K}, remainder uses f^(2K)


def _cls_add(into: Cls, key: tuple[int, int], coef) -> None:
    cur = into.get(key)
    coef = coef if cur is None else cur + coef
    if coef:
        into[key] = coef
    elif key in into:
        del into[key]


def _cls_scale_shift(cls_fn: Cls, s: int) -> Cls:
    """(t+z)^(-s) * cls_fn."""
    out: Cls = {}
    for (a, b), c in cls_fn.items():
        _cls_add(out, (a + s, b), c)
    return out


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

    P(n) ~ const + body(n) with |P(n) - const - body(n)| <= env(n), where
    body is a class function of n and env a class function with nonnegative
    real coefficients (key (0,0) = constant error floor).
    """

    __slots__ = ("const", "body", "env")

    def __init__(self, const, body: Cls, env: Cls):
        self.const = const
        self.body = body
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


class _Cutoff:
    """What every level of one call at cutoff n0 shares: the envelope
    fudges, the remainder kernel 2 zeta(2K)/(2 pi)^(2K), rho per term shape,
    and the powers u^(-a), log(u)^b at u = n0 + z."""

    def __init__(self, z, n0: int):
        self.n0 = n0
        self.fudges = _abs_fudges(z, n0)
        self.kernel = 2 * mp.zeta(2 * _EM_ORDER) / (2 * mp.pi) ** (2 * _EM_ORDER)
        u = n0 + z
        self.inv_pow = [mp.mpf(1), mp.mpf(1) / u]  # u^(-a), grown on demand
        self.log_pow = [mp.mpf(1), mp.log(u)]  # log(u)^b, grown on demand
        self.rhos: dict = {}

    def rho(self, a: int, b: int):
        """Remainder bound for the sum over [n0, inf) of (t+z)^(-a) log^b(t+z):
        kernel * integral of a real envelope of |g^(2K)|."""
        r = self.rhos.get((a, b))
        if r is None:
            pow_fudge, log_fudge = self.fudges
            total = mp.mpf(0)
            for a2, b2, d in _triples(_em_template(a, b)[2]):
                envelope = abs(d) * pow_fudge**a2 * log_fudge**b2
                total += envelope * _int_powlog(a2, b2, self.n0, mp.mp.prec)
            r = self.rhos[(a, b)] = self.kernel * total
        return r

    def evaluate(self, cls_fn: Cls):
        """cls_fn at t = n0."""
        inv, logs = self.inv_pow, self.log_pow
        total = mp.mpf(0)
        for (a, b), c in cls_fn.items():
            while len(inv) <= a:
                inv.append(inv[-1] * inv[1])
            while len(logs) <= b:
                logs.append(logs[-1] * logs[1])
            total += c * inv[a] * logs[b] if b else c * inv[a]
        return total


def _level_step(s_j: int, inner: _Expansion, prefix, cut: _Cutoff) -> _Expansion:
    """Expansion for P_j from the expansion of P_{j+1}.

    P_j(n) = P_j(N) + sum_{m=N}^{n-1} (m+z)^(-s_j) P_{j+1}(m); the sum over
    each class term c*g is c*(G(n) - G(N)) + R with |R| <= |c| rho(g) and G
    from ``_em_template``.
    """
    w = _cls_scale_shift(inner.body, s_j)
    _cls_add(w, (s_j, 0), inner.const)

    body: Cls = {}
    rho_total = mp.mpf(0)
    for (a, b), coef in w.items():
        D, flat_g, _ = _em_template(a, b)
        q = coef / D
        for a2, b2, n in _triples(flat_g):
            _cls_add(body, (a2, b2), q * n)
        rho_total += abs(coef) * cut.rho(a, b)
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

    const = prefix - cut.evaluate(body)
    return _Expansion(const, body, env)


def _exact_prefixes(exponents: tuple[int, ...], z, n0: int) -> list:
    """Nested partial sums of levels j.. over chains below n0, for
    j = r-1 down to 0.  Each level's running sums are kept only while the
    next level is built."""
    # an mp numerator: with a Python-int z, 1 / (m + z) would be a float
    recip = [mp.mpf(1) / (m + z) for m in range(1, n0)]
    powers = {s: recip if s == 1 else [r**s for r in recip] for s in set(exponents)}
    current = [mp.mpf(1)] * (n0 - 1)  # current[m-1]: partial sum below m
    at_n0 = []
    for s_j in reversed(exponents):
        terms = map(operator.mul, powers[s_j], current)
        current = list(itertools.accumulate(terms, initial=mp.mpf(0)))
        at_n0.append(current.pop())
    return at_n0


def shifted_nested_sum_fixed(
    exponents: tuple[int, ...], z, n0: int
) -> tuple[mp.mpc, mp.mpf]:
    """One-shot evaluation with cutoff n0; returns (value, error bound)."""
    if not exponents:
        return mp.mpc(1), mp.mpf(0)
    if exponents[0] < 2:
        raise ValueError(f"divergent nested sum: leading exponent {exponents[0]} < 2")
    if any(s < 1 for s in exponents):
        raise ValueError("exponents must be positive")
    if n0 < 4 * (1 + abs(mp.mpc(z))) or n0 < 16:
        raise ValueError("cutoff too small for the tail bounds")

    prefixes = _exact_prefixes(exponents, z, n0)
    cut = _Cutoff(z, n0)
    expansion = _Expansion(mp.mpc(1), {}, {})  # empty chain below every n
    for s_j, prefix in zip(reversed(exponents), prefixes):
        expansion = _level_step(s_j, expansion, prefix, cut)
    # s_0 >= 2 and inner envelopes are keyed (0, b): all top-level error is (0, 0)
    return expansion.const, expansion.env.get((0, 0), mp.mpf(0))


_cache: dict = {}


def shifted_nested_sum(
    exponents: tuple[int, ...],
    z=0,
    target: float = 1e-12,
    cap: int = 200_000,
) -> tuple[mp.mpc, mp.mpf]:
    """Evaluate the nested sum to absolute error <= target.

    The cutoff is grown geometrically until the analytic envelope meets the
    target; raises PrecisionUnreachableError (carrying the achieved bound)
    if the cap is hit first.  Results are cached per working precision with
    their cutoff, and a cached result serves only calls whose cap admits it.
    """
    z = mp.mpc(z)
    key = (exponents, str(z), mp.mp.prec)
    hit = _cache.get(key)
    if hit is not None and hit[1] <= target and hit[2] <= cap:
        return hit[:2]

    n0 = max(int(4 * (1 + abs(z))) + 1, 48)
    best: tuple | None = None
    while n0 <= cap:
        best = shifted_nested_sum_fixed(exponents, z, n0)
        if best[1] <= target:
            if hit is None or best[1] < hit[1]:
                _cache[key] = (*best, n0)
            return best
        n0 *= 3
    achieved = float(best[1]) if best else math.inf
    raise PrecisionUnreachableError(
        f"nested sum for {exponents} reached bound {achieved:.3e} > {target:.3e} "
        f"within cutoff cap {cap}",
        achieved=achieved,
    )


def certified_product(parts) -> tuple:
    """Product of certified factors ``[(value, bound), ...]`` and its bound.

    If every true factor lies within its bound of its value, the true product
    lies within sum_i e_i * prod_{j != i} (|v_j| + e_j) of the returned value.
    """
    value = mp.mpf(1)
    for v, _ in parts:
        value *= v
    err = mp.mpf(0)
    for i, (_, e_i) in enumerate(parts):
        others = mp.mpf(1)
        for v_j, e_j in parts[:i] + parts[i + 1 :]:
            others *= abs(v_j) + e_j
        err += e_i * others
    return value, err


def brute_nested_sum(exponents: tuple[int, ...], z=0, n0: int = 60) -> mp.mpc:
    """Plain truncated nested summation; test oracle, no error control.

    One running-sum pass per level, innermost first: after the pass for
    exponent s, inner[u] is the nested sum of that level and the deeper ones
    over indices below u.
    """
    inner = [mp.mpc(1)] * (n0 + 1)
    for s in reversed(exponents):
        total = mp.mpc(0)
        outer = [total, total]
        for n in range(1, n0):
            total += mp.power(n + z, -s) * inner[n]
            outer.append(total)
        inner = outer
    return inner[n0]
