"""High-precision evaluation of shifted nested sums

    S(s_1, ..., s_r; z) = sum over n_1 > n_2 > ... > n_r >= 1 of
                          prod_i (n_i + z)^(-s_i)

with a rigorous, analytically derived error bound.  The shift z = 0 gives
multiple zeta values; a complex shift gives one-sided Hurwitz-type sums.

Method
------
Exact partial sums up to a cutoff N are computed by a running prefix pass.
The truncated remainder at each nesting level is completed through the
Euler-Maclaurin formula applied to the level's weight function, which is a
finite combination of terms (t+z)^(-a) * log(t+z)^b.  That function class is
closed under differentiation and antidifferentiation, so correction terms
stay in closed form, and the Euler-Maclaurin remainder is bounded by
2*zeta(2K)/(2pi)^(2K) * integral of |f^(2K)|, evaluated termwise by integral
comparison.  The order K is fixed (``_EM_ORDER``).  One derivative chain per
term serves both parts: its odd derivatives g', g''', ..., g^(2K-1) feed the
Bernoulli corrections, and one more derivative gives the g^(2K) that the
remainder bound integrates.  All truncation errors are accumulated into a
single envelope that is returned with the value.

Convergence requires s_1 >= 2; interior and trailing parts may equal 1, in
which case the intermediate expansions pick up log powers.
"""

from __future__ import annotations

import math

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


def _cls_eval(cls_fn: Cls, t, z):
    u = t + z
    lg = mp.log(u) if any(b for (_, b) in cls_fn) else None
    total = mp.mpf(0)
    for (a, b), c in cls_fn.items():
        term = c * mp.power(u, -a) if a else c
        if b:
            term = term * lg**b
        total += term
    return total


def _sup_powlog(a: int, b: int, n: float):
    """sup over t >= n of t^(-a) log^b t, for a >= 1 (unimodal in t)."""
    if b == 0:
        return mp.power(n, -a)
    t_star = math.exp(b / a)
    if t_star <= n:
        return mp.power(n, -a) * mp.log(n) ** b
    return mp.exp(-b) * mp.mpf(b / a) ** b


def _int_powlog(a: int, b: int, n: float):
    """integral over [n, inf) of t^(-a) log^b t dt, for a >= 2."""
    if a < 2:
        raise ValueError("tail integral needs a >= 2")
    total = mp.mpf(0)
    fac = mp.mpf(1)
    lg = mp.log(n)
    for j in range(b, -1, -1):
        total += fac * lg**j / (a - 1)
        fac = fac * j / (a - 1)
    return total * mp.power(n, 1 - a)


def _tail_sum_bound(a: int, b: int, n: float):
    """Upper bound for sum over integers m >= n of m^(-a) log^b m, a >= 2."""
    return _int_powlog(a, b, n) + _sup_powlog(a, b, n)


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


def _em_remainder_bound(deriv: Cls, n0: int, fudges, kernel):
    """Bound on the Euler-Maclaurin remainder for a sum over [n0, inf) whose
    summand has 2K-th derivative ``deriv``: kernel * integral of |deriv|."""
    pow_fudge, log_fudge = fudges
    total = mp.mpf(0)
    for (a, b), c in deriv.items():
        total += abs(c) * pow_fudge**a * log_fudge**b * _int_powlog(a, b, n0)
    return kernel * total


def _level_step(
    s_j: int, inner: _Expansion, prefix_at_n0, n0: int, z, fudges, factors, kernel
) -> _Expansion:
    """Expansion for P_j from the expansion of P_{j+1}.

    P_j(n) = P_j(N) + sum_{m=N}^{n-1} (m+z)^(-s_j) P_{j+1}(m); the sum over
    each class term g is G(n) - G(N) + R with
    G = antideriv(g) - g/2 + sum_k B_2k/(2k)! g^(2k-1)  and |R| <= rho(g).
    ``factors`` holds B_2k/(2k)! for k = 1..K and ``kernel`` the remainder
    kernel 2 zeta(2K)/(2 pi)^(2K).
    """
    w = _cls_scale_shift(inner.body, s_j)
    _cls_add(w, (s_j, 0), inner.const)

    body: Cls = {}
    env: Cls = {}
    rho_total = mp.mpf(0)
    for key, coef in w.items():
        G = _cls_antideriv({key: coef})
        _cls_add(G, key, -coef / 2)
        deriv = {key: coef}
        for k, factor in enumerate(factors):
            # deriv = g^(2k+1)
            deriv = _cls_diff(_cls_diff(deriv)) if k else _cls_diff(deriv)
            for dkey, dcoef in deriv.items():
                _cls_add(body, dkey, factor * dcoef)
        for gkey, gcoef in G.items():
            _cls_add(body, gkey, gcoef)
        rho_total += _em_remainder_bound(_cls_diff(deriv), n0, fudges, kernel)
    _cls_add(env, (0, 0), rho_total)

    # propagate the inner envelope through sum_{m=N}^{n-1} |(m+z)^-s_j| env(m)
    pow_fudge, log_fudge = fudges
    for (a, b), c in inner.env.items():
        alpha = a + s_j
        c_real = c * pow_fudge ** (a + s_j) * log_fudge**b
        if alpha >= 2:
            _cls_add(env, (0, 0), c_real * _tail_sum_bound(alpha, b, n0))
        else:
            # alpha == 1: sum_{m=N}^{n-1} log^b(m)/m <= log^{b+1}(n)
            _cls_add(env, (0, b + 1), c_real)

    const = prefix_at_n0 - _cls_eval(body, n0, z)
    return _Expansion(const, body, env)


def _exact_prefixes(exponents: tuple[int, ...], z, n0: int) -> list:
    """prefix[j] = nested partial sum of levels j.. over chains below n0,
    j = 0..r-1.  Each level's running sums are kept only while the next
    level is built."""
    current = [mp.mpf(1)] * (n0 + 1)
    at_n0 = []
    for s_j in reversed(exponents):
        nxt = [mp.mpf(0)] * (n0 + 1)
        acc = mp.mpf(0)
        for n in range(2, n0 + 1):
            m = n - 1
            acc = acc + mp.power(m + z, -s_j) * current[m]
            nxt[n] = acc
        at_n0.append(acc)
        current = nxt
    at_n0.reverse()
    return at_n0


def shifted_nested_sum_fixed(
    exponents: tuple[int, ...], z, n0: int
) -> tuple[mp.mpc, mp.mpf]:
    """One-shot evaluation with cutoff n0; returns (value, error bound)."""
    r = len(exponents)
    if r == 0:
        return mp.mpc(1), mp.mpf(0)
    if exponents[0] < 2:
        raise ValueError(f"divergent nested sum: leading exponent {exponents[0]} < 2")
    if any(s < 1 for s in exponents):
        raise ValueError("exponents must be positive")
    if n0 < 4 * (1 + abs(mp.mpc(z))) or n0 < 16:
        raise ValueError("cutoff too small for the tail bounds")

    prefixes = _exact_prefixes(exponents, z, n0)
    fudges = _abs_fudges(z, n0)
    factors = [
        mp.bernoulli(2 * k) / mp.factorial(2 * k) for k in range(1, _EM_ORDER + 1)
    ]
    kernel = 2 * mp.zeta(2 * _EM_ORDER) / (2 * mp.pi) ** (2 * _EM_ORDER)
    expansion = _Expansion(mp.mpc(1), {}, {})  # empty chain below every n
    for j in range(r - 1, -1, -1):
        expansion = _level_step(
            exponents[j], expansion, prefixes[j], n0, z, fudges, factors, kernel
        )

    # Leading exponent >= 2 so the top-level body and envelope decay.
    value = expansion.const
    err = mp.mpf(0)
    for (a, b), c in expansion.env.items():
        if a == 0 and b > 0:
            raise AssertionError("growing envelope at top level")
        err += c if a == 0 else c * _sup_powlog(a, b, n0)
    return value, err


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
    if the cap is hit first.  Results are cached per working precision.
    """
    z = mp.mpc(z)
    key = (exponents, str(z), mp.mp.prec)
    hit = _cache.get(key)
    if hit is not None and hit[1] <= target:
        return hit

    n0 = max(16, int(4 * (1 + abs(z))) + 1, 48)
    best: tuple | None = None
    while n0 <= cap:
        best = shifted_nested_sum_fixed(exponents, z, n0)
        if best[1] <= target:
            if hit is None or best[1] < hit[1]:
                _cache[key] = best
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
    """Plain truncated nested summation; test oracle, no error control."""
    r = len(exponents)
    if r == 0:
        return mp.mpc(1)

    def rec(level: int, upper: int) -> mp.mpc:
        if level == r:
            return mp.mpc(1)
        s = exponents[level]
        total = mp.mpc(0)
        for n in range(1, upper):
            total += mp.power(n + z, -s) * rec(level + 1, n)
        return total

    return rec(0, n0)
