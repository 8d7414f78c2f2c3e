"""The nested-sum pass pinned bit for bit, and its refusals past the float
range.

The rows (m+z)^(-s) are checked against an independent Fraction oracle, and
the (read, rounding) of every prefix of a seeded set of passes against a
digest of what the pass computed before its loops were restructured.  Orders
and points whose terms leave the float range must be refused with
PrecisionUnreachableError, never with a bare OverflowError or RecursionError.
"""

import hashlib
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from multitangent import numerics, zetasum
from multitangent.errors import PrecisionUnreachableError
from multitangent.mzv import NumericContext
from multitangent.numerics import cot_poly, monotangent_eval, multitangent_eval_direct
from multitangent.words import Composition
from multitangent.zetasum import shifted_nested_sum, shifted_nested_sum_fixed


def _dyadic(rng: random.Random, re_max: int, im_max: int):
    """A seeded dyadic point (re + i im) / 2^k that is no pole of a row:
    never a negative integer."""
    while True:
        k = rng.randint(0, 12)
        re = rng.randint(-re_max << k, re_max << k)
        im = rng.choice((0, rng.randint(-im_max << k, im_max << k)))
        if im or re >= 0 or re % (1 << k):
            return mp.mpc(mp.mpf(re) / 2**k, mp.mpf(im) / 2**k)


def _oracle_row(z: mp.mpc, s: int, n0: int, wp: int):
    """floor(2^wp Re/Im u^(-s) + 1/2) at u = m + z, m = n0-1 down to 1, in
    Fractions: the exact value rounded to nearest, ties up."""
    zr, zi = (Fraction((-1) ** sign * man) * Fraction(2) ** exp
              for sign, man, exp, _ in (z.real._mpf_, z.imag._mpf_))
    re, im = [], []
    for m in range(n0 - 1, 0, -1):
        a, b = m + zr, zi
        pr, pi = Fraction(1), Fraction(0)
        for _ in range(s):  # conj(u)^s
            pr, pi = pr * a + pi * b, pi * a - pr * b
        norm = (a * a + b * b) ** s
        re.append(math.floor(pr / norm * 2**wp + Fraction(1, 2)))
        im.append(math.floor(pi / norm * 2**wp + Fraction(1, 2)))
    return re, im


@pytest.mark.parametrize("prec", [53, 128, 200])
def test_rows_match_an_independent_fraction_oracle(prec):
    """Every row entry is 2^wp u^(-s) rounded once to nearest, for seeded
    dyadic points (integers among them, |Re z| up to 30) and random sets of
    exponents 1-8; each weight bounds |u^(-s)| 2^64."""
    rng = random.Random(f"rows:{prec}")
    points = [mp.mpc(0), mp.mpc(1), mp.mpc(30), mp.mpc(-30.5, 0)]
    points += [_dyadic(rng, 30, 4) for _ in range(4)]
    with mp.workprec(prec):
        for z in points:
            point = zetasum._point(z)
            exponents = rng.sample(range(1, 9), rng.randint(1, 4))
            cut = zetasum._Cutoff(point, point.floor, 1)
            rows = cut.rows(exponents)
            assert sorted(rows) == sorted(exponents)
            for s in exponents:
                re, im, weights = rows[s]
                assert (re, im) == _oracle_row(z, s, point.floor, cut.wp), (z, s)
                for x, y, w in zip(re, im, weights):
                    # |u^-s| <= (|x| + |y| + 1) 2^-wp <= w 2^-64
                    assert (abs(x) + abs(y) + 1) << 64 <= w << cut.wp


@pytest.mark.parametrize("prec", [53, 200])
def test_rows_past_a_large_step_match_the_oracle(prec):
    """A step of 58 between exponents, raised by squaring, gives the rows
    that 58 single products give, at an integer, a real and a complex
    point."""
    with mp.workprec(prec):
        for z in (mp.mpc(0), mp.mpc(-2.75, 0), mp.mpc(0.3125, -1.5)):
            point = zetasum._point(z)
            cut = zetasum._Cutoff(point, point.floor, 1)
            rows = cut.rows((2, 60))
            for s in (2, 60):
                assert rows[s][:2] == _oracle_row(z, s, point.floor, cut.wp), (z, s)


def _pass_digest() -> tuple[int, str]:
    """sha256 over the (read, rounding) of every prefix of about 300 seeded
    passes: depths 1-8, at 53, 128 and 200 bits, each at the floor cutoff
    and at three times it."""
    rng = random.Random("pass-pin")
    digest, passes = hashlib.sha256(), 0
    for _ in range(150):
        depth = rng.randint(1, 8)
        exponents = (rng.randint(2, 4), *(rng.randint(1, 3) for _ in range(depth - 1)))
        z = _dyadic(rng, 3, 2)
        with mp.workprec(rng.choice((53, 128, 200))):
            point = zetasum._point(z)
            for n0 in (point.floor, 3 * point.floor):
                result = shifted_nested_sum_fixed(exponents, point, n0)
                passes += 1
                for prefix in result.prefixes:
                    digest.update(repr((prefix.read, prefix.rounding)).encode())
    return passes, digest.hexdigest()


def test_every_prefix_of_seeded_passes_is_pinned():
    """The values, error counts, sizes and bounds of every prefix equal, bit
    for bit, those of the pass that built its rows one exponent at a time
    per m and ran the first level as products with P_0 = 1."""
    assert _pass_digest() == (
        300, "f43800e5a493c75f67cf3550de197a1a3f77d583ca9c964538e979c52d2c34f0")


def test_pass_past_the_float_range_is_refused_at_once(monkeypatch):
    """Te[170, 2] at 0.01 + 0.01i: the term z^-170 of its "+" side is past
    the float range, so the rounding term of the second level is inf and
    the pass refuses its target on the first cutoff, without tripling it."""
    cutoffs = []

    def counted(exponents, z, n0):
        cutoffs.append(n0)
        return shifted_nested_sum_fixed(exponents, z, n0)

    monkeypatch.setattr(zetasum, "shifted_nested_sum_fixed", counted)
    z = mp.mpc(0.01, 0.01)
    with pytest.raises(PrecisionUnreachableError, match="alone is inf") as info:
        shifted_nested_sum((170, 2), zetasum._point(z).shift(-1))
    assert info.value.achieved == math.inf and cutoffs == [16]
    first = shifted_nested_sum_fixed((170, 2), zetasum._point(z).shift(-1), 16).prefixes[0]
    assert first.rounding < math.inf and first.read[3] == math.inf  # exact sums, a huge value


@pytest.mark.parametrize("parts", [(170,), (170, 2), (2, 170)])
def test_direct_evaluation_past_the_float_range_is_refused(parts):
    """The direct evaluator refuses with PrecisionUnreachableError, within a
    few seconds, where a term or a row weight is past the float range."""
    start = time.perf_counter()
    with pytest.raises(PrecisionUnreachableError):
        multitangent_eval_direct(Composition(parts), mp.mpc(0.01, 0.01))
    assert time.perf_counter() - start < 5


def test_deep_direct_evaluation_is_still_refused():
    """Te[3000] at 0.3 + 0.5i: its rows raise each power by squaring, and
    the evaluation is refused as before."""
    with pytest.raises(PrecisionUnreachableError):
        multitangent_eval_direct(Composition.of(3000), mp.mpc(0.3, 0.5))


def test_saturating_conversions():
    """An int past the float range reads as inf, and inf ulps as a count
    that reads back as inf."""
    assert zetasum._ratio(3, 4) == 0.75 and zetasum._ratio(1 << 2000, 1 << 64) == math.inf
    assert zetasum._ratio(zetasum._ulps(math.inf, 176), 1 << 176) == math.inf
    assert zetasum._ulps(0.75, 10) == 768


def _cot_poly_by_fractions(k: int) -> dict:
    """The recurrence Te^(k+1) = -(1/k) d/dz Te^k over Fractions."""
    poly = {1: Fraction(1)}
    for n in range(1, k):
        nxt = {}
        for j, a in poly.items():
            for jj in (j - 1, j + 1):
                nxt[jj] = nxt.get(jj, 0) + a * j
        poly = {j: a / n for j, a in nxt.items() if a}
    return poly


def test_cot_poly_is_iterative_with_identical_coefficients():
    """Identical coefficients, in the same order, against the Fraction
    recurrence; an order past the recursion limit builds too (monic)."""
    for k in (1, 2, 3, 7, 12, 40):
        assert list(cot_poly(k).items()) == list(_cot_poly_by_fractions(k).items())
    poly = cot_poly(600)
    assert max(poly) == 600 and poly[600] == 1 and min(poly) == 0


@pytest.mark.parametrize("prec", [128, 600])
@pytest.mark.parametrize("k", [188, 200])
def test_monotangent_past_the_float_range_is_refused(monkeypatch, k, prec):
    """Te^k at 0.3 + 0.5i for k >= 188: the float Horner scheme of its bound
    passes the float range, so the bound is inf and the call is refused."""
    monkeypatch.setattr(numerics, "_points", zetasum.CertifiedCache(numerics._points.maxsize))
    ctx = NumericContext(working_precision=prec)
    with pytest.raises(PrecisionUnreachableError) as info:
        monotangent_eval(k, mp.mpc(0.3, 0.5), ctx)
    assert info.value.achieved == math.inf


def test_monotangent_refusal_forms_no_value(monkeypatch):
    """Te^500 at 0.3 + 0.5i: the bound is inf, so the call is refused before
    the value, a quotient of some hundred thousand bits, is rounded."""
    monkeypatch.setattr(numerics, "_points", zetasum.CertifiedCache(numerics._points.maxsize))
    rounded = []
    monkeypatch.setattr(numerics, "from_rational", lambda *args: rounded.append(args))
    with pytest.raises(PrecisionUnreachableError) as info:
        monotangent_eval(500, mp.mpc(0.3, 0.5))
    assert info.value.achieved == math.inf
    assert rounded == []
