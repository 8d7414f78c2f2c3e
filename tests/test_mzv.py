import hashlib
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitangent.basis_table import BASES, _basis_monomial, _derive
from multitangent.errors import PrecisionUnreachableError
from multitangent.exact import CoeffExpr, MzvMonomial, PiRational
from multitangent.mzv import (
    NumericContext,
    even_zeta,
    linearize,
    mzv_numeric,
    mzv_product,
    newton_relation_check,
    symmetrel_extend,
    ze_minus,
)
from multitangent.words import Composition, compositions_of, shuffle, stuffle
from multitangent.zetasum import shifted_nested_sum
from test_words import brute_stuffle

C = Composition.of
CTX = NumericContext(target_abs_error=1e-10)


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


def sym(*parts):
    return CoeffExpr.symbol(C(*parts))


class TestEngine:
    def test_classical_single_zetas(self):
        with CTX.workprec():
            for s in (2, 3, 4, 5, 6):
                v, err = shifted_nested_sum((s,), target=1e-14)
                assert err <= 1e-14
                assert abs(v - mp.zeta(s)) < 1e-13

    def test_matches_hurwitz_zeta_with_shift(self):
        with CTX.workprec():
            z = mp.mpc("0.3", "0.7")
            v, _ = shifted_nested_sum((3,), z, target=1e-13)
            assert abs(v - mp.zeta(3, 1 + z)) < 1e-12

    def test_brute_force_agreement(self):
        # plain-truncation oracle: approaches the engine value from below
        # (positive terms) at the expected polylog/n0 rate
        with CTX.workprec():
            for parts in [(2, 1), (3, 1, 2), (2, 1, 1), (4, 2)]:
                v, _ = shifted_nested_sum(parts, target=1e-12)
                near = brute_nested_sum(parts, n0=160)
                far = brute_nested_sum(parts, n0=40)
                assert mp.re(far) <= mp.re(near) <= mp.re(v)
                scale = mp.log(160) ** len(parts) / 160 ** (parts[0] - 1)
                assert abs(v - near) < 10 * scale

    def test_envelope_is_honest_across_cutoffs(self):
        from multitangent.zetasum import shifted_nested_sum_fixed

        with CTX.workprec():
            v_hi, err_hi = shifted_nested_sum_fixed((2, 1, 1), mp.mpc(0), 500)
            for n0 in (16, 48):
                v_lo, err_lo = shifted_nested_sum_fixed((2, 1, 1), mp.mpc(0), n0)
                assert abs(v_lo - v_hi) <= err_lo + err_hi

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            shifted_nested_sum((1, 2))

    def test_precision_unreachable_carries_bound(self):
        with CTX.workprec():
            with pytest.raises(PrecisionUnreachableError) as exc:
                shifted_nested_sum((2,), target=1e-80, cap=60)
            assert exc.value.achieved > 0


class TestProducts:
    def test_square_of_two(self):
        assert mzv_product(C(2), C(2)) == sym(4) + sym(2, 2).scale(2)

    def test_unit(self):
        assert mzv_product(C(5), Composition()) == sym(5)

    def test_two_times_three(self):
        assert mzv_product(C(2), C(3)) == sym(2, 3) + sym(3, 2) + sym(5)

    def test_linearize_formal_square(self):
        e = sym(2) * sym(2)
        assert linearize(e) == sym(4) + sym(2, 2).scale(2)

    def test_linearize_degrees_zero_and_one(self):
        assert linearize(CoeffExpr.scalar(Fraction(3, 7))) == CoeffExpr.scalar(Fraction(3, 7))
        assert linearize(sym(2, 1).scale(5)) == sym(2, 1).scale(5)
        assert linearize(CoeffExpr.zero()) == CoeffExpr.zero()

    @pytest.mark.parametrize(
        "mono", [m for monos in BASES.values() for m in monos], ids=str
    )
    def test_linearize_basis_monomials(self, mono):
        """Every table basis monomial, Ze[2]Ze[3]Ze[3] of degree 3 included,
        against iterated ``mzv_product`` and a brute-force stuffle."""
        factors = [Composition(f) for f in mono]
        got = linearize(CoeffExpr({MzvMonomial(factors): Fraction(2, 3)}))
        iterated = CoeffExpr.symbol(factors[0], Fraction(2, 3))
        words = Counter({factors[0].parts: 1})
        for factor in factors[1:]:
            iterated = sum(
                (mzv_product(m.factors[0], factor).scale(c) for m, c in iterated.items()),
                CoeffExpr.zero(),
            )
            words = sum(
                (Counter({w: n * m for w, n in brute_stuffle(v, factor.parts).items()})
                 for v, m in words.items()),
                Counter(),
            )
        assert got == iterated
        assert got == CoeffExpr({MzvMonomial.symbol(Composition(w)): Fraction(2, 3) * m
                                 for w, m in words.items()})

    @given(st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_numeric_symmetrelity_singles(self, a, b):
        lhs = mzv_numeric(sym(a), CTX) * mzv_numeric(sym(b), CTX)
        rhs = mzv_numeric(mzv_product(C(a), C(b)), CTX)
        assert abs(lhs - rhs) < 2 * CTX.target_abs_error

    def test_numeric_symmetrelity_weight6_pairs(self):
        pairs = [(C(2, 2), C(2)), (C(3), C(2, 1)), (C(2, 1), C(2, 1))]
        for a, b in pairs:
            lhs = mzv_numeric(CoeffExpr.symbol(a), CTX) * mzv_numeric(
                CoeffExpr.symbol(b), CTX
            )
            rhs = mzv_numeric(mzv_product(a, b), CTX)
            assert abs(lhs - rhs) < 2 * CTX.target_abs_error


class TestExtension:
    def test_leading_one_pair(self):
        assert symmetrel_extend(C(1, 2)) == -sym(2, 1) - sym(3)

    def test_single_one_is_zero(self):
        assert not symmetrel_extend(C(1))

    def test_double_one(self):
        assert symmetrel_extend(C(1, 1)) == sym(2).scale(Fraction(-1, 2))

    def test_identity_on_convergent(self):
        for s in (C(2), C(3, 1), C(2, 1, 1)):
            assert symmetrel_extend(s) == CoeffExpr.symbol(s)

    def test_numeric_value_of_extension(self):
        # Ze[1,2] = -Ze[2,1] - Ze[3] = -2 zeta(3) by Euler
        v = mzv_numeric(symmetrel_extend(C(1, 2)), CTX)
        with CTX.workprec():
            assert abs(v + 2 * mp.zeta(3)) < 1e-9

    def test_extended_symmetrelity_exact(self):
        # Ze[1] Ze[2] = Ze[1,2] + Ze[2,1] + Ze[3] with Ze[1] = 0: the three
        # extended values cancel exactly
        total = (
            symmetrel_extend(C(1, 2))
            + symmetrel_extend(C(2, 1))
            + symmetrel_extend(C(3))
        )
        assert total == CoeffExpr.zero()

    def test_weight_preserved(self):
        for s in (C(1, 2), C(1, 1, 2), C(1, 1, 1)):
            assert symmetrel_extend(s).is_weight_homogeneous(s.weight) or not symmetrel_extend(s)


class TestZeMinus:
    def test_reflection_with_trailing_one(self):
        assert ze_minus(C(1, 2)) == -sym(2, 1)

    def test_even_weight_single(self):
        assert ze_minus(C(2)) == sym(2)

    def test_odd_weight_pair(self):
        assert ze_minus(C(2, 3)) == -sym(3, 2)

    def test_involution_up_to_sign(self):
        # applying the reflection twice recovers the original symbol
        for s in (C(2, 3), C(4), C(2, 1, 3)):
            once = ze_minus(s)
            twice = CoeffExpr.zero()
            for mono, coef in once.items():
                (factor,) = mono.factors
                twice = twice + ze_minus(factor).scale(coef)
            assert twice == CoeffExpr.symbol(s)


class TestNumeric:
    def test_zeta2(self):
        v = mzv_numeric(sym(2), CTX)
        with CTX.workprec():
            assert abs(v - mp.pi**2 / 6) <= 1e-10

    def test_euler_double(self):
        v = mzv_numeric(sym(2, 1) - sym(3), CTX)
        assert abs(v) <= 1e-10

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_euler_sum_family(self, p):
        total = CoeffExpr.zero()
        for k in range(1, p):
            total = total + sym(p + 1 - k, k)
        total = total - sym(p + 1)
        assert abs(mzv_numeric(total, NumericContext(target_abs_error=1e-9))) <= 1e-9

    def test_halving_target_never_worse(self):
        ref_ctx = NumericContext(target_abs_error=1e-14)
        ref = mzv_numeric(sym(3, 1), ref_ctx)
        prev_dist = None
        for target in (1e-6, 5e-7, 2.5e-7, 1e-8):
            v = mzv_numeric(sym(3, 1), NumericContext(target_abs_error=target))
            dist = abs(v - ref)
            assert dist <= target
            if prev_dist is not None:
                assert dist <= prev_dist + 1e-15
            prev_dist = dist

    def test_precision_unreachable(self):
        # the target misses at the floor cutoff 16, and the next cutoff, 48,
        # lies past the cap
        tiny_cap = NumericContext(target_abs_error=1e-25, truncation_cap=20)
        with pytest.raises(PrecisionUnreachableError):
            mzv_numeric(sym(2), tiny_cap)

    def test_pi_powers(self):
        with CTX.workprec():
            assert abs(mzv_numeric(sym(2), CTX) - even_zeta(1).to_mpf()) <= 1e-10


class TestEngineProperties:
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
            lambda parts: parts[0] >= 2
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_cutoff_independence(self, parts):
        from multitangent.zetasum import shifted_nested_sum_fixed

        with CTX.workprec():
            v1, e1 = shifted_nested_sum_fixed(tuple(parts), mp.mpc(0), 48)
            v2, e2 = shifted_nested_sum_fixed(tuple(parts), mp.mpc(0), 150)
            assert abs(v1 - v2) <= e1 + e2

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
            lambda parts: parts[0] >= 2
        ),
        st.integers(0, 10**6),
    )
    @settings(max_examples=8, deadline=None)
    def test_shift_consistency_via_recursion(self, parts, seed):
        # peeling the outermost index by hand must agree with the engine:
        # S(s; z) = sum_n (n+z)^(-s_1) P_inner(n) with the inner partial
        # sums evaluated at integer shifts
        import random

        rng = random.Random(seed)
        z = mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.1, 0.8))
        with CTX.workprec():
            v, err = shifted_nested_sum(tuple(parts), z, target=1e-13)
            manual = mp.mpc(0)
            for n in range(1, 140):
                inner = brute_nested_sum(tuple(parts[1:]), z, n0=n)
                manual += mp.power(n + z, -parts[0]) * inner
            # manual truncation dominates; just require agreement at the
            # scale of the slowest tail
            assert abs(v - manual) < 1.0
            assert abs(v - manual) < 30 * mp.log(140) ** len(parts) / 140 ** (
                parts[0] - 1
            )


class TestDivergentSymmetrelity:
    def test_extension_preserves_products_numerically(self):
        # Te[a] Te[b] = sum of stuffle terms, with divergent terms read
        # through their regularized reductions
        import random

        from multitangent.numerics import monotangent_eval, multitangent_eval_reduced
        from multitangent.words import Composition

        cases = [((1,), (3,)), ((1, 1), (2,)), ((1, 2), (2,))]
        rng = random.Random(42)
        ctx = NumericContext(target_abs_error=1e-10)
        for a_parts, b_parts in cases:
            a, b = Composition(a_parts), Composition(b_parts)
            z = mp.mpc(rng.uniform(0.1, 0.9), rng.uniform(0.4, 1.0))
            lhs = multitangent_eval_reduced(a, z, ctx) * multitangent_eval_reduced(
                b, z, ctx
            )
            rhs = mp.mpc(0)
            for word, mult in stuffle(a, b).items():
                rhs += mult * multitangent_eval_reduced(word, z, ctx)
            assert abs(lhs - rhs) < 1e-7, (a, b)


class TestEvenZeta:
    def test_values(self):
        assert even_zeta(1) == PiRational({2: Fraction(1, 6)})
        assert even_zeta(2) == PiRational({4: Fraction(1, 90)})
        assert even_zeta(3) == PiRational({6: Fraction(1, 945)})
        assert even_zeta(4) == PiRational({8: Fraction(1, 9450)})


class TestNewtonRelation:
    @pytest.mark.parametrize("omega,p", [(2, 1), (1, 0), (3, 2), (2, 3), (1, 4)])
    def test_holds(self, omega, p):
        assert newton_relation_check(omega, p)


@pytest.mark.parametrize(
    "field, value",
    [
        ("target_abs_error", 0.0),
        ("target_abs_error", -1e-9),
        ("target_abs_error", float("nan")),
        ("target_abs_error", float("inf")),
        ("working_precision", 0),
        ("working_precision", -53),
        ("truncation_cap", 9),
        ("pole_guard", 0.0),
        ("pole_guard", -1.0),
        ("pole_guard", float("nan")),
        ("pole_guard", float("inf")),
        ("target_abs_error", "1e-6"),
        ("target_abs_error", True),
        ("working_precision", 100.5),
        ("working_precision", "128"),
        ("truncation_cap", "x"),
        ("truncation_cap", 1e6),
        ("truncation_cap", True),
        ("pole_guard", None),
    ],
)
def test_context_rejects_settings_that_break_evaluation(field, value):
    with pytest.raises(ValueError, match=field):
        NumericContext(**{field: value})


def test_context_takes_any_real_target():
    ctx = NumericContext(target_abs_error=Fraction(1, 10**9), pole_guard=1)
    assert ctx.target_abs_error == Fraction(1, 10**9)


def _word_algebra_in_insertion_order() -> str:
    """The word algebra's outputs, each dict in its insertion order: stuffle
    and shuffle of every pair of total weight <= 8, linearize of every
    ``BASES`` monomial, the symmetrel extension of every composition of
    weight <= 8 and the table entries derived at weights 2-8."""
    def word(w):
        return repr(tuple(w.parts))

    def expr(e):
        return ",".join(f"{[tuple(f.parts) for f in m.factors]}:{c}" for m, c in e._terms.items())

    comps = [s for w in range(9) for s in compositions_of(w)]
    lines = [
        " ".join(f"{word(w)}:{m}" for w, m in product(a, b)._terms.items())
        for a in comps for b in comps if a.weight + b.weight <= 8
        for product in (stuffle, shuffle)
    ]
    lines += [expr(linearize(CoeffExpr({MzvMonomial(map(Composition, mono)): 1})))
              for monos in BASES.values() for mono in monos]
    lines += [expr(symmetrel_extend(s)) for s in comps]
    for weight in range(2, 9):
        basis = [_basis_monomial(mono) for mono in BASES[weight]]
        lines += [f"{word(w)}={expr(e)}" for w, e in _derive(weight, basis).items()]
    shuffle.cache_clear()  # the products above filled the shared shuffle cache
    return "\n".join(lines)


def test_word_algebra_does_not_depend_on_hash_order():
    """Words and monomials hash as plain tuples; no output of the word
    algebra may change its order with that: one digest over the insertion
    order of every dict above."""
    text = _word_algebra_in_insertion_order()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fef6838b8644286dc23ea1a8c4d9a2ed62f872d25a5a51421285c77ed0ff649e"
    )
