import hashlib
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sparse_rows import dense, sparse

from multitangent import basis_table, lab, linalg, mzv
from multitangent.basis_table import MzvBasisTable
from multitangent.errors import (
    CoverageError,
    NumericRecheckError,
    PrecisionUnreachableError,
    ProjectionUnavailableError,
)
from multitangent.exact import CoeffExpr, MzvMonomial, PiRational, _expression
from multitangent.families import te_nk_exact, zagier_ze2n
from multitangent.lab import (
    MtCombo,
    conjectured_dimension,
    differentiate_combo,
    dimension_report,
    kernel_contains,
    projection,
    rank_matrix,
    relation_kernel,
    sample_points,
    slot_vector,
    table_emit,
    te2_basis_coefficient,
    unit_cleanse,
)
from multitangent.mzv import NumericContext, even_zeta, mzv_numeric
from multitangent.numerics import monotangent_eval, multitangent_eval_direct
from multitangent.reduction import _fragment, _order_terms, reduce
from multitangent.words import Composition, enumerate_compositions, shuffle, stuffle
from multitangent.words import repeat

C = Composition.of
CTX = NumericContext(target_abs_error=1e-9)


def _letter_shuffle(a: Composition, b: Composition) -> dict:
    """The oracle of the x/y shuffle: each composition encoded as its word
    of letters 1 (x) and 2 (y), part k being x^(k-1) y, the words shuffled
    by ``words.shuffle``, and every word decoded."""
    def letters(s):
        return Composition(letter for k in s for letter in (1,) * (k - 1) + (2,))

    def parts(word):
        return tuple(len(run) + 1 for run in "".join(map(str, word)).split("2")[:-1])

    return {parts(w): m for w, m in shuffle(letters(a), letters(b))._terms.items()}


def combo_eq_mod_kernel(weight: int, a: MtCombo, b: MtCombo) -> bool:
    diff = a - b
    return not diff or kernel_contains(weight, diff)


class TestTableLoading:
    def test_shared_table_loads_and_verifies(self):
        table = MzvBasisTable.shared()
        # weights 9 and 10 join on first use, so count only the loaded ones
        assert sum(s.weight <= 8 for s in table.entries) == 127
        assert table.max_weight == 10

    def test_euler_entry(self):
        table = MzvBasisTable.shared()
        assert table.substitute_symbol(C(2, 1)) == CoeffExpr.symbol(C(3))

    def test_corrupted_entry_fails_fast(self, monkeypatch):
        derive = basis_table._derive

        def corrupted(weight, basis):
            entries = derive(weight, basis)
            if weight == 3:
                # Ze[2,1] is zeta(3), not 2 zeta(3)
                entries[C(2, 1)] = entries[C(2, 1)].scale(2)
            return entries

        monkeypatch.setattr(basis_table, "_derive", corrupted)
        with pytest.raises(NumericRecheckError):
            MzvBasisTable.load()

    def test_entry_off_by_9e_11_fails(self, monkeypatch, user_precision):
        # 9e-11 Ze[8] is below 1e-10 but outside a certificate of 5e-11
        derive = basis_table._derive

        def shifted(weight, basis):
            entries = derive(weight, basis)
            if weight == 8:
                entries[C(3, 3, 2)] += CoeffExpr.symbol(C(8), Fraction(9, 10**11))
            return entries

        monkeypatch.setattr(basis_table, "_derive", shifted)
        with pytest.raises(NumericRecheckError, match=r"Ze\[3,3,2\]"):
            MzvBasisTable.load()

    def test_entry_past_the_load_certified_on_first_use(self, monkeypatch, user_precision):
        # 9e-11 Ze[9] is below 1e-10 but outside a certificate of 5e-11
        derive = basis_table._derive

        def shifted(weight, basis):
            entries = derive(weight, basis)
            if weight == 9:
                entries[C(3, 3, 3)] += CoeffExpr.symbol(C(9), Fraction(9, 10**11))
            return entries

        monkeypatch.setattr(basis_table, "_derive", shifted)
        table = MzvBasisTable.load()
        assert len(table.entries) == 127
        assert all(s.weight < 9 for s in table.entries)
        for _ in range(2):  # a failed weight is never served
            with pytest.raises(NumericRecheckError, match=r"Ze\[3,3,3\]"):
                table.substitute_symbol(C(9))
        assert all(s.weight < 9 for s in table.entries)

    def test_entries_respect_duality(self):
        # the derivation imposes no duality: reversing the x/y word of a
        # symbol and swapping x and y must keep its value
        def dual(s):
            word = "".join("x" * (k - 1) + "y" for k in s)
            flipped = word[::-1].translate(str.maketrans("xy", "yx"))
            return Composition(tuple(len(run) + 1 for run in flipped.split("y")[:-1]))

        table = MzvBasisTable.shared()
        for w in range(2, table.max_weight + 1):
            for s in enumerate_compositions(w, "mzv"):
                assert table.substitute_symbol(s) == table.substitute_symbol(dual(s)), s

    def test_entries_satisfy_sum_theorem(self):
        table = MzvBasisTable.shared()
        for w in range(2, table.max_weight + 1):
            for depth in range(1, w):
                total = CoeffExpr.zero()
                for s in enumerate_compositions(w, "mzv"):
                    if s.length == depth:
                        total = total + table.substitute_symbol(s)
                assert total == table.substitute_symbol(C(w)), (w, depth)

    def test_repeated_twos_match_zagier(self):
        table = MzvBasisTable.shared()
        for n in range(1, 5):
            (mono, coef), = table.substitute_symbol(repeat(2, n)).items()
            assert mono == MzvMonomial.symbol(C(2 * n))
            assert coef * even_zeta(n) == zagier_ze2n(n)

    @pytest.mark.parametrize("weight", range(2, 11))
    def test_words_and_basis_monomials_take_distinct_columns(self, weight, monkeypatch):
        """The derivation keys its columns by words and by basis monomials,
        both tuples: a word is a tuple of ints and a monomial a tuple of
        compositions, so none of them share a column, and the sparse rows
        hold every column of the width."""
        class Captured(Exception):
            pass

        def capture(matrix):
            raise Captured(matrix)

        monkeypatch.setattr(basis_table, "rref", capture)
        basis = [basis_table._basis_monomial(m) for m in basis_table.BASES[weight]]
        with pytest.raises(Captured) as got:
            basis_table._derive(weight, basis)
        (matrix,) = got.value.args
        width = len(enumerate_compositions(weight, "mzv")) + len(basis)
        assert set().union(*matrix) == set(range(width))

    def test_composition_shuffle_matches_the_letter_route(self, monkeypatch):
        """Every pair the derivation shuffles, up to weight 11, has the
        shuffle of its x/y words, each composition written out in letters."""
        class Captured(Exception):
            pass

        def capture(matrix):
            raise Captured

        pairs = []
        monkeypatch.setattr(basis_table, "stuffle", lambda a, b: pairs.append((a, b)) or stuffle(a, b))
        monkeypatch.setattr(basis_table, "rref", capture)
        for weight in range(2, 12):
            with pytest.raises(Captured):
                basis_table._derive(weight, [])
        assert len(pairs) == len(set(pairs)) == 997
        shuffles = {}
        for a, b in pairs:
            assert basis_table._shuffle_xy(a, b, shuffles) == _letter_shuffle(a, b), (a, b)
        shuffle.cache_clear()  # the letter words filled the shared cache

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 3), max_size=3), st.lists(st.integers(1, 3), max_size=3))
    def test_composition_shuffle_of_any_pair(self, a, b):
        got = basis_table._shuffle_xy(Composition(a), Composition(b), {})
        assert got == _letter_shuffle(Composition(a), Composition(b))

    def test_entries_at_weights_9_and_10_are_pinned(self):
        """The derived entries at weights 9 and 10, in their insertion order,
        as derived with letter words and the shared shuffle cache."""
        lines = []
        for weight in (9, 10):
            basis = [basis_table._basis_monomial(m) for m in basis_table.BASES[weight]]
            for w, e in basis_table._derive(weight, basis).items():
                terms = ",".join(f"{[tuple(f) for f in m]}:{c}" for m, c in e._terms.items())
                lines.append(f"{tuple(w)}={terms}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "82bd6ce0db52f0b931241bec0aae92293bb3952dc789910192dd695dcc41c4b2"
        )

    def test_coverage_error_reported(self):
        table = MzvBasisTable.shared()
        with pytest.raises(CoverageError):  # one weight past the table
            table.substitute_symbol(C(basis_table.MAX_WEIGHT - 1, 2))


class TestRelationKernel:
    def test_weight5(self):
        kernel = relation_kernel(5, CTX)
        assert len(kernel) == 1
        assert kernel[0] == MtCombo({C(2, 1, 2): 1}) or kernel[0] == MtCombo(
            {C(2, 1, 2): -1}
        )

    def test_weight6_dimension_and_membership(self):
        kernel = relation_kernel(6, CTX)
        assert len(kernel) == 4
        rel = MtCombo({C(3, 1, 2): 1, C(2, 1, 3): 1, C(2, 1, 1, 2): 1})
        assert kernel_contains(6, rel)

    def test_recheck_rejects_a_relation_off_by_1e_8(self, monkeypatch, user_precision):
        """1e-8 more of one term moves a weight-6 relation by about 1.5e-8
        at the sample points: below a fixed 1e-7, far outside the
        certificate of the difference at the default target 1e-10."""
        exact = lab.nullspace

        def shifted(matrix, cols):
            basis = exact(matrix, cols)
            j = min(basis[0])  # its first nonzero entry
            basis[0][j] += Fraction(1, 10**8)
            return basis

        monkeypatch.setattr(lab, "nullspace", shifted)
        with pytest.raises(NumericRecheckError, match="kernel relation"):
            relation_kernel(6)

    def test_recheck_sums_at_the_context_precision(self, user_precision):
        """A left side 1e-20 off a weight-6 relation fails at target 1e-40
        and 200 bits: the recheck sum runs at 200 bits, not at the caller's
        53, where its certified bounds are 9.2e-15 and 2.6e-15."""
        ctx = NumericContext(target_abs_error=1e-40, working_precision=200)
        rel = MtCombo({C(2, 4): Fraction(1, 4), C(3, 3): Fraction(-1, 6),
                       C(4, 2): Fraction(-1, 4), C(2, 1, 3): 1})
        assert kernel_contains(6, rel)
        lab._recheck("relation", lambda z: [], rel, ctx)
        with pytest.raises(NumericRecheckError):
            lab._recheck("relation", lambda z: [[(Fraction(1, 10**20), 0.0)]], rel, ctx)

    def test_weight6_all_tabulated_relations(self):
        relations = [
            {C(3, 1, 2): 1, C(2, 1, 3): 1, C(2, 1, 1, 2): 1},
            {C(3, 1, 2): 2, C(2, 2, 2): 1, C(2, 1, 3): 2},
            {C(2, 4): 1, C(4, 2): -1, C(2, 1, 3): 2, C(3, 1, 2): -2},
            {C(3, 1, 2): 3, C(2, 1, 3): 3, C(3, 3): -1},
        ]
        for rel in relations:
            assert kernel_contains(6, MtCombo(rel)), rel

    def test_weight7_dimension_and_membership(self):
        kernel = relation_kernel(7, CTX)
        assert len(kernel) == 10
        assert kernel_contains(7, MtCombo({C(2, 1, 1, 1, 2): 1}))

    def test_weight7_all_tabulated_relations(self):
        relations = [
            {C(2, 1, 1, 1, 2): 1},
            {C(3, 1, 3): -4, C(3, 1, 1, 2): 1, C(2, 1, 1, 3): 1},
            {C(3, 1, 3): 4, C(3, 1, 1, 2): -2, C(2, 1, 2, 2): 1},
            {C(3, 1, 3): -4, C(3, 1, 1, 2): 2, C(2, 2, 1, 2): 1},
            {C(4, 1, 2): 1, C(3, 1, 3): 5, C(2, 1, 4): 1},
            {C(4, 3): -1, C(4, 1, 2): 1, C(3, 1, 3): 5, C(2, 2, 3): 1, C(3, 1, 1, 2): -4},
            {C(3, 1, 3): -5, C(2, 3, 2): 1},
            {C(4, 3): 1, C(4, 1, 2): -1, C(3, 2, 2): 1, C(3, 1, 3): -8, C(3, 1, 1, 2): 4},
            {C(5, 2): -1, C(2, 5): 1, C(4, 1, 2): -4, C(3, 1, 3): -18, C(3, 1, 1, 2): 4},
            {C(4, 3): 1, C(3, 4): 1, C(3, 1, 3): 8},
        ]
        for rel in relations:
            assert kernel_contains(7, MtCombo(rel)), rel

    def test_low_weight_rejected(self):
        with pytest.raises(ValueError):
            relation_kernel(3)

    def test_coverage_limit(self):
        with pytest.raises(CoverageError):
            relation_kernel(basis_table.MAX_WEIGHT + 2)

    def test_non_member(self):
        assert not kernel_contains(6, MtCombo({C(2, 4): 1}))

    def test_stray_terms_rejected(self):
        # Te[3] has the wrong weight and Te[1,4,1] is divergent: neither is
        # a weight-6 kernel coordinate, so neither may be dropped silently
        relation = relation_kernel(6, recheck=False)[0]
        for stray in (C(3), C(1, 4, 1)):
            with pytest.raises(ValueError, match=rf"Te\[{stray}\]"):
                kernel_contains(6, relation + MtCombo({stray: 5}))


def test_evaluate_sums_at_the_context_precision(user_precision):
    """At target 1e-40 and 200 bits a one-term combination is the direct
    value, not that value rounded to the caller's 53 bits."""
    ctx = NumericContext(target_abs_error=1e-40, working_precision=200)
    z = mp.mpc(0.3, 0.7)
    got = MtCombo({C(2, 3): 1}).evaluate(z, ctx)
    direct = multitangent_eval_direct(C(2, 3), z, ctx)
    with mp.workprec(300):
        assert abs(got - direct) <= 1e-39


class TestDifferentiate:
    def test_single(self):
        assert differentiate_combo(MtCombo({C(2): 1})) == MtCombo({C(3): -2})

    def test_pair(self):
        got = differentiate_combo(MtCombo({C(2, 2): 1}))
        assert got == MtCombo({C(3, 2): -2, C(2, 3): -2})

    def test_empty(self):
        assert differentiate_combo(MtCombo()) == MtCombo()

    def test_weight_increases_by_one(self):
        combo = MtCombo({C(2, 1, 3): Fraction(1, 2), C(3, 3): -1})
        assert differentiate_combo(combo).weight() == combo.weight() + 1


class TestProjection:
    def test_sigma2(self):
        assert projection(C(2), CTX) == MtCombo({C(2, 2): Fraction(1, 2)})

    def test_sigma3(self):
        expected = MtCombo({C(3, 2): Fraction(1, 6), C(2, 3): Fraction(-1, 6)})
        assert combo_eq_mod_kernel(5, projection(C(3), CTX), expected)

    def test_sigma5(self):
        expected = MtCombo(
            {
                C(2, 5): Fraction(1, 30),
                C(3, 4): Fraction(2, 30),
                C(4, 3): Fraction(-2, 30),
                C(5, 2): Fraction(-1, 30),
            }
        )
        assert combo_eq_mod_kernel(7, projection(C(5), CTX), expected)

    def test_sigma4_and_length_two(self):
        # Ze[4] Te^2 = -1/6 Te[3,3]; Ze[2,2] = 3/4 Ze[4] scales it
        assert projection(C(4), CTX) == MtCombo({C(3, 3): Fraction(-1, 6)})
        assert projection(C(2, 2), CTX) == MtCombo({C(3, 3): Fraction(-1, 8)})
        # Euler: Ze[2,1] = Ze[3], so the projections coincide
        assert projection(C(2, 1), CTX) == projection(C(3), CTX)

    def test_product_projection_consistent_with_stuffle(self):
        # Ze[2] Ze[3] = Ze[2,3] + Ze[3,2] + Ze[5]: the published combination
        # for the product equals the sum of the three projections mod kernel
        published = MtCombo(
            {
                C(3, 2, 2): Fraction(1, 12),
                C(2, 2, 3): Fraction(-1, 12),
                C(2, 5): Fraction(1, 24),
                C(3, 4): Fraction(1, 12),
                C(4, 3): Fraction(-1, 12),
                C(5, 2): Fraction(-1, 24),
            }
        )
        total = projection(C(2, 3), CTX) + projection(C(3, 2), CTX) + projection(C(5), CTX)
        assert combo_eq_mod_kernel(7, total, published)

    def test_differentiated_projection_consistency(self):
        # d/dz (Ze[s] Te^2) = -2 Ze[s] Te^3: differentiate the weight-4
        # projection of Ze[2] and compare numerically
        combo = projection(C(2), CTX)
        derived = differentiate_combo(combo)
        zeta2 = mzv_numeric(CoeffExpr.symbol(C(2)), CTX)
        for z in sample_points(2, seed=123):
            lhs = -2 * zeta2 * monotangent_eval(3, z, CTX)
            rhs = derived.evaluate(z, CTX)
            assert abs(lhs - rhs) < 1e-7

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            projection(C(1, 2), CTX)

    def test_recheck_refuses_a_left_side_that_misses_the_target(self):
        """At 40 bits Te^2 at the sample points is certified only to about
        2.2e-9: Ze[3] Te^2 cannot meet the target 1e-10, and the recheck
        refuses it rather than pass on that bound."""
        ctx = NumericContext(target_abs_error=1e-10, working_precision=40)
        with pytest.raises(PrecisionUnreachableError):
            projection(C(3), ctx)


class TestUnitCleanse:
    def test_known_cleansing_mod_kernel(self):
        got = unit_cleanse(C(2, 1, 3), CTX)
        expected = MtCombo(
            {
                C(4, 2): Fraction(1, 4),
                C(2, 4): Fraction(-1, 4),
                C(3, 3): Fraction(1, 6),
            }
        )
        assert combo_eq_mod_kernel(6, got, expected)

    def test_already_clean(self):
        assert unit_cleanse(C(2, 2), CTX) == MtCombo({C(2, 2): 1})

    def test_divergent_null(self):
        assert unit_cleanse(C(1, 2), CTX) == MtCombo()

    def test_constant_family_rejected(self):
        with pytest.raises(ProjectionUnavailableError):
            unit_cleanse(C(1, 1), CTX)

    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_te1_family_rejected(self, r):
        # Te[1^r] for odd r is a multiple of Te^1: no unit-free form exists
        with pytest.raises(ProjectionUnavailableError):
            unit_cleanse(repeat(1, r), CTX)


class TestRankMatrix:
    @pytest.mark.parametrize("p,expected", [(4, 1), (5, 2), (6, 2), (7, 3)])
    def test_ranks(self, p, expected):
        matrix, r = rank_matrix(p)
        assert r == expected

    def test_weight4_column(self):
        matrix, r = rank_matrix(4)
        assert [str(s) for s in matrix.rows] == ["2,4", "3,3", "4,2", "2,2,2"]
        assert matrix.column(0) == [
            Fraction(4),
            Fraction(-6),
            Fraction(4),
            Fraction(4),
        ]

    def test_fibonacci_row_count(self):
        fib = {4: 4, 5: 7, 6: 12, 7: 20}
        for p, rows in fib.items():
            matrix, _ = rank_matrix(p)
            assert len(matrix.rows) == rows


class TestTe2Coefficients:
    def test_weight6_system_over_all_convergent(self):
        # Te^2 coefficients (in Ze[4] units) per convergent weight-6 sequence
        expected = {
            (2, 4): 4,
            (3, 3): -6,
            (4, 2): 4,
            (2, 2, 2): 4,
            (2, 1, 3): -1,
            (3, 1, 2): -1,
            (2, 1, 1, 2): 2,
            (6,): 0,
        }
        for parts, value in expected.items():
            coeffs = te2_basis_coefficient(Composition(parts))
            assert coeffs == [Fraction(value)]


class TestDimensions:
    def test_conjectured_sequence(self):
        got = [conjectured_dimension(w) for w in range(2, 14)]
        assert got == [1, 1, 2, 3, 4, 6, 8, 11, 15, 20, 27, 36]

    def test_report_matches_conjecture_to_weight7(self):
        report = dimension_report(7)
        for row in report:
            assert row["dimension"] == row["conjectured"], row
        by_weight = {row["weight"]: row for row in report}
        assert by_weight[6]["count"] == 8 and by_weight[6]["kernel_dim"] == 4
        assert by_weight[7]["count"] == 16 and by_weight[7]["kernel_dim"] == 10

    def test_weight8_and_9_kernels(self):
        assert len(relation_kernel(8, CTX, recheck=False)) == 32 - 8
        assert len(relation_kernel(9, CTX, recheck=False)) == 64 - 11

    @pytest.mark.parametrize("weight", [9, 10, 11])
    def test_kernel_dimension_matches_conjecture(self, weight):
        # exact to weight 11: the Te^1 block of weight 10 is in the table
        count = len(enumerate_compositions(weight, "convergent"))
        kernel = relation_kernel(weight, recheck=False)
        assert len(kernel) == count - conjectured_dimension(weight)


class TestTableEmit:
    def test_text_rows(self):
        text = table_emit(4, "text")
        assert "Te[2,2] = 2·Ze[2]·Te^2" in text
        assert "Te[2] = Te^2" in text

    def test_divergent_rows(self):
        text = table_emit(3, "text", include_divergent=True)
        assert "Te[2,1] = 0" in text

    def test_json_shape(self):
        import json

        payload = json.loads(table_emit(4, "json"))
        by_seq = {tuple(row["sequence"]): row for row in payload}
        assert (2, 2) in by_seq
        assert by_seq[(2, 2)]["numeric_coeffs"]["2"].startswith("3.28986")

    def test_csv_header(self):
        rows = table_emit(3, "csv").splitlines()
        assert rows[0] == "sequence,convergent,constant,order,coefficient,numeric"

    def test_deterministic(self):
        assert table_emit(5, "text") == table_emit(5, "text")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            table_emit(4, "yaml")

    def test_exact_output_is_pinned(self):
        # digests of the exact wire format: the text table with divergent
        # rows and the JSON of every reduction of weight 1..8 (the numeric
        # columns are left out)
        import hashlib
        import json

        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()

        reductions = [reduce(s).to_json() for w in range(1, 9) for s in enumerate_compositions(w)]
        assert digest(table_emit(8, "text", include_divergent=True)) == (
            "54e29bcc08dc422fa15fdacc58571f7009c3caa2b2246c449c46dd266f168d21"
        )
        assert digest(json.dumps(reductions)) == (
            "23cdf161af77ce0eec2fa833bda32e75262fe9b1d6a96e0fc636338cb32f6f99"
        )


class TestSlotVector:
    def test_te1_block_cancels_exactly(self):
        # convergent sequences up to weight 8: the order-1 coefficient must
        # cancel identically once table relations are substituted
        for w in range(4, 9):
            for s in enumerate_compositions(w, "convergent"):
                slot_vector(s)  # raises on failed cancellation

    def test_te1_check_at_weight_10_is_exact(self, monkeypatch, user_precision):
        # weight 10: the Te^1 block (weight 9) is written over the basis
        # derived on first use, so 5e-9 Ze[2], below 1e-8 per term, leaves
        # a nonzero slot and fails exact cancellation
        s = C(3, 1, 2, 1, 1, 2)
        monkeypatch.setattr(
            lab, "_slot_vector_cached", lru_cache(maxsize=8)(lab._slot_vector_cached.__wrapped__)
        )
        assert slot_vector(s)

        fold, order_1 = lab._fold, _order_terms(s)[1]

        def perturbed(terms, fragment, product):
            vec = fold(terms, fragment, product)
            if terms == order_1:
                vec = vec + CoeffExpr.symbol(C(2), Fraction(5, 10**9))
            return vec

        lab._slot_vector_cached.cache_clear()
        monkeypatch.setattr(lab, "_fold", perturbed)
        with pytest.raises(NumericRecheckError, match="Te\\^1 coefficient of 3,1,2,1,1,2"):
            slot_vector(s)

    def test_matches_the_reduce_route(self):
        # the fold of fragment basis vectors against the expanded reduction
        # written over the basis: items, order and errors alike
        def reduce_route(s):
            red = reduce(s)
            if red.constant:
                raise ValueError(f"Te[{s}] reduces with a constant term")
            entries = {}
            for k, expr in red.coeffs.items():
                slots = _fresh_slots(k, expr)
                if k == 1 and slots:
                    raise NumericRecheckError(f"Te^1 coefficient of {s} fails exact cancellation")
                entries.update(slots)
            return entries

        def outcome(route, s):
            try:
                return list(route(s).items())
            except (ValueError, NumericRecheckError) as exc:
                return type(exc), str(exc)

        errors = []
        for w in range(1, 11):
            for s in enumerate_compositions(w, "all"):
                got = outcome(slot_vector, s)
                assert got == outcome(reduce_route, s), s
                if isinstance(got, tuple):
                    errors.append(got[0])
        # Te[1^r]: a constant for even r, a multiple of Te^1 for odd r
        assert len(errors) == 10 and errors.count(ValueError) == 5

    def test_families_lie_on_even_zetas(self):
        # Te[n^k] = sum_m q_m pi^(nk-m) Te^m by the paper's generating function
        # (families.te_nk_exact, which uses no table), so every slot holds one
        # even zeta and its value is q_m pi^(nk-m): odd zetas, Ze[3]*Ze[5],
        # Ze[6,2] and Ze[8,2] must cancel exactly
        families = [(n, k) for n in range(2, 12) for k in range(1, 6) if n * k <= 11]
        assert len(families) == 18
        for n, k in families:
            exact = te_nk_exact(n, k)
            vec = slot_vector(C(*[n] * k))
            assert {order for order, _ in vec} == set(exact), (n, k)
            for (order, mono), coef in vec.items():
                if not mono.factors:  # Te[n] = Te^n
                    assert (order, coef, exact) == (n, 1, {n: 1}), (n, k)
                    continue
                (factor,) = mono.factors
                assert factor.length == 1 and factor.weight % 2 == 0, (n, k, mono)
                assert order + factor.weight == n * k
                value = even_zeta(factor.weight // 2) * coef
                assert value == PiRational({n * k - order: exact[order]}), (n, k, order)

    def test_values(self):
        vec = slot_vector(C(2, 2))
        ((k, mono), coeff), = vec.items()
        assert k == 2 and str(mono) == "Ze[2]" and coeff == 2


def test_zeta_coefficients_reject_pi_powers():
    with pytest.raises(TypeError):
        CoeffExpr({MzvMonomial.one(): PiRational({2: 1})})
    with pytest.raises(TypeError):
        CoeffExpr.scalar(PiRational({2: 1}))


def rref_solve(m, b):
    """Reference solve of the dense system m x = b: read the solution off
    rref([m | b]), free variables at 0, as a sparse vector; None when the
    constant column holds a pivot."""
    cols = len(m[0]) if m else 0
    red, pivots = linalg.rref([sparse(row + [rhs]) for row, rhs in zip(m, b)])
    if cols in pivots:
        return None
    return {pc: row[cols] for row, pc in zip(red, pivots) if cols in row}


fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def systems(draw):
    """A matrix that is full rank, rank deficient (a row combining two
    others) or arbitrary, with right-hand sides that are consistent by
    construction, inconsistent by construction, or arbitrary."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = [draw(st.lists(fractions, min_size=cols, max_size=cols)) for _ in range(rows)]
    x = draw(st.lists(fractions, min_size=cols, max_size=cols))
    consistent = [sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in m]
    rhss = [consistent, draw(st.lists(fractions, min_size=rows, max_size=rows))]
    kind = draw(st.sampled_from(["full", "deficient", "any"]))
    if kind == "full":
        # the identity on top of the drawn rows has full column rank
        m = [[Fraction(int(i == j)) for j in range(cols)] for i in range(cols)] + m
        rhss = [x + b for b in rhss]
    elif kind == "deficient":
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        a, c = draw(fractions), draw(fractions)
        m.append([a * u + c * v for u, v in zip(m[i], m[j])])
        rhss = [b + [a * b[i] + c * b[j] + off] for b in rhss for off in (0, 1)]
    return m, rhss


class TestFactoredSolve:
    @given(systems())
    @settings(max_examples=150, deadline=None)
    def test_matches_rref_of_augmented_system(self, system):
        m, rhss = system
        cols = len(m[0])
        factored = linalg.factor([sparse(row) for row in m], cols)
        for b in rhss:
            x = factored.solve(sparse(b))
            assert x == rref_solve(m, b)
            if x is not None:
                assert [sum((a * xi for a, xi in zip(row, dense(x, cols))), 0) for row in m] == b

    def test_empty_system(self):
        assert linalg.factor([], 0).solve({}) == {}


def _fresh_slots(k, expr):
    """The Te^k coefficient ``expr`` over the zeta basis, keyed by slot,
    linearized and substituted afresh."""
    fresh = MzvBasisTable.shared().substitute(mzv.linearize(expr))
    return {(k, mono): c for mono, c in fresh.items()}


def _reference_combo(rows, target):
    """The workbench solve done afresh: build the system of ``rows`` and
    read the combination off rref([system | target])."""
    slots, system = lab._system(rows)
    if not target.keys() <= slots.keys():
        return None
    x = rref_solve([dense(row, len(rows)) for row in system],
                   [target.get(slot, Fraction(0)) for slot in slots])
    return None if x is None else MtCombo({rows[j]: c for j, c in x.items()})


class TestWorkbenchParity:
    """The cached slot vectors and factored systems give exactly the results
    of fresh linearization, substitution and row reduction."""

    def test_fragment_vectors_match_fresh_substitution(self):
        """Every fragment [X^a] Ze[s](X) of weight up to 9, and so every
        projection target Ze[sigma] = [X^0] Ze[sigma](X), items and order."""
        table = MzvBasisTable.shared()
        for w in range(1, 10):
            for s in enumerate_compositions(w, "all"):
                for a in range(10 - w):
                    fresh = table.substitute(mzv.linearize(_fragment(s.parts, a)))
                    got = _expression(*lab._fragment_vector(s.parts, a))
                    assert list(got.items()) == list(fresh.items()), (s, a)

    def _check(self, call, rows, target):
        expected = _reference_combo(rows, target)
        if expected is None:
            with pytest.raises(ProjectionUnavailableError):
                call()
        else:
            got = call()
            assert got == expected and str(got) == str(expected)

    def test_projections_match_reference_solve(self):
        for w in range(2, 8):
            rows = enumerate_compositions(w + 2, "val2")
            for sigma in enumerate_compositions(w, "mzv"):
                target = _fresh_slots(2, CoeffExpr.symbol(sigma))
                self._check(lambda: projection(sigma, recheck=False), rows, target)

    def test_cleansings_match_reference_solve(self):
        for w in range(3, 9):
            rows = enumerate_compositions(w, "val2")
            for s in enumerate_compositions(w, "all"):
                if 1 in s.parts and max(s.parts) >= 2:
                    self._check(
                        lambda: unit_cleanse(s, recheck=False), rows, slot_vector(s)
                    )


def _lab_exact_outputs():
    """(operation, exact output) of each operation of the benchmark's
    lab-exact list: reductions of weight 1..9, relation kernels 4..9, rank
    matrices 2..7, projections 2..7 and cleansings 3..9, rechecks off."""
    for w in range(1, 10):
        for s in enumerate_compositions(w):
            yield f"reduce {s}", reduce(s).to_json()
    for p in range(4, 10):
        yield f"kernel {p}", [str(combo) for combo in relation_kernel(p, recheck=False)]
    for p in range(2, 8):
        yield f"rank {p}", rank_matrix(p)
    for w in range(2, 8):
        for s in enumerate_compositions(w, "mzv"):
            yield f"projection {s}", str(projection(s, recheck=False))
    for w in range(3, 10):
        for s in enumerate_compositions(w):
            if 1 in s.parts and max(s.parts) >= 2:
                yield f"cleanse {s}", str(unit_cleanse(s, recheck=False))


def test_lab_exact_outputs_are_pinned():
    """The exact workbench in integers returns what it returned in
    Fractions: one digest over every output of the lab-exact list."""
    import hashlib

    text = "\n".join(f"{op}: {out!r}" for op, out in _lab_exact_outputs())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "705b3205987fc698b15934a6ef5a82702332f60c58d92fb085a93c8d28db98b0"
    )


def test_one_row_enumeration_per_weight(monkeypatch):
    """A projection and a cleansing at weight 6 share one system, keyed on
    the weight: its rows are enumerated once, when it is built, and calls
    after that enumerate nothing."""
    fresh = lru_cache(maxsize=32)(lab._factored_system.__wrapped__)
    monkeypatch.setattr(lab, "_factored_system", fresh)
    calls, enumerate_rows = [], lab.enumerate_compositions
    monkeypatch.setattr(
        lab, "enumerate_compositions", lambda *args: calls.append(args) or enumerate_rows(*args)
    )
    for _ in range(2):
        projection(C(2, 2), recheck=False)
        unit_cleanse(C(2, 1, 3), recheck=False)
    assert calls == [(6, "val2")]
    assert fresh.cache_info().misses == 1
