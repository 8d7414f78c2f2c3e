import importlib
import math
import pkgutil
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multitangent
from multitangent.words import (
    EMPTY,
    Composition,
    SeqClass,
    WordPoly,
    classify,
    compositions_of,
    enumerate_compositions,
    is_multitangent_convergent,
    repeat,
    shuffle,
    stuffle,
    stuffle_count,
    stuffle_poly,
)

C = Composition.of


def brute_stuffle(a: tuple, b: tuple) -> Counter:
    """Forward dynamic programming over (taken-from-a, taken-from-b) states;
    independent of the recursive product used by the package."""
    states = Counter({(0, 0, ()): 1})
    done = Counter()
    while states:
        nxt = Counter()
        for (i, j, word), mult in states.items():
            if i == len(a) and j == len(b):
                done[word] += mult
                continue
            if i < len(a):
                nxt[(i + 1, j, word + (a[i],))] += mult
            if j < len(b):
                nxt[(i, j + 1, word + (b[j],))] += mult
            if i < len(a) and j < len(b):
                nxt[(i + 1, j + 1, word + (a[i] + b[j],))] += mult
        states = nxt
    return done


def brute_shuffle(a: tuple, b: tuple) -> Counter:
    states = Counter({(0, 0, ()): 1})
    done = Counter()
    while states:
        nxt = Counter()
        for (i, j, word), mult in states.items():
            if i == len(a) and j == len(b):
                done[word] += mult
                continue
            if i < len(a):
                nxt[(i + 1, j, word + (a[i],))] += mult
            if j < len(b):
                nxt[(i, j + 1, word + (b[j],))] += mult
        states = nxt
    return done


def as_counter(poly: WordPoly) -> Counter:
    return Counter({w.parts: m for w, m in poly.items()})


small_composition = st.lists(st.integers(1, 4), max_size=4).map(tuple).map(Composition)


class TestComposition:
    def test_invariants(self):
        s = C(2, 1, 3)
        assert s.weight == 6
        assert s.length == 3
        assert s.weight >= s.length
        assert s.reverse().reverse() == s

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Composition((0, 2))
        with pytest.raises(ValueError):
            Composition((-1,))

    def test_text_forms(self):
        assert str(C(2, 1, 3)) == "2,1,3"
        assert str(EMPTY) == "()"
        assert Composition.parse("2,1,3") == C(2, 1, 3)
        assert Composition.parse("()") == EMPTY
        assert Composition.parse("") == EMPTY

    def test_ordering_weight_length_lex(self):
        got = sorted([C(4), C(2, 2), C(1, 1, 2), C(3), C(2, 1, 1)])
        assert got == [C(3), C(4), C(2, 2), C(1, 1, 2), C(2, 1, 1)]


class TestStuffle:
    def test_mixed_product_example(self):
        # 1·2 * 3 = 123 + 132 + 312 + 1·5 + 4·2
        got = as_counter(stuffle(C(1, 2), C(3)))
        assert got == Counter(
            {(1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): 1, (1, 5): 1, (4, 2): 1}
        )

    def test_empty_unit(self):
        assert as_counter(stuffle(EMPTY, C(2, 7))) == Counter({(2, 7): 1})
        assert as_counter(stuffle(C(2, 7), EMPTY)) == Counter({(2, 7): 1})

    def test_square_of_single(self):
        assert as_counter(stuffle(C(2), C(2))) == Counter({(2, 2): 2, (4,): 1})

    def test_matches_brute_force(self):
        for a, b in [((2, 1), (3,)), ((2, 2), (1, 1)), ((1,), (1, 2, 1)), ((3, 1), (2, 2))]:
            assert as_counter(stuffle(Composition(a), Composition(b))) == brute_stuffle(a, b)

    def test_total_multiplicity_formula(self):
        for la, lb in [(0, 3), (1, 1), (2, 1), (2, 2), (3, 2)]:
            a = Composition(tuple([1] * la))
            b = Composition(tuple([2] * lb))
            expected = sum(
                math.factorial(la + lb - k)
                // (math.factorial(k) * math.factorial(la - k) * math.factorial(lb - k))
                for k in range(min(la, lb) + 1)
            )
            assert stuffle(a, b).total_multiplicity() == expected

    def test_weight_grading(self):
        a, b = C(2, 1), C(3, 2)
        for word, _ in stuffle(a, b).items():
            assert word.weight == a.weight + b.weight

    def test_convergent_stability(self):
        a, b = C(2, 1, 2), C(3)
        for word, _ in stuffle(a, b).items():
            assert is_multitangent_convergent(word)

    def test_commutative_exhaustive_weight6(self):
        seqs = [s for w in range(0, 7) for s in compositions_of(w)]
        for a in seqs:
            for b in seqs:
                if a.weight + b.weight <= 6:
                    assert stuffle(a, b) == stuffle(b, a)

    def test_associative_exhaustive_weight5(self):
        seqs = [s for w in range(1, 6) for s in compositions_of(w)]
        triples = [
            (a, b, c)
            for a in seqs
            for b in seqs
            for c in seqs
            if a.weight + b.weight + c.weight <= 5
        ]
        for a, b, c in triples:
            left = stuffle_poly(stuffle(a, b), WordPoly.single(c))
            right = stuffle_poly(WordPoly.single(a), stuffle(b, c))
            assert left == right

    @given(small_composition, small_composition)
    @settings(max_examples=60, deadline=None)
    def test_commutative_random(self, a, b):
        assert stuffle(a, b) == stuffle(b, a)

    @given(small_composition, small_composition)
    @settings(max_examples=60, deadline=None)
    def test_weights_random(self, a, b):
        for word, _ in stuffle(a, b).items():
            assert word.weight == a.weight + b.weight
        assert shuffle(a, b).total_multiplicity() == math.comb(
            a.length + b.length, a.length
        )


class TestShuffle:
    def test_three_letters(self):
        # distinct letters a=1, b=2, c=3: ab sha c = abc + acb + cab
        got = as_counter(shuffle(C(1, 2), C(3)))
        assert got == Counter({(1, 2, 3): 1, (1, 3, 2): 1, (3, 1, 2): 1})

    def test_empty_unit(self):
        w = C(4, 1)
        assert as_counter(shuffle(EMPTY, w)) == Counter({(4, 1): 1})

    def test_square(self):
        assert as_counter(shuffle(C(1), C(1))) == Counter({(1, 1): 2})

    def test_matches_brute(self):
        for a, b in [((1, 2), (3, 4)), ((1, 1), (1,)), ((2,), (5, 6, 7))]:
            assert as_counter(shuffle(Composition(a), Composition(b))) == brute_shuffle(a, b)

    def test_lengths(self):
        a, b = C(2, 1), C(3, 2, 1)
        for word, _ in shuffle(a, b).items():
            assert word.length == a.length + b.length

    def test_commutative(self):
        assert shuffle(C(1, 2), C(2, 1)) == shuffle(C(2, 1), C(1, 2))


class TestStuffleCount:
    def test_examples(self):
        assert stuffle_count(1, 1) == 3
        assert stuffle_count(2, 1) == 5
        assert stuffle_count(0, 5) == 1

    def test_matches_distinct_enumeration(self):
        # distinct monomials of a stuffle of words with all-distinct letters;
        # powers of ten keep every contraction value distinct
        for la in range(0, 5):
            for lb in range(0, 5):
                a = tuple(10**i for i in range(1, la + 1))
                b = tuple(3 * 10**i for i in range(1, lb + 1))
                got = brute_stuffle(a, b)
                assert all(m == 1 for m in got.values())
                assert len(got) == stuffle_count(la, lb)


class TestClassify:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ((2, 1, 3), SeqClass.CONVERGENT_MULTITANGENT),
            ((1, 2), SeqClass.DIVERGENT_LEFT),
            ((2, 1), SeqClass.DIVERGENT_RIGHT),
            ((1, 2, 1), SeqClass.DIVERGENT_BOTH),
            ((1,), SeqClass.DIVERGENT_BOTH),
            ((), SeqClass.EMPTY),
            ((5,), SeqClass.CONVERGENT_MULTITANGENT),
        ],
    )
    def test_examples(self, parts, expected):
        assert classify(Composition(parts)) is expected

    def test_mzv_only_alias(self):
        # a trailing one with a leading part >= 2 converges as a nested sum
        # over positive integers but not as a multitangent
        assert SeqClass.CONVERGENT_MZV_ONLY is SeqClass.DIVERGENT_RIGHT


class TestEnumeration:
    def test_val2_weight4(self):
        assert enumerate_compositions(4, "val2") == [C(4), C(2, 2)]

    def test_weight6_convergent_count(self):
        assert len(enumerate_compositions(6, "convergent")) == 8

    def test_weight2(self):
        assert enumerate_compositions(2, "convergent") == [C(2)]

    def test_fibonacci_counts(self):
        # number of all-parts->=2 compositions of weight p is Fibonacci f_{p-1}
        fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        for p in range(2, 11):
            assert len(enumerate_compositions(p, "val2")) == fib[p - 1]

    def test_repeat(self):
        assert repeat(2, 3) == C(2, 2, 2)
        assert repeat((3, 1), 2) == C(3, 1, 3, 1)


def test_every_cache_is_bounded():
    """An unbounded lru_cache grows for the life of the process."""
    unbounded = []
    for info in pkgutil.iter_modules(multitangent.__path__):
        module = importlib.import_module(f"multitangent.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.cache_info().maxsize is None:
                unbounded.append(f"{info.name}.{name}")
    assert not unbounded
