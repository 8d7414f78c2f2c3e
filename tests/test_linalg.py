"""``linalg`` against a dense Fraction Gauss-Jordan oracle, by value."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from multitangent import basis_table, linalg


def oracle_rref(m):
    """Dense Gauss-Jordan on Fraction rows, pivoting on the first nonzero
    entry of each column."""
    m = [[Fraction(x) for x in row] for row in m]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def oracle_nullspace(m):
    if not m:
        return []
    cols = len(m[0])
    red, pivots = oracle_rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def oracle_solve(m, b):
    """The solution of m x = b with free variables at 0, read off the
    oracle rref of [m | b]; None when the constant column holds a pivot."""
    if not m:
        return None if any(b) else []
    cols = len(m[0])
    red, pivots = oracle_rref([row + [rhs] for row, rhs in zip(m, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def product(m, x):
    return [sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in m]


small = st.integers(-4, 4)
entries = st.one_of(
    st.just(0),
    small,
    st.builds(Fraction, small, st.integers(1, 6)),
    # large denominators, as in the weight-8 table system and beyond
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


@st.composite
def matrices(draw):
    """Tall, wide, square, 1 x n and n x 1 matrices of int and Fraction
    entries, with zero, duplicate and dependent rows mixed in."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    m = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    for extra in draw(st.lists(st.sampled_from(["zero", "duplicate", "combination"]), max_size=3)):
        if extra == "zero":
            m.insert(draw(st.integers(0, len(m))), [0] * cols)
        elif m:
            i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
            a, c = (1, 0) if extra == "duplicate" else (draw(entries), draw(entries))
            m.insert(draw(st.integers(0, len(m))), [a * u + c * v for u, v in zip(m[i], m[j])])
    return m


EDGES = [
    [],
    [[0]],
    [[Fraction(3, 7)]],
    [[0, 2, Fraction(-1, 3), 5]],
    [[1], [Fraction(2, 3)], [0], [-4]],
    [[0, 0, 0], [0, 0, 0]],
    [[1, 2], [2, 4], [1, 2]],
]


def with_edges(test):
    for m in EDGES:
        test = example(m)(test)
    return test


@with_edges
@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rref_rank_nullspace_match_oracle(m):
    red, pivots = linalg.rref(m)
    assert (red, pivots) == oracle_rref(m)
    assert all(isinstance(x, Fraction) for row in red for x in row)
    assert linalg.rank(m) == len(pivots)
    basis = linalg.nullspace(m)
    assert basis == oracle_nullspace(m)
    for vec in basis:
        assert not any(product(m, vec))


@st.composite
def systems(draw):
    """A matrix with a right-hand side consistent by construction and an
    arbitrary one."""
    m = draw(matrices())
    cols = len(m[0]) if m else 0
    x = draw(st.lists(entries, min_size=cols, max_size=cols))
    return m, [product(m, x), draw(st.lists(entries, min_size=len(m), max_size=len(m)))]


def with_edge_systems(test):
    for m in EDGES:
        cols = len(m[0]) if m else 0
        test = example((m, [product(m, [1] * cols), [1] * len(m)]))(test)
    return test


@with_edge_systems
@given(systems())
@settings(max_examples=200, deadline=None)
def test_factored_solve_matches_oracle(system):
    m, rhss = system
    factored = linalg.factor(m)
    for b in rhss:
        solution = factored.solve(b)
        assert solution == oracle_solve(m, b)
        if solution is not None:
            assert product(m, solution) == b


def test_input_is_not_modified():
    m = [[Fraction(1, 2), 3], [2, Fraction(-5, 4)]]
    copy = [row[:] for row in m]
    linalg.rref(m)
    linalg.factor(m)
    assert m == copy


def test_weight_8_table_system(monkeypatch):
    """The largest system the table derivation reduces."""
    seen = []
    monkeypatch.setattr(basis_table, "rref", lambda m: seen.append(m) or linalg.rref(m))
    basis = [basis_table._basis_monomial(mono) for mono in basis_table.BASES[8]]
    basis_table._derive(8, basis)
    (m,) = seen
    assert (len(m), len(m[0])) == (78, 68)
    assert linalg.rref(m) == oracle_rref(m)
