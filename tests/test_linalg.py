"""``linalg`` against a dense Fraction Gauss-Jordan oracle, by value: the
sparse rows go in, and come out, through ``sparse_rows``."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from sparse_rows import dense, sparse

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


def oracle_nullspace(m, cols):
    red, pivots = oracle_rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def oracle_solve(m, b, cols):
    """The solution of m x = b with free variables at 0, read off the
    oracle rref of [m | b]; None when the constant column holds a pivot."""
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


def assert_matches_oracle(rows, cols):
    """rref, rank and null space of the sparse ``rows`` over ``cols``
    columns equal the oracle's on the rows written out densely: rref's
    nonzero rows, and each null vector in column order."""
    m = [dense(row, cols) for row in rows]
    red, pivots = linalg.rref(rows)
    oracle_red, oracle_pivots = oracle_rref(m)
    assert (red, pivots) == ([sparse(row) for row in oracle_red if any(row)], oracle_pivots)
    assert all(isinstance(x, Fraction) for row in red for x in row.values())
    assert linalg.rank(rows) == len(pivots)
    basis = linalg.nullspace(rows, cols)
    assert basis == [sparse(vec) for vec in oracle_nullspace(m, cols)]
    for vec in basis:
        assert list(vec) == sorted(vec)
        assert not any(product(m, dense(vec, cols)))


def assert_solves_as_oracle(rows, cols, rhss):
    """The factored solve of the sparse ``rows`` over ``cols`` columns
    equals the oracle's for each dense right-hand side, and solves it."""
    m = [dense(row, cols) for row in rows]
    factored = linalg.factor(rows, cols)
    for b in rhss:
        solution = factored.solve(sparse(b))
        expected = oracle_solve(m, b, cols)
        assert solution == (None if expected is None else sparse(expected))
        if solution is not None:
            assert product(m, dense(solution, cols)) == b


@with_edges
@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rref_rank_nullspace_match_oracle(m):
    assert_matches_oracle([sparse(row) for row in m], len(m[0]) if m else 0)


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
    assert_solves_as_oracle([sparse(row) for row in m], len(m[0]) if m else 0, rhss)


def test_solve_over_mixed_denominators():
    """Right-hand sides over several denominators, ints among them, go over
    one denominator and come back as the oracle's Fractions; a right-hand
    side off the column space of a rank-2 matrix is refused."""
    F = Fraction
    m = [[F(1, 2), F(2, 3), 1, 0],
         [F(-3, 5), 0, F(7, 4), F(1, 9)],
         [F(-1, 10), F(2, 3), F(11, 4), F(1, 9)]]  # row 0 + row 1
    factored = linalg.factor([sparse(row) for row in m], 4)
    consistent = [F(1, 6), F(-5, 14), F(1, 6) + F(-5, 14)]
    mixed = [F(3, 8), 2, F(19, 8)]
    inconsistent = [F(1, 3), F(1, 7), F(1, 2)]
    for b in (consistent, mixed, [0, 0, 0]):
        x = factored.solve(sparse(b))
        assert x == sparse(oracle_solve(m, b, 4)) and product(m, dense(x, 4)) == b
        assert all(type(v) is Fraction for v in x.values())
    assert oracle_solve(m, inconsistent, 4) is None
    assert factored.solve(sparse(inconsistent)) is None


def test_input_is_not_modified():
    m = [{0: Fraction(1, 2), 1: 3}, {1: Fraction(-5, 4), 0: 2}]
    copy = [dict(row) for row in m]
    linalg.rref(m)
    linalg.factor(m, 2)
    linalg.nullspace(m, 2)
    assert m == copy


def test_column_no_row_holds():
    """Column 1 of 3 is held by no row: it is free in the null space and
    absent from every solution."""
    rows = [{0: 1, 2: Fraction(-3, 2)}, {2: 4}]
    assert_matches_oracle(rows, 3)
    assert {1: 1} in linalg.nullspace(rows, 3)
    assert_solves_as_oracle(rows, 3, [[Fraction(5, 2), 8], [1, 0]])
    assert 1 not in linalg.factor(rows, 3).solve({0: 1, 1: 2})


def test_no_rows_over_columns():
    """No rows over 3 columns: every column is free, and the one
    right-hand side, the empty one, is solved by 0."""
    assert linalg.rref([]) == ([], [])
    assert_matches_oracle([], 3)
    assert linalg.nullspace([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert_solves_as_oracle([], 3, [[]])
    assert linalg.factor([], 3).solve({}) == {}


def test_keys_out_of_column_order():
    """Rows whose keys are not in column order reduce and solve as the
    same rows written in order."""
    rows = [{3: 2, 0: Fraction(1, 3), 1: -1}, {2: 5, 1: 1, 3: Fraction(7, 4)}, {3: 1, 0: 2}]
    assert_matches_oracle(rows, 4)
    ordered = [dict(sorted(row.items())) for row in rows]
    assert linalg.rref(rows) == linalg.rref(ordered)
    m = [dense(row, 4) for row in rows]
    assert_solves_as_oracle(rows, 4, [product(m, [1, 2, 3, 4]), [1, 0, 0]])


def test_weight_8_table_system(monkeypatch):
    """The largest system the table derivation reduces."""
    seen = []
    monkeypatch.setattr(basis_table, "rref", lambda m: seen.append(m) or linalg.rref(m))
    basis = [basis_table._basis_monomial(mono) for mono in basis_table.BASES[8]]
    basis_table._derive(8, basis)
    (m,) = seen
    assert (len(m), 1 + max(j for row in m for j in row)) == (65, 68)
    assert_matches_oracle(m, 68)
