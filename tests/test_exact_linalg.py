import itertools
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from dualdefect.exact_linalg import (
    Echelon,
    RationalSubspace,
    det,
    hnf,
    hnf_basis,
    hnf_coords,
    identity,
    kernel_basis_ff,
    kernel_basis_int,
    mat_mul,
    rank_int,
    rref,
    rref_ff,
    saturate,
    snf,
    solve_int,
    sums_directly,
    transpose,
)

from conftest import (
    is_surjective_snf,
    kernel_basis_rat,
    lattice_eq,
    lattice_leq,
    random_unimodular,
    rank_rat,
    rational_basis,
    solve_int_left,
)

matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)

# products of a random (rows x k) and (k x cols) matrix: rank at most k,
# so dependent rows and free columns are common
low_rank = st.tuples(st.integers(1, 6), st.integers(1, 3),
                     st.integers(1, 6)).flatmap(
    lambda d: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=d[1],
                          max_size=d[1]), min_size=d[0], max_size=d[0]),
        st.lists(st.lists(st.integers(-9, 9), min_size=d[2],
                          max_size=d[2]), min_size=d[1], max_size=d[1]),
    )
).map(lambda ab: mat_mul(*ab))


def test_hnf_identity_fixed_point():
    h, u = hnf(identity(3))
    assert h == identity(3)
    assert u == identity(3)


def test_hnf_column_of_even_numbers():
    m = [[2], [4]]
    h, u = hnf(m)
    assert h == [[2], [0]]
    assert mat_mul(u, m) == h
    assert abs(det(u)) == 1


def test_hnf_zero_matrix():
    m = [[0, 0], [0, 0]]
    h, u = hnf(m)
    assert h == m
    assert u == identity(2)


def test_snf_identity():
    s, u, v = snf(identity(4))
    assert s == identity(4)


def test_snf_diag_2_3():
    m = [[2, 0], [0, 3]]
    s, u, v = snf(m)
    assert s == [[1, 0], [0, 6]]
    assert mat_mul(mat_mul(u, m), v) == s
    assert abs(det(u)) == 1 and abs(det(v)) == 1


def test_snf_zero_scalar():
    s, _, _ = snf([[0]])
    assert s == [[0]]


def test_kernel_single_row_2_minus2():
    assert kernel_basis_int([[2, -2]]) in ([[1, 1]], [[-1, -1]])


def test_kernel_identity_trivial():
    assert kernel_basis_int(identity(3)) == []


def test_kernel_ones_row():
    m = [[1, 1, 1]]
    basis = kernel_basis_int(m)
    assert len(basis) == 2
    for row in basis:
        assert sum(row) == 0
    assert lattice_eq(hnf_basis(basis), hnf_basis([[1, -1, 0], [0, 1, -1]]))


def test_saturate_examples():
    assert saturate([[2, 0]]) == [[1, 0]]
    assert saturate([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
    assert saturate([[2, 2]]) == [[1, 1]]


def test_solve_int_examples():
    assert solve_int(identity(3), [4, -1, 7]) == [4, -1, 7]
    assert solve_int([[2]], [4]) == [2]
    assert solve_int([[2]], [3]) is None


def test_rational_subspace_canonical():
    a = RationalSubspace.from_rows(3, [[2, 0, 2], [0, 1, 1]])
    b = RationalSubspace.from_rows(3, [[1, 1, 2], [1, -1, 0]])
    assert a == b
    assert a.dim == 2
    assert a.basis == ((1, 0, 1), (0, 1, 1)) and a.pivots == (0, 1)
    assert a.contains([1, 0, 1])


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_hnf_properties(m):
    h, u = hnf(m)
    assert mat_mul(u, m) == h
    assert abs(det(u)) == 1
    # canonical under left-unimodular action
    rng = random.Random(hash(str(m)) & 0xFFFF)
    n = len(m)
    w = identity(n)
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-1, 1, 2])
            for k in range(n):
                w[i][k] += c * w[j][k]
    h2, _ = hnf(mat_mul(w, m))
    assert h2 == h


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_snf_properties(m):
    s, u, v = snf(m)
    assert mat_mul(mat_mul(u, m), v) == s
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    for i in range(len(s)):
        for j in range(len(s[0])):
            if i != j:
                assert s[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_kernel_rank_and_saturation(m):
    cols = len(m[0])
    basis = kernel_basis_int(m)
    assert rank_int(m) + len(basis) == cols
    for row in basis:
        assert all(sum(a * b for a, b in zip(mr, row)) == 0 for mr in m)
    if basis:
        s, _, _ = snf(basis)
        diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
        assert all(d == 1 for d in diag[: len(basis)])


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_saturate_idempotent_and_span_preserving(m):
    sat = saturate(m)
    assert saturate(sat) == sat
    assert rank_int(sat) == rank_int(m)
    # every original row lies in the rational span of the saturation
    sub = RationalSubspace.from_rows(len(m[0]), sat)
    for row in m:
        assert sub.contains(row)


@settings(max_examples=100, deadline=None)
@given(matrices, st.lists(st.integers(-10, 10), min_size=1, max_size=5))
def test_solve_int_roundtrip(m, x):
    x = (x * 5)[: len(m[0])]
    b = [sum(a * v for a, v in zip(row, x)) for row in m]
    got = solve_int(m, b)
    assert got is not None
    assert [sum(a * v for a, v in zip(row, got)) for row in m] == b


def vectors(n):
    return st.lists(st.integers(-12, 12), min_size=n, max_size=n)


def test_solve_int_edge_shapes():
    assert solve_int([[2, 0]], [4]) == [2, 0]
    assert solve_int([[2, 0]], [3]) is None
    assert solve_int([[2, 0]], [0]) == [0, 0]
    assert solve_int([[], []], [0, 0]) == []
    assert solve_int([[], []], [0, 1]) is None
    with pytest.raises(ValueError):
        solve_int([[2]], [1, 1])


@st.composite
def small_maps(draw):
    """Integer matrices up to 5 x 6, with the 0 x 0 and rows x 0 shapes.
    Some have zero rows or columns; others are onto by construction, a
    unimodular matrix times [I | X] with its columns shuffled."""
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 6))
    entries = st.integers(-3, 3)
    if 0 < rows <= cols and draw(st.booleans()):
        u = random_unimodular(draw(st.randoms(use_true_random=False)), rows)
        m = mat_mul(u, [[int(i == j) for j in range(rows)]
                         + draw(st.lists(entries, min_size=cols - rows,
                                         max_size=cols - rows))
                         for i in range(rows)])
        order = draw(st.permutations(range(cols)))
        return [[row[j] for j in order] for row in m]
    m = [draw(st.lists(entries, min_size=cols, max_size=cols))
         for _ in range(rows)]
    zero_rows = draw(st.sets(st.integers(0, rows - 1))) if rows else set()
    zero_cols = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
    return [[0 if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(m)]


@settings(max_examples=300, deadline=None)
@given(small_maps())
@example([])
@example([[]])
@example([[2, 3]])
@example([[2, 4]])
def test_is_surjective_matches_snf_reference(m):
    # one HNF of the columns reads both surjectivity and rank, as
    # verify reads pi1_surjective and pi1_kernel_rank
    image = hnf_basis(transpose(m))
    assert (image == identity(len(m))) == is_surjective_snf(m)
    assert len(image) == rank_int(m)


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices, low_rank), st.data())
def test_hnf_coords_match_snf_reference(m, data):
    basis = hnf_basis(m)
    cols = len(m[0])
    k = data.draw(vectors(len(basis)))
    member = [sum(x * row[j] for x, row in zip(k, basis))
              for j in range(cols)]
    assert hnf_coords(basis, member) == k == solve_int_left(basis, member)
    other = data.draw(vectors(cols))
    for v in (other, [x + y for x, y in zip(member, other)],
              [3 * x for x in other]):
        assert hnf_coords(basis, v) == solve_int_left(basis, v)
    assert lattice_leq(m, basis) and lattice_leq(basis, m)


def test_hnf_coords_rejects_non_echelon_basis():
    with pytest.raises(ValueError):
        hnf_coords([[0, 1], [1, 0]], [1, 1])
    with pytest.raises(ValueError):
        hnf_coords([[1, 0], [0, 0]], [1, 0])
    assert hnf_coords([], [0, 0]) == []
    assert hnf_coords([], [0, 1]) is None


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices, low_rank))
def test_rational_rank_matches_integer_rank(m):
    assert rank_rat([[Fraction(x) for x in row] for row in m]) == rank_int(m)


@st.composite
def row_families(draw):
    """The rows of a matrix from ``matrices`` or ``low_rank``, cut into
    consecutive families; repeated cuts give empty families."""
    m = draw(st.one_of(matrices, low_rank))
    cuts = sorted(draw(st.lists(st.integers(0, len(m)), max_size=3)))
    bounds = [0, *cuts, len(m)]
    return [m[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@settings(max_examples=200, deadline=None)
@given(row_families())
@example([[[1, 2]], [[2, 4]]])
@example([[[1, 0]], [], [[0, 1]]])
def test_sums_directly_matches_rational_ranks(families):
    def rank(rows):
        return rank_rat([[Fraction(x) for x in row] for row in rows])

    stacked = [row for f in families for row in f]
    assert sums_directly(families) == (
        rank(stacked) == sum(map(rank, families)))


def test_rref_pivots_and_kernel_rat():
    m = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(6)]]
    red, piv = rref(m)
    assert piv == [0]
    ker = kernel_basis_rat(m)
    assert len(ker) == 2
    for v in ker:
        assert sum(a * b for a, b in zip(m[0], v)) == 0


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices, low_rank))
def test_fraction_free_rref_scales_to_rref(m):
    red, piv = rref_ff(m)
    want, want_piv = rref([[Fraction(x) for x in row] for row in m])
    assert piv == want_piv
    assert all(row[c] > 0 for row, c in zip(red, piv))
    assert [[Fraction(x, row[c]) for x in row]
            for row, c in zip(red, piv)] == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices, low_rank))
def test_fraction_free_kernel_is_one_positive_multiple(m):
    ker = kernel_basis_ff(m)
    ref = kernel_basis_rat([[Fraction(x) for x in row] for row in m])
    assert len(ker) == len(ref)
    scales = set()
    for row, ref_row in zip(ker, ref):
        assert all(isinstance(x, int) for x in row)
        # the free coordinate of a rational kernel row is 1
        free = ref_row.index(1)
        scale = row[free]
        assert scale > 0
        assert [Fraction(x, scale) for x in row] == ref_row
        scales.add(scale)
    assert len(scales) <= 1


def test_fraction_free_edge_shapes():
    assert rref_ff([]) == ([], [])
    assert kernel_basis_ff([]) == []
    assert rank_int([[0, 0], [0, 0]]) == 0
    assert kernel_basis_ff([[0, 0]]) == [[1, 0], [0, 1]]
    assert rref_ff([[-2, -4], [3, 6]]) == ([[1, 2]], [0])


@st.composite
def square_matrices(draw):
    """n x n products of an n x k and a k x n matrix, k <= n <= 6 (so
    every rank occurs), with some rows zeroed and some negated, so that
    pivots are missing, zero or negative at any step."""
    n = draw(st.integers(0, 6))
    k = draw(st.integers(0, n))
    entries = st.integers(-9, 9)
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                      min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                      min_size=k, max_size=k))
    m = mat_mul(a, b) if k else [[0] * n for _ in range(n)]
    signs = draw(st.lists(st.sampled_from([1, -1, 0]), min_size=n,
                          max_size=n))
    return [[s * x for x in row] for s, row in zip(signs, m)]


def leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


@settings(max_examples=300, deadline=None)
@given(st.one_of(square_matrices(),
                 st.integers(1, 4).flatmap(lambda n: st.lists(
                     st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                     min_size=n, max_size=n))))
def test_bareiss_kernel_is_the_fraction_free_kernel(m):
    kernel = Echelon(m).kernel_basis()
    assert kernel == kernel_basis_ff(m)
    assert det(m) == leibniz_det(m)
    assert (kernel == []) == (det(m) != 0)


@pytest.mark.parametrize("m,want", [
    ([], []),
    ([[0]], [[1]]),
    ([[-3]], []),
    ([[0, 0], [0, 0]], [[1, 0], [0, 1]]),
    # a zero first column, then a negative pivot
    ([[0, -2], [0, 4]], [[1, 0]]),
    ([[-2, 1], [4, -2]], [[1, 2]]),
    # the first pivot position is zero, the swap brings up a negative one
    ([[0, 1, 1], [-2, 0, 3], [-4, 1, 7]], [[3, -2, 2]]),
    ([[0, 0, 0], [0, 0, 0], [1, 2, 3]], [[-2, 1, 0], [-3, 0, 1]]),
])
def test_bareiss_kernel_edge_cases(m, want):
    assert Echelon(m).kernel_basis() == want == kernel_basis_ff(m)


def test_subspace_contains_over_cleared_denominators():
    # the line through (1/2, 0, 1/3), given by its cleared row (3, 0, 2)
    s = RationalSubspace.from_rows(3, [[3, 0, 2]])
    assert s.contains([3, 0, 2])
    assert s.contains([-6, 0, -4])
    assert not s.contains([3, 1, 2])
    assert not s.contains([3, 0, 1])
    assert RationalSubspace.from_rows(3, []).contains([0, 0, 0])
    assert not RationalSubspace.from_rows(3, []).contains([0, 0, 1])


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices, low_rank))
def test_subspace_rows_over_pivots_are_rref(m):
    sub = RationalSubspace.from_rows(len(m[0]), m)
    want, want_piv = rref([[Fraction(x) for x in row] for row in m])
    assert list(sub.pivots) == want_piv
    assert rational_basis(sub) == want
    for row, c in zip(sub.basis, sub.pivots):
        assert row[c] > 0 and gcd(*row) == 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices, low_rank), st.data())
def test_subspace_contains_matches_rank(m, data):
    sub = RationalSubspace.from_rows(len(m[0]), m)
    v = data.draw(vectors(len(m[0])))
    k = data.draw(vectors(len(m)))
    member = [sum(x * row[j] for x, row in zip(k, m))
              for j in range(len(m[0]))]
    assert sub.contains(member)
    assert sub.contains(v) == (rank_int(m + [v]) == rank_int(m))
    # the remainders of a family add to the subspace exactly the
    # dimension that the family adds
    family = [v, member, [a + b for a, b in zip(v, member)]]
    rest = [sub.reduce(w) for w in family]
    assert all(w[c] == 0 for w in rest for c in sub.pivots)
    assert rank_int(rest) == rank_int(m + family) - sub.dim


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices, low_rank))
def test_hnf_basis_is_nonzero_rows_of_hnf(m):
    h, _ = hnf(m)
    assert hnf_basis(m) == [row for row in h if any(row)]
