"""Exact integer linear algebra.

Everything here works with arbitrary-precision Python ints; there is
deliberately no floating-point path.  Ranks, kernels and reduced
row-echelon bases over Q come from fraction-free elimination
(``rref_ff``), whose rows are the rational ones times one positive
integer each, and subspaces of Q^n (``RationalSubspace``) are held as
those integer rows.  Determinants, Hessian coranks and kernels and
the tangency samples come from one forward Bareiss pass (``_bareiss``),
shared by ``det`` and ``Echelon``; a kernel back-substituted from it
has the rows of ``kernel_basis_ff``.  Lattices are handled by the Hermite
normal form alone: kernels, saturation, coordinates (``hnf_coords``),
and the image and rank of a map, both read off one HNF of its columns.
The Smith normal form (``snf``) and its solver ``solve_int``, like
the one rational routine, ``rref`` over ``fractions.Fraction``, are
the definitions the pipeline is checked against; nothing in the
pipeline calls them.  Matrices are plain lists of lists in row-major
order, and all lattice maps act on row vectors (u * m = h convention
for normal forms).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

IntMat = list[list[int]]
RatMat = list[list[Fraction]]


class DimensionError(ValueError):
    """Shapes of matrices, vectors, maps or fibers do not fit together."""


def identity(n: int) -> IntMat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Matrix product; works for int and Fraction entries."""
    if not a:
        return []
    inner = len(b)
    cols = len(b[0]) if b else 0
    if len(a[0]) != inner:
        raise DimensionError(f"cannot multiply {len(a[0])} columns by "
                             f"{inner} rows")
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for row in a
    ]


def mat_vec(m, v):
    """m * v for a column vector v."""
    return [sum(map(mul, row, v)) for row in m]


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def copy_mat(m):
    return [list(row) for row in m]


def _bareiss(m: IntMat) -> tuple[IntMat, list[int], int]:
    """Forward fraction-free (Bareiss) elimination to row echelon form.

    Returns (rows, pivot columns, sign): row i of the copy has its
    first nonzero entry in pivot column i, the rows past the rank are
    zero, and sign is the parity of the row swaps.  Every entry is a
    minor of the row-swapped m, so each division is exact; the last
    pivot is the minor on the pivot rows and columns, and for a
    nonsingular square m it is sign * det m.  A column without a pivot
    is skipped, so the pivot columns are those of ``rref_ff``.
    """
    a = copy_mat(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    piv_cols = []
    sign = 1
    prev = 1
    k = 0
    for c in range(cols):
        if k == rows:
            break
        if a[k][c] == 0:
            for i in range(k + 1, rows):
                if a[i][c] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                continue
        prow = a[k]
        p = prow[c]
        for i in range(k + 1, rows):
            row = a[i]
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (row[j] * p - f * prow[j]) // prev
            row[c] = 0
        prev = p
        piv_cols.append(c)
        k += 1
    return a, piv_cols, sign


def det(m: IntMat) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    a, piv, sign = _bareiss(m)
    return sign * a[n - 1][n - 1] if len(piv) == n else 0


class Echelon:
    """The kernel of an integer matrix m, read off one forward Bareiss
    pass (``_bareiss``).

    ``len`` is the kernel's dimension, the number of ``free`` columns;
    the pass alone decides it.  A kernel vector is back-substituted
    from the echelon rows on demand: its free coordinates are ``scale``
    times weights, and by Cramer's rule every pivot coordinate is then
    an integer, so each division is exact.
    """

    def __init__(self, m: IntMat):
        self.rows, self.piv, _ = _bareiss(m)
        self.width = len(m[0]) if m else 0
        self.free = tuple(itertools.filterfalse(set(self.piv).__contains__,
                                                range(self.width)))
        # d, the absolute last pivot: the minor on the pivot rows and
        # columns, up to sign
        self.scale = abs(self.rows[len(self.piv) - 1][self.piv[-1]]
                         if self.piv else 1)

    def __len__(self) -> int:
        return len(self.free)

    def _solve(self, vec: list[int]) -> list[int]:
        """Set the pivot coordinates of vec, 0 on entry, so that
        m * vec = 0: bottom up, row i is 0 before its pivot c and vec
        is still 0 at c, so the whole row times vec fixes vec[c]."""
        rank = len(self.piv)
        for c, row in zip(reversed(self.piv), reversed(self.rows[:rank])):
            s = -sum(map(mul, row, vec))
            q, r = divmod(s, row[c])
            if r:
                raise ArithmeticError(
                    f"back-substitution divides {s} by {row[c]}")
            vec[c] = q
        return vec

    def combine(self, weights) -> tuple[int, ...]:
        """The kernel vector with ``scale * weights[k]`` at the k-th free
        column over its content: the primitive positive multiple of the
        rational kernel vector with free coordinates ``weights``."""
        d = self.scale
        vec = [0] * self.width
        for f, w in zip(self.free, weights):
            vec[f] = d * w
        vec = self._solve(vec)
        g = gcd(*vec)
        return tuple([x // g for x in vec])

    def kernel_basis(self) -> IntMat:
        """The rows of ``kernel_basis_ff(m)``: those with one free
        coordinate ``scale`` are that many times the rational basis, and
        over the gcd of all their entries its least integral multiple."""
        if not len(self):
            return []
        basis = []
        for f in self.free:
            vec = [0] * self.width
            vec[f] = self.scale
            basis.append(self._solve(vec))
        g = gcd(*(x for vec in basis for x in vec))
        return [[x // g for x in vec] for vec in basis]


def rref_ff(m: IntMat) -> tuple[IntMat, list[int]]:
    """Fraction-free reduced row-echelon form of an integer matrix.

    Gauss-Jordan elimination by integer cross-multiplication, dividing
    every changed row by its content so entries stay small.  Returns
    (rows, pivot columns): row i is primitive, has a positive entry in
    pivot column i and zeros in the other pivot columns, so dividing it
    by that entry gives row i of ``rref``.
    """
    cols = len(m[0]) if m else 0
    a = [list(row) for row in m if any(row)]
    rows = len(a)
    piv_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = None
        for i in range(r, rows):
            if a[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        prow = a[r]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow = a[r] = [x // g for x in prow]
        p = prow[c]
        for i in range(rows):
            f = a[i][c]
            if f and i != r:
                g = gcd(p, f)
                pp, ff = p // g, f // g
                row = [pp * x - ff * y for x, y in zip(a[i], prow)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        piv_cols.append(c)
        r += 1
    return a[:r], piv_cols


def rank_int(m: IntMat) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    return len(rref_ff(m)[1])


def sums_directly(families) -> bool:
    """Whether the row spans of the families sum directly over Q: the
    rank of all their rows together is the sum of their ranks."""
    families = [list(f) for f in families]
    return (rank_int([row for f in families for row in f])
            == sum(map(rank_int, families)))


def kernel_basis_ff(m: IntMat) -> IntMat:
    """Integer basis of {x : m * x^T = 0}.

    Row i is L times row i of the rational kernel basis read off
    ``rref`` (free coordinate 1, the others minus the reduced entries),
    with L > 0 the lcm of the pivots of ``rref_ff``; one common factor
    for all rows, so every combination of the rows is L times the same
    combination of the rational basis.
    """
    cols = len(m[0]) if m else 0
    red, piv = rref_ff(m)
    scale = lcm(*(row[c] for row, c in zip(red, piv)))
    pivots = set(piv)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        vec = [0] * cols
        vec[f] = scale
        for row, c in zip(red, piv):
            vec[c] = -row[f] * (scale // row[c])
        basis.append(vec)
    return basis


def _hermite(m: IntMat, u: IntMat | None) -> IntMat:
    """Row-style Hermite normal form of m (m itself is left unchanged).

    Every row operation is repeated on the rows of u, in place, unless u
    is None, so the one elimination serves both ``hnf`` and
    ``hnf_basis``.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = copy_mat(m)
    piv_row = 0
    pivots = []
    for col in range(cols):
        # find a nonzero entry at or below piv_row
        pivot = None
        for i in range(piv_row, rows):
            if h[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != piv_row:
            h[piv_row], h[pivot] = h[pivot], h[piv_row]
            if u is not None:
                u[piv_row], u[pivot] = u[pivot], u[piv_row]
        # clear entries below with extended-gcd row operations
        for i in range(piv_row + 1, rows):
            while h[i][col] != 0:
                q = h[piv_row][col] // h[i][col]
                h[piv_row] = [x - q * y for x, y in zip(h[piv_row], h[i])]
                h[piv_row], h[i] = h[i], h[piv_row]
                if u is not None:
                    u[piv_row] = [x - q * y for x, y in zip(u[piv_row], u[i])]
                    u[piv_row], u[i] = u[i], u[piv_row]
        if h[piv_row][col] < 0:
            h[piv_row] = [-x for x in h[piv_row]]
            if u is not None:
                u[piv_row] = [-x for x in u[piv_row]]
        pivots.append((piv_row, col))
        piv_row += 1
    # reduce entries above each pivot into [0, pivot)
    for r, c in pivots:
        p = h[r][c]
        for i in range(r):
            q = h[i][c] // p
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                if u is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
    return h


def hnf(m: IntMat) -> tuple[IntMat, IntMat]:
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular and u * m = h, where h is in
    staircase form with positive pivots and entries above each pivot
    reduced into [0, pivot).
    """
    u = identity(len(m))
    return _hermite(m, u), u


def hnf_basis(m: IntMat) -> IntMat:
    """Nonzero rows of the HNF: a canonical basis of the row lattice.

    The same elimination as ``hnf``, without the transform.
    """
    return [row for row in _hermite(m, None) if any(row)]


def snf(m: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form.

    Returns (s, u, v) with u, v unimodular, u * m * v = s diagonal,
    nonnegative diagonal entries and d1 | d2 | ... .
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    s = copy_mat(m)
    u = identity(rows)
    v = identity(cols)

    def row_op(i, k, q):  # row i -= q * row k
        for j in range(cols):
            s[i][j] -= q * s[k][j]
        for j in range(rows):
            u[i][j] -= q * u[k][j]

    def col_op(j, k, q):  # col j -= q * col k
        for i in range(rows):
            s[i][j] -= q * s[i][k]
        for i in range(cols):
            v[i][j] -= q * v[i][k]

    def swap_rows(i, k):
        s[i], s[k] = s[k], s[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for i in range(rows):
            s[i][j], s[i][k] = s[i][k], s[i][j]
        for i in range(cols):
            v[i][j], v[i][k] = v[i][k], v[i][j]

    t = 0
    while t < min(rows, cols):
        # move a nonzero entry of the remaining block to (t, t)
        pr = pc = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] != 0:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        if pr != t:
            swap_rows(t, pr)
        if pc != t:
            swap_cols(t, pc)
        while True:
            # shrink the pivot (by strict |.| descent) until it divides
            # everything in its row and column, then clear exactly
            improved = True
            while improved:
                improved = False
                for i in range(t + 1, rows):
                    if s[i][t] % s[t][t] != 0:
                        row_op(i, t, s[i][t] // s[t][t])
                        swap_rows(i, t)
                        improved = True
                        break
                if improved:
                    continue
                for j in range(t + 1, cols):
                    if s[t][j] % s[t][t] != 0:
                        col_op(j, t, s[t][j] // s[t][t])
                        swap_cols(j, t)
                        improved = True
                        break
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    row_op(i, t, s[i][t] // s[t][t])
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    col_op(j, t, s[t][j] // s[t][t])
            # enforce d_t | remaining block, re-shrinking if needed
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if s[i][j] % s[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)  # pull the offending row into row t
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return s, u, v


def kernel_basis_int(m: IntMat) -> IntMat:
    """Basis of the saturated integer kernel {x : m * x^T = 0}.

    The returned rows are rows of a unimodular matrix, so they form a
    basis of a saturated sublattice of Z^cols and extend to a basis of
    the full lattice.
    """
    # x * m^T = 0  <=>  rows of u mapping m^T to zero rows of its HNF
    h, u = hnf(transpose(m))
    return [u[i] for i in range(len(h)) if not any(h[i])]


def saturate(gens: IntMat) -> IntMat:
    """HNF basis of span_Q(gens) intersected with Z^cols.

    The double integer kernel of the generator matrix is exactly the
    saturation of the row lattice.
    """
    cols = len(gens[0]) if gens else 0
    ann = kernel_basis_int(gens)
    if not ann:
        return identity(cols)
    return hnf_basis(kernel_basis_int(ann))


def solve_int(m: IntMat, b: list[int]) -> list[int] | None:
    """Solve m * x = b over the integers by one Smith normal form; None
    if there is no solution."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if len(b) != rows:
        raise ValueError(f"right-hand side length differs from {rows} rows")
    s, u, v = snf(m)
    y = [0] * cols
    for i, c in enumerate(mat_vec(u, b)):
        d = s[i][i] if i < cols else 0
        if d:
            y[i], rem = divmod(c, d)
            if rem:
                return None
        elif c:
            return None
    return mat_vec(v, y)


def hnf_coords(basis: IntMat, v) -> list[int] | None:
    """The x with x * basis = v over the integers, or None.

    basis must be in row echelon form with independent rows, as
    ``hnf_basis`` returns it, so there is at most one solution; it is
    found by forward substitution with exact division, without a
    normal form.
    """
    rest = list(v)
    coords = []
    last = -1
    for row in basis:
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None or piv <= last:
            raise ValueError("basis is not in row echelon form")
        last = piv
        q, rem = divmod(rest[piv], row[piv])
        if rem:
            return None
        if q:
            rest = [x - q * y for x, y in zip(rest, row)]
        coords.append(q)
    return None if any(rest) else coords


# --- rational row reduction ------------------------------------------------


def rref(m: RatMat) -> tuple[RatMat, list[int]]:
    """Reduced row-echelon form over Q; returns (rref, pivot columns).

    The rational definition that ``rref_ff`` and ``RationalSubspace``
    are scaled versions of; the pipeline itself never calls it.
    """
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    piv_cols = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
    return [row for row in a[:r]], piv_cols


@dataclass(frozen=True)
class RationalSubspace:
    """A subspace of Q^n spanned by integer rows.

    ``basis`` holds the rows of ``rref_ff`` of the spanning rows and
    ``pivots`` their pivot columns: row i is primitive with a positive
    entry in column pivots[i] and zeros in the other pivot columns, so
    it is row i of the reduced row-echelon basis times that entry.  The
    representation is canonical, and equal subspaces compare equal.
    """

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @classmethod
    def from_rows(cls, ambient_dim: int, rows) -> "RationalSubspace":
        red, piv = rref_ff([list(row) for row in rows])
        return cls(ambient_dim, tuple(tuple(r) for r in red), tuple(piv))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v) -> list[int]:
        """A nonzero multiple of the integer vector v modulo the subspace.

        Clears v at each pivot column by cross-multiplication with the
        row of that pivot, which leaves the other pivot columns of v
        scaled but otherwise unchanged.  The remainder is zero at every
        pivot column, and v lies in the subspace exactly when it is
        zero.
        """
        v = list(v)
        for row, c in zip(self.basis, self.pivots):
            f = v[c]
            if f:
                p = row[c]
                v = [p * x - f * y for x, y in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        """Whether the integer vector v lies in the subspace."""
        return not any(self.reduce(v))
