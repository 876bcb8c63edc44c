import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from dualdefect.alpha import AlphaProblem, check_star, vprime
from dualdefect.config import (
    GroupHom,
    PointConfig,
    difference_lattice,
    group_indices,
)
from dualdefect.cayley import cayley_sum, decompose_along
from dualdefect.exact_linalg import (
    RationalSubspace,
    hnf_basis,
    hnf_coords,
    identity,
    mat_mul,
    mat_vec,
    rank_int,
    rref,
    saturate,
    snf,
    solve_int,
    transpose,
)
from dualdefect.structure import _factor_through, _quotient_map
from dualdefect.tangency import (
    DEFAULT_BOUND,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    sample_combination,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def unit_vector(i, n):
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def random_unimodular(rng: random.Random, n: int):
    """Product of random elementary row operations on the identity."""
    u = identity(n)
    for _ in range(4 * n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                u[i][k] += c * u[j][k]
    return u


def segre_product(a: int, b: int) -> PointConfig:
    """Vertex set of the Segre embedding of P^a x P^b."""
    pts = []
    for i in range(a + 1):
        for j in range(b + 1):
            left = [0] * a
            right = [0] * b
            if i:
                left[i - 1] = 1
            if j:
                right[j - 1] = 1
            pts.append(tuple(left + right))
    return PointConfig.make(pts)


@pytest.fixture
def segre_square():
    return PointConfig.make([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture
def ex5_7():
    f0 = PointConfig.make([(0, 0), (1, 0), (2, 0)])
    f1 = PointConfig.make([(0, 0), (0, 1), (0, 2)])
    f2 = PointConfig.make([(0, 0), (1, 0), (0, 1), (1, 1)])
    return cayley_sum([f0, f1, f2, f2])


EX58_U = (-1, 2, 0, 0, -2, 1)
EX58_V = (0, 0, -1, 2, -2, 1)


@pytest.fixture
def ex5_8():
    pts = [(0,) * 6] + [unit_vector(i, 6) for i in range(1, 7)]
    pts += [EX58_U, EX58_V]
    return PointConfig.make(pts)


def unit_simplex(n: int) -> PointConfig:
    pts = [(0,) * n] + [unit_vector(i, n) for i in range(1, n + 1)]
    return PointConfig.make(pts)


def fraction_sample(rng: random.Random, basis, bound: int):
    """Reference: the rational sampler the integer one replaced."""
    npts = len(basis[0])
    while True:
        weights = [rng.randint(-bound, bound) for _ in basis]
        if any(weights):
            break
    out = [Fraction(0)] * npts
    for w, row in zip(weights, basis):
        if w:
            for i, x in enumerate(row):
                out[i] += w * x
    return tuple(out)


def common_multiple(ints, fracs):
    """The one positive factor L with ints == L * fracs, or None."""
    nz = [(x, y) for x, y in zip(ints, fracs) if y]
    if not nz or any(x for x, y in zip(ints, fracs) if not y):
        return None
    scale = Fraction(nz[0][0]) / nz[0][1]
    if scale <= 0 or scale.denominator != 1:
        return None
    ok = all(Fraction(x) == scale * y for x, y in nz)
    return scale if ok else None


def escalation_loop(basis, seed: int, bound: int, trials: int, taken):
    """Reference: the hand-written loop that tangency.sample_rounds replaced.

    Round k draws taken[k] of its `trials` samples (a round left early
    draws no more), then the bound doubles; returns each round's samples.
    """
    rng = random.Random(seed)
    rounds = []
    for stop in taken:
        drawn = []
        for _ in range(trials):
            drawn.append(sample_combination(rng, basis, bound))
            if len(drawn) == stop:
                break
        rounds.append(drawn)
        bound *= 2
    return rounds


def solve_int_left(m, b):
    """Reference: x * m = b over Z by an SNF solve of the transpose, the
    general solver that the HNF substitution ``hnf_coords`` replaced."""
    if not m:
        return None if any(b) else []
    return solve_int(transpose(m), b)


def is_surjective_snf(m):
    """Reference: whether v -> m * v maps Z^cols onto Z^rows, read off
    the Smith normal form (every diagonal factor 1), as decided before
    the HNF test of the columns replaced it."""
    rows = len(m)
    if rows == 0:
        return True
    s, _, _ = snf(m)
    cols = len(m[0])
    return all(i < cols and s[i][i] == 1 for i in range(rows))


def factor_through_snf(pi_mat, pi1):
    """Reference: the map pi2 with pi2 * pi1 = pi, or None, by lifting
    the standard basis of the codomain of pi1 through pi1 with one SNF
    solve each, as ``structure._factor_through`` did before it read the
    coordinates in the HNF of pi1."""
    m1 = pi1.matrix_rows
    k = pi1.codomain_rank
    lifts = [solve_int(m1, e) for e in identity(k)]
    if any(lift is None for lift in lifts):
        return None
    pi2 = GroupHom.make(mat_mul(pi_mat, transpose(lifts)) if k else [],
                        None, k)
    if mat_mul(pi2.matrix_rows, m1) != pi_mat:
        return None
    return pi2


def restrict_to_kernel_via_pi2(pi1, ker_pi, pi2):
    """Reference: the map p = pi1 restricted to ker pi, in the bases
    ``ker_pi`` and the kernel lattice of pi2, as ``_restrict_to_kernel``
    computed it before it read ker pi2 off pi1(ker pi); None when pi1
    does not map ker pi into ker pi2."""
    ker_pi2 = pi2.kernel_lattice()
    cols = [hnf_coords(ker_pi2, pi1.apply(b)) for b in ker_pi]
    if any(col is None for col in cols):
        return None
    return GroupHom.make(transpose(cols), None, len(ker_pi))


def join_type_wrt_recompute(a, pi1, pi2):
    """Reference: join type w.r.t. (pi1, pi2) as it was computed before
    callers passed their Cayley structure, decomposing a along pi2 o pi1
    afresh."""
    struct = decompose_along(a, pi2.compose(pi1))
    total = 0
    stacked = []
    for part in struct.parts:
        base_pt = mat_vec(pi1.matrix, a.points[part[0]])
        rows = [
            [x - y for x, y in zip(mat_vec(pi1.matrix, a.points[i]),
                                   base_pt)]
            for i in part[1:]
        ]
        basis = hnf_basis(rows)
        total += len(basis)
        stacked.extend(basis)
    if not stacked:
        return True
    return rank_int(stacked) == total


def components_contained(ap, span):
    """Reference: whether every component of every K basis element of
    the alpha problem lies in the span, as ``vprime`` checked before it
    read this off the direct sum modulo the span."""
    return all(span.contains(c)
               for k_row in ap.k_basis for c in ap.components(k_row))


def part_difference_space(a, part):
    """Reference: the span of the differences of a part's points from
    its first, in Z^n, a summand of the structure's alpha problem as
    analyze built it before it wrote the problem down in the affine
    frame."""
    base = a.points[part[0]]
    rows = [[x - y for x, y in zip(a.points[i], base)]
            for i in part[1:]]
    return RationalSubspace.from_rows(a.dim, rows)


def part_alpha_problem(a, parts, seed=DEFAULT_SEED, bound=DEFAULT_BOUND,
                       trials=DEFAULT_TRIALS):
    """Reference: the alpha problem of the part difference spaces, built
    by ``AlphaProblem.make`` and never through the affine frame."""
    return AlphaProblem.make([part_difference_space(a, part)
                              for part in parts], seed, bound, trials)


def minimal_quotient(a, struct, ap, c):
    """Reference: the factorization pi = pi2 o pi1 of a structure with
    ker pi1 the V' of its alpha problem ``ap`` in Z^n, c = alpha(ap), as
    (pi1, pi2); None when the removal condition fails on the sample or
    pi does not factor through the quotient by V'."""
    if not check_star(ap):
        return None
    pi1 = _quotient_map(saturate(vprime(ap, c).basis), a.dim)
    pi2 = _factor_through(struct.pi.matrix_rows, pi1)
    return None if pi2 is None else (pi1, pi2)


def grouping_per_point(a, kernel):
    """Reference: the points grouped by the tuple of their values on the
    kernel vectors, one point at a time, as ``_grouping_from_kernel`` did
    before it evaluated each vector over all points."""
    return group_indices(tuple(sum(x * y for x, y in zip(u, v))
                               for v in kernel)
                         for u in a.points)


def removal_condition_pairwise(comps):
    """Reference: the rank of the components and the removal condition
    as ``check_star`` decided it per sample before the dependency kernel,
    with one ``rank_int`` for each pair of components left out."""
    full = rank_int(comps)
    for i, j in itertools.combinations(range(len(comps)), 2):
        rest = [c for k, c in enumerate(comps) if k not in (i, j)]
        if rank_int(rest) != full:
            return full, False
    return full, True


def lattice_eq(a, b):
    """Whether the row lattices of a and b are equal."""
    return hnf_basis(a) == hnf_basis(b)


def lattice_leq(a, b):
    """Whether the row lattice of a is contained in that of b."""
    basis = hnf_basis(b)
    return all(hnf_coords(basis, row) is not None for row in a)


def rank_rat(m):
    """Reference: rank over Q by ``rref``."""
    return len(rref(m)[0])


def kernel_basis_rat(m):
    """Reference: basis of {x : m * x^T = 0} over Q read off ``rref``;
    each row has a 1 in its free coordinate."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [[Fraction(1 if i == j else 0) for j in range(cols)]
                for i in range(cols)]
    red, piv = rref(m)
    basis = []
    for f in (c for c in range(cols) if c not in piv):
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for i, c in enumerate(piv):
            vec[c] = -red[i][f]
        basis.append(vec)
    return basis


def clear_denominators(m):
    """Reference: each rational row scaled to a primitive integer vector
    with the same span (zero rows stay zero)."""
    out = []
    for row in m:
        if not any(row):
            out.append([0] * len(row))
            continue
        denom = lcm(*(Fraction(x).denominator for x in row))
        ints = [int(Fraction(x) * denom) for x in row]
        g = gcd(*ints)
        out.append([x // g for x in ints])
    return out


def rational_basis(sub):
    """The reduced row-echelon basis of a ``RationalSubspace`` over Q:
    each integer row divided by its pivot entry."""
    return [[Fraction(x, row[c]) for x in row]
            for row, c in zip(sub.basis, sub.pivots)]


def normalize_general(a):
    """Reference: ``normalize`` without its shortcut for a configuration
    whose difference lattice is already the identity."""
    basis = difference_lattice(a)
    m = len(basis)
    base = list(a.points[0])
    if hnf_coords(basis, base) is not None:
        base = [0] * a.dim
    coords = [tuple(hnf_coords(basis, [x - y for x, y in zip(p, base)]))
              for p in a.points]
    b = PointConfig(m, tuple(sorted(coords)), a.name)
    matrix = transpose(basis) if basis else [[] for _ in range(a.dim)]
    translation = tuple(base) if any(base) else None
    return b, GroupHom.make(matrix, translation, m)
