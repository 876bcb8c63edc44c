"""Seeded input generators for the benchmark workloads.

Everything here is independent of the package under test: the Segre
products, Cayley join-type sums and random nondefective configurations
are built from plain integer tuples, so a change to the package's own
corpus generator cannot change a workload.  The same seed always gives
the same inputs.

The generators return ``Input`` records: a name, the point list, and
the dual defect the configuration is known to have.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

Point = tuple[int, ...]


@dataclass(frozen=True)
class Input:
    name: str
    points: tuple[Point, ...]
    delta: int


# The three fixture configurations, copied so that editing fixtures/
# cannot change a workload.  Their defects are stated in the paper.
EX5_7 = (
    (0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0),
    (0, 1, 0, 0, 1), (0, 1, 0, 1, 0), (0, 1, 1, 0, 0), (0, 2, 1, 0, 0),
    (1, 0, 0, 0, 0), (1, 0, 0, 0, 1), (1, 0, 0, 1, 0), (1, 1, 0, 0, 1),
    (1, 1, 0, 1, 0), (2, 0, 0, 0, 0),
)
EX5_8 = (
    (-1, 2, 0, 0, -2, 1), (0, 0, -1, 2, -2, 1), (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0),
    (0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0),
)
P1XP2 = (
    (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0),
)
FIXTURES = {
    "ex5_7": Input("ex5_7", EX5_7, 1),
    "ex5_8": Input("ex5_8", EX5_8, 1),
    "p1xp2": Input("p1xp2", P1XP2, 1),
}

# Cayley factor shapes: two segments and two polygons.
FACTOR_SHAPES = (
    ((0,), (1,), (2,)),
    ((0,), (1,), (2,), (3,)),
    ((0, 0), (1, 0), (0, 1), (1, 1)),
    ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)),
)


def segre_product(a: int, b: int) -> Input:
    """Vertices of the Segre embedding of P^a x P^b; delta = |a - b|."""
    pts = []
    for i in range(a + 1):
        for j in range(b + 1):
            left, right = [0] * a, [0] * b
            if i:
                left[i - 1] = 1
            if j:
                right[j - 1] = 1
            pts.append(tuple(left + right))
    return Input(f"segre_{a}_{b}", tuple(pts), abs(a - b))


def segre_corpus() -> list[Input]:
    """Every segre_product(a, b) with 1 <= a < b, a + b <= 10 and at
    most 35 points."""
    return [segre_product(a, b)
            for a in range(1, 10)
            for b in range(a + 1, 11 - a)
            if (a + 1) * (b + 1) <= 35]


def join_type(factors, name: str) -> Input:
    """Cayley sum of factors placed in complementary coordinates.

    The factors sum directly, so the sum is of join type and its dual
    defect is r = len(factors) - 1.
    """
    r = len(factors) - 1
    m = sum(len(f[0]) for f in factors)
    pts = []
    off = 0
    for i, f in enumerate(factors):
        d = len(f[0])
        tail = tuple(1 if j == i - 1 else 0 for j in range(r))
        for p in f:
            pts.append((0,) * off + p + (0,) * (m - off - d) + tail)
        off += d
    return Input(name, tuple(pts), r)


def join_corpus(seed: int, count: int) -> list[Input]:
    """count join-type sums; r alternates 1, 2 and factors are drawn."""
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        r = 1 + idx % 2
        factors = [rng.choice(FACTOR_SHAPES) for _ in range(r + 1)]
        out.append(join_type(factors, f"join_{idx:03d}"))
    return out


def small_join_corpus() -> list[Input]:
    """One join-type sum for each factor multiset with at most 9 points."""
    out = []
    for r in (1, 2):
        for combo in itertools.combinations_with_replacement(
                range(len(FACTOR_SHAPES)), r + 1):
            factors = [FACTOR_SHAPES[i] for i in combo]
            if sum(len(f) for f in factors) <= 9:
                tag = "".join(map(str, combo))
                out.append(join_type(factors, f"join_{tag}"))
    return out


def translated(inputs, seed: int) -> list[Input]:
    """Each input moved by a seeded vector in [-2, 2]^n.

    A translation changes neither the dual defect nor the point
    differences that the exhaustive enumeration solves for, so every
    seed gives the same enumeration work.
    """
    rng = random.Random(seed)
    out = []
    for inp in inputs:
        t = [rng.randint(-2, 2) for _ in inp.points[0]]
        pts = tuple(tuple(x + y for x, y in zip(p, t)) for p in inp.points)
        out.append(Input(inp.name, pts, inp.delta))
    return out


# --- random configurations with dual defect zero ---------------------------

_P = (1 << 61) - 1  # prime modulus for the nondefectiveness test


def _rref_mod_p(rows, cols: int):
    """Reduced row echelon form over GF(p); returns (rows, pivot cols)."""
    a = [[x % _P for x in row] for row in rows]
    piv_cols = []
    for c in range(cols):
        r = len(piv_cols)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], _P - 2, _P)
        a[r] = [x * inv % _P for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % _P for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
    return a, piv_cols


def _kernel_mod_p(rows, cols: int):
    """Basis of {x : rows * x = 0} over GF(p)."""
    a, piv_cols = _rref_mod_p(rows, cols)
    basis = []
    for free in (c for c in range(cols) if c not in piv_cols):
        vec = [0] * cols
        vec[free] = 1
        for i, c in enumerate(piv_cols):
            vec[c] = -a[i][free] % _P
        basis.append(vec)
    return basis


def certainly_nondefective(points, rng: random.Random) -> bool:
    """A one-sided proof that the dual defect is 0 and the dual nonempty.

    If the affine relation matrix has full rank n + 1 mod p, every
    tangency vector over GF(p) lifts to an integer one, and a Hessian
    of full rank n mod p has full rank over Q.  So a True answer is
    certain; False means only that this sample did not prove it.
    """
    n = len(points[0])
    npts = len(points)
    if npts < n + 2:
        return False  # affinely independent points have an empty dual
    rel = [[1] * npts] + [[p[j] for p in points] for j in range(n)]
    if len(_rref_mod_p(rel, npts)[1]) != n + 1:
        return False
    basis = _kernel_mod_p(rel, npts)
    weights = [rng.randrange(1, _P) for _ in basis]
    coeffs = [sum(w * v[i] for w, v in zip(weights, basis)) % _P
              for i in range(npts)]
    h = [[sum(c * u[i] * u[j] for c, u in zip(coeffs, points))
          for j in range(n)] for i in range(n)]
    return len(_rref_mod_p(h, n)[1]) == n


def nondefective_corpus(seed: int) -> list[Input]:
    """Five rounds over the shapes: dim n in 4..8 and k in 9..14 points
    with k >= n + 2, so the dual is nonempty.  Each input is a fresh
    random point set in [-2, 2]^n that certainly_nondefective accepts.
    """
    rng = random.Random(seed)
    out = []
    shapes = [(n, k) for n in range(4, 9) for k in range(9, 15)
              if k >= n + 2]
    for rnd in range(5):
        for n, k in shapes:
            for _ in range(1000):
                pts = set()
                while len(pts) < k:
                    pts.add(tuple(rng.randint(-2, 2) for _ in range(n)))
                pts = tuple(sorted(pts))
                if certainly_nondefective(pts, rng):
                    break
            else:
                raise RuntimeError(f"no nondefective sample for {n}, {k}")
            out.append(Input(f"random_{rnd}_{n}_{k}", pts, 0))
    return out
