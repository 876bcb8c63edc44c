"""Families whose delta is known from outside the paper's method.

Each family is built here with its own code, not the package's, and
the delta that analyze certifies is checked against a closed form or a
geometric rule.
"""

import collections
import itertools
import random

import pytest

from dualdefect.config import PointConfig, load_config_file, normalize
from dualdefect.structure import (
    certificate_from_json,
    certificate_to_json,
    structure_certificate,
    verify_certificate,
)

from conftest import FIXTURES, cube_census, random_unimodular, square_census


def scroll(a, ks):
    """S(a; k_0, ..., k_r): the lattice points of the Cayley sum of the
    dilated simplices k_i Delta_a, with k_i Delta_a at height e_i of
    Z^r (e_0 = 0)."""
    r = len(ks) - 1
    pts = []
    for i, k in enumerate(ks):
        height = tuple(int(j == i) for j in range(1, r + 1))
        pts += [x + height
                for x in itertools.product(range(k + 1), repeat=a)
                if sum(x) <= k]
    return PointConfig.make(pts)


def scroll_delta(a, ks):
    """The defect of S(a; k), as
    ``test_scroll_defect_has_its_closed_form`` derives it."""
    r = len(ks) - 1
    return abs(r - a) if set(ks) == {1} else max(0, r - a)


SCROLLS = [(a, ks)
           for a in (1, 2, 3)
           for r in range(1, 6) if a + r <= 8
           for ks in ((1,) * (r + 1), (2,) * (r + 1),
                      tuple(i % 3 + 1 for i in range(r + 1)))]


@pytest.mark.parametrize("a,ks", SCROLLS)
def test_scroll_defect_has_its_closed_form(a, ks):
    # the toric variety of S(a; k) is the smooth scroll
    # P(O(k_0) + ... + O(k_r)) over P^a, and a smooth toric embedding is
    # dual defective exactly when its polytope is a Cayley sum of r + 1
    # strictly combinatorially equivalent polytopes with 2r > n, with
    # delta = 2r - n (Di Rocco, "Projective duality of toric manifolds
    # and defect polytopes", Proc. London Math. Soc. 2006).  Here
    # n = a + r, so delta = max(0, r - a); with every k_i = 1 the scroll
    # is the Segre product P^a x P^r, also a Cayley sum of a + 1 copies
    # of Delta_r, and delta = |r - a|
    cfg = scroll(a, ks)
    expected = scroll_delta(a, ks)
    x, _ = normalize(cfg)
    cert = certificate_from_json(certificate_to_json(structure_certificate(x)))
    assert cert.delta == expected
    if expected:
        assert cert.c == min(a, len(ks) - 1) > 0
    exhaustive = x.dim <= 9 and len(cfg) <= 30
    assert verify_certificate(x, cert, exhaustive=exhaustive)["all_passed"]


def test_scrolls_cover_both_outcomes_at_every_a():
    deltas = collections.defaultdict(set)
    for a, ks in SCROLLS:
        deltas[a].add(scroll_delta(a, ks) > 0)
    assert len(SCROLLS) == 45
    assert all(deltas[a] == {False, True} for a in (1, 2, 3))
    assert sum(len(scroll(a, ks)) <= 30 for a, ks in SCROLLS) == 36


def _collinear(pts):
    (x0, y0), *rest = pts
    return all((x1 - x0) * (y2 - y0) == (x2 - x0) * (y1 - y0)
               for (x1, y1), (x2, y2) in itertools.combinations(rest, 2))


def test_plane_rule_on_small_subsets_of_the_4_by_4_grid():
    # a plane configuration is dual defective exactly when all its
    # points but one lie on a line that holds at least 3 of them: a
    # pyramid over a collinear set (compare the low-dimensional results
    # of Dickenstein-Feichtner-Sturmfels, "Tropical discriminants",
    # JAMS 2007, and Curran-Cattani, "Restriction of A-discriminants
    # and dual defect toric varieties", JSC 2007); checked on every
    # full-dimensional subset of {0,...,3}^2 with 4 to 6 points
    grid = list(itertools.product(range(4), repeat=2))
    got = collections.Counter()
    for k in (4, 5, 6):
        for pts in itertools.combinations(grid, k):
            if _collinear(pts):
                continue
            a, _ = normalize(PointConfig.make(pts))
            delta = structure_certificate(a).delta
            pyramid = any(_collinear(pts[:i] + pts[i + 1:])
                          for i in range(k))
            assert (delta > 0) == pyramid, pts
            got[k, delta] += 1
    assert got == {(4, 0): 1278, (4, 1): 532, (5, 0): 4248, (5, 1): 120,
                   (6, 0): 8008}


def _certified_delta(cfg):
    """delta of cfg, normalized, after checking that its certificate
    verifies."""
    a, _ = normalize(cfg)
    cert = structure_certificate(a)
    assert verify_certificate(a, cert)["all_passed"], cfg.points
    return a, cert.delta


def _mapped(rng, cfg):
    """cfg under a seeded unimodular map with translation in [-3, 3]^n,
    dilated by 1 to 3, its points listed in a shuffled order."""
    n = cfg.dim
    u = random_unimodular(rng, n)
    shift = [rng.randint(-3, 3) for _ in range(n)]
    k = rng.choice((1, 2, 3))
    pts = [tuple(k * sum(x * y for x, y in zip(row, p)) + t
                 for row, t in zip(u, shift)) for p in cfg.points]
    rng.shuffle(pts)
    return PointConfig.make(pts)


def _pyramid(a):
    """The pyramid over a: a new zero coordinate and the apex e_(n+1)."""
    return PointConfig.make([p + (0,) for p in a.points]
                            + [(0,) * a.dim + (1,)])


def test_delta_is_invariant_under_lattice_maps_and_grows_on_pyramids():
    # metamorphic relations of the dual defect on the fixtures, 30
    # seeded subsets of {0,1}^3 with 5 to 8 points (five maps each), the
    # cube and square censuses and the scrolls with at most 30 points
    # (one map each, and delta is also the closed form):
    # - an affine unimodular map, a dilation and the order in which the
    #   points are listed leave the toric variety, so delta, unchanged;
    # - the pyramid over A (a new zero coordinate and the apex e_(n+1))
    #   gives the cone over X_A, whose dual lies in the hyperplane dual
    #   to the vertex and equals the dual of X_A there: delta goes up by
    #   1, unless A is affinely independent, when both duals are empty
    #   and delta stays 0; so a pyramid over a mapped pyramid adds 2
    rng = random.Random(0x3E7A)
    cube = list(itertools.product((0, 1), repeat=3))
    inputs = [(load_config_file(path), 5, None)
              for path in sorted(FIXTURES.iterdir())]
    inputs += [(PointConfig.make(rng.sample(cube, rng.randint(5, 8))), 5,
                None) for _ in range(30)]
    inputs += [(cfg, 1, None) for cfg in cube_census() + square_census()]
    inputs += [(scroll(a, ks), 1, scroll_delta(a, ks)) for a, ks in SCROLLS
               if len(scroll(a, ks)) <= 30]
    seen = collections.Counter()
    for cfg, maps, expected in inputs:
        a, delta = _certified_delta(cfg)
        assert expected in (None, delta), cfg.points
        for _ in range(maps):
            assert _certified_delta(_mapped(rng, cfg))[1] == delta, \
                cfg.points
        simplex = len(a) == a.dim + 1
        pyramid, once = _certified_delta(_pyramid(a))
        assert once == (0 if simplex else delta + 1), cfg.points
        twice = _certified_delta(_pyramid(_mapped(rng, pyramid)))[1]
        assert twice == (0 if simplex else delta + 2), cfg.points
        seen[delta, simplex] += 1
    # the affinely independent inputs are three simplex fixtures and the
    # 29 + 25 census inputs of dim + 1 points; the scrolls give every
    # delta from 2 to 4
    assert seen == {(0, False): 253, (1, False): 85, (2, False): 8,
                    (3, False): 4, (4, False): 3, (0, True): 57}
