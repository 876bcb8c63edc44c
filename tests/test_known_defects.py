"""Families whose delta is known from outside the paper's method.

Each family is built here with its own code, not the package's, and
the delta that analyze certifies is checked against a closed form or a
geometric rule.
"""

import collections
import itertools

import pytest

from dualdefect.config import PointConfig, normalize
from dualdefect.structure import (
    certificate_from_json,
    certificate_to_json,
    structure_certificate,
    verify_certificate,
)


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
