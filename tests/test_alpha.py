import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dualdefect.alpha import (
    AlphaProblem,
    _rank_and_removable,
    alpha,
    check_star,
    vprime,
)
from dualdefect.exact_linalg import RationalSubspace, rank_int
from dualdefect.tangency import GenericityFailure, sample_combination

from conftest import (
    clear_denominators,
    common_multiple,
    components_contained,
    escalation_loop,
    fraction_sample,
    kernel_basis_rat,
    rational_basis,
    removal_condition_pairwise,
)


def sub(dim, rows):
    return RationalSubspace.from_rows(dim, rows)


LINE = lambda: sub(1, [[1]])


def test_k_space_two_copies_of_the_line():
    basis = AlphaProblem.make([LINE(), LINE()]).k_basis
    assert len(basis) == 1
    row = basis[0]
    assert row[0] == -row[1] != 0


def test_k_space_pairwise_direct_is_zero():
    p = AlphaProblem.make([sub(2, [[1, 0]]), sub(2, [[0, 1]])])
    assert p.k_basis == ()


def test_k_space_ex5_7_dimension():
    v0 = sub(2, [[1, 0]])
    v1 = sub(2, [[0, 1]])
    v2 = sub(2, [[1, 0], [0, 1]])
    assert len(AlphaProblem.make([v0, v1, v2, v2]).k_basis) == 4


def test_alpha_ex5_7():
    v0 = sub(2, [[1, 0]])
    v1 = sub(2, [[0, 1]])
    v2 = sub(2, [[1, 0], [0, 1]])
    p = AlphaProblem.make([v0, v1, v2, v2])
    assert alpha(p) == 2


def test_alpha_zero_k():
    p = AlphaProblem.make([sub(2, [[1, 0]]), sub(2, [[0, 1]])])
    assert alpha(p) == 0


def test_alpha_two_lines():
    p = AlphaProblem.make([LINE(), LINE()])
    assert alpha(p) == 1


def test_alpha_bounds_random():
    rng = random.Random(41)
    for _ in range(30):
        m = rng.randint(1, 3)
        r = rng.randint(0, 3)
        summands = []
        for _ in range(r + 1):
            rows = [[rng.randint(-3, 3) for _ in range(m)]
                    for _ in range(rng.randint(0, m))]
            summands.append(sub(m, rows))
        p = AlphaProblem.make(summands)
        a = alpha(p)
        assert a <= r and a <= rank_int([row for s in summands
                                          for row in s.basis])
        assert (a == 0) == (len(p.k_basis) == 0)


def test_alpha_invariant_under_ambient_change():
    rng = random.Random(43)
    v0 = sub(2, [[1, 0]])
    v1 = sub(2, [[0, 1]])
    v2 = sub(2, [[1, 1]])
    base = alpha(AlphaProblem.make([v0, v1, v2]))
    for _ in range(5):
        while True:
            g = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if g[0][0] * g[1][1] - g[0][1] * g[1][0] != 0:
                break

        def push(s):
            rows = [[sum(g[i][j] * row[j] for j in range(2))
                     for i in range(2)] for row in s.basis]
            return sub(2, rows)

        twisted = alpha(AlphaProblem.make([push(v0), push(v1), push(v2)]))
        assert twisted == base


def test_check_star_examples():
    assert check_star(AlphaProblem.make([LINE()] * 3)) is True
    assert check_star(AlphaProblem.make([LINE()] * 2)) is False
    z = sub(2, [])
    assert check_star(AlphaProblem.make([z, z, z])) is True


def test_check_star_escalation_draws_reference_samples(monkeypatch):
    v0 = sub(2, [[1, 0]])
    v1 = sub(2, [[0, 1]])
    v2 = sub(2, [[1, 0], [0, 1]])
    p = AlphaProblem.make([v0, v1, v2, v2])
    real = AlphaProblem.evaluate
    elements = []

    def evaluate(self, element):
        elements.append(element)
        comps, rank, removable = real(self, element)
        # flipping the removal verdict of the first sample alone makes
        # the first round disagree
        return comps, rank, removable != (len(elements) == 1)

    monkeypatch.setattr(AlphaProblem, "evaluate", evaluate)
    assert check_star(p) is True
    # the first round is evaluated once; the second is the reference's
    want = escalation_loop(p.k_basis, p.seed, p.bound, p.trials,
                           (p.trials, p.trials))
    assert elements == want[0] + want[1]


@st.composite
def component_families(draw):
    """1 to 6 components in dimension 0 to 4: fresh, zero, a multiple of
    an earlier one (repeated or parallel) or the sum of two earlier."""
    m = draw(st.integers(0, 4))
    comps = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["fresh", "zero", "multiple", "sum"]))
        if kind == "zero":
            comps.append([0] * m)
        elif kind == "multiple" and comps:
            c = draw(st.sampled_from(comps))
            f = draw(st.sampled_from([1, 1, -1, 2, -3]))
            comps.append([f * x for x in c])
        elif kind == "sum" and comps:
            a, b = draw(st.sampled_from(comps)), draw(st.sampled_from(comps))
            comps.append([x + y for x, y in zip(a, b)])
        else:
            comps.append(draw(st.lists(st.integers(-4, 4), min_size=m,
                                       max_size=m)))
    return comps


@settings(max_examples=400, deadline=None)
@given(component_families())
def test_removal_condition_matches_pairwise_ranks(comps):
    assert _rank_and_removable(comps) == removal_condition_pairwise(comps)


@st.composite
def summand_families(draw):
    """1 to 4 summands spanned by a ``component_families`` family, each
    vector going to one summand, so that K is often nonzero."""
    comps = draw(component_families())
    count = draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(0, count - 1), min_size=len(comps),
                          max_size=len(comps)))
    m = len(comps[0])
    return [sub(m, [c for c, i in zip(comps, owner) if i == k])
            for k in range(count)]


@settings(max_examples=300, deadline=None)
@given(summand_families(), st.integers(-1, 5), st.integers(1, 3),
       st.integers(1, 5))
def test_alpha_above_stops_once_the_bound_is_passed(summands, above, bound,
                                                    trials):
    # small bounds make ranks differ between the samples of a round
    whole = AlphaProblem.make(summands, bound=bound, trials=trials)
    cut = AlphaProblem.make(summands, bound=bound, trials=trials)
    want = alpha(whole)
    got = alpha(cut, above)
    if want <= above:
        assert got == want
    else:
        assert got > above
    # _first holds the round-0 samples evaluated so far: all of them up
    # to the first whose rank exceeds the bound, and none when K = 0
    ranks = ([rank for _comps, rank, _removable in whole.first_round()]
             if whole.k_basis else [])
    stop = next((i + 1 for i, rank in enumerate(ranks) if rank > above),
                len(ranks))
    assert len(cut._first[0]) == stop <= len(whole._first[0])


@pytest.mark.parametrize("comps,want", [
    # ambient dimension 0: every component is zero
    ([[]], (0, True)),
    ([[], []], (0, True)),
    ([[], [], [], []], (0, True)),
    # ambient dimension 1
    ([[3]], (1, True)),
    ([[1], [-2]], (1, False)),
    ([[1], [-2], [5]], (1, True)),
    ([[0], [0], [7]], (1, False)),
    # zero components
    ([[0, 0], [0, 0], [0, 0]], (0, True)),
    ([[0, 0], [1, 2], [1, 2], [1, 2]], (1, True)),
    ([[0, 0], [1, 2], [0, 0]], (1, False)),
    # repeated and parallel components
    ([[1, 2], [1, 2], [1, 2]], (1, True)),
    ([[1, 0], [-2, 0], [0, 1], [0, 3]], (2, False)),
    ([[1, 0], [-2, 0], [3, 0], [0, 1], [0, 3], [0, -1]], (2, True)),
    # fully independent families
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (3, False)),
    ([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
      [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
     (6, False)),
    # a circuit of six: every pair removed drops the rank
    ([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
      [0, 0, 0, 0, 1], [1, 1, 1, 1, 1]], (5, False)),
])
def test_removal_condition_edge_families(comps, want):
    assert removal_condition_pairwise(comps) == want
    assert _rank_and_removable(comps) == want


def test_vprime_ex5_7_full_plane():
    v0 = sub(2, [[1, 0]])
    v1 = sub(2, [[0, 1]])
    v2 = sub(2, [[1, 0], [0, 1]])
    p = AlphaProblem.make([v0, v1, v2, v2])
    vp = vprime(p, alpha(p))
    assert vp.dim == 2


def test_vprime_zero_k():
    p = AlphaProblem.make([sub(2, [[1, 0]]), sub(2, [[0, 1]])])
    assert vprime(p, alpha(p)).dim == 0


def test_vprime_three_lines():
    p = AlphaProblem.make([LINE()] * 3)
    assert vprime(p, alpha(p)).dim == 1


def test_vprime_contains_k_components():
    v0 = sub(2, [[1, 0]])
    v1 = sub(2, [[0, 1]])
    v2 = sub(2, [[1, 0], [0, 1]])
    p = AlphaProblem.make([v0, v1, v2, v2])
    vp = vprime(p, alpha(p))
    for row in p.k_basis:
        for comp in p.components(row):
            assert vp.contains(comp)


def test_vprime_quotient_rank_additivity():
    v0 = sub(3, [[1, 0, 0]])
    v1 = sub(3, [[1, 0, 0], [0, 1, 0]])
    v2 = sub(3, [[1, 0, 0], [0, 0, 1]])
    p = AlphaProblem.make([v0, v1, v2])
    if check_star(p):
        vp = vprime(p, alpha(p))
        joined = 0
        rows = list(vp.basis)
        for s in (v0, v1, v2):
            lifted = RationalSubspace.from_rows(
                3, list(vp.basis) + list(s.basis))
            joined += lifted.dim - vp.dim
            rows += list(s.basis)
        total = RationalSubspace.from_rows(3, rows).dim - vp.dim
        assert total == joined


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(summand_families(), st.integers(1, 3))
# two planes: every sample of rank 1 spans a line that misses a K
# component, so no span passes
@example([sub(2, [[1, 0], [0, 1]])] * 2, 3)
def test_every_span_vprime_returns_holds_every_k_component(summands, bound):
    # vprime checks only the direct sum modulo V', which implies the
    # containment; small bounds and no check_star give spans that fail
    p = AlphaProblem.make(summands, bound=bound)
    try:
        span = vprime(p, alpha(p))
    except GenericityFailure:
        return
    assert components_contained(p, span)


def test_alpha_monotone_in_trials():
    v0 = sub(2, [[1, 0]])
    v1 = sub(2, [[0, 1]])
    v2 = sub(2, [[1, 0], [0, 1]])
    vals = [alpha(AlphaProblem.make([v0, v1, v2, v2], trials=t))
            for t in (1, 2, 4)]
    for earlier, later in zip(vals, vals[1:]):
        assert later >= earlier


def fraction_components(summands, element):
    """Reference: components over the rational summand bases."""
    m = summands[0].ambient_dim
    out = []
    pos = 0
    for s in summands:
        comp = [Fraction(0)] * m
        for j, row in enumerate(rational_basis(s)):
            for k, x in enumerate(row):
                comp[k] += element[pos + j] * x
        pos += s.dim
        out.append(comp)
    return out


def test_integer_components_are_one_multiple_of_fraction_components():
    rng = random.Random(47)
    checked = 0
    while checked < 25:
        m = rng.randint(1, 4)
        summands = []
        for _ in range(rng.randint(2, 4)):
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(m)] for _ in range(rng.randint(0, m))]
            summands.append(sub(m, clear_denominators(rows)))
        p = AlphaProblem.make(summands)
        if not p.k_basis:
            continue
        cols = [row for s in summands for row in rational_basis(s)]
        ref_k = kernel_basis_rat(
            [[col[i] for col in cols] for i in range(m)])
        seed = rng.randrange(1 << 30)
        rng_int, rng_rat = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got = p.components(sample_combination(rng_int, p.k_basis, 7))
            want = fraction_components(summands,
                                       fraction_sample(rng_rat, ref_k, 7))
            flat_got = [x for comp in got for x in comp]
            flat_want = [x for comp in want for x in comp]
            assert all(isinstance(x, int) for x in flat_got)
            assert common_multiple(flat_got, flat_want) is not None
        checked += 1


def test_make_rejects_bad_summands():
    with pytest.raises(ValueError):
        AlphaProblem.make([])
    with pytest.raises(ValueError):
        AlphaProblem.make([sub(2, [[1, 0]]), sub(3, [[1, 0, 0]])])


@pytest.mark.parametrize("field,value", [("bound", 0), ("trials", 0),
                                         ("seed", -1)])
def test_make_rejects_bad_sampling_parameters(field, value):
    with pytest.raises(ValueError):
        AlphaProblem.make([LINE(), LINE()], **{field: value})
