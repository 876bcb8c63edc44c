import dataclasses
import gc
import itertools
import random
import weakref
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from dualdefect import tangency
from dualdefect.alpha import AlphaProblem, alpha, check_star, vprime
from dualdefect.cayley import cayley_sum
from dualdefect.cli import generate_corpus, run
from dualdefect.config import (
    GroupHom,
    PointConfig,
    apply_affine,
    is_normalized,
    load_config_file,
    normalize,
)
from dualdefect.exact_linalg import (
    Echelon,
    RationalSubspace,
    det,
    kernel_basis_ff,
)
from dualdefect.tangency import (
    ESCALATIONS,
    MAX_TRIALS,
    ArityError,
    TangencyProblem,
    contact_grouping,
    defect_oracle,
    hessian,
    sample_combination,
    sample_rounds,
    tangency_space,
)

from conftest import (
    FIXTURES,
    common_multiple,
    escalation_loop,
    fraction_sample,
    grouping_per_point,
    kernel_basis_rat,
    random_unimodular,
    segre_product,
    unit_simplex,
    unit_vector,
)


def test_tangency_space_simplex_trivial():
    assert tangency_space(unit_simplex(3)) == []


def test_tangency_space_segre(segre_square):
    basis = tangency_space(segre_square)
    assert len(basis) == 1
    v = basis[0]
    scale = v[0]
    assert [x / scale for x in v] == [1, -1, -1, 1]


def test_tangency_space_ex5_8_dimension(ex5_8):
    assert len(tangency_space(ex5_8)) == 2


def test_tangency_conditions_hold_exactly(ex5_8):
    for row in tangency_space(ex5_8):
        assert sum(row) == 0
        for j in range(ex5_8.dim):
            assert sum(c * p[j] for c, p in zip(row, ex5_8.points)) == 0


def test_hessian_segre(segre_square):
    h = hessian(segre_square, [1, -1, -1, 1])
    assert h == [[0, 1], [1, 0]]


def test_hessian_zero_coeffs(segre_square):
    assert hessian(segre_square, [0, 0, 0, 0]) == [[0, 0], [0, 0]]


def test_hessian_parabola():
    a = PointConfig.make([(0,), (1,), (2,)])
    assert hessian(a, [1, -2, 1]) == [[Fraction(2)]]


def test_hessian_arity():
    with pytest.raises(ArityError):
        hessian(unit_simplex(2), [1, 2])


def test_oracle_segre_square(segre_square):
    res = defect_oracle(TangencyProblem.make(segre_square))
    assert res.delta == 0 and not res.empty_dual


def test_oracle_ex5_7(ex5_7):
    assert defect_oracle(TangencyProblem.make(ex5_7)).delta == 1


def test_oracle_simplex_empty_dual():
    res = defect_oracle(TangencyProblem.make(unit_simplex(3)))
    assert res.empty_dual and res.delta is None and res.samples_used == 0


def test_oracle_segre_products():
    for a in range(1, 4):
        for b in range(a, 4):
            res = defect_oracle(TangencyProblem.make(segre_product(a, b)))
            assert res.delta == b - a, (a, b, res)


def test_oracle_unimodular_invariance():
    rng = random.Random(11)
    done = 0
    while done < 25:
        n = rng.randint(1, 3)
        pts = set()
        while len(pts) < rng.randint(n + 2, n + 4):
            pts.add(tuple(rng.randint(-2, 2) for _ in range(n)))
        a = PointConfig.make(sorted(pts))
        if not is_normalized(a):
            continue
        u = random_unimodular(rng, n)
        t = [rng.randint(-3, 3) for _ in range(n)]
        b = apply_affine(a, GroupHom.make(u, t))
        da = defect_oracle(TangencyProblem.make(a)).delta
        db = defect_oracle(TangencyProblem.make(b)).delta
        assert da == db
        done += 1


def test_oracle_monotone_in_trials(ex5_8):
    deltas = [
        defect_oracle(TangencyProblem.make(ex5_8, trials=t)).delta
        for t in (1, 2, 3, 5)
    ]
    for earlier, later in zip(deltas, deltas[1:]):
        assert later <= earlier


def positive_multiple(sample, ref):
    """Whether the primitive sample times a positive integer is ref."""
    return gcd(*sample) == 1 and common_multiple(ref, sample) is not None


def full_round_oracle(tp):
    """Reference: the least Hessian corank over the whole first round,
    with the first sample that reaches it."""
    rounds = sample_rounds(tangency_space(tp.config), tp.seed, tp.bound,
                           tp.trials)
    coranks = [(len(kernel_basis_ff(hessian(tp.config, s))), s)
               for s in next(rounds)]
    corank = min(k for k, _ in coranks)
    witness = next(s for k, s in coranks if k == corank)
    return corank, witness, coranks.index((corank, witness))


def test_oracle_matches_full_round_minimum():
    configs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    for seed in (1, 2):
        configs += [cfg for cfg, _ in generate_corpus("random", 6, 3, 7,
                                                      seed)]
        configs += [cfg for cfg, _ in generate_corpus("random", 4, 4, 9,
                                                      seed)]
    seen = set()
    for cfg in configs:
        a, _ = normalize(cfg)
        # bound 1 makes singular samples of nondefective inputs common
        for seed, bound, trials in itertools.product(
                (7, 8), (1, 1 << 20), (1, 2, 3, 5)):
            tp = TangencyProblem.make(a, seed, bound, trials)
            res = defect_oracle(tp)
            if tp.dim_l == 0:
                assert (res.delta, res.rank_witness, res.samples_used) == (
                    None, None, 0)
                continue
            delta, witness, index = full_round_oracle(tp)
            assert res.delta == delta
            assert positive_multiple(res.rank_witness, witness)
            assert res.samples_used == (index + 1 if delta == 0
                                        else trials)
            seen.add((delta == 0, index))
    # nondefective inputs decided by the first and by a later sample,
    # and defective ones, all occur
    assert {(True, 0), (False, 0)} <= seen
    assert any(zero and index for zero, index in seen)


def test_evaluate_kernel_is_the_eliminated_kernel(ex5_8, segre_square):
    rng = random.Random(3)
    singular = set()
    for a in (ex5_8, segre_square, segre_product(2, 3)):
        tp = TangencyProblem.make(a)
        coeffs = [sample_combination(rng, tangency_space(a), 2)
                  for _ in range(10)]
        # zero coefficients give the zero Hessian
        for c in coeffs + [(0,) * len(a)]:
            want = kernel_basis_ff(hessian(a, c))
            got, h = tp.evaluate(c)
            assert got == c and h.kernel_basis() == want
            assert len(h) == len(want)
            singular.add(bool(want))
    assert singular == {True, False}


@pytest.mark.parametrize("name", ["ex5_7", "ex5_8", "p1xp2", "segre"])
def test_every_analyze_hessian_kernel_is_the_eliminated_kernel(
        name, capsys, monkeypatch):
    seen = []
    real = tangency.hessian

    def recorded(a, coeffs):
        h = real(a, coeffs)
        seen.append((a, coeffs, h))
        return h

    monkeypatch.setattr(tangency, "hessian", recorded)
    assert run(["analyze", str(FIXTURES / f"{name}.json")]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert seen
    for a, coeffs, h in seen:
        want = kernel_basis_ff(h)
        got, echelon = TangencyProblem.make(a).evaluate(coeffs)
        assert got == coeffs and echelon.kernel_basis() == want
        assert len(echelon) == len(want)
        assert (want == []) == (det(h) != 0)


def test_contact_grouping_ex5_8(ex5_8):
    tp = TangencyProblem.make(ex5_8)
    parts = contact_grouping(tp)
    e = lambda i: unit_vector(i, 6)
    psets = {frozenset(ex5_8.points[i] for i in part) for part in parts}
    assert psets == {
        frozenset([(0,) * 6, e(5), e(6)]),
        frozenset([e(1), e(2), (-1, 2, 0, 0, -2, 1)]),
        frozenset([e(3), e(4), (0, 0, -1, 2, -2, 1)]),
    }
    assert defect_oracle(tp).delta == 1


def test_contact_grouping_segre_single_part(segre_square):
    tp = TangencyProblem.make(segre_square)
    assert contact_grouping(tp) == (tuple(range(4)),)
    assert defect_oracle(tp).delta == 0


def test_contact_grouping_ex5_7_fibers(ex5_7):
    tp = TangencyProblem.make(ex5_7)
    parts = contact_grouping(tp)
    by_tail = {}
    for i, pt in enumerate(ex5_7.points):
        by_tail.setdefault(pt[2:], []).append(i)
    assert {frozenset(g) for g in parts} == {
        frozenset(g) for g in by_tail.values()
    }
    assert defect_oracle(tp).delta == 1


def test_contact_grouping_stable_with_more_trials(ex5_8):
    p3 = contact_grouping(TangencyProblem.make(ex5_8, trials=3))
    p6 = contact_grouping(TangencyProblem.make(ex5_8, trials=6))
    assert p3 == p6


@pytest.mark.parametrize("left_at", [2, 3])
def test_contact_grouping_escalation_draws_reference_samples(
        ex5_8, monkeypatch, left_at):
    tp = TangencyProblem.make(ex5_8)
    real_grouping, real_hessian = (tangency._grouping_from_kernel,
                                   tangency.hessian)
    groupings = []
    evaluated = []

    def grouping(a, kernel):
        # sample `left_at` of the first round disagrees with the first
        groupings.append(kernel)
        if len(groupings) == left_at:
            return ()
        return real_grouping(a, kernel)

    def hessian(a, coeffs):
        evaluated.append(coeffs)
        return real_hessian(a, coeffs)

    monkeypatch.setattr(tangency, "_grouping_from_kernel", grouping)
    monkeypatch.setattr(tangency, "hessian", hessian)
    assert len(contact_grouping(tp)) == 3
    # the first round is evaluated once, up to the disagreement; the
    # second round is what the reference loop draws after leaving the
    # first at the same sample
    want = escalation_loop(tangency_space(ex5_8), tp.seed, tp.bound,
                           tp.trials, (left_at, tp.trials))
    assert len(evaluated) == left_at + tp.trials
    assert all(map(positive_multiple, evaluated, want[0] + want[1]))
    assert len(groupings) == left_at + tp.trials


@st.composite
def points_and_kernels(draw):
    """0 to 8 points, repeats allowed, and 0 to 3 kernel vectors in
    dimension 0 to 4, with small entries so that values repeat."""
    n = draw(st.integers(0, 4))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    points = draw(st.lists(vec.map(tuple), max_size=8))
    return PointConfig(n, tuple(points)), draw(st.lists(vec, max_size=3))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(points_and_kernels())
@example((PointConfig(2, ((0, 0), (1, 0), (0, 1))), []))
@example((PointConfig(2, ((1, 0), (0, 1), (1, 1), (2, 0), (1, 0))),
          [[1, 1], [2, 2], [1, 1]]))
def test_grouping_from_kernel_matches_the_per_point_grouping(case):
    a, kernel = case
    assert (tangency._grouping_from_kernel(a, kernel)
            == grouping_per_point(a, kernel))


def test_join_defect_law_small():
    f0 = PointConfig.make([(0, 0), (1, 0), (2, 0)])
    f1 = PointConfig.make([(0, 0), (0, 1), (0, 2)])
    total = cayley_sum([f0, f1])
    res = defect_oracle(TangencyProblem.make(total))
    d0 = defect_oracle(TangencyProblem.make(
        PointConfig.make([(0,), (1,), (2,)]))).delta
    assert res.delta == 1 + d0 + d0


def rational_tangency_space(a):
    rows = [[Fraction(1)] * len(a)]
    for j in range(a.dim):
        rows.append([Fraction(p[j]) for p in a.points])
    return kernel_basis_rat(rows)


@pytest.mark.parametrize("bound", [1, 3, 1 << 20])
def test_integer_sample_is_positive_multiple_of_fraction_sample(
        bound, ex5_8, ex5_7, segre_square):
    configs = [ex5_8, ex5_7, segre_square, segre_product(2, 3)]
    for a in configs:
        basis = tangency_space(a)
        ref_basis = rational_tangency_space(a)
        seed = 5 + len(a)
        rng_int, rng_rat = random.Random(seed), random.Random(seed)
        scales = set()
        for _ in range(20):
            got = sample_combination(rng_int, basis, bound)
            want = fraction_sample(rng_rat, ref_basis, bound)
            assert all(isinstance(x, int) for x in got)
            scale = common_multiple(got, want)
            assert scale is not None, (a.name, got, want)
            scales.add(scale)
        # same draws in the same order, all-zero redraws included (with
        # bound 1 the one-row basis of segre_square redraws a third of
        # the time)
        assert rng_int.getstate() == rng_rat.getstate()
        assert len(scales) == 1


@st.composite
def spanning_configs(draw):
    """3 to 9 distinct points in [-3, 3]^n for n in 1..4, normalized."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * n)
    points = draw(st.lists(vec, min_size=3, max_size=9, unique=True))
    return normalize(PointConfig.make(points))[0]


def assert_echelon_samples_match(a, seed, bound, draws=4):
    """Each sample of the problem of a, drawn from the same RNG state as
    ``sample_combination`` on the basis ``tangency_space(a)``, is its
    primitive positive divisor, uses the same draws, and gives the same
    Hessian kernel."""
    tp = TangencyProblem.make(a, seed, bound)
    basis = tangency_space(a)
    assert tp.dim_l == len(basis)
    if not basis:
        return
    rng_echelon, rng_basis = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        sample = sample_combination(rng_echelon, tp.sample_basis, bound)
        ref = sample_combination(rng_basis, basis, bound)
        assert positive_multiple(sample, ref), (a.points, sample, ref)
        assert rng_echelon.getstate() == rng_basis.getstate()
        assert (Echelon(hessian(a, sample)).kernel_basis()
                == Echelon(hessian(a, ref)).kernel_basis())


@pytest.mark.parametrize("bound", [1, 3, 1 << 20])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(a=spanning_configs())
def test_echelon_samples_match_basis_samples_on_drawn_inputs(bound, a):
    assert_echelon_samples_match(a, 17, bound)


@pytest.mark.parametrize("bound", [1, 3, 1 << 20])
def test_echelon_samples_match_basis_samples(bound):
    from test_structure import small_join_corpus

    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += small_join_corpus()
    inputs += [segre_product(a, b) for a in range(1, 4)
               for b in range(a, 4)]
    rng = random.Random(29)
    scaled = 0  # random inputs whose pivot minor d is above 1
    while scaled < 8:
        n = rng.randint(2, 4)
        pts = {tuple(rng.randint(-3, 3) for _ in range(n))
               for _ in range(n + rng.randint(2, 5))}
        a = normalize(PointConfig.make(sorted(pts)))[0]
        if TangencyProblem.make(a).tangency.scale > 1:
            inputs.append(a)
            scaled += 1
    for cfg in inputs:
        a = normalize(cfg)[0]
        for seed in (3, 4):
            assert_echelon_samples_match(a, seed, bound)


def test_problem_without_tangency_space_draws_nothing(monkeypatch):
    def draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(tangency, "sample_combination", draw)
    tp = TangencyProblem.make(unit_simplex(3))
    assert tp.dim_l == 0 and tangency_space(tp.config) == []
    assert defect_oracle(tp) == tangency.DefectResult(None, None, 0)
    assert tangency.first_corank_at_most(tp, 0) is None
    with pytest.raises(ValueError):
        contact_grouping(tp)


def test_back_substitution_refuses_an_inexact_division():
    # [2 1]: the free coordinate 2 * w makes the pivot coordinate -w
    e = Echelon([[2, 1]])
    assert (len(e), e.scale, e.combine([3])) == (1, 2, (-1, 2))
    e.scale = 1  # the pivot coordinate would be -1/2
    with pytest.raises(ArithmeticError):
        e.combine([1])


@pytest.mark.parametrize("field,value", [("bound", 0), ("bound", -5),
                                         ("seed", -1), ("seed", -3),
                                         ("trials", 0),
                                         ("trials", MAX_TRIALS + 1)])
def test_problem_rejects_bad_sampling_parameters(segre_square, field, value):
    with pytest.raises(ValueError):
        TangencyProblem.make(segre_square, **{field: value})
    tp = TangencyProblem.make(segre_square)
    with pytest.raises(ValueError):
        dataclasses.replace(tp, **{field: value})


@pytest.mark.parametrize("taken", [(3, 3, 3), (1, 3, 3), (1, 1, 1),
                                   (3, 1, 2), (2,)])
def test_sample_rounds_match_hand_written_loop(ex5_8, taken):
    basis = tangency_space(ex5_8)
    want = escalation_loop(basis, 9, 5, 3, taken)
    rounds = sample_rounds(basis, 9, 5, 3)
    got = [list(itertools.islice(next(rounds), k)) for k in taken]
    assert got == want


def test_sample_rounds_shape(segre_square):
    basis = tangency_space(segre_square)
    rounds = [list(r) for r in sample_rounds(basis, 1, 2, 4)]
    assert len(rounds) == ESCALATIONS + 1
    assert all(len(r) == 4 for r in rounds)


def test_read_problems_are_freed_without_the_cyclic_collector(ex5_8):
    # a problem's sample cache holds draws and samples, never the problem
    # itself, so dropping the last reference frees it at once; the alpha
    # problem is that of ex5_7, two coordinate lines and the plane twice
    v0, v1, v2 = (RationalSubspace.from_rows(2, rows)
                  for rows in ([[1, 0]], [[0, 1]], [[1, 0], [0, 1]]))
    enabled = gc.isenabled()
    gc.disable()
    try:
        tp = TangencyProblem.make(ex5_8)
        assert defect_oracle(tp).delta == 1
        assert len(contact_grouping(tp)) == 3
        ap = AlphaProblem.make([v0, v1, v2, v2])
        c = alpha(ap)
        assert check_star(ap)
        assert vprime(ap, c).dim == c
        refs = [weakref.ref(tp), weakref.ref(ap)]
        del tp, ap
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
