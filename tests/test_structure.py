import collections
import dataclasses
import hashlib
import importlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as hst

from dualdefect.alpha import AlphaProblem, alpha
from dualdefect.cayley import (
    NotSimplexImage,
    cayley_sum,
    decompose_along,
    enumerate_simplex_projections,
    exhaustive_frame,
    is_join_type,
    join_type_wrt,
    simplex_projection,
)
from dualdefect import cayley, structure, tangency
from dualdefect.cli import generate_corpus, run
from dualdefect.config import (
    GroupHom,
    PointConfig,
    apply_affine,
    load_config_file,
    normalize,
)
from dualdefect.exact_linalg import (
    RationalSubspace,
    hnf_basis,
    kernel_basis_int,
    mat_mul,
    rank_int,
    saturate,
    sums_directly,
)
from dualdefect.structure import (
    CertificateMismatch,
    CertificationError,
    certificate_from_json,
    certificate_to_json,
    join_factors,
    structure_certificate,
    verify_certificate,
)
from dualdefect.tangency import (
    TangencyProblem,
    defect_oracle,
    tangency_space,
)

from conftest import (
    EX58_U,
    EX58_V,
    FIXTURES,
    components_contained,
    cube_census,
    dump_config_json,
    factor_through_snf,
    first_corank_rule,
    is_surjective_snf,
    join_type_wrt_recompute,
    lattice_eq,
    lattice_leq,
    minimal_quotient,
    part_alpha_problem,
    part_difference_space,
    random_unimodular,
    restrict_to_kernel_via_pi2,
    segre_product,
    square_census,
    unit_vector,
)
from test_known_defects import SCROLLS, scroll, scroll_delta


# the minimal simplex projection is published as cert.pi = pi2 o pi1


def test_find_min_projection_segre_trivial(segre_square):
    cert = structure_certificate(segre_square)
    assert cert.pi.codomain_rank == 0
    assert cert.grouping == (tuple(range(4)),)


def test_find_min_projection_ex5_8(ex5_8):
    pi = structure_certificate(ex5_8).pi
    assert pi.codomain_rank == 2
    expected = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]]
    assert lattice_eq(
        hnf_basis(kernel_basis_int(pi.matrix)),
        hnf_basis(kernel_basis_int(expected)),
    )


def test_find_min_projection_ex5_7(ex5_7):
    pi = structure_certificate(ex5_7).pi
    assert pi.codomain_rank == 3
    # kernel = Z^2 x {0}, the projection factors through pr
    assert lattice_eq(
        hnf_basis(kernel_basis_int(pi.matrix)),
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]],
    )


def test_certificate_segre(segre_square):
    cert = structure_certificate(segre_square)
    assert (cert.r, cert.c, cert.delta) == (0, 0, 0)
    assert cert.pi1.matrix == ((1, 0), (0, 1))
    assert cert.pi2.codomain_rank == 0
    assert cert.grouping == (tuple(range(4)),)


def test_certificate_ex5_7(ex5_7):
    cert = structure_certificate(ex5_7)
    assert (cert.r, cert.c, cert.delta) == (3, 2, 1)
    assert cert.pi1.kernel_lattice() == [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]
    by_tail = {}
    for i, pt in enumerate(ex5_7.points):
        by_tail.setdefault(pt[2:], []).append(i)
    assert {frozenset(g) for g in cert.grouping} == {
        frozenset(g) for g in by_tail.values()
    }


def test_certificate_ex5_8(ex5_8):
    cert = structure_certificate(ex5_8)
    assert (cert.r, cert.c, cert.delta) == (2, 1, 1)
    e = lambda i: unit_vector(i, 6)
    psets = {frozenset(ex5_8.points[i] for i in part)
             for part in cert.grouping}
    assert psets == {
        frozenset([(0,) * 6, e(5), e(6)]),
        frozenset([e(1), e(2), EX58_U]),
        frozenset([e(3), e(4), EX58_V]),
    }
    expected_pi1 = [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 2],
    ]
    assert lattice_eq(
        cert.pi1.kernel_lattice(),
        hnf_basis(kernel_basis_int(expected_pi1)),
    )
    expected_pi = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]]
    assert lattice_eq(
        hnf_basis(kernel_basis_int(cert.pi.matrix)),
        hnf_basis(kernel_basis_int(expected_pi)),
    )


def test_certificate_invariants(ex5_8):
    cert = structure_certificate(ex5_8)
    assert cert.delta == cert.r - cert.c
    assert is_surjective_snf(cert.pi1.matrix)
    assert mat_mul(cert.pi2.matrix, cert.pi1.matrix) \
        == [list(row) for row in cert.pi.matrix]
    ker = cert.pi1.kernel_lattice()
    assert len(ker) == cert.c
    from dualdefect.exact_linalg import saturate
    assert saturate(ker) == ker


def test_oracle_agreement_fuzz():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 4)
        pts = set()
        target = rng.randint(2, 8)
        for _ in range(3 * target):
            pts.add(tuple(rng.randint(-4, 4) for _ in range(n)))
            if len(pts) >= target:
                break
        a, _ = normalize(PointConfig.make(sorted(pts)))
        cert = structure_certificate(a)
        res = defect_oracle(TangencyProblem.make(a))
        if res.empty_dual:
            assert cert.delta == 0
        else:
            assert cert.delta == res.delta


def test_covariance_under_unimodular_twist(ex5_8):
    rng = random.Random(7)
    u = random_unimodular(rng, 6)
    t = [rng.randint(-3, 3) for _ in range(6)]
    twisted = apply_affine(ex5_8, GroupHom.make(u, t))
    base = structure_certificate(ex5_8)
    cert = structure_certificate(twisted)
    assert (cert.r, cert.c, cert.delta) == (base.r, base.c, base.delta)
    # grouping matches under the point correspondence
    f = GroupHom.make(u, t)
    corr = {i: twisted.points.index(f.apply(p))
            for i, p in enumerate(ex5_8.points)}
    mapped = {frozenset(corr[i] for i in g) for g in base.grouping}
    assert mapped == {frozenset(g) for g in cert.grouping}


def test_join_factors_ex5_7(ex5_7):
    cert = structure_certificate(ex5_7)
    factors = join_factors(cert, ex5_7)
    assert len(factors) == 4
    assert all(len(f) == 1 for f in factors)


def test_join_factors_ex5_8(ex5_8):
    cert = structure_certificate(ex5_8)
    factors = join_factors(cert, ex5_8)
    assert len(factors) == 3
    assert is_join_type(factors)


def test_join_factors_trivial_case(segre_square):
    cert = structure_certificate(segre_square)
    factors = join_factors(cert, segre_square)
    assert len(factors) == 1 and factors[0].points == segre_square.points


def roundtrip(cert):
    return certificate_from_json(certificate_to_json(cert))


def test_certificate_roundtrip_is_identity():
    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += [segre_product(a, b) for a in (1, 2) for b in (3, 4)]
    inputs += [cfg for cfg, _ in
               generate_corpus("cayley_join_type", 4, None, None, 2)]
    oracle_values = set()
    for cfg in inputs:
        cert = structure_certificate(normalize(cfg)[0])
        assert roundtrip(cert) == cert, cfg
        oracle_values.add(cert.oracle_delta)
    assert None in oracle_values and len(oracle_values) > 2


def test_join_factors_of_a_loaded_certificate(ex5_7, ex5_8):
    for cfg in (ex5_7, ex5_8, segre_product(1, 3)):
        cert = structure_certificate(cfg)
        assert join_factors(roundtrip(cert), cfg) == join_factors(cert, cfg)


def _up_to_translation(f):
    base = min(f.points)
    return sorted(tuple(x - y for x, y in zip(q, base)) for q in f.points)


def test_p_reads_off_the_fibers_of_the_pi1_image():
    # factor i is p applied to fiber i of a along pi; it must be, up to
    # translation, the fiber over the same vertex of pi1(a) along pi2
    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += [segre_product(a, b) for a in (1, 2) for b in (3, 4)]
    inputs += [cfg for cfg, _ in
               generate_corpus("cayley_join_type", 10, None, None, 1)]
    for cfg in inputs:
        a = normalize(cfg)[0]
        cert = structure_certificate(a)
        via_p = {
            cert.pi.apply(a.points[part[0]]): _up_to_translation(f)
            for part, f in zip(cert.grouping, join_factors(cert, a))
        }
        image = decompose_along(apply_affine(a, cert.pi1, dedupe=True),
                                cert.pi2)
        via_pi1 = {
            cert.pi2.apply(image.base.points[part[0]]): _up_to_translation(f)
            for part, f in zip(image.parts, image.fibers)
        }
        assert via_p == via_pi1, cfg.name


@hst.composite
def quotients_and_maps(draw):
    """(pi1, pi, M): pi1 the quotient of Z^n by a random saturated
    sublattice and pi = M * pi1, which factors through it; or, with M
    None, that pi with a small vector added to one row, which factors
    only when the vector vanishes on the sublattice."""
    n = draw(hst.integers(1, 5))
    row = hst.lists(hst.integers(-4, 4), min_size=n,
                    max_size=n).filter(any)
    pi1 = structure._quotient_map(
        saturate(draw(hst.lists(row, min_size=1, max_size=n))), n)
    k = pi1.codomain_rank
    r = draw(hst.integers(0, 3)) if k else 0
    m = draw(hst.lists(hst.lists(hst.integers(-3, 3), min_size=k,
                                 max_size=k), min_size=r, max_size=r))
    pi = mat_mul(m, pi1.matrix)
    if r and draw(hst.booleans()):
        i = draw(hst.integers(0, r - 1))
        pi[i] = [x + y for x, y in zip(pi[i], draw(row))]
        m = None
    return pi1, pi, m


@settings(max_examples=200, deadline=None)
@given(quotients_and_maps())
def test_factor_through_matches_snf_reference(case):
    pi1, pi, m = case
    pi2 = structure._factor_through(pi, pi1)
    assert pi2 == factor_through_snf(pi, pi1)
    if m is not None:
        assert pi2 == GroupHom.make(m, None, pi1.codomain_rank)


def _forged_certificates(a):
    """A well-formed certificate for every simplex projection of a and
    every saturated sublattice of its ker pi spanned by a subset of the
    HNF basis or by one sum of two basis rows: pi1 the quotient by that
    sublattice, delta = r - c, and every recorded check true."""
    for st in enumerate_simplex_projections(a):
        basis = st.kernel_lattice()
        spans = [[basis[i] for i in subset]
                 for k in range(len(basis) + 1)
                 for subset in itertools.combinations(range(len(basis)), k)]
        spans += [[[x + y for x, y in zip(u, v)]]
                  for u, v in itertools.combinations(basis, 2)]
        for span in spans:
            pi1 = structure._quotient_map(span, a.dim)
            pi2 = structure._factor_through(st.pi.matrix, pi1)
            delta = st.r - len(span)
            yield structure.StructureCertificate(
                n=a.dim, r=st.r, c=len(span), delta=delta,
                grouping=st.parts, pi1=pi1, pi2=pi2,
                p=structure._restrict_to_kernel(pi1, basis),
                seed=structure.DEFAULT_SEED, bound=structure.DEFAULT_BOUND,
                trials=structure.DEFAULT_TRIALS, oracle_delta=delta,
                checks=tuple((name, True)
                             for name in structure.RECORDED_CHECKS))


def test_forged_certificates_pass_only_with_the_true_delta():
    # verify bounds delta from above by oracle_replayed and from below
    # by join_type_wrt_pi2, so a forged certificate whose recorded
    # fields are all consistent passes only when it claims the defect;
    # the inputs are two fixtures, two Segre products and the 17 scrolls
    # with at most 12 points in dimension at most 5
    inputs = [(load_config_file(FIXTURES / "ex5_8.json"), 1),
              (load_config_file(FIXTURES / "p1xp2.json"), 1),
              (segre_product(1, 3), 2), (segre_product(2, 3), 1)]
    inputs += [(scroll(a, ks), scroll_delta(a, ks)) for a, ks in SCROLLS
               if len(scroll(a, ks)) <= 12 and scroll(a, ks).dim <= 5]
    forged = 0
    accepted = []
    for cfg, known in inputs:
        a = normalize(cfg)[0]
        for cert in _forged_certificates(a):
            forged += 1
            assert roundtrip(cert) == cert
            assert cert.p == restrict_to_kernel_via_pi2(
                cert.pi1, cert.pi.kernel_lattice(), cert.pi2)
            report = verify_certificate(a, cert)
            if report["all_passed"]:
                accepted.append((cert.delta, known))
            if cert.delta > known:
                assert not report["join_type_wrt_pi2"], cert
            elif cert.delta < known:
                assert not report["oracle_replayed"], cert
    assert all(d == known for d, known in accepted)
    assert (forged, len(accepted)) == (3442, 26)


def test_verify_replays_the_draws_of_analyze(ex5_8, monkeypatch):
    # verify's one oracle run replays the certificate's seed, bound and
    # trials, so it reads the tangency samples that analyze read first
    drawn = []
    real = tangency.sample_combination

    def recorded(*args):
        drawn.append(real(*args))
        return drawn[-1]

    monkeypatch.setattr(tangency, "sample_combination", recorded)
    cert = structure_certificate(ex5_8)
    analyzed = list(drawn)
    drawn.clear()
    assert verify_certificate(ex5_8, cert)["oracle_replayed"]
    assert drawn and drawn == analyzed[:len(drawn)]


def least_corank_rule(a, cert):
    """The replay verdict as the whole first round reads it: the least
    Hessian corank over round 0 (``defect_oracle``) equals delta."""
    oracle = defect_oracle(
        TangencyProblem.make(a, cert.seed, cert.bound, cert.trials))
    return (oracle.empty_dual and cert.delta == 0) or \
        oracle.delta == cert.delta


def test_replay_stopping_early_matches_the_least_corank_rule():
    # the replay stops at the first corank <= delta; on a generic round
    # it gives the verdict of the least corank over the whole round
    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += small_join_corpus()
    inputs += [segre_product(a, b) for a in (1, 2) for b in (3, 4)]
    verdicts = set()
    for cfg in inputs:
        a, _ = normalize(cfg)
        cert = structure_certificate(a)
        for delta in (cert.delta - 1, cert.delta, cert.delta + 1):
            edited = dataclasses.replace(cert, delta=delta)
            got = verify_certificate(a, edited)["oracle_replayed"]
            assert got == least_corank_rule(a, edited), (a.points, delta)
            verdicts.add((delta - cert.delta, got))
    assert verdicts == {(-1, False), (0, True), (1, False)}


def test_replay_on_a_round_that_is_not_generic(ex5_8):
    # with seed 4 and bound 1 the round-0 Hessians of ex5_8 have coranks
    # 2, 2, 1: the replay stops at the first, so a claimed delta of 2
    # passes oracle_replayed where the least corank, 1, refuses it, and
    # delta_consistent (r - c = 1) still refuses the certificate
    tp = TangencyProblem.make(ex5_8, seed=4, bound=1, trials=3)
    round0 = next(tangency.sample_rounds(tangency_space(ex5_8), 4, 1, 3))
    assert [ex5_8.dim - rank_int(tangency.hessian(ex5_8, coeffs))
            for coeffs in round0] == [2, 2, 1]
    assert [len(h) for _coeffs, h in tp.first_round()] == [2, 2, 1]
    assert [defect_oracle(tp, d).delta for d in range(4)] == [1, 1, 2, 2]
    cert = dataclasses.replace(structure_certificate(ex5_8), seed=4,
                               bound=1, trials=3)
    for delta, replayed in ((0, False), (1, True), (2, True), (3, False)):
        edited = dataclasses.replace(cert, delta=delta, oracle_delta=delta)
        report = verify_certificate(ex5_8, edited)
        assert report["oracle_replayed"] is replayed
        assert least_corank_rule(ex5_8, edited) is (delta == 1)
        assert report["delta_consistent"] is (delta == 1)
        assert report["all_passed"] is (delta == 1)


def test_verify_passes_on_fresh_certificates(segre_square, ex5_7, ex5_8):
    for cfg in (segre_square, ex5_7, ex5_8):
        cert = structure_certificate(cfg)
        report = verify_certificate(cfg, cert)
        assert report["all_passed"], report


def test_verify_rejects_tampered_delta(ex5_8):
    cert = structure_certificate(ex5_8)
    bad = dataclasses.replace(cert, delta=cert.r - cert.c + 1)
    report = verify_certificate(ex5_8, bad)
    assert not report["delta_consistent"]
    assert not report["all_passed"]


def test_verify_rejects_non_surjective_pi1(ex5_8):
    cert = structure_certificate(ex5_8)
    rows = [list(r) for r in cert.pi1.matrix]
    rows[0] = [2 * x for x in rows[0]]
    bad = dataclasses.replace(
        cert, pi1=GroupHom.make(rows, None, cert.n))
    report = verify_certificate(ex5_8, bad)
    assert not report["pi1_surjective"]
    assert not report["all_passed"]


def test_verify_rejects_certificate_of_another_dimension(ex5_8):
    p1xp2, _ = normalize(load_config_file(FIXTURES / "p1xp2.json"))
    cert = structure_certificate(p1xp2)
    with pytest.raises(CertificateMismatch, match="n = 3"):
        verify_certificate(ex5_8, cert)


def test_verify_reports_non_simplex_image(ex5_8):
    cert = structure_certificate(ex5_8)
    rows = [list(r) for r in cert.pi2.matrix]
    rows[0] = [2 * x for x in rows[0]]
    bad = dataclasses.replace(
        cert, pi2=GroupHom.make(rows, None, cert.pi2.domain_rank))
    report = verify_certificate(ex5_8, bad)
    assert [k for k, v in report.items() if not v] == [
        "simplex_image", "r_matches", "join_type_wrt_pi2", "all_passed"]


def test_verify_does_not_hide_decomposition_bugs(ex5_8, monkeypatch):
    cert = structure_certificate(ex5_8)

    def broken(a, pi):
        raise RuntimeError("bug in simplex_projection")

    monkeypatch.setattr(structure, "simplex_projection", broken)
    with pytest.raises(RuntimeError, match="bug in simplex_projection"):
        verify_certificate(ex5_8, cert)


def test_join_type_wrt_given_structure_matches_recompute():
    outcomes = set()
    for path in sorted(FIXTURES.iterdir()):
        a, _ = normalize(load_config_file(path))
        cert = structure_certificate(a)
        pairs = [(cert.pi1, cert.pi2)]
        for st in enumerate_simplex_projections(a):
            pairs.append((GroupHom.identity_map(a.dim), st.pi))
            ap = part_alpha_problem(a, st.parts, cert.seed, cert.bound,
                                    cert.trials)
            quotient = minimal_quotient(a, st, ap, alpha(ap))
            if quotient is not None:
                pairs.append(quotient)
        for pi1, pi2 in pairs:
            st = decompose_along(a, pi2.compose(pi1))
            got = join_type_wrt(st, pi1)
            assert got == join_type_wrt_recompute(a, pi1, pi2), path.name
            outcomes.add(got)
    assert outcomes == {True, False}


def test_verify_exhaustive_ex5_8(ex5_8):
    cert = structure_certificate(ex5_8)
    report = verify_certificate(ex5_8, cert, exhaustive=True)
    assert report["condition4_chain"]
    assert report["lower_bound_law"]
    assert report["all_passed"]


def exhaustive_reference(a, cert):
    """Reference: the exhaustive checks over the full enumeration, with
    alpha sampled over the whole first round on every structure, as
    (lower_bound_law, condition4_chain)."""
    replay = defect_oracle(
        TangencyProblem.make(a, cert.seed, cert.bound, cert.trials))
    if replay.empty_dual:
        return True, True
    lower_ok = chain_ok = True
    ker_pi1 = cert.pi1.kernel_lattice()
    ker_pi = cert.pi.kernel_lattice()
    for st in enumerate_simplex_projections(a):
        ap = part_alpha_problem(a, st.parts, cert.seed, cert.bound,
                                cert.trials)
        c2 = alpha(ap)
        if st.r - c2 > cert.delta:
            lower_ok = False
        if st.r - c2 != cert.delta:
            continue
        quotient = minimal_quotient(a, st, ap, c2)
        if quotient is None:
            continue
        pi1b, _ = quotient
        if st.r > 0 and not join_type_wrt(st, pi1b):
            continue
        ker_pi1b = pi1b.kernel_lattice()
        ker_pib = st.pi.kernel_lattice()
        if not (lattice_leq(ker_pi1, ker_pi1b)
                and lattice_leq(ker_pi1b, ker_pib)
                and lattice_leq(ker_pib, ker_pi)):
            chain_ok = False
    return lower_ok, chain_ok


def placed_apart(factors):
    """The factors embedded in complementary coordinates of one Z^m, so
    that they sum directly."""
    m = sum(f.dim for f in factors)
    placed = []
    off = 0
    for f in factors:
        placed.append(PointConfig.make(
            [(0,) * off + p + (0,) * (m - off - f.dim)
             for p in f.points], dim=m))
        off += f.dim
    return placed


_JOIN_FACTORS = (
    PointConfig.make([(0,), (1,), (2,)]),
    PointConfig.make([(0,), (1,), (2,), (3,)]),
    PointConfig.make([(0, 0), (1, 0), (0, 1), (1, 1)]),
    PointConfig.make([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]),
)


def small_join_corpus():
    """One join-type Cayley sum for each multiset of two or three
    factors with at most 9 points in all."""
    return [cayley_sum(placed_apart(facs))
            for r in (1, 2)
            for facs in itertools.combinations_with_replacement(
                _JOIN_FACTORS, r + 1)
            if sum(len(f) for f in facs) <= 9]


def test_exhaustive_checks_match_the_full_loop():
    # the pruned loop skips structures with r' < delta and does not
    # sample alpha where r' = delta and K is nonzero; editing delta
    # drives both checks both ways
    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += small_join_corpus()
    outcomes = set()
    for cfg in inputs:
        a, _ = normalize(cfg)
        cert = structure_certificate(a)
        for delta in sorted({cert.delta, cert.delta - 1, cert.delta + 1,
                             0, -1}):
            edited = dataclasses.replace(cert, delta=delta)
            report = verify_certificate(a, edited, exhaustive=True)
            got = (report["lower_bound_law"], report["condition4_chain"])
            assert got == exhaustive_reference(a, edited), (a.points, delta)
            outcomes.update(enumerate(got))
    assert outcomes == {(0, True), (0, False), (1, True), (1, False)}


def test_exhaustive_chain_matches_the_reference_on_forged_certificates():
    # ten of the 62 forged certificates of delta 1 break only the first
    # link ker pi1 <= ker pi1' of the chain, which the reference checks
    # on lattices through the minimal quotient
    a = normalize(load_config_file(FIXTURES / "ex5_8.json"))[0]
    outcomes = collections.Counter()
    for cert in _forged_certificates(a):
        if cert.delta != 1:
            continue
        report = verify_certificate(a, cert, exhaustive=True)
        got = (report["lower_bound_law"], report["condition4_chain"])
        assert got == exhaustive_reference(a, cert), cert
        outcomes[got] += 1
    assert outcomes[True, False] > 0 and outcomes[True, True] > 0


def test_exhaustive_chain_reads_a_pi1_with_no_rows_as_all_of_q_n():
    # a forged certificate with c = n has a pi1 with no rows, whose
    # kernel is all of Q^n; claiming delta 1, it reaches the chain at
    # the structures that realize delta, where V' is smaller
    a = normalize(load_config_file(FIXTURES / "ex5_8.json"))[0]
    forged = [cert for cert in _forged_certificates(a) if cert.c == a.dim]
    assert [cert.pi1.codomain_rank for cert in forged] == [0]
    cert = dataclasses.replace(forged[0], delta=1, oracle_delta=1)
    report = verify_certificate(a, cert, exhaustive=True)
    got = (report["lower_bound_law"], report["condition4_chain"])
    assert got == exhaustive_reference(a, cert) == (True, False)


def test_k_basis_is_empty_exactly_when_the_parts_sum_directly():
    # verify --exhaustive reads K = 0 off the alpha problem's K basis;
    # the parts taken as configurations are of join type exactly then
    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += small_join_corpus()
    inputs += [segre_product(1, 3), segre_product(2, 3), segre_product(2, 4)]
    outcomes = set()
    for cfg in inputs:
        a, _ = normalize(cfg)
        for st in enumerate_simplex_projections(a):
            summands = [part_difference_space(a, part) for part in st.parts]
            ap = part_alpha_problem(a, st.parts, 1, 7, 3)
            direct = sums_directly(s.basis for s in summands)
            assert direct == (not ap.k_basis), (a.points, st.parts)
            assert direct == is_join_type(
                PointConfig(a.dim, tuple(a.points[i] for i in part))
                for part in st.parts), (a.points, st.parts)
            outcomes.add(direct)
    assert outcomes == {True, False}


def frame_alpha_problem(frame, label, vertex):
    """The alpha problem of a kept labeling, written down in the frame
    as ``verify --exhaustive`` builds it."""
    return AlphaProblem(
        frame.config.dim, *frame.k_and_spans(label, vertex), 1, 7, 3)


def test_frame_k_matches_the_part_space_reference():
    # verify --exhaustive reads K off the affine frame: the kappa rows
    # lie in the frame image of the K of the part difference spaces and
    # have its dimension, the spanning rows of each part span its image,
    # and K = 0 exactly for join type
    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += small_join_corpus()
    inputs += [segre_product(1, 3), segre_product(2, 3), segre_product(2, 4)]
    outcomes = set()
    for cfg in inputs:
        a, _ = normalize(cfg)
        frame = exhaustive_frame(a)
        for label, vertex in frame.labelings():
            parts = [[j for j, v in enumerate(vertex) if v == lab]
                     for lab in range(max(label) + 1)]
            summands = [part_difference_space(a, part) for part in parts]
            images = [RationalSubspace.from_rows(
                a.dim, frame.to_frame(s.basis)) for s in summands]
            ap = frame_alpha_problem(frame, label, vertex)
            where = (a.points, parts)
            assert rank_int(ap.k_basis) == len(
                part_alpha_problem(a, parts).k_basis), where
            for row in ap.k_basis:
                comps = ap.components(row)
                assert not any(map(sum, zip(*comps))), where
                assert all(map(RationalSubspace.contains, images,
                               comps)), where
            assert [RationalSubspace.from_rows(a.dim, rows)
                    for rows in ap.bases] == images, where
            join = is_join_type(
                PointConfig(a.dim, tuple(a.points[i] for i in part))
                for part in parts)
            assert join == (not ap.k_basis), where
            outcomes.add(join)
    assert outcomes == {True, False}


def test_exhaustive_verify_builds_no_part_spaces(ex5_8, monkeypatch):
    # an honest exhaustive verify builds every alpha problem in frame
    # coordinates, and no pi': the one structure of ex5_8 that reaches
    # the chain check reads its last link off the labeling
    cert = structure_certificate(ex5_8)
    calls = collections.Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    counted(AlphaProblem, "make")
    counted(cayley.AffineFrame, "projection")
    counted(structure, "vprime")
    counted(cayley.AffineFrame, "k_and_spans")
    counted(structure, "alpha_of")
    for name in ("hnf", "hnf_basis", "kernel_basis_ff", "kernel_basis_int",
                 "saturate"):
        counted(structure, name)
    report = verify_certificate(ex5_8, cert, exhaustive=True)
    assert report["all_passed"]
    # a structure with r' = delta and K != 0 is skipped on the frame
    # test alone, so every alpha problem built is sampled; of structure's
    # own eliminations, verify runs one HNF of the columns of pi1, one of
    # pi1(ker pi) and one Q-basis of ker pi1, all before the loop
    assert calls.pop("k_and_spans") == calls.pop("alpha_of") > 0
    assert calls == {"vprime": 1, "hnf_basis": 2, "kernel_basis_ff": 1}


def test_frame_k_nonzero_matches_the_k_basis():
    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += small_join_corpus() + cube_census()
    outcomes = set()
    for cfg in inputs:
        a, _ = normalize(cfg)
        frame = exhaustive_frame(a)
        for label, vertex in frame.labelings():
            ap = frame_alpha_problem(frame, label, vertex)
            got = frame.k_nonzero(label, vertex)
            assert got == bool(ap.k_basis), (a.points, label)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_every_vprime_span_holds_every_k_component(monkeypatch):
    # vprime checks only that the summands sum directly modulo V', which
    # implies that V' holds every component of every K element; checked
    # here on every span analyze and verify --exhaustive take
    real = structure.vprime
    spans = collections.Counter()
    stage = ["analyze"]

    def checked(ap, target):
        span = real(ap, target)
        assert components_contained(ap, span), stage
        spans[stage[0]] += 1
        return span
    monkeypatch.setattr(structure, "vprime", checked)
    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += small_join_corpus()
    for cfg in inputs:
        a, _ = normalize(cfg)
        stage[0] = "analyze"
        cert = structure_certificate(a)
        stage[0] = "verify"
        assert verify_certificate(a, cert, exhaustive=True)["all_passed"]
    stage[0] = "analyze"
    for b in range(2, 6):
        for a_ in range(1, b):
            assert structure_certificate(segre_product(a_, b)).delta == b - a_
    assert spans["analyze"] > 0 and spans["verify"] > 0


@pytest.mark.parametrize("cfg", [
    load_config_file(FIXTURES / "ex5_8.json"), segre_product(2, 4)])
def test_round_trip_reads_k_components_and_points_once(cfg, monkeypatch):
    # components are split only off sampled K elements (vprime reads no
    # K basis), and join_type_wrt builds no configuration; analyze does
    # not test join type, which holds by construction, so it is derived
    # once, by verify
    a, _ = normalize(cfg)
    calls = collections.Counter()
    inside = []
    real_components = AlphaProblem.components
    real_evaluate = AlphaProblem.evaluate
    real_post_init = PointConfig.__post_init__

    def components(self, element):
        calls["components"] += 1
        return real_components(self, element)

    def evaluate(self, element):
        calls["evaluate"] += 1
        return real_evaluate(self, element)

    def post_init(self):
        calls["config_in_join_type"] += bool(inside)
        real_post_init(self)

    def join_type(struct, pi1):
        calls["join_type_wrt"] += 1
        inside.append(True)
        try:
            return join_type_wrt(struct, pi1)
        finally:
            inside.pop()

    monkeypatch.setattr(AlphaProblem, "components", components)
    monkeypatch.setattr(AlphaProblem, "evaluate", evaluate)
    monkeypatch.setattr(PointConfig, "__post_init__", post_init)
    monkeypatch.setattr(structure, "join_type_wrt", join_type)
    cert = structure_certificate(a)
    assert calls["join_type_wrt"] == 0
    assert verify_certificate(a, cert)["all_passed"]
    assert calls["components"] == calls["evaluate"] > 0
    assert calls["join_type_wrt"] == 1
    assert calls["config_in_join_type"] == 0


def test_exhaustive_checks_match_the_full_loop_on_the_cube_census():
    # no structure was planted in these inputs; the frame loop must give
    # the reports of the full loop over the part spaces at delta - 1,
    # delta and delta + 1
    deltas = collections.Counter()
    for cfg in cube_census():
        a, _ = normalize(cfg)
        cert = structure_certificate(a)
        deltas[cert.delta] += 1
        for step in (-1, 0, 1):
            edited = dataclasses.replace(cert, delta=cert.delta + step)
            report = verify_certificate(a, edited, exhaustive=True)
            got = (report["lower_bound_law"], report["condition4_chain"])
            assert got == exhaustive_reference(a, edited), (a.points, step)
    assert deltas == {0: 54, 1: 39}


# SHA-256 of the certificate bytes of every census input, in order
CENSUS_DIGESTS = {
    "cube_census":
        "d066db7a9228f916065af6a7536d4101ef5d46248a5991a26701f5a43a8b4a7f",
    "square_census":
        "b1473a656d8de1be5332fa45a53d02c0c12f6fe68a973f82f9b6c47209d00e3d",
}


@pytest.mark.parametrize("family,counts", [
    (cube_census, {(4, 0): 29, (5, 0): 5, (5, 1): 30, (6, 0): 12,
                   (6, 1): 9, (7, 0): 7, (8, 0): 1}),
    (square_census, {(3, 0): 25, (4, 0): 33, (4, 1): 23, (5, 0): 70,
                     (6, 0): 56, (7, 0): 28, (8, 0): 8, (9, 0): 1}),
])
def test_census_certifies_and_verifies_exhaustively(family, counts):
    # inputs built with no known structure: every certificate analyze
    # writes passes verify --exhaustive, and the defects per size and
    # the certificates' bytes are pinned
    got = collections.Counter()
    hashed = hashlib.sha256()
    for cfg in family():
        a, _ = normalize(cfg)
        text = certificate_to_json(structure_certificate(a))
        hashed.update(text.encode())
        cert = certificate_from_json(text)
        assert cert.p == restrict_to_kernel_via_pi2(
            cert.pi1, cert.pi.kernel_lattice(), cert.pi2)
        assert verify_certificate(a, cert, exhaustive=True)["all_passed"], \
            cfg.points
        got[len(cfg), cert.delta] += 1
    assert dict(got) == counts
    assert hashed.hexdigest() == CENSUS_DIGESTS[family.__name__]


@pytest.mark.parametrize("cfg", [
    load_config_file(FIXTURES / "ex5_8.json"), segre_product(2, 4)])
def test_round_trip_writes_its_alpha_problem_in_the_frame(cfg, monkeypatch):
    # analyze writes its alpha problem in the frame that found its
    # contact structure, one frame per attempt, and verify builds none
    a, _ = normalize(cfg)
    alpha_module = importlib.import_module("dualdefect.alpha")
    calls = collections.Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    counted(alpha_module, "k_space")
    counted(AlphaProblem, "make")
    counted(cayley, "_affine_frame")
    counted(structure, "_build_certificate")
    cert = structure_certificate(a)
    assert cert.delta > 0
    assert verify_certificate(a, cert)["all_passed"]
    assert calls == {"_affine_frame": calls["_build_certificate"],
                     "_build_certificate": calls["_build_certificate"]}
    assert calls["_build_certificate"] > 0


def test_analyze_pi1_matches_the_part_space_reference():
    # the V' of the frame problem, mapped back to Z^n, is the V' of the
    # part difference spaces: the reference builds it through
    # AlphaProblem.make, escalating the bound as analyze does
    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += small_join_corpus() + cube_census() + square_census()
    inputs += [segre_product(1, 3), segre_product(2, 3), segre_product(2, 4),
               segre_product(1, 6)]
    defective = 0
    for cfg in inputs:
        a, _ = normalize(cfg)
        cert = structure_certificate(a)
        st = simplex_projection(a, cert.pi)
        for k in range(tangency.ESCALATIONS + 1):
            ap = part_alpha_problem(a, st.parts, cert.seed,
                                    cert.bound << k, cert.trials)
            quotient = minimal_quotient(a, st, ap, alpha(ap))
            if quotient is not None:
                break
        assert quotient is not None, cfg.points
        assert lattice_eq(cert.pi1.kernel_lattice(),
                          quotient[0].kernel_lattice()), cfg.points
        defective += cert.delta > 0
    assert defective == 79


def test_last_link_on_the_labeling_matches_the_rank_of_pi_prime():
    # ker pi' <= ker pi exactly when pi is constant on each part of the
    # labeling; the reference stacks the rows of pi' and pi and asks
    # that the rank stay r'
    ex58 = normalize(load_config_file(FIXTURES / "ex5_8.json"))[0]
    forged = [cert.pi for cert in _forged_certificates(ex58)]
    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += small_join_corpus() + cube_census() + square_census()
    rng = random.Random(25)
    outcomes = collections.Counter()
    for cfg in inputs:
        a, _ = normalize(cfg)
        maps = [structure_certificate(a).pi]
        if a.dim == ex58.dim:
            maps += forged
        maps += [GroupHom.make([[rng.randint(-2, 2) for _ in range(a.dim)]
                                for _ in range(r)], None, a.dim)
                 for r in (0, 1, 2)]
        images = [[pi.apply(u) for u in a.points] for pi in maps]
        frame = exhaustive_frame(a)
        for label, vertex in frame.labelings():
            r2 = max(label)
            pi2 = frame.projection(label, vertex).pi.matrix
            for pi, im in zip(maps, images):
                got = structure._constant_on_parts(vertex, im, r2)
                assert got == (rank_int(pi2 + pi.matrix) == r2), (
                    a.points, label, pi)
                outcomes[got] += 1
    assert outcomes[True] and outcomes[False]


def test_join_defect_law_certificates():
    rng = random.Random(13)
    pool = [
        PointConfig.make([(0,), (1,), (2,)]),
        PointConfig.make([(0,), (1,), (2,), (3,)]),
        PointConfig.make([(0, 0), (1, 0), (0, 1), (1, 1)]),
    ]
    for _ in range(10):
        r = rng.randint(1, 2)
        placed = placed_apart([rng.choice(pool) for _ in range(r + 1)])
        assert is_join_type(placed)
        cert = structure_certificate(cayley_sum(placed))
        assert cert.delta == r


def test_serialization_roundtrip(ex5_8):
    cert = structure_certificate(ex5_8)
    text = certificate_to_json(cert)
    obj = json.loads(text)
    assert list(obj.keys()) == [
        "n", "r", "c", "delta", "grouping", "pi1", "pi2", "p",
        "seed", "bound", "trials", "oracle_delta", "checks",
    ]
    back = certificate_from_json(text)
    assert back.delta == cert.delta
    assert back.pi1.matrix == cert.pi1.matrix
    assert back.pi2.matrix == cert.pi2.matrix
    assert back.grouping == cert.grouping
    report = verify_certificate(ex5_8, back)
    assert report["all_passed"]


def test_serialization_big_integers():
    from dualdefect.structure import _enc_int, _dec_int
    big = 1 << 60
    assert _enc_int(big) == str(big)
    assert _enc_int(-big) == str(-big)
    assert _enc_int(12) == 12
    assert _dec_int(str(big)) == big


def test_determinism_same_seed(ex5_8):
    a = certificate_to_json(structure_certificate(ex5_8, seed=123))
    b = certificate_to_json(structure_certificate(ex5_8, seed=123))
    assert a == b


def test_certification_error_message_path(ex5_8):
    # oracle result embedded in the certificate must match delta
    cert = structure_certificate(ex5_8)
    assert cert.oracle_delta == cert.delta
    assert dict(cert.checks)["oracle_agrees"]


# SHA-256 of the default certificate of every fixture and of a seeded
# join-type corpus.  The determinism contract fixes these bytes for a
# fixed (seed, bound, trials): a refactor of the pipeline must keep them.
PINNED_CERTIFICATE_DIGESTS = {
    "ex5_7.json":
        "03018a6c6aa14b87b02f4299d0cc5e41a7a94700d1fa703cb068338c313a6b6e",
    "ex5_8.json":
        "93dbdf2b76798b50114158323e55e7a6db4904b49677b2a536db69dd54a38e43",
    "p1xp2.json":
        "f82bac0ca18d9af93842a08c323aa6e7f5acee02486917c094a9bfcce1fea99d",
    "segre.json":
        "46c96dea611f523ee6a2adca81bccfdad80536c15dd98901f033e00bcf6e4c12",
    "simplex1.txt":
        "0836da7707b7ee0e9401a480336f45d57be2f33d758155320adf6911bbb13082",
    "simplex2.txt":
        "d9ca0c26e2fa3c84e0693d7fb89278f0d340d2a25d25a7ea929d0ba415c38035",
    "simplex3.txt":
        "ae45a02d3a44456aa5ac6a8c825a81af3651ea68b2cb5911db2310d237e11158",
    "join_000":
        "d5921529a4d9b60df505ae8ace63e0f0b93d8c3c457e7325661ff00fecacd489",
    "join_001":
        "4426c5a21d9691a95ce1ce3428876bad4909cf714e6e868603af68f6260da999",
    "join_002":
        "bc8a6ec0cf5865c6204a1d1e6978c590eb250ef9f75ae4afe92f2068ce2a2aad",
    "join_003":
        "ea28ce548cd3ace02d271429956efa314a008939699d8f3bd62e2ee238695438",
    "join_004":
        "f50ba60fa4abd901b496e124d9b25258bcdfa37ba9b8ffb0b8731f0cb51ac73b",
    "join_005":
        "d5921529a4d9b60df505ae8ace63e0f0b93d8c3c457e7325661ff00fecacd489",
    "join_006":
        "9963c8e0437371e0aa0027a2f4426b683ca42ece4c2b41878f12c5030413d392",
    "join_007":
        "74f38c83587c9151add05db8dfa76b2c4137aa7823b9fb8fdb30fed57efad8ef",
    "join_008":
        "f89b688b896b39f01b02521bd2068f44682280f39f1630b2741baa70ec38686b",
    "join_009":
        "4ebab37388140b9c43843579e04c9b937cab5366b3a6ab90ab8a83b111fe156e",
    "segre_1_3":
        "9191732e8d54b2f65575004a0bf37eae6b3b72e4f68ddfe834d4cff2c15f733d",
    "segre_2_3":
        "468507366a3286e5ce476435e86f45ca4a299151efe8bc30a62598f74ffcfcbf",
    "segre_2_4":
        "074b959ae3e648ae74b918c1f202843db9aa8255162f6241a8f06f6ca21e2ba6",
    "segre_1_6":
        "9d518a9c5ef8ab6ded78287334320f68404977b42a1a04a22aa9e177b22702e3",
}


def test_certificate_bytes_pinned():
    inputs = [(p.name, load_config_file(p))
              for p in sorted(FIXTURES.iterdir())]
    inputs += [(cfg.name, cfg) for cfg, _ in
               generate_corpus("cayley_join_type", 10, None, None, 1)]
    inputs += [(f"segre_{a}_{b}", segre_product(a, b))
               for a, b in ((1, 3), (2, 3), (2, 4), (1, 6))]
    got = {}
    for name, cfg in inputs:
        text = certificate_to_json(structure_certificate(normalize(cfg)[0]))
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == PINNED_CERTIFICATE_DIGESTS


# SHA-256 of the `verify --exhaustive --out` report of each input's
# certificate with delta one less, as analyze wrote it, and one more;
# the reports differ only in which checks fail
_ALL_PASS = (
    "7cf5b664c959a3774cc2c2c1cc131b8293321b292a14d09cefeb68b3ebd71df2")
_BOTH_FAIL = (  # lower_bound_law and condition4_chain fail
    "887f43f102645d1d6c057bb7f11be19691febc388a06592b893162f862291963")
_LAW_FAILS = (  # lower_bound_law fails, condition4_chain passes
    "617d230db458ca181033b07cfc611461c2614498e0f824f903e74032742eddd0")
_DELTA_FAILS = (  # both pass; the delta and oracle checks fail
    "f5ffd004fe466ed47d810a79c439a0c4f8c1db6a795fb498e33cab435332fff5")
PINNED_EXHAUSTIVE_REPORTS = {
    "ex5_7.json": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
    "ex5_8.json": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
    "p1xp2.json": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
    "segre.json": (_LAW_FAILS, _ALL_PASS, _DELTA_FAILS),
    "simplex1.txt": (_DELTA_FAILS, _ALL_PASS, _DELTA_FAILS),
    "simplex2.txt": (_DELTA_FAILS, _ALL_PASS, _DELTA_FAILS),
    "simplex3.txt": (_DELTA_FAILS, _ALL_PASS, _DELTA_FAILS),
    "small_join_00": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
    "small_join_01": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
    "small_join_02": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
    "small_join_03": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
    "small_join_04": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
    "small_join_05": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
    "small_join_06": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
    "small_join_07": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
    "small_join_08": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
    "small_join_09": (_BOTH_FAIL, _ALL_PASS, _DELTA_FAILS),
}


def test_exhaustive_report_bytes_pinned(tmp_path):
    inputs = [(p.name, p) for p in sorted(FIXTURES.iterdir())]
    for i, cfg in enumerate(small_join_corpus()):
        path = tmp_path / f"small_join_{i:02d}.json"
        path.write_text(dump_config_json(cfg), encoding="utf-8")
        inputs.append((path.stem, path))
    cert_path = tmp_path / "cert.json"
    report_path = tmp_path / "report.json"
    got = {}
    for name, path in inputs:
        assert run(["analyze", str(path), "--out", str(cert_path)]) == 0
        obj = json.loads(cert_path.read_text(encoding="utf-8"))
        digests = []
        for step in (-1, 0, 1):
            cert_path.write_text(
                json.dumps(dict(obj, delta=obj["delta"] + step)),
                encoding="utf-8")
            code = run(["verify", str(path), str(cert_path), "--exhaustive",
                        "--out", str(report_path)])
            assert code == (0 if step == 0 else 1), (name, step)
            digests.append(
                hashlib.sha256(report_path.read_bytes()).hexdigest())
        got[name] = tuple(digests)
    assert got == PINNED_EXHAUSTIVE_REPORTS


def pi1_edits(pi1):
    """Every single-entry (+1) and row-add edit of a pi1 matrix."""
    edits = []
    for i, row in enumerate(pi1):
        for j in range(len(row)):
            edited = [list(r) for r in pi1]
            edited[i][j] += 1
            edits.append(edited)
    for i, j in itertools.permutations(range(len(pi1)), 2):
        edited = [list(r) for r in pi1]
        edited[i] = [x + y for x, y in zip(pi1[i], pi1[j])]
        edits.append(edited)
    return edits


def test_pi1_tampering_fails_a_named_check(ex5_8):
    obj = json.loads(certificate_to_json(structure_certificate(ex5_8)))
    edits = pi1_edits(obj["pi1"])
    assert len(edits) == 50
    for edited in edits:
        cert = certificate_from_json(json.dumps(dict(obj, pi1=edited)))
        report = verify_certificate(ex5_8, cert)
        failed = [name for name, ok in report.items() if not ok]
        assert "all_passed" in failed and len(failed) > 1, edited


def test_simplex_projection_refuses_what_decompose_along_refuses(ex5_8):
    obj = json.loads(certificate_to_json(structure_certificate(ex5_8)))
    doubled = [list(r) for r in obj["pi2"]]
    doubled[0] = [2 * x for x in doubled[0]]
    edits = [dict(obj, pi1=e) for e in pi1_edits(obj["pi1"])]
    edits.append(dict(obj, pi2=doubled))
    refused = []
    for edit in edits:
        pi = certificate_from_json(json.dumps(edit)).pi
        outcome = []
        for split in (simplex_projection, decompose_along):
            try:
                split(ex5_8, pi)
                outcome.append(False)
            except NotSimplexImage:
                outcome.append(True)
        assert outcome[0] == outcome[1], edit
        refused.append(outcome[0])
    assert refused[-1] and not all(refused)


def test_unrealizable_grouping_raises_certification_error(ex5_8,
                                                          monkeypatch):
    monkeypatch.setattr(structure, "projection_for_partition",
                        lambda a, parts: None)
    with pytest.raises(CertificationError, match="not realizable"):
        structure_certificate(ex5_8)


def test_oracle_stop_rule_matches_the_first_corank_reference():
    # verify replays defect_oracle with at_most = delta; on the 378 cells
    # of the weak-sampling grid and every delta in -1..n+1, it passes and
    # reads samples exactly as the first corank <= delta rule does
    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += [segre_product(1, 3), segre_product(2, 3), segre_product(2, 4),
               segre_product(1, 6)]
    inputs += small_join_corpus()
    verdicts = collections.Counter()
    for cfg in inputs:
        a, _ = normalize(cfg)
        for sampling in itertools.product((0, 4), (1, 2, 3), (1, 2, 3)):
            tp = TangencyProblem.make(a, *sampling)
            for delta in range(-1, a.dim + 2):
                oracle = defect_oracle(tp, delta)
                passed, read = first_corank_rule(a, *sampling, delta)
                assert ((oracle.delta or 0) == delta) is passed, (
                    a.points, sampling, delta)
                assert oracle.samples_used == read
                verdicts[passed] += 1
    assert verdicts == {True: 411, False: 2235}


def test_weak_sampling_fails_only_by_certification_error():
    # samples drawn from tiny bounds are often not generic; every failed
    # attempt is retried, and an input whose attempts all fail ends in
    # one CertificationError, never a GenericityFailure.  The grid is the
    # fixtures, four Segre products and the small join corpus at seeds 0
    # and 4, bounds 1..3 and trials 1..3: 378 cells
    inputs = [load_config_file(p) for p in sorted(FIXTURES.iterdir())]
    inputs += [segre_product(1, 3), segre_product(2, 3), segre_product(2, 4),
               segre_product(1, 6)]
    inputs += small_join_corpus()
    outcomes = collections.Counter()
    for cfg in inputs:
        a, _ = normalize(cfg)
        for sampling in itertools.product((0, 4), (1, 2, 3), (1, 2, 3)):
            try:
                cert = structure_certificate(a, *sampling)
            except CertificationError:
                outcomes["failed"] += 1
                continue
            assert verify_certificate(a, cert)["all_passed"], (a.points,
                                                               sampling)
            assert is_surjective_snf(cert.pi1.matrix)
            outcomes["certified"] += 1
    assert outcomes == {"certified": 321, "failed": 57}


def test_segre_1_6_retries_a_sampling_failure():
    # at bound 1 no sampled component span passes; the attempt at
    # bound 2 certifies
    a, _ = normalize(segre_product(1, 6))
    cert = structure_certificate(a, seed=0, bound=1, trials=1)
    assert (cert.delta, cert.bound) == (5, 1)
    assert verify_certificate(a, cert)["all_passed"]
