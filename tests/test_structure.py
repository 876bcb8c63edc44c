import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from dualdefect.alpha import alpha
from dualdefect.cayley import (
    cayley_sum,
    decompose_along,
    enumerate_simplex_projections,
    is_join_type,
    join_type_wrt,
)
from dualdefect import structure
from dualdefect.cli import generate_corpus
from dualdefect.config import (
    GroupHom,
    PointConfig,
    apply_affine,
    load_config_file,
    normalize,
)
from dualdefect.exact_linalg import (
    hnf_basis,
    kernel_basis_int,
    lattice_eq,
    lattice_leq,
    mat_mul,
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
from dualdefect.tangency import TangencyProblem, defect_oracle

from conftest import (
    EX58_U,
    EX58_V,
    FIXTURES,
    join_type_wrt_recompute,
    random_unimodular,
    unit_vector,
)


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
        hnf_basis(kernel_basis_int(pi.matrix_rows)),
        hnf_basis(kernel_basis_int(expected)),
    )


def test_find_min_projection_ex5_7(ex5_7):
    pi = structure_certificate(ex5_7).pi
    assert pi.codomain_rank == 3
    # kernel = Z^2 x {0}, the projection factors through pr
    assert lattice_eq(
        hnf_basis(kernel_basis_int(pi.matrix_rows)),
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
        hnf_basis(kernel_basis_int(cert.pi.matrix_rows)),
        hnf_basis(kernel_basis_int(expected_pi)),
    )


def test_certificate_invariants(ex5_8):
    cert = structure_certificate(ex5_8)
    assert cert.delta == cert.r - cert.c
    assert cert.pi1.is_surjective()
    assert mat_mul(cert.pi2.matrix_rows, cert.pi1.matrix_rows) \
        == cert.pi.matrix_rows
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
        raise RuntimeError("bug in decompose_along")

    monkeypatch.setattr(structure, "decompose_along", broken)
    with pytest.raises(RuntimeError, match="bug in decompose_along"):
        verify_certificate(ex5_8, cert)


def test_join_type_wrt_given_structure_matches_recompute():
    outcomes = set()
    for path in sorted(FIXTURES.iterdir()):
        a, _ = normalize(load_config_file(path))
        cert = structure_certificate(a)
        pairs = [(cert.pi1, cert.pi2)]
        for st in enumerate_simplex_projections(a):
            pairs.append((GroupHom.identity_map(a.dim), st.pi))
            ap = structure._alpha_problem(a, st, cert.seed, cert.bound,
                                          cert.trials)
            quotient = structure._minimal_quotient(a, st, ap, alpha(ap))
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
    alpha sampled on every structure, as (lower_bound_law,
    condition4_chain)."""
    fresh = defect_oracle(
        TangencyProblem.make(a, cert.seed + 1, cert.bound, cert.trials))
    if fresh.empty_dual:
        return True, True
    lower_ok = chain_ok = True
    ker_pi1 = cert.pi1.kernel_lattice()
    ker_pi = cert.pi.kernel_lattice()
    for st in enumerate_simplex_projections(a):
        ap = structure._alpha_problem(a, st, cert.seed, cert.bound,
                                      cert.trials)
        c2 = alpha(ap)
        if st.r - c2 > cert.delta:
            lower_ok = False
        if st.r - c2 != cert.delta:
            continue
        quotient = structure._minimal_quotient(a, st, ap, c2)
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
    assert cert.oracle_delta.delta == cert.delta
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
}


def test_certificate_bytes_pinned():
    inputs = [(p.name, load_config_file(p))
              for p in sorted(FIXTURES.iterdir())]
    inputs += [(cfg.name, cfg) for cfg, _ in
               generate_corpus("cayley_join_type", 10, 3, 7, 1)]
    got = {}
    for name, cfg in inputs:
        text = certificate_to_json(structure_certificate(normalize(cfg)[0]))
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == PINNED_CERTIFICATE_DIGESTS


def test_pi1_tampering_fails_a_named_check(ex5_8):
    # every single-entry (+1) and row-add edit of pi1 on ex5_8
    obj = json.loads(certificate_to_json(structure_certificate(ex5_8)))
    pi1 = obj["pi1"]
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
    assert len(edits) == 50
    for edited in edits:
        cert = certificate_from_json(json.dumps(dict(obj, pi1=edited)))
        report = verify_certificate(ex5_8, cert)
        failed = [name for name, ok in report.items() if not ok]
        assert "all_passed" in failed and len(failed) > 1, edited


def test_unrealizable_grouping_raises_certification_error(ex5_8,
                                                          monkeypatch):
    monkeypatch.setattr(structure, "projection_for_partition",
                        lambda a, parts: None)
    with pytest.raises(CertificationError, match="not realizable"):
        structure_certificate(ex5_8)
