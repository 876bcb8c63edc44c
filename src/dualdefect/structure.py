"""Main pipeline: dual defect with a machine-checkable structure certificate.

Given a normalized configuration, the contact grouping yields the minimal
projection pi with simplex image; the alpha invariant of the part
difference spaces inside ker pi gives c; quotienting by the minimal
subspace factors pi = pi2 o pi1, and delta = r - c.  An independent
randomized Hessian-corank oracle must agree or certification fails.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

from .alpha import AlphaProblem, alpha as alpha_of, check_star, vprime
from .cayley import (
    NotSimplexImage,
    SimplexProjection,
    decompose_along,
    cayley_sum,
    enumerate_simplex_projections,
    is_join_type,
    join_type_wrt,
    projection_for_partition,
)
from .config import (
    GroupHom,
    PointConfig,
    apply_affine,
    normalize,
    require_normalized,
)
from .exact_linalg import (
    IntMat,
    RationalSubspace,
    hnf_coords,
    identity,
    kernel_basis_int,
    lattice_leq,
    mat_mul,
    solve_int_many,
    transpose,
)
from .tangency import (
    DEFAULT_BOUND,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    ESCALATIONS,
    DefectResult,
    TangencyProblem,
    check_sampling,
    contact_grouping,
    defect_oracle,
)


class CertificationError(RuntimeError):
    """The two independent defect computations disagree, or a certified
    invariant failed to verify."""


class CertificateMismatch(ValueError):
    """The certificate is for a configuration of another dimension."""


# the self-checks analyze records in a certificate, in this order
RECORDED_CHECKS = ("oracle_agrees", "pi1_surjective", "pi_factors",
                   "join_type_wrt_pi2")


@dataclass(frozen=True)
class StructureCertificate:
    n: int
    r: int
    c: int
    delta: int
    grouping: tuple[tuple[int, ...], ...]
    pi1: GroupHom
    pi2: GroupHom
    p: GroupHom
    fibers: tuple[PointConfig, ...]
    seed: int
    bound: int
    trials: int
    oracle_delta: DefectResult
    checks: tuple[tuple[str, bool], ...]

    @property
    def pi(self) -> GroupHom:
        return self.pi2.compose(self.pi1)

    def checks_dict(self) -> dict[str, bool]:
        return dict(self.checks)


def _quotient_map(lattice: IntMat, n: int) -> GroupHom:
    """A surjection of Z^n whose kernel is the given saturated lattice.

    The rows returned by the integer kernel computation belong to a
    unimodular matrix, so any such quotient is automatically surjective.
    """
    if not lattice:
        return GroupHom.identity_map(n)
    rows = kernel_basis_int([list(r) for r in lattice])
    return GroupHom.make(rows, None, n)


def _contact_projection(tp: TangencyProblem):
    """The minimal simplex projection pi, read off the contact grouping,
    and the grouping."""
    parts = contact_grouping(tp)
    pi = projection_for_partition(tp.config, parts)
    if pi is None:
        raise CertificationError("contact grouping is not realizable over Z")
    return pi, parts


def _part_difference_space(a: PointConfig, part) -> RationalSubspace:
    base = a.points[part[0]]
    rows = [[x - y for x, y in zip(a.points[i], base)]
            for i in part[1:]]
    return RationalSubspace.from_rows(a.dim, rows)


def _restrict_to_kernel(pi1: GroupHom, pi: GroupHom,
                        pi2: GroupHom) -> GroupHom:
    """The map p with p = pi1 restricted to ker pi, in kernel bases."""
    ker_pi = pi.kernel_lattice()
    ker_pi2 = pi2.kernel_lattice()
    cols = []
    for b in ker_pi:
        coords = hnf_coords(ker_pi2, pi1.apply(b))
        if coords is None:
            raise ArithmeticError("pi1 does not map ker pi into ker pi2")
        cols.append(coords)
    mat = transpose(cols) if ker_pi else []
    return GroupHom.make(mat, None, len(ker_pi))


def _factor_through(pi_mat: IntMat, pi1: GroupHom) -> GroupHom | None:
    """The map pi2 with pi2 * pi1 = pi, or None when pi does not factor.

    pi2 is read off by lifting the standard basis of the codomain of
    pi1 through pi1.
    """
    m1 = pi1.matrix_rows
    k = pi1.codomain_rank
    lifts = solve_int_many(m1, identity(k))
    if any(lift is None for lift in lifts):
        return None
    pi2 = GroupHom.make(mat_mul(pi_mat, transpose(lifts)) if k else [],
                        None, k)
    if mat_mul(pi2.matrix_rows, m1) != pi_mat:
        return None
    return pi2


def _alpha_problem(a: PointConfig, struct: SimplexProjection, seed: int,
                   bound: int, trials: int) -> AlphaProblem:
    """The part difference spaces of a simplex projection inside ker pi."""
    ambient = RationalSubspace.from_rows(a.dim, struct.pi.kernel_lattice())
    summands = [_part_difference_space(a, part) for part in struct.parts]
    return AlphaProblem.make(summands, ambient, seed, bound, trials)


def _minimal_quotient(a: PointConfig, struct: SimplexProjection,
                      ap: AlphaProblem, c: int):
    """The factorization pi = pi2 o pi1 with ker pi1 = V', as (pi1, pi2).

    ``ap`` is the structure's alpha problem and ``c`` = alpha(ap).
    Returns None when the removal condition fails on the sample, or when
    pi does not factor through the quotient by V'.
    """
    if not check_star(ap):
        return None
    pi1 = _quotient_map(vprime(ap, c).integer_lattice(), a.dim)
    pi2 = _factor_through(struct.pi.matrix_rows, pi1)
    return None if pi2 is None else (pi1, pi2)


def _build_certificate(tp: TangencyProblem):
    """One attempt at the full pipeline; returns the certificate pieces.

    Returns None when no minimal quotient is found on this attempt's
    sample, so the caller can retry with a larger bound.
    """
    a = tp.config
    pi, parts = _contact_projection(tp)
    struct = decompose_along(a, pi)
    ap = _alpha_problem(a, struct, tp.seed, tp.bound, tp.trials)
    c = alpha_of(ap)
    quotient = _minimal_quotient(a, struct, ap, c)
    if quotient is None:
        return None
    pi1, pi2 = quotient
    p = _restrict_to_kernel(pi1, pi, pi2)
    return parts, struct, pi1, pi2, p, struct.r, c, struct.r - c


def structure_certificate(a: PointConfig, seed: int = DEFAULT_SEED,
                          bound: int = DEFAULT_BOUND,
                          trials: int = DEFAULT_TRIALS
                          ) -> StructureCertificate:
    """Compute delta with a replayable structure certificate.

    The structural computation delta = r - c and the Hessian corank
    oracle must agree, and the removal condition must hold; either
    failure persisting after escalating the sampling bound raises
    CertificationError.
    """
    require_normalized(a, "structure_certificate")
    n = a.dim
    tp = TangencyProblem.make(a, seed, bound, trials)
    oracle = defect_oracle(tp)
    if oracle.empty_dual or oracle.delta == 0:
        grouping = (tuple(range(len(a))),)
        checks = tuple((name, True) for name in RECORDED_CHECKS)
        return StructureCertificate(
            n=n, r=0, c=0, delta=0, grouping=grouping,
            pi1=GroupHom.identity_map(n), pi2=GroupHom.zero_map(n),
            p=GroupHom.identity_map(n), fibers=(a,),
            seed=seed, bound=bound, trials=trials,
            oracle_delta=oracle, checks=checks,
        )
    for k in range(ESCALATIONS + 1):
        # the first attempt reads the oracle's samples from tp itself
        last = _build_certificate(tp if k == 0 else
                                  replace(tp, bound=bound << k))
        if last is not None and last[7] == oracle.delta:
            break
    else:
        if last is None:
            raise CertificationError(
                f"removal condition fails at every sampling bound up to "
                f"{bound << ESCALATIONS}: the samples are not generic, or "
                f"no minimal quotient exists"
            )
        raise CertificationError(
            f"structure delta {last[7]} disagrees with oracle "
            f"delta {oracle.delta} after escalation"
        )
    parts, struct, pi1, pi2, p, r, c, delta = last
    checks = tuple(zip(RECORDED_CHECKS, (
        delta == oracle.delta,
        pi1.is_surjective(),
        mat_mul(pi2.matrix_rows, pi1.matrix_rows) == struct.pi.matrix_rows,
        join_type_wrt(struct, pi1),
    )))
    if not all(v for _, v in checks):
        raise CertificationError(f"certified invariant failed: {checks}")
    return StructureCertificate(
        n=n, r=r, c=c, delta=delta, grouping=parts,
        pi1=pi1, pi2=pi2, p=p, fibers=struct.fibers,
        seed=seed, bound=bound, trials=trials,
        oracle_delta=oracle, checks=checks,
    )


def join_factors(cert: StructureCertificate, a: PointConfig):
    """The factors p(A_0), ..., p(A_r) of the join description.

    Their Cayley sum must be of join type, and every factor, normalized,
    must have oracle defect 0 (or degenerate to a point with empty dual).
    """
    factors = tuple(
        apply_affine(f, cert.p, dedupe=True) for f in cert.fibers
    )
    if not is_join_type(factors):
        raise CertificationError("join factors do not sum directly")
    for f in factors:
        nf, _ = normalize(f)
        res = defect_oracle(
            TangencyProblem.make(nf, cert.seed, cert.bound, cert.trials)
        )
        if not res.empty_dual and res.delta != 0:
            raise CertificationError(
                f"join factor has nonzero defect {res.delta}"
            )
    return factors


def verify_certificate(a: PointConfig, cert: StructureCertificate,
                       exhaustive: bool = False, limit: int = 11) -> dict:
    """Independent re-check of a certificate.

    Raises CertificateMismatch when cert.n is not a.dim.  Otherwise
    always checks the arithmetic invariants, that the recorded oracle
    value agrees with delta and the recorded self-checks are exactly
    the passing RECORDED_CHECKS, the simplex image, join type, and a
    fresh oracle run under a different seed.  In exhaustive
    mode additionally enumerates every simplex projection of a with
    r' >= delta and verifies the minimality kernel chain and the
    lower-bound inequality r' - c' <= delta; the projections with
    r' < delta satisfy the inequality and cannot realize delta.
    """
    if cert.n != a.dim:
        raise CertificateMismatch(
            f"certificate has n = {cert.n}, but the configuration spans "
            f"Z^{a.dim}"
        )
    checks: dict[str, bool] = {}
    checks["delta_consistent"] = cert.delta == cert.r - cert.c
    recorded_oracle = cert.oracle_delta
    checks["oracle_recorded"] = (
        (recorded_oracle.empty_dual and cert.delta == 0)
        or recorded_oracle.delta == cert.delta
    )
    recorded = cert.checks_dict()
    checks["checks_recorded"] = (
        sorted(recorded) == sorted(RECORDED_CHECKS)
        and all(v is True for v in recorded.values())
    )
    checks["pi1_surjective"] = cert.pi1.is_surjective()
    pi = cert.pi
    ker_pi1 = cert.pi1.kernel_lattice()
    checks["pi1_kernel_rank"] = len(ker_pi1) == cert.c
    checks["p_matches"] = cert.p == _restrict_to_kernel(cert.pi1, pi,
                                                        cert.pi2)
    try:
        struct = decompose_along(a, pi)
    except NotSimplexImage:
        struct = None
    checks["simplex_image"] = (struct is not None
                               and struct.parts == cert.grouping)
    checks["r_matches"] = struct is not None and struct.r == cert.r
    checks["join_type_wrt_pi2"] = cert.r == 0 or (
        struct is not None and join_type_wrt(struct, cert.pi1)
    )
    fresh = defect_oracle(
        TangencyProblem.make(a, cert.seed + 1, cert.bound, cert.trials)
    )
    checks["oracle_fresh_seed"] = (
        (fresh.empty_dual and cert.delta == 0)
        or fresh.delta == cert.delta
    )
    if exhaustive and fresh.empty_dual:
        # no dual hypersurface, so the lower-bound law is vacuous
        checks["lower_bound_law"] = True
        checks["condition4_chain"] = True
    elif exhaustive:
        lower_ok = True
        chain_ok = True
        ker_pi = pi.kernel_lattice()
        # a structure with r' < delta can neither break r' - c' <= delta
        # nor realize delta; one with r' = delta realizes it exactly when
        # c' = 0, that is when K is zero, as a nonzero K element has a
        # nonzero component
        for st in enumerate_simplex_projections(a, limit,
                                                r_min=max(cert.delta, 0)):
            ap = _alpha_problem(a, st, cert.seed, cert.bound, cert.trials)
            if st.r == cert.delta and ap.k_basis:
                continue
            c2 = alpha_of(ap)
            if st.r - c2 > cert.delta:
                lower_ok = False
            # condition (4): pairs realizing delta with join-type quotient
            if st.r - c2 != cert.delta:
                continue
            quotient = _minimal_quotient(a, st, ap, c2)
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
        checks["lower_bound_law"] = lower_ok
        checks["condition4_chain"] = chain_ok
    checks["all_passed"] = all(checks.values())
    return checks


# --- serialization ----------------------------------------------------------

_BIG = 1 << 53


def _enc_int(x: int):
    return str(x) if abs(x) >= _BIG else x


def _enc_mat(m) -> list:
    return [[_enc_int(int(x)) for x in row] for row in m]


_DECIMAL = re.compile(r"-?[0-9]+")


def _dec_int(x) -> int:
    """An integer as ``_enc_int`` writes it: a JSON integer, or a decimal
    string; floats and booleans are refused, not truncated."""
    if type(x) is int:
        return x
    if isinstance(x, str) and _DECIMAL.fullmatch(x):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


def certificate_to_json(cert: StructureCertificate) -> str:
    oracle = ("empty_dual" if cert.oracle_delta.empty_dual
              else cert.oracle_delta.delta)
    obj = {
        "n": cert.n,
        "r": cert.r,
        "c": cert.c,
        "delta": cert.delta,
        "grouping": [list(g) for g in cert.grouping],
        "pi1": _enc_mat(cert.pi1.matrix),
        "pi2": _enc_mat(cert.pi2.matrix),
        "p": _enc_mat(cert.p.matrix),
        "seed": _enc_int(cert.seed),
        "bound": _enc_int(cert.bound),
        "trials": cert.trials,
        "oracle_delta": oracle,
        "checks": {k: v for k, v in cert.checks},
    }
    return json.dumps(obj, indent=2)


def certificate_from_json(text: str) -> StructureCertificate:
    obj = json.loads(text)
    n = _dec_int(obj["n"])
    c = _dec_int(obj["c"])
    r = _dec_int(obj["r"])
    if not (0 <= r and 0 <= c and r + c <= n):
        raise ValueError(f"r = {r} and c = {c} do not fit n = {n}")

    def mat(key, rows, cols):
        m = [[_dec_int(x) for x in row] for row in obj[key]]
        if len(m) != rows or any(len(row) != cols for row in m):
            raise ValueError(f"{key} is not a {rows} x {cols} matrix")
        return GroupHom.make(m, None, cols)

    oracle = obj["oracle_delta"]
    if oracle == "empty_dual":
        od = DefectResult(None, None, 0)
    else:
        od = DefectResult(_dec_int(oracle), None, 0)
    bound = _dec_int(obj["bound"])
    trials = _dec_int(obj["trials"])
    check_sampling(bound, trials)
    checks = obj["checks"]
    if not isinstance(checks, dict):
        raise ValueError("'checks' is not an object")
    return StructureCertificate(
        n=n, r=r, c=c, delta=_dec_int(obj["delta"]),
        grouping=tuple(tuple(_dec_int(i) for i in g)
                       for g in obj["grouping"]),
        pi1=mat("pi1", n - c, n),
        pi2=mat("pi2", r, n - c),
        p=mat("p", n - r - c, n - r),
        fibers=(),
        seed=_dec_int(obj["seed"]),
        bound=bound,
        trials=trials,
        oracle_delta=od,
        checks=tuple(checks.items()),
    )
