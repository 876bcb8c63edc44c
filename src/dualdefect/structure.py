"""Main pipeline: dual defect with a machine-checkable structure certificate.

Given a normalized configuration, the contact grouping yields the minimal
projection pi with simplex image; the alpha invariant of the part
difference spaces inside ker pi gives c, written down in the affine frame
that found pi (``AffineFrame.k_and_spans``), as ``verify --exhaustive``
writes it for every structure; quotienting by the minimal subspace,
mapped back to Z^n (``AffineFrame.from_frame``), factors pi = pi2 o pi1,
and delta = r - c.  An independent randomized Hessian-corank oracle must
agree or certification fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

from .alpha import AlphaProblem, alpha as alpha_of, check_star, vprime
from .cayley import (
    EXHAUSTIVE_LIMIT,
    NotSimplexImage,
    decompose_along,
    exhaustive_frame,
    is_join_type,
    join_type_wrt,
    projection_for_partition,
    simplex_projection,
)
from .config import (
    DECIMAL,
    GroupHom,
    PointConfig,
    apply_affine,
    normalize,
    read_json,
    require_normalized,
)
from .exact_linalg import (
    IntMat,
    hnf,
    hnf_coords,
    identity,
    kernel_basis_ff,
    kernel_basis_int,
    mat_mul,
    rank_int,
    saturate,
    transpose,
)
from .tangency import (
    DEFAULT_BOUND,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    ESCALATIONS,
    GenericityFailure,
    TangencyProblem,
    check_sampling,
    check_seed,
    contact_grouping,
    defect_oracle,
    first_corank_at_most,
)


class CertificationError(RuntimeError):
    """No attempt certified delta, or a join factor failed its check."""


class CertificateMismatch(ValueError):
    """The certificate is for a configuration of another dimension."""


# the self-checks analyze records in a certificate, in this order
RECORDED_CHECKS = ("oracle_agrees", "pi1_surjective", "pi_factors",
                   "join_type_wrt_pi2")


@dataclass(frozen=True)
class StructureCertificate:
    """Exactly the fields of the certificate JSON; oracle_delta is None
    for an empty dual.  ``join_factors`` derives the Cayley fibers."""

    n: int
    r: int
    c: int
    delta: int
    grouping: tuple[tuple[int, ...], ...]
    pi1: GroupHom
    pi2: GroupHom
    p: GroupHom
    seed: int
    bound: int
    trials: int
    oracle_delta: int | None
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


def _restrict_to_kernel(pi1: GroupHom, ker_pi: IntMat,
                        pi2: GroupHom) -> GroupHom:
    """The map p with p = pi1 restricted to ker pi, in kernel bases;
    ``ker_pi`` is the HNF basis ``pi.kernel_lattice()``."""
    ker_pi2 = pi2.kernel_lattice()
    cols = []
    for b in ker_pi:
        coords = hnf_coords(ker_pi2, pi1.apply(b))
        if coords is None:
            raise ArithmeticError("pi1 does not map ker pi into ker pi2")
        cols.append(coords)
    return GroupHom.make(transpose(cols), None, len(ker_pi))


def _factor_through(pi_mat: IntMat, pi1: GroupHom) -> GroupHom | None:
    """The map pi2 with pi2 * pi1 = pi, or None when pi does not factor.

    The rows of pi1 are independent, so its HNF h = u * pi1 has no zero
    row, and row i of pi2 is x * u for the one x with x * h = row i of
    pi (``hnf_coords``).
    """
    h, u = hnf(pi1.matrix_rows)
    coords = []
    for row in pi_mat:
        x = hnf_coords(h, row)
        if x is None:
            return None
        coords.append(x)
    return GroupHom.make(mat_mul(coords, u), None, pi1.codomain_rank)


def _constant_on_parts(vertex, images, r: int) -> bool:
    """Whether the images take one value on each of the r + 1 vertex
    classes of a kept labeling: exactly when ker pi' lies in the kernel
    of the map that gave them, over Q.

    The differences of points that share a vertex lie in ker pi', and
    those of the set P_l of basis points labeled l give |P_l| - 1
    independent ones, n - r in all, which is dim ker pi'; so they span
    it.
    """
    return len(set(zip(vertex, images))) == r + 1


def _build_certificate(tp: TangencyProblem, delta: int):
    """One attempt at the full pipeline: (struct, c, (pi1, pi2)), with
    r - c = delta, ker pi1 = V' and pi = pi2 o pi1.

    The contact grouping's projection comes from its affine frame
    (``projection_for_partition``), its alpha problem is written down in
    that frame, and V' is mapped back to Z^n and saturated; the frame
    map is invertible, so this is the V' of the part difference spaces.
    Raises CertificationError naming the step that fails on this
    attempt's sample: the grouping is not realizable, the removal
    condition fails, r - c disagrees with the oracle's delta, or pi does
    not factor through the quotient by V'.  A GenericityFailure of
    ``contact_grouping``, ``check_star`` or ``vprime`` passes through.
    """
    n = tp.config.dim
    found = projection_for_partition(tp.config, contact_grouping(tp))
    if found is None:
        raise CertificationError("contact grouping is not realizable over Z")
    struct, frame, label, vertex = found
    ap = AlphaProblem.from_components(
        n, *frame.k_and_spans(label, vertex), tp.seed, tp.bound, tp.trials)
    c = alpha_of(ap)
    if not check_star(ap):
        raise CertificationError("removal condition fails")
    if struct.r - c != delta:
        raise CertificationError(f"structure delta {struct.r - c} "
                                 f"disagrees with oracle delta {delta}")
    pi1 = _quotient_map(saturate(frame.from_frame(vprime(ap, c).basis)), n)
    pi2 = _factor_through(struct.pi.matrix_rows, pi1)
    if pi2 is None:
        raise CertificationError("pi does not factor through the quotient "
                                 "by V'")
    return struct, c, (pi1, pi2)


def structure_certificate(a: PointConfig, seed: int = DEFAULT_SEED,
                          bound: int = DEFAULT_BOUND,
                          trials: int = DEFAULT_TRIALS
                          ) -> StructureCertificate:
    """Compute delta with a replayable structure certificate.

    When the Hessian corank oracle finds delta > 0, each attempt
    (``_build_certificate``) must certify the same delta = r - c; an
    attempt that fails, by a CertificationError or a GenericityFailure,
    is retried with the sampling bound doubled, up to ESCALATIONS times.
    When every attempt fails, one CertificationError names the failure,
    or each failure with its bound when they differ.

    The four recorded checks hold by construction and are written true;
    ``verify_certificate`` re-derives each fact.  delta is the oracle's
    (``_build_certificate``), pi1 comes from a unimodular HNF transform
    (``_quotient_map``), pi2 * pi1 = x * u * pi1 = x * h = pi
    (``_factor_through``), and ``vprime`` proved that the parts sum
    directly mod V', which ``from_frame`` maps onto ker pi1 over Q.
    """
    require_normalized(a, "structure_certificate")
    tp = TangencyProblem.make(a, seed, bound, trials)
    oracle = defect_oracle(tp)
    if oracle.empty_dual or oracle.delta == 0:
        r, c, grouping = 0, 0, (tuple(range(len(a))),)
        pi1 = p = GroupHom.identity_map(a.dim)
        pi2 = GroupHom.zero_map(a.dim)
    else:
        failures = []
        for k in range(ESCALATIONS + 1):
            try:
                # the first attempt reads the oracle's samples from tp
                struct, c, (pi1, pi2) = _build_certificate(
                    tp if k == 0 else replace(tp, bound=bound << k),
                    oracle.delta)
                break
            except (CertificationError, GenericityFailure) as exc:
                failures.append((bound << k, str(exc)))
        else:
            raise CertificationError(
                f"{failures[0][1]} at every sampling bound up to "
                f"{bound << ESCALATIONS}"
                if len({failure for _, failure in failures}) == 1 else
                "every sampling bound fails: " + "; ".join(
                    f"at bound {b}, {failure}" for b, failure in failures))
        r, grouping = struct.r, struct.parts
        p = _restrict_to_kernel(pi1, struct.pi.kernel_lattice(), pi2)
    return StructureCertificate(
        n=a.dim, r=r, c=c, delta=r - c, grouping=grouping, pi1=pi1, pi2=pi2,
        p=p, seed=seed, bound=bound, trials=trials, oracle_delta=oracle.delta,
        checks=tuple((name, True) for name in RECORDED_CHECKS))


def join_factors(cert: StructureCertificate, a: PointConfig):
    """The factors p(A_0), ..., p(A_r) of the join description.

    The fibers A_i are those of a decomposed along cert.pi.  Their
    Cayley sum must be of join type, and every factor, normalized, must
    have oracle defect 0 (or degenerate to a point with empty dual).
    """
    factors = tuple(
        apply_affine(f, cert.p, dedupe=True)
        for f in decompose_along(a, cert.pi).fibers
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
                       exhaustive: bool = False,
                       limit: int = EXHAUSTIVE_LIMIT) -> dict:
    """Independent re-check of a certificate; raises CertificateMismatch
    when cert.n is not a.dim.

    Passing checks prove delta from both sides, with no genericity
    assumption.  Upper bound, ``oracle_replayed``: the replay reads the
    problem's round 0 under the certificate's seed, bound and trials up
    to the first Hessian kernel of size <= delta, and passes when that
    size is delta, as a rank at a sample never exceeds the generic
    rank; analyze read corank delta and none lower in that round, so the
    replay cannot fail a certificate that analyze wrote.  Lower bound,
    ``simplex_image``, ``r_matches``, ``pi1_surjective``,
    ``pi1_kernel_rank``, ``join_type_wrt_pi2``: the pi1(V_i) sum
    directly, so the components of a K element lie in ker pi1 and
    alpha <= c; the law r' - alpha' <= delta of arXiv 1605.05801, for
    every Cayley structure, bounds the defect below by r - alpha >=
    r - c = delta (``delta_consistent``).  The other checks tie the
    recorded oracle value, self-checks and p to these.
    Exhaustive mode also checks that law (``lower_bound_law``) and the
    kernel chain of condition (4) on every simplex projection with
    r' >= delta; those with r' < delta satisfy the law and cannot
    realize delta.  Per structure, a kept labeling of one affine frame,
    it computes only what the two checks read: a structure with
    r' = delta and K != 0 (``AffineFrame.k_nonzero``) builds nothing,
    the alpha problem of any other is written down in the frame
    (``AffineFrame.k_and_spans``), and alpha stops at the first sample
    of rank above r' - delta, which proves r' - c' < delta.
    The chain ker pi1 <= ker pi1' <= ker pi' <= ker pi of saturated
    lattices is checked on Q-spans, with no pi' and no lattice built:
    a Q-basis of ker pi1 (``kernel_basis_ff``), mapped into the frame
    once, in the V' of ``vprime``, and pi constant on each part of the
    labeling (``_constant_on_parts``), as the differences within parts
    span ker pi'.  The rest of condition (4) holds by construction: V'
    lies in the sum of the V_i, inside ker pi', and ``vprime`` checked
    that the V_i sum directly mod V'.
    """
    if cert.n != a.dim:
        raise CertificateMismatch(
            f"certificate has n = {cert.n}, but the configuration spans "
            f"Z^{a.dim}"
        )
    checks: dict[str, bool] = {}
    checks["delta_consistent"] = cert.delta == cert.r - cert.c
    checks["oracle_recorded"] = (
        (cert.oracle_delta is None and cert.delta == 0)
        or cert.oracle_delta == cert.delta
    )
    recorded = cert.checks_dict()
    checks["checks_recorded"] = (
        sorted(recorded) == sorted(RECORDED_CHECKS)
        and all(v is True for v in recorded.values())
    )
    checks["pi1_surjective"] = cert.pi1.is_surjective()
    pi = cert.pi
    ker_pi = pi.kernel_lattice()
    checks["pi1_kernel_rank"] = (cert.n - rank_int(cert.pi1.matrix_rows)
                                 == cert.c)
    checks["p_matches"] = cert.p == _restrict_to_kernel(cert.pi1, ker_pi,
                                                        cert.pi2)
    try:
        struct = simplex_projection(a, pi)
    except NotSimplexImage:
        struct = None
    checks["simplex_image"] = (struct is not None
                               and struct.parts == cert.grouping)
    checks["r_matches"] = struct is not None and struct.r == cert.r
    checks["join_type_wrt_pi2"] = cert.r == 0 or (
        struct is not None and join_type_wrt(struct, cert.pi1)
    )
    tp = TangencyProblem.make(a, cert.seed, cert.bound, cert.trials)
    checks["oracle_replayed"] = (
        (tp.dim_l == 0 and cert.delta == 0)
        or first_corank_at_most(tp, cert.delta) == cert.delta
    )
    if exhaustive and tp.dim_l == 0:
        # no dual hypersurface, so the lower-bound law is vacuous
        checks["lower_bound_law"] = True
        checks["condition4_chain"] = True
    elif exhaustive:
        frame = exhaustive_frame(a, limit)
        # a Q-basis of ker pi1 in frame coordinates; a pi1 with no rows
        # (c = n) has all of Q^n as its kernel
        rows = cert.pi1.matrix_rows
        ker_pi1 = frame.to_frame(kernel_basis_ff(rows) if rows
                                 else identity(cert.n))
        images = [pi.apply(u) for u in a.points]
        lower_ok = True
        chain_ok = True
        # a structure with r' < delta can neither break r' - c' <= delta
        # nor realize delta; one with r' = delta realizes it exactly when
        # c' = 0, that is when K is zero, as a nonzero K element has a
        # nonzero component.  A sample of rank above r' - delta proves
        # r' - c' < delta, so alpha reads no further.
        for label, vertex in frame.labelings(r_min=max(cert.delta, 0)):
            r2 = max(label)
            if r2 == cert.delta and frame.k_nonzero(label, vertex):
                continue
            ap = AlphaProblem.from_components(
                cert.n, *frame.k_and_spans(label, vertex), cert.seed,
                cert.bound, cert.trials)
            c2 = alpha_of(ap, above=r2 - cert.delta)
            if r2 - c2 > cert.delta:
                lower_ok = False
            # condition (4) on spans: ker pi1 in V', the span of ker pi1',
            # and ker pi' in ker pi, as pi is constant on each part
            if r2 - c2 != cert.delta or not check_star(ap):
                continue
            span = vprime(ap, c2)
            if not (all(map(span.contains, ker_pi1))
                    and _constant_on_parts(vertex, images, r2)):
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


def _dec_int(x) -> int:
    """An integer as ``_enc_int`` writes it: a JSON integer, or a decimal
    string; floats and booleans are refused, not truncated."""
    if type(x) is int:
        return x
    if isinstance(x, str) and DECIMAL.fullmatch(x):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


def certificate_to_obj(cert: StructureCertificate) -> dict:
    """The JSON object of a certificate, before encoding."""
    return {
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
        "oracle_delta": ("empty_dual" if cert.oracle_delta is None
                         else cert.oracle_delta),
        "checks": {k: v for k, v in cert.checks},
    }


def certificate_to_json(cert: StructureCertificate) -> str:
    return json.dumps(certificate_to_obj(cert), indent=2)


def certificate_from_json(text: str) -> StructureCertificate:
    obj = read_json(text)
    if not isinstance(obj, dict):
        raise ValueError("certificate is not a JSON object")
    for field in fields(StructureCertificate):
        if field.name not in obj:
            raise ValueError(f"certificate has no {field.name!r} field")
    n = _dec_int(obj["n"])
    c = _dec_int(obj["c"])
    r = _dec_int(obj["r"])
    if not (0 <= r and 0 <= c and r + c <= n):
        raise ValueError(f"r = {r} and c = {c} do not fit n = {n}")

    def table(key):
        rows = obj[key]
        if type(rows) is not list or any(type(x) is not list for x in rows):
            raise ValueError(f"{key!r} is not an array of arrays")
        return [[_dec_int(x) for x in row] for row in rows]

    def mat(key, rows, cols):
        m = table(key)
        if len(m) != rows or any(len(row) != cols for row in m):
            raise ValueError(f"{key} is not a {rows} x {cols} matrix")
        return GroupHom.make(m, None, cols)

    oracle = obj["oracle_delta"]
    bound = _dec_int(obj["bound"])
    trials = _dec_int(obj["trials"])
    seed = _dec_int(obj["seed"])
    check_seed(seed)
    check_sampling(bound, trials)
    checks = obj["checks"]
    if not isinstance(checks, dict):
        raise ValueError("'checks' is not an object")
    return StructureCertificate(
        n=n, r=r, c=c, delta=_dec_int(obj["delta"]),
        grouping=tuple(map(tuple, table("grouping"))),
        pi1=mat("pi1", n - c, n),
        pi2=mat("pi2", r, n - c),
        p=mat("p", n - r - c, n - r),
        seed=seed,
        bound=bound,
        trials=trials,
        oracle_delta=None if oracle == "empty_dual" else _dec_int(oracle),
        checks=tuple(checks.items()),
    )
