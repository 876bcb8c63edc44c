"""Tangency space, generic Hessian, and the randomized corank oracle.

A hyperplane tangent to the toric variety of A at the all-ones point has
coefficient vector a = (a_u) with sum a_u = 0 and sum a_u u = 0.  For
generic such a, the corank of the quadratic form sum a_u u u^T equals the
dual defect; its kernel spans the tangent directions of the contact
plane, and grouping points by the induced linear functional recovers the
minimal simplex projection.

All sampled arithmetic is in integers.  The tangency basis and every
Hessian kernel come from fraction-free elimination and are one positive
integer multiple of the rational bases, so each sample is a positive
multiple of the rational sample with the same draws, and every rank,
kernel span and grouping is that of the rational computation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import mul

from .config import PointConfig, require_normalized
from .cayley import cayley_sum
from .exact_linalg import IntMat, RationalSubspace, kernel_basis_ff, rank_int

DEFAULT_SEED = 0xA11CE
DEFAULT_BOUND = 1 << 20
DEFAULT_TRIALS = 3
ESCALATIONS = 2


class GenericityFailure(RuntimeError):
    """Random samples disagreed even after escalating the bound."""


class ArityError(ValueError):
    """Coefficient vector length does not match the point count."""


def check_sampling(bound: int, trials: int) -> None:
    """Reject sampling parameters that draw nothing or never stop."""
    if bound < 1:
        raise ValueError(f"sampling bound must be at least 1, not {bound}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")


@dataclass(frozen=True)
class TangencyProblem:
    config: PointConfig
    tangency_basis: tuple[tuple[int, ...], ...]
    seed: int = DEFAULT_SEED
    bound: int = DEFAULT_BOUND
    trials: int = DEFAULT_TRIALS

    def __post_init__(self):
        check_sampling(self.bound, self.trials)

    @classmethod
    def make(cls, config: PointConfig, seed: int = DEFAULT_SEED,
             bound: int = DEFAULT_BOUND, trials: int = DEFAULT_TRIALS
             ) -> "TangencyProblem":
        basis = tangency_space(config)
        return cls(config, tuple(tuple(row) for row in basis),
                   seed, bound, trials)

    @property
    def dim_l(self) -> int:
        return len(self.tangency_basis)


@dataclass(frozen=True)
class DefectResult:
    """Outcome of the corank oracle.

    delta is None exactly when the dual variety is degenerate
    (EmptyDual: no tangent hyperplane at the identity at all).
    """

    delta: int | None
    rank_witness: tuple[int, ...] | None
    samples_used: int

    @property
    def empty_dual(self) -> bool:
        return self.delta is None


def tangency_space(a: PointConfig) -> IntMat:
    """Integer basis of {coefficients a_u : sum a_u = 0, sum a_u u = 0}.

    For a normalized configuration the dimension is #A - n - 1.  The
    rows are one common positive multiple of the rational kernel basis
    (see ``kernel_basis_ff``).
    """
    require_normalized(a, "tangency_space")
    rows = [[1] * len(a)] + [list(col) for col in zip(*a.points)]
    return kernel_basis_ff(rows)


def hessian(a: PointConfig, coeffs) -> IntMat:
    """The n x n matrix sum_u a_u u u^T, exact in the coefficients' type."""
    coeffs = list(coeffs)
    if len(coeffs) != len(a):
        raise ArityError(f"{len(coeffs)} coefficients for {len(a)} points")
    n = a.dim
    cols = list(zip(*a.points))
    h = [[0] * n for _ in range(n)]
    for i in range(n):
        weighted = [c * x for c, x in zip(coeffs, cols[i])]
        for j in range(i, n):
            h[i][j] = h[j][i] = sum(map(mul, weighted, cols[j]))
    return h


def sample_combination(rng: random.Random, basis, bound: int):
    """A random nonzero integer combination of the basis rows.

    One weight per row is drawn from [-bound, bound]; all weights are
    redrawn while they are all zero.
    """
    while True:
        weights = [rng.randint(-bound, bound) for _ in basis]
        if any(weights):
            break
    return tuple(sum(map(mul, weights, col)) for col in zip(*basis))


def sample_rounds(basis, seed: int, bound: int, trials: int):
    """The one genericity policy: ESCALATIONS + 1 rounds of samples.

    Round k lazily yields `trials` samples (see ``sample_combination``)
    with weights in [-(bound << k), bound << k], all from one
    ``random.Random(seed)``.  A caller that needs no escalation takes the
    first round; one that meets disagreement moves on to the next round,
    and a round left early draws nothing more.
    """
    rng = random.Random(seed)
    for k in range(ESCALATIONS + 1):
        yield (sample_combination(rng, basis, b)
               for b in itertools.repeat(bound << k, trials))


def defect_oracle(p: TangencyProblem) -> DefectResult:
    """delta = n - (generic rank of the Hessian), or EmptyDual.

    The generic rank is the maximum over `trials` seeded samples; lower
    semicontinuity of rank makes the maximum correct with overwhelming
    probability.
    """
    if p.dim_l == 0:
        return DefectResult(None, None, 0)
    best_rank = -1
    witness = None
    for coeffs in next(sample_rounds(p.tangency_basis, p.seed, p.bound,
                                     p.trials)):
        r = rank_int(hessian(p.config, coeffs))
        if r > best_rank:
            best_rank = r
            witness = coeffs
    return DefectResult(p.config.dim - best_rank, witness, p.trials)


def _grouping_from_kernel(a: PointConfig, kernel: IntMat):
    """Partition points by the functional v -> <u, v> on the kernel."""
    keys = {}
    order = []
    for i, u in enumerate(a.points):
        key = tuple(sum(map(mul, u, v)) for v in kernel)
        if key not in keys:
            keys[key] = []
            order.append(key)
        keys[key].append(i)
    return tuple(tuple(keys[k]) for k in order)


def contact_grouping(p: TangencyProblem):
    """Group points touching the same contact-plane functional.

    Samples generic tangency coefficients, takes the Hessian kernel, and
    groups u ~ u' when <u - u', v> = 0 for every kernel vector v.  All
    trials must produce the same partition; on disagreement the sampling
    bound is doubled and the whole round retried.
    """
    if p.dim_l == 0:
        raise ValueError("contact grouping needs a nonempty tangency space")
    for samples in sample_rounds(p.tangency_basis, p.seed, p.bound,
                                 p.trials):
        parts = None
        kernel = None
        agreed = True
        best_corank = None
        for coeffs in samples:
            ker = kernel_basis_ff(hessian(p.config, coeffs))
            grouping = _grouping_from_kernel(p.config, ker)
            if parts is None:
                parts, kernel, best_corank = grouping, ker, len(ker)
            elif grouping != parts or len(ker) != best_corank:
                agreed = False
                break
        if agreed:
            sub = RationalSubspace.from_rows(p.config.dim, kernel)
            return parts, sub
    raise GenericityFailure(
        "contact grouping unstable across samples; sampling bound too small"
    )


def slice_contact_dim(fibers, seed: int = DEFAULT_SEED,
                      bound: int = DEFAULT_BOUND,
                      trials: int = DEFAULT_TRIALS) -> int:
    """Dimension of the open contact slice of a Cayley sum.

    Equals r minus the generic dimension of the span of the fiberwise
    moment vectors m_i = sum_j a_ij u_ij, for generic tangency
    coefficients of the Cayley sum.
    """
    check_sampling(bound, trials)
    fibers = list(fibers)
    r = len(fibers) - 1
    if r == 0:
        return 0
    total = cayley_sum(fibers)
    require_normalized(total, "slice_contact_dim")
    m = fibers[0].dim
    basis = tangency_space(total)
    if not basis:
        return 0
    # fiber index of each Cayley point, read off the simplex tail
    fiber_of = []
    for pt in total.points:
        tail = pt[m:]
        fiber_of.append(tail.index(1) + 1 if any(tail) else 0)
    best = 0
    for coeffs in next(sample_rounds(basis, seed, bound, trials)):
        moments = [[0] * m for _ in range(r + 1)]
        for c, pt, fi in zip(coeffs, total.points, fiber_of):
            for j in range(m):
                moments[fi][j] += c * pt[j]
        best = max(best, rank_int(moments))
    return r - best
