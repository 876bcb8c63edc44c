"""Tangency space, generic Hessian, and the randomized corank oracle.

A hyperplane tangent to the toric variety of A at the all-ones point has
coefficient vector a = (a_u) with sum a_u = 0 and sum a_u u = 0.  For
generic such a, the corank of the quadratic form sum a_u u u^T equals the
dual defect; its kernel spans the tangent directions of the contact
plane, and grouping points by the induced linear functional recovers the
minimal simplex projection.

All sampled arithmetic is in integers.  A tangency sample is the
primitive kernel vector of [1; A] back-substituted from one forward
Bareiss pass (an ``Echelon``), a positive multiple of the rational
combination of the kernel basis with the same weights.  A Hessian's
forward pass gives its corank, and its kernel, back-substituted only
for the contact grouping, is the least positive integral multiple of
the rational kernel basis.  So every rank, kernel span and grouping is
that of the rational computation.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from operator import mul

from .config import PointConfig, group_indices, require_normalized
from .exact_linalg import Echelon, IntMat, kernel_basis_ff

DEFAULT_SEED = 0xA11CE
DEFAULT_BOUND = 1 << 20
DEFAULT_TRIALS = 3
# every round draws `trials` samples; a larger value is refused as an
# input error rather than left to run for hours
MAX_TRIALS = 1000
ESCALATIONS = 2


class GenericityFailure(RuntimeError):
    """Random samples disagreed even after escalating the bound."""


class ArityError(ValueError):
    """Coefficient vector length does not match the point count."""


def check_seed(seed: int) -> None:
    """Reject a negative seed, which would draw what its absolute value
    draws: ``random.Random`` seeds with abs(seed)."""
    if seed < 0:
        raise ValueError(f"seed must be at least 0, not {seed}")


def check_sampling(bound: int, trials: int) -> None:
    """Reject sampling parameters that draw nothing or never stop."""
    if bound < 1:
        raise ValueError(f"sampling bound must be at least 1, not {bound}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(
            f"trials must be in 1..{MAX_TRIALS}, not {trials}")


class SampledProblem:
    """The one sample stream of a problem with seed, bound and trials.

    A subclass names the basis it samples from (``sample_basis``, see
    ``sample_combination``) and what each sample becomes
    (``evaluate``).  ``rounds`` evaluates each round-0 draw the first
    time any reader reaches it and shares it with every later reader.
    The cache holds those draws and samples, not the problem, so
    nothing a problem keeps refers back to it.
    """

    def __post_init__(self):
        check_seed(self.seed)
        check_sampling(self.bound, self.trials)

    @functools.cached_property
    def _first(self):
        """The evaluated round-0 samples so far, and the draws to come."""
        return [], next(sample_rounds(self.sample_basis, self.seed,
                                      self.bound, self.trials))

    def first_round(self):
        """Round 0, evaluated sample by sample as the reader asks."""
        return next(self.rounds())

    def rounds(self):
        """``sample_rounds`` with every sample evaluated.

        A later round first replays as many round-0 draws as this reader
        took, so it draws exactly what ``sample_rounds`` draws after a
        first round left at that place.
        """
        used = 0

        def first():
            nonlocal used
            done, pending = self._first
            for used in range(1, self.trials + 1):
                if used > len(done):
                    done.append(self.evaluate(next(pending)))
                yield done[used - 1]

        yield first()
        rounds = sample_rounds(self.sample_basis, self.seed, self.bound,
                               self.trials)
        for _ in itertools.islice(next(rounds), used):
            pass
        for samples in rounds:
            yield map(self.evaluate, samples)


@dataclass(frozen=True)
class TangencyProblem(SampledProblem):
    """Tangency coefficients of a configuration, drawn from the
    forward pass of [1; A] (``tangency``, see ``sample_combination``).
    Each sample is kept with its Hessian's forward pass: its length is
    the corank, and only the contact grouping reads its
    ``kernel_basis``.
    """

    config: PointConfig
    tangency: Echelon
    seed: int = DEFAULT_SEED
    bound: int = DEFAULT_BOUND
    trials: int = DEFAULT_TRIALS

    @classmethod
    def make(cls, config: PointConfig, seed: int = DEFAULT_SEED,
             bound: int = DEFAULT_BOUND, trials: int = DEFAULT_TRIALS
             ) -> "TangencyProblem":
        require_normalized(config, "TangencyProblem")
        return cls(config, Echelon(_tangency_matrix(config)),
                   seed, bound, trials)

    @property
    def dim_l(self) -> int:
        return len(self.tangency)

    @property
    def sample_basis(self):
        return self.tangency

    def evaluate(self, coeffs):
        return coeffs, Echelon(hessian(self.config, coeffs))


@dataclass(frozen=True)
class DefectResult:
    """Outcome of the corank oracle.

    delta is None exactly when the dual variety is degenerate
    (EmptyDual: no tangent hyperplane at the identity at all).
    rank_witness is the first sample of least corank, a primitive
    integer vector (see ``TangencyProblem``).
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
    return kernel_basis_ff(_tangency_matrix(a))


def _tangency_matrix(a: PointConfig) -> IntMat:
    """The (n + 1) x #A matrix [1; A] whose kernel is the tangency space."""
    return [[1] * len(a)] + [list(col) for col in zip(*a.points)]


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
    """A random nonzero integer combination of the basis.

    One weight per basis vector (``len(basis)``) is drawn from
    [-bound, bound]; all weights are redrawn while they are all zero.
    Rows are summed with the weights; an ``Echelon`` back-substitutes
    the primitive kernel vector with them (``Echelon.combine``).
    """
    while True:
        weights = [rng.randint(-bound, bound) for _ in range(len(basis))]
        if any(weights):
            break
    if isinstance(basis, Echelon):
        return basis.combine(weights)
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

    delta is the least Hessian corank over the first round of samples,
    and the witness the first sample that reaches it; lower
    semicontinuity of rank makes the minimum correct with overwhelming
    probability.  Corank 0 is the least there is, so the round is read
    only up to the first nonsingular Hessian; ``samples_used`` counts
    the samples read.
    """
    if p.dim_l == 0:
        return DefectResult(None, None, 0)
    best = None
    for used, (coeffs, h) in enumerate(p.first_round(), 1):
        if best is None or len(h) < len(best[1]):
            best = coeffs, h
        if not h:
            break
    return DefectResult(len(best[1]), best[0], used)


def first_corank_at_most(p: TangencyProblem, delta: int) -> int | None:
    """The first Hessian corank <= delta in the problem's round 0, or
    None; each corank is read off the Hessian's forward pass."""
    if p.dim_l == 0:
        return None
    coranks = (len(h) for _coeffs, h in p.first_round())
    return next((k for k in coranks if k <= delta), None)


def _grouping_from_kernel(a: PointConfig, kernel: IntMat):
    """Partition points by the functional v -> <u, v> on the kernel."""
    values = [[sum(map(mul, u, v)) for u in a.points] for v in kernel]
    return group_indices(zip(*values) if kernel else [()] * len(a))


def contact_grouping(p: TangencyProblem):
    """Group points touching the same contact-plane functional.

    Takes the Hessian kernel of each sampled tangency coefficient
    vector and groups u ~ u' when <u - u', v> = 0 for every kernel
    vector v.  All trials of a round must produce the same partition
    and corank; on disagreement the next round, with a doubled bound,
    is tried.
    """
    if p.dim_l == 0:
        raise ValueError("contact grouping needs a nonempty tangency space")
    for samples in p.rounds():
        parts = None
        corank = None
        for _coeffs, h in samples:
            kernel = h.kernel_basis()
            grouping = _grouping_from_kernel(p.config, kernel)
            if parts is None:
                parts, corank = grouping, len(kernel)
            elif grouping != parts or len(kernel) != corank:
                break
        else:
            return parts
    raise GenericityFailure(
        "contact grouping unstable across samples; sampling bound too small"
    )
