"""The generic component-span invariant of a family of subspaces.

Given subspaces V_0, ..., V_r of a common rational space, K is the
kernel of the summation map V_0 + ... + V_r -> V.  The invariant alpha
is the dimension of the span of the components (m_0, ..., m_r) of a
generic element of K; the span itself is the minimal subspace whose
quotient makes the V_i sum directly, provided the removal condition
check_star holds.

Every K element is kept as its components concatenated.  The pipeline
writes K down in the affine frame (``cayley.AffineFrame.k_and_spans``)
and passes it to ``AlphaProblem.from_components``; ``AlphaProblem.make``
finds a K basis of hand-built summands with one kernel (``k_space``).

Each sampled K element is eliminated once: one kernel of the relations
among its components gives their rank and the removal condition (see
``_rank_and_removable``).  ``vprime`` eliminates a candidate span once
more and makes one check, that the summands sum directly modulo it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from .exact_linalg import (
    IntMat,
    RationalSubspace,
    identity,
    kernel_basis_ff,
    sums_directly,
)
from .tangency import (
    DEFAULT_BOUND,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    GenericityFailure,
    SampledProblem,
)


@dataclass(frozen=True)
class AlphaProblem(SampledProblem):
    """The summands V_0, ..., V_r of Q^ambient_dim, and nothing around them.

    ``bases`` holds rows spanning each summand, and ``k_basis`` rows
    spanning K, empty exactly when the summands sum directly; each K
    row is its components concatenated.  From ``make``, the bases are
    the RREF bases of the summands scaled by one common denominator and
    each K row is an integer kernel vector in those coordinates, mapped
    to its components.  Every sampled K element, and so every set of
    components, is the rational one times a single positive integer,
    which leaves all ranks and spans unchanged.  Each sample is kept as
    its components, their rank and whether any two of them can be
    removed without shrinking their span, both read off one dependency
    kernel (``_rank_and_removable``).
    """

    ambient_dim: int
    k_basis: tuple[tuple[int, ...], ...]
    bases: tuple[tuple[tuple[int, ...], ...], ...]
    seed: int = DEFAULT_SEED
    bound: int = DEFAULT_BOUND
    trials: int = DEFAULT_TRIALS

    @classmethod
    def make(cls, summands, seed: int = DEFAULT_SEED,
             bound: int = DEFAULT_BOUND,
             trials: int = DEFAULT_TRIALS) -> "AlphaProblem":
        summands = tuple(summands)
        if not summands:
            raise ValueError("alpha needs at least one summand")
        m = summands[0].ambient_dim
        if any(s.ambient_dim != m for s in summands):
            raise ValueError("summands live in different ambient spaces")
        bases = _integer_bases(summands)
        k_rows = []
        for coeffs in k_space(summands, bases):
            row = []
            for basis in bases:
                row += ([sum(map(mul, coeffs, col)) for col in zip(*basis)]
                        if basis else [0] * m)
                coeffs = coeffs[len(basis):]
            k_rows.append(row)
        return cls.from_components(m, k_rows, bases, seed, bound, trials)

    @classmethod
    def from_components(cls, ambient_dim: int, k_rows, spans,
                        seed: int = DEFAULT_SEED,
                        bound: int = DEFAULT_BOUND,
                        trials: int = DEFAULT_TRIALS) -> "AlphaProblem":
        """The summands spanned by the rows of ``spans``, with K spanned
        by ``k_rows``: nonzero K elements, each its components
        concatenated.  Nothing is eliminated or checked."""
        return cls(ambient_dim, tuple(map(tuple, k_rows)),
                   tuple(tuple(map(tuple, rows)) for rows in spans),
                   seed, bound, trials)

    @property
    def sample_basis(self):
        return self.k_basis

    def evaluate(self, element):
        comps = self.components(element)
        return (comps, *_rank_and_removable(comps))

    def components(self, element) -> IntMat:
        """Split a K element into its components, one per summand."""
        m = self.ambient_dim
        return [element[i * m:(i + 1) * m] for i in range(len(self.bases))]


def _integer_bases(summands) -> list[IntMat]:
    """The RREF bases of the summands times their common denominator.

    A primitive ``rref_ff`` row is its RREF row times its pivot, so the
    common denominator of all RREF entries is the lcm of the pivots and
    row i is scaled by that lcm over its own pivot.
    """
    den = lcm(*(row[c] for s in summands
                for row, c in zip(s.basis, s.pivots)))
    return [[[x * (den // row[c]) for x in row]
             for row, c in zip(s.basis, s.pivots)] for s in summands]


def _rank_and_removable(comps: IntMat) -> tuple[int, bool]:
    """The rank of the components, and whether any two of them can be
    removed without shrinking their span.

    Both come from one basis N of the linear relations among the
    components: ``kernel_basis_ff`` of the matrix whose columns they
    are, or the identity in ambient dimension 0, where that matrix has
    no rows.  The rank is their count less rows(N).  The columns of N
    represent the dual of the matroid of the components (Oxley, Matroid
    Theory, 2nd ed., section 2.2), so removing components i and j keeps
    the span exactly when columns i and j of N are independent: neither
    is zero and they are not parallel.  Each column is compared as a
    primitive vector with a positive first nonzero entry.
    """
    count = len(comps)
    if comps[0]:
        deps = kernel_basis_ff([list(row) for row in zip(*comps)])
    else:
        deps = identity(count)
    rank = count - len(deps)
    if count < 2:
        return rank, True
    keys = set()
    for col in zip(*deps):
        g = gcd(*col)
        if g == 0:
            return rank, False
        if next(x for x in col if x) < 0:
            g = -g
        keys.add(tuple(x // g for x in col))
    return rank, len(keys) == count


def k_space(summands, bases) -> IntMat:
    """Integer basis of the kernel of (m_0,...,m_r) -> m_0 + ... + m_r.

    Rows are in concatenated coordinates of ``bases``, the summands'
    ``_integer_bases``; the rank equals sum dim V_i - dim(sum V_i).
    """
    m = summands[0].ambient_dim
    cols = [row for basis in bases for row in basis]
    return kernel_basis_ff([[col[i] for col in cols] for i in range(m)])


def alpha(p: AlphaProblem, above: int | None = None) -> int:
    """Generic dimension of the span of the components of a K element.

    The largest rank over the first round of samples.  With ``above``,
    the round is read only up to the first sample whose rank exceeds
    it, and that rank is returned: a rank at a sample never exceeds the
    generic one, so it proves alpha > above.  Any other result read the
    whole round and is the same as without ``above``.
    """
    if not p.k_basis:
        return 0
    best = 0
    for _comps, rank, _removable in p.first_round():
        best = max(best, rank)
        if above is not None and rank > above:
            break
    return best


def check_star(p: AlphaProblem) -> bool:
    """Whether any two components can be removed without shrinking the span.

    Decided on a generic sample; all trials must agree.  Each sample's
    verdict is read off its dependency kernel (see
    ``_rank_and_removable``) without another elimination.
    """
    if not p.k_basis:
        return True
    for samples in p.rounds():
        verdicts = {removable for _comps, _rank, removable in samples}
        if len(verdicts) == 1:
            return verdicts.pop()
    raise GenericityFailure("removal condition unstable across samples")


def vprime(p: AlphaProblem, target: int) -> RationalSubspace:
    """Span V' of the components of a generic K element.

    ``target`` is alpha(p), and the removal condition check_star(p) must
    hold; the caller computes both.  The result is target-dimensional
    and checked once: the summands sum directly modulo V', so the
    components of a K element, which sum to zero, all lie in V'.
    """
    if not p.k_basis:
        span = RationalSubspace.from_rows(p.ambient_dim, [])
        if not _quotient_is_direct(p, span):
            raise RuntimeError("K is zero but the summands do not sum "
                               "directly")
        return span
    for samples in p.rounds():
        for comps, rank, _removable in samples:
            if rank != target:
                continue
            span = RationalSubspace.from_rows(p.ambient_dim, comps)
            if _quotient_is_direct(p, span):
                return span
    raise GenericityFailure("no sampled component span passed verification")


def _quotient_is_direct(p: AlphaProblem, span: RationalSubspace) -> bool:
    """dim(sum V_i + V')/V' == sum of dim(V_i + V')/V' for V' = span.

    Reducing a vector modulo V' is a linear map onto a complement of V'
    (up to one nonzero factor per vector), so the rank of the remainders
    of a family is the dimension its span adds to V', and the quotient
    sums directly when the remainders do (``sums_directly``).
    """
    return sums_directly([span.reduce(row) for row in basis]
                         for basis in p.bases)
