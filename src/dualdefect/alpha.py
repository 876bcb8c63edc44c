"""The generic component-span invariant of a family of subspaces.

Given subspaces V_0, ..., V_r of a common rational space, K is the
kernel of the summation map V_0 + ... + V_r -> V.  The invariant alpha
is the dimension of the span of the components (m_0, ..., m_r) of a
generic element of K; the span itself is the minimal subspace whose
quotient makes the V_i sum directly, provided the removal condition
check_star holds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import RatMat, RationalSubspace, kernel_basis_rat, rank_rat
from .tangency import (
    DEFAULT_BOUND,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    ESCALATIONS,
    GenericityFailure,
    _sample_coeffs,
)


@dataclass(frozen=True)
class AlphaProblem:
    ambient: RationalSubspace
    summands: tuple[RationalSubspace, ...]
    k_basis: tuple[tuple[Fraction, ...], ...]
    seed: int = DEFAULT_SEED
    bound: int = DEFAULT_BOUND
    trials: int = DEFAULT_TRIALS

    @classmethod
    def make(cls, summands, ambient: RationalSubspace | None = None,
             seed: int = DEFAULT_SEED, bound: int = DEFAULT_BOUND,
             trials: int = DEFAULT_TRIALS) -> "AlphaProblem":
        summands = tuple(summands)
        assert summands
        m = summands[0].ambient_dim
        assert all(s.ambient_dim == m for s in summands)
        if ambient is None:
            ambient = RationalSubspace.from_rows(
                m, [row for s in summands for row in s.basis]
            )
        assert all(s <= ambient for s in summands)
        kb = tuple(tuple(row) for row in k_space(summands))
        return cls(ambient, summands, kb, seed, bound, trials)

    @property
    def r(self) -> int:
        return len(self.summands) - 1

    def components(self, element):
        """Split a K element (in summand coordinates) into ambient vectors."""
        m = self.ambient.ambient_dim
        out = []
        pos = 0
        for s in self.summands:
            comp = [Fraction(0)] * m
            for j in range(s.dim):
                c = element[pos + j]
                if c:
                    for k, x in enumerate(s.basis[j]):
                        comp[k] += c * x
            pos += s.dim
            out.append(comp)
        return out


def k_space(summands) -> RatMat:
    """Basis of the kernel of (m_0,...,m_r) -> m_0 + ... + m_r.

    Rows are in concatenated summand coordinates; the rank equals
    sum dim V_i - dim(sum V_i).
    """
    summands = list(summands)
    m = summands[0].ambient_dim
    cols = [list(row) for s in summands for row in s.basis]
    if not cols:
        return []
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(m)]
    return kernel_basis_rat(mat)


def alpha(p: AlphaProblem) -> int:
    """Generic dimension of the span of the components of a K element."""
    if not p.k_basis:
        return 0
    rng = random.Random(p.seed)
    best = 0
    for _ in range(p.trials):
        element = _sample_coeffs(rng, p.k_basis, p.bound)
        comps = p.components(element)
        best = max(best, rank_rat(comps))
    return best


def check_star(p: AlphaProblem) -> bool:
    """Whether any two components can be removed without shrinking the span.

    Decided on a generic sample; all trials must agree.
    """
    if not p.k_basis:
        return True
    if p.r < 1:
        return True
    bound = p.bound
    rng = random.Random(p.seed)
    for _ in range(ESCALATIONS + 1):
        verdicts = []
        for _ in range(p.trials):
            element = _sample_coeffs(rng, p.k_basis, bound)
            comps = p.components(element)
            full = rank_rat(comps)
            ok = True
            for i, j in itertools.combinations(range(p.r + 1), 2):
                rest = [c for k, c in enumerate(comps) if k not in (i, j)]
                if (rank_rat(rest) if rest else 0) != full:
                    ok = False
                    break
            verdicts.append(ok)
        if len(set(verdicts)) == 1:
            return verdicts[0]
        bound *= 2
    raise GenericityFailure("removal condition unstable across samples")


def vprime(p: AlphaProblem) -> RationalSubspace:
    """Span of the components of a generic K element.

    Requires the removal condition; the result is alpha-dimensional and
    verified to make the summand images in the quotient sum directly
    before it is returned.
    """
    m = p.ambient.ambient_dim
    if not p.k_basis:
        sub = RationalSubspace.from_rows(m, [])
        assert _quotient_is_direct(p, sub)
        return sub
    assert check_star(p), "removal condition fails; no minimal quotient exists"
    target = alpha(p)
    bound = p.bound
    rng = random.Random(p.seed)
    for _ in range(ESCALATIONS + 1):
        for _ in range(p.trials):
            element = _sample_coeffs(rng, p.k_basis, bound)
            comps = p.components(element)
            sub = RationalSubspace.from_rows(m, comps)
            if sub.dim != target:
                continue
            if _components_contained(p, sub) and _quotient_is_direct(p, sub):
                return sub
        bound *= 2
    raise GenericityFailure("no sampled component span passed verification")


def _components_contained(p: AlphaProblem, sub: RationalSubspace) -> bool:
    """Components of every K basis element must lie in the span."""
    for row in p.k_basis:
        for comp in p.components(row):
            if not sub.contains(comp):
                return False
    return True


def _quotient_is_direct(p: AlphaProblem, sub: RationalSubspace) -> bool:
    """dim(sum V_i + V')/V' == sum of dim(V_i + V')/V'."""
    m = p.ambient.ambient_dim
    joined = list(sub.basis)
    per_summand = 0
    for s in p.summands:
        lifted = RationalSubspace.from_rows(m, list(sub.basis) + list(s.basis))
        per_summand += lifted.dim - sub.dim
        joined.extend(s.basis)
    total = RationalSubspace.from_rows(m, joined).dim - sub.dim
    return total == per_summand
