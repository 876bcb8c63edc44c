"""Cayley sums and their combinatorics.

Construction of Cayley sums, the simplex-image check of a projection
and the Cayley fibers it cuts a configuration into (read off kernel
coordinates, each up to translation), join-type predicates, and
exhaustive enumeration of all simplex-image projections of a small
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import NamedTuple

from .config import GroupHom, PointConfig, group_indices, require_normalized
from .exact_linalg import (
    DimensionError,
    IntMat,
    det,
    hnf_coords,
    identity,
    mat_vec,
    rref_ff,
    sums_directly,
    transpose,
)


class NotSimplexImage(ValueError):
    """The projection image is not a unimodular simplex {0, e_1, ..., e_r}."""


class TooLarge(ValueError):
    """Configuration exceeds the exhaustive enumeration limit."""


# largest dim enumerated by default; the search tries Bell(dim + 1) labelings
EXHAUSTIVE_LIMIT = 11


def _simplex_vertex(i: int, r: int) -> tuple[int, ...]:
    """Vertex i of {0, e_1, ..., e_r}; vertex 0 is the origin."""
    return tuple(1 if j == i - 1 else 0 for j in range(r))


@dataclass(frozen=True)
class SimplexProjection:
    """A projection of a configuration onto the unit simplex.

    base is the ambient configuration, pi a surjection of its lattice
    onto Z^r that carries base onto the vertices of a unimodular simplex
    (an affine automorphism of Z^r takes them to {0, e_1, ..., e_r}),
    and parts the partition of the point indices into the preimages of
    the vertices, ordered by least index.
    """

    base: PointConfig
    r: int
    parts: tuple[tuple[int, ...], ...]
    pi: GroupHom

    def __post_init__(self):
        if self.r + 1 != len(self.parts):
            raise ValueError(f"{len(self.parts)} parts for r = {self.r}")
        if sorted(i for p in self.parts for i in p) != list(
                range(len(self.base))):
            raise ValueError("parts do not partition the point indices")

    def kernel_lattice(self) -> IntMat:
        return self.pi.kernel_lattice()


@dataclass(frozen=True)
class CayleyStructure(SimplexProjection):
    """A realization of a configuration as a Cayley sum A_0 * ... * A_r.

    Extends its simplex projection by the fibers A_i, the preimages of
    the vertices, each defined up to translation: ``decompose_along``
    writes A_i in coordinates of ker pi.
    """

    fibers: tuple[PointConfig, ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.fibers) != len(self.parts):
            raise ValueError(f"{len(self.fibers)} fibers for "
                             f"{len(self.parts)} parts")


def cayley_sum(fibers) -> PointConfig:
    """(A_0 x {0}) u (A_1 x {e_1}) u ... u (A_r x {e_r})."""
    fibers = list(fibers)
    if not fibers:
        raise ValueError("a Cayley sum needs at least one fiber")
    m = fibers[0].dim
    if any(f.dim != m for f in fibers):
        raise DimensionError("fibers live in different ambient dimensions")
    r = len(fibers) - 1
    if r == 0:
        return fibers[0]
    pts = []
    for i, f in enumerate(fibers):
        tail = _simplex_vertex(i, r)
        pts.extend(p + tail for p in f.points)
    return PointConfig(m + r, tuple(sorted(pts)))


def is_join_type(fibers) -> bool:
    """Whether the difference lattices of the fibers sum directly.

    Decided over Q by ``sums_directly`` on the differences of each
    fiber from its first point, which span its difference lattice.
    """
    fibers = list(fibers)
    if not fibers:
        raise ValueError("join type needs at least one fiber")
    m = fibers[0].dim
    if any(f.dim != m for f in fibers):
        raise DimensionError("fibers live in different ambient dimensions")
    if any(not f.points for f in fibers):
        raise ValueError("an empty fiber has no difference lattice")
    return sums_directly(
        [[x - y for x, y in zip(p, f.points[0])] for p in f.points[1:]]
        for f in fibers)


def simplex_projection(a: PointConfig, pi: GroupHom) -> SimplexProjection:
    """The simplex projection of a along pi, or NotSimplexImage.

    The image of a must be r + 1 distinct points, r the codomain rank
    of pi, whose differences from the first form a unimodular matrix;
    that is exactly equivalence with the unit simplex.  As the
    differences of a normalized a generate Z^n, this also makes pi
    surjective.
    """
    if pi.domain_rank != a.dim:
        raise ValueError(f"projection of Z^{pi.domain_rank} applied to a "
                         f"configuration in Z^{a.dim}")
    require_normalized(a, "simplex_projection")
    r = pi.codomain_rank
    images = [pi.apply(p) for p in a.points]
    parts = group_indices(images)
    values = [images[part[0]] for part in parts]
    if len(values) != r + 1:
        raise NotSimplexImage(
            f"projection image has {len(values)} values, expected {r + 1}"
        )
    diffs = [[x - y for x, y in zip(v, values[0])] for v in values[1:]]
    if r > 0 and abs(det(diffs)) != 1:
        raise NotSimplexImage("image differences do not form a lattice basis")
    return SimplexProjection(a, r, parts, pi)


def decompose_along(a: PointConfig, pi: GroupHom) -> CayleyStructure:
    """Split a into Cayley fibers along a projection with simplex image.

    Fiber i is part i, the preimage of vertex i, translated by its first
    point u_first into ker pi and written in the HNF basis of ker pi:
    the coordinates of u - u_first for every u in the part.
    """
    sp = simplex_projection(a, pi)
    kernel = sp.kernel_lattice()
    fibers = []
    for part in sp.parts:
        first = a.points[part[0]]
        coords = [hnf_coords(kernel, [x - y for x, y in zip(a.points[i],
                                                             first)])
                  for i in part]
        if None in coords:
            raise ArithmeticError("two points of one part of a simplex "
                                  "projection differ outside ker pi")
        fibers.append(PointConfig(len(kernel),
                                  tuple(sorted(map(tuple, coords)))))
    return CayleyStructure(a, sp.r, sp.parts, pi, tuple(fibers))


def join_type_wrt(struct: SimplexProjection, pi1: GroupHom) -> bool:
    """Whether struct.base is of join type with respect to (pi1, pi2).

    struct is the simplex projection of the base along pi = pi2 o pi1.
    The predicate holds when the pi1 images of the differences of each
    part from its first point sum directly (``sums_directly``), as they
    do when ker pi1 spans the V' that ``vprime`` returned.
    """
    points = struct.base.points
    families = []
    for part in struct.parts:
        first = points[part[0]]
        families.append([mat_vec(pi1.matrix, [x - y for x, y in
                                              zip(points[i], first)])
                         for i in part[1:]])
    return sums_directly(families)


class AffineFrame(NamedTuple):
    """A normalized configuration in the coordinates of its greedy
    affine basis (``_affine_frame``).

    With u_0 the first point, D the matrix of the basis differences
    u_bk - u_0 and L = ``scale`` > 0, the frame map is
    x -> L * D^-1 (x - u_0), under which basis position k sits at
    L * e_k (e_0 = 0).  ``basis`` holds the point indices b_0 = 0, b_1,
    ..., b_n, ``inverse`` the rows of L * D^-1, and ``outside`` the pair
    (j, W_j) of every point u_j outside the basis: its image W_j as the
    nonzero entries (k, x), keyed by basis position k = 1..n; W_j != 0
    as u_j != u_0.  Other modules read the layout only through
    ``labelings``, ``projection``, ``to_frame``, ``from_frame``,
    ``k_nonzero`` and ``k_and_spans``.
    """

    config: PointConfig
    basis: list[int]
    scale: int
    inverse: IntMat
    outside: list[tuple[int, list[tuple[int, int]]]]

    def labelings(self, r_min: int = 0):
        """Every labeling of the basis positions by simplex vertices
        whose map sends each point to a vertex, with r >= r_min, depth
        first.

        Yields (label, vertex): label[k] is the vertex of basis
        position k, vertex[j] that of point j.  The labeled map, whose
        row l is the sum of the rows of ``inverse`` at the positions
        labeled l, divided by L, is ``projection``.  A point outside
        the basis is tested as soon as the last position in the support
        of its W_j is labeled, and a failed test cuts every labeling
        that extends the prefix; so does a prefix that can no longer
        reach r_min + 1 labels.
        """
        n = self.config.dim
        if r_min > n:
            return
        # the points outside the basis, filed under the last position of
        # the support of their W_j
        tests: list[list] = [[] for _ in range(n + 1)]
        for j, w in self.outside:
            tests[w[-1][0]].append((j, w))
        label = [0] * (n + 1)
        vertex = [0] * len(self.config)
        for _ in _kept_labelings(tests, self.scale, r_min, label, vertex):
            for b, lab in zip(self.basis, label):
                vertex[b] = lab
            yield tuple(label), tuple(vertex)

    def to_frame(self, rows) -> IntMat:
        """The rows under the linear part L * D^-1 of the frame map,
        which is invertible and so keeps every inclusion of spans."""
        return [mat_vec(self.inverse, row) for row in rows]

    def from_frame(self, rows) -> IntMat:
        """The rows under D, L times the inverse of ``to_frame``: a row
        y goes to the sum of y_k (u_bk - u_0), so every span comes back
        to Z^n as the span whose image it is."""
        points = self.config.points
        diffs = transpose([[x - y for x, y in zip(points[b], points[0])]
                           for b in self.basis[1:]])
        return [mat_vec(diffs, row) for row in rows]

    def k_nonzero(self, label, vertex) -> bool:
        """Whether the K of ``k_and_spans`` is nonzero: some W_j has an
        entry at a position not labeled with the vertex of point j."""
        return any(label[k] != vertex[j] for j, w in self.outside
                   for k, _ in w)

    def k_and_spans(self, label, vertex):
        """The K rows and the summand spans of the parts of a kept
        labeling, written down in frame coordinates with no elimination,
        as the ``AlphaProblem`` constructor takes them.

        P_l is the set of basis positions labeled l.  A point j outside
        the basis, with vertex v, gives the K element kappa_j: its
        component at each label l != v is -W_j restricted to P_l, and
        its component at v is W_j off P_v.  V_l is spanned by the
        vectors e_k - e_first(l) for k in P_l, which span the sum-zero
        space S_l on P_l, and the W_j - L * e_first(l) of its points j;
        the latter lie in the component at l of kappa_j plus S_l.  The
        kappa_j span K: the sum of the V_l is ker pi' (over Q), the
        direct sum of the S_l, so a K element less the matching
        combination of the kappa_j has its components in the S_l and is
        zero.  Hence K = 0 exactly when every W_j is supported on its
        own part's positions.  Returns (k_rows, spans): the nonzero
        kappa_j, each its components concatenated, and the rows
        spanning each V_l.
        """
        n = self.config.dim
        spans: list[list] = [[] for _ in range(max(label) + 1)]
        first: dict[int, int] = {}
        for k, lab in enumerate(label):
            if lab not in first:
                first[lab] = k
                continue
            row = [0] * n
            row[k - 1] = 1
            if first[lab]:
                row[first[lab] - 1] = -1
            spans[lab].append(row)
        k_rows = []
        for j, w in self.outside:
            v = vertex[j]
            row = [0] * (len(spans) * n)
            for k, x in w:
                lab = label[k]
                if lab != v:
                    row[v * n + k - 1] += x
                    row[lab * n + k - 1] -= x
            if any(row):
                k_rows.append(row)
                spans[v].append(row[v * n:(v + 1) * n])
        return k_rows, spans

    def projection(self, label, vertex) -> SimplexProjection:
        """The simplex projection of a labeling that ``labelings`` kept.

        label holds the vertex of every basis position and vertex that
        of every point.  The map sends basis position k to e_label[k] by
        how its rows are built, and both callers have sent every other
        point to its vertex with ``_vertex_of``; every vertex being hit
        by a basis point, the image is a translated unit simplex.  Only
        integrality, which the exact division needs, is checked.
        """
        a = self.config
        n = a.dim
        r = max(label)
        parts = group_indices(vertex)
        rows = [[0] * n for _ in range(r)]
        for lab, inv in zip(label[1:], self.inverse):
            if lab:
                row = rows[lab - 1]
                for i, x in enumerate(inv):
                    row[i] += x
        if any(x % self.scale for row in rows for x in row):
            raise ArithmeticError(
                f"partition {parts} passed the vertex test but its "
                "projection is not integral")
        mat = [[x // self.scale for x in row] for row in rows]
        # no kernel dedupe: the parts are the cosets of ker pi met with a,
        # so distinct partitions have distinct kernels
        return SimplexProjection(a, r, parts, GroupHom(mat, None, n))


def _affine_frame(a: PointConfig) -> AffineFrame:
    """The frame of a normalized a, from one fraction-free elimination.

    ``rref_ff`` of the n x (N - 1 + n) matrix
    [u_1 - u_0, ..., u_{N-1} - u_0 | I_n] has its pivots in the
    difference columns of the points that raise the rank, taken in
    order: the basis u_b1, ..., u_bn, with u_b0 = u_0.  ``rref`` is
    D^-1 times the matrix, and row i of ``rref_ff`` is row i of ``rref``
    times its pivot; scaling row i by L over its pivot, L the lcm of
    the pivots, gives L * D^-1 times the matrix, whose difference
    columns are the W_j and whose last n columns are L * D^-1.
    """
    u0 = a.points[0]
    diffs = transpose([[x - y for x, y in zip(p, u0)]
                       for p in a.points[1:]])
    red, piv = rref_ff([row + unit
                        for row, unit in zip(diffs, identity(a.dim))])
    scale = lcm(*(row[c] for row, c in zip(red, piv)))
    rows = [[x * (scale // row[c]) for x in row] for row, c in zip(red, piv)]
    pivots = set(piv)
    outside = [(c + 1, [(k + 1, row[c])
                        for k, row in enumerate(rows) if row[c]])
               for c in range(len(a) - 1) if c not in pivots]
    inverse = [row[len(a) - 1:] for row in rows]
    return AffineFrame(a, [0] + [c + 1 for c in piv], scale, inverse,
                       outside)


def exhaustive_frame(a: PointConfig,
                     limit: int = EXHAUSTIVE_LIMIT) -> AffineFrame:
    """The affine frame of a normalized a, whose ``labelings`` are its
    simplex projections; TooLarge when dim exceeds the limit."""
    if a.dim > limit:
        raise TooLarge(f"dim {a.dim} exceeds enumeration limit {limit}")
    require_normalized(a, "the exhaustive enumeration")
    return _affine_frame(a)


def projection_for_partition(a: PointConfig, parts):
    """The simplex projection sending part i to vertex i, if one exists.

    parts must partition the point indices of the normalized a, ordered
    by least index, so that u_0 lies in part 0; other parts raise
    ValueError.  Labels each point of the affine basis of
    ``_affine_frame`` by its part, and returns (struct, frame, label,
    vertex): the labeled projection of ``AffineFrame.projection``, the
    frame, the label of each basis position and the part of each point,
    as ``AffineFrame.k_and_spans`` takes them.  Returns None when a part
    holds no basis point (its vertex is then outside the affine hull of
    the image) or a point outside the basis misses the vertex of its
    part.
    """
    require_normalized(a, "projection_for_partition")
    firsts = [min(part) for part in parts if part]
    if (sorted(j for part in parts for j in part) != list(range(len(a)))
            or len(firsts) < len(parts) or firsts != sorted(firsts)):
        raise ValueError(f"parts {parts} do not partition the point "
                         "indices in order of least index")
    part_of = [0] * len(a)
    for i, part in enumerate(parts):
        for j in part:
            part_of[j] = i
    frame = _affine_frame(a)
    label = [part_of[b] for b in frame.basis]
    labels = len(parts)
    if len(set(label)) < labels or any(
            _vertex_of(w, label, labels, frame.scale) != part_of[j]
            for j, w in frame.outside):
        return None
    return frame.projection(label, part_of), frame, label, part_of


def enumerate_simplex_projections(a: PointConfig,
                                  limit: int = EXHAUSTIVE_LIMIT,
                                  r_min: int = 0):
    """All simplex projections of a with r >= r_min, one per realizable
    point partition, ordered by (r, parts): the projections of the
    ``labelings`` of ``exhaustive_frame``.

    A projection onto the simplex is fixed by where it sends an affine
    basis u_b0, ..., u_bn of a, so it suffices to try every labeling of
    the basis points by vertices, in restricted-growth order: Bell(dim+1)
    candidates at most.  In the frame, the labeled map sends u_j to
    (sum over each label of the entries of W_j) / L; the labeling is
    kept when every point lands on a vertex.  Since the differences of
    a normalized a generate Z^n and every vertex is hit by a basis
    point, such a map is integral and surjective, and every part
    contains a basis point, so each partition is found exactly once.
    """
    frame = exhaustive_frame(a, limit)
    out = [frame.projection(label, vertex)
           for label, vertex in frame.labelings(r_min)]
    out.sort(key=lambda st: (st.r, st.parts))
    return out


def _kept_labelings(tests, scale, r_min, label, vertex, k=1, labels=1):
    """Depth-first search over the labelings of basis positions k..n.

    label[0..k-1] is a restricted-growth prefix using labels
    0..labels-1.  Extends it in place and yields once for every complete
    labeling that passes the vertex tests in tests and uses at least
    r_min + 1 labels; vertex then holds the vertex of every point
    outside the basis.
    """
    n = len(label) - 1
    if k > n:
        yield
        return
    for lab in range(labels + 1):
        used = max(labels, lab + 1)
        if used + n - k < r_min + 1:
            continue
        label[k] = lab
        for j, w in tests[k]:
            v = _vertex_of(w, label, used, scale)
            if v is None:
                break
            vertex[j] = v
        else:
            yield from _kept_labelings(tests, scale, r_min, label, vertex,
                                       k + 1, used)


def _vertex_of(w, label, labels, scale):
    """The vertex that a point with W entries w lands on under the
    labeling, or None when it lands on no vertex."""
    sums = [0] * labels
    for k, x in w:
        sums[label[k]] += x
    hit = [lab for lab in range(1, labels) if sums[lab]]
    if not hit:
        return 0
    if len(hit) > 1 or sums[hit[0]] != scale:
        return None
    return hit[0]
