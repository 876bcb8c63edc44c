"""Cayley sums and their combinatorics.

Construction of Cayley sums, decomposition of a configuration along a
projection whose image is a unimodular simplex, join-type predicates, and
exhaustive enumeration of all simplex-image projections of a small
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import (
    GroupHom,
    PointConfig,
    difference_lattice,
    require_normalized,
)
from .exact_linalg import (
    IntMat,
    adjugate,
    det,
    hnf_basis,
    hnf_coords,
    identity,
    kernel_basis_int,
    mat_vec,
    rank_int,
    solve_int_many,
    transpose,
)


class DimensionError(ValueError):
    """Fibers of a Cayley sum must share one ambient dimension."""


class NotSimplexImage(ValueError):
    """The projection image is not a unimodular simplex {0, e_1, ..., e_r}."""


class TooLarge(ValueError):
    """Configuration exceeds the exhaustive enumeration limit."""


def _simplex_vertex(i: int, r: int) -> tuple[int, ...]:
    """Vertex i of {0, e_1, ..., e_r}; vertex 0 is the origin."""
    return tuple(1 if j == i - 1 else 0 for j in range(r))


@dataclass(frozen=True)
class SimplexProjection:
    """A projection of a configuration onto the unit simplex.

    base is the ambient configuration, pi a surjection of its lattice
    onto Z^r that carries base onto a translate of {0, e_1, ..., e_r},
    and parts the partition of the point indices into the preimages of
    the vertices, ordered by least index.
    """

    base: PointConfig
    r: int
    parts: tuple[tuple[int, ...], ...]
    pi: GroupHom

    def __post_init__(self):
        assert self.r + 1 == len(self.parts)
        assert sorted(i for p in self.parts for i in p) == list(range(len(self.base)))

    def kernel_lattice(self) -> IntMat:
        return self.pi.kernel_lattice()


@dataclass(frozen=True)
class CayleyStructure(SimplexProjection):
    """A realization of a configuration as a Cayley sum.

    Extends its simplex projection by the fibers, the translated
    preimages A_i, and section_frame, the isomorphism f of the ambient
    lattice onto Z^{n-r} x Z^r carrying base onto cayley_sum(fibers).
    g is the affine automorphism of the codomain with g(pi(part i)) =
    vertex i, so pr2 composed with section_frame equals g composed with pi.
    """

    fibers: tuple[PointConfig, ...]
    section_frame: GroupHom
    g: GroupHom

    def __post_init__(self):
        super().__post_init__()
        assert len(self.fibers) == len(self.parts)


def cayley_sum(fibers) -> PointConfig:
    """(A_0 x {0}) u (A_1 x {e_1}) u ... u (A_r x {e_r})."""
    fibers = list(fibers)
    assert fibers, "need at least one fiber"
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

    Decided over Q: the sum of the spans has dimension equal to the sum
    of the individual dimensions.
    """
    fibers = list(fibers)
    assert fibers
    m = fibers[0].dim
    if any(f.dim != m for f in fibers):
        raise DimensionError("fibers live in different ambient dimensions")
    bases = [difference_lattice(f) for f in fibers]
    total = sum(len(b) for b in bases)
    stacked = [row for b in bases for row in b]
    if not stacked:
        return True
    return rank_int(stacked) == total


def _group_by_image(a: PointConfig, pi: GroupHom):
    """Partition point indices by pi-value, parts ordered by least index."""
    by_value: dict[tuple[int, ...], list[int]] = {}
    order = []
    for i, p in enumerate(a.points):
        v = pi.apply(p)
        if v not in by_value:
            by_value[v] = []
            order.append(v)
        by_value[v].append(i)
    return [tuple(by_value[v]) for v in order], order


def _simplex_chart(values, r: int) -> GroupHom:
    """Affine iso of Z^r sending values[i] to vertex i, or NotSimplexImage.

    The values must be r+1 distinct points whose differences from
    values[0] form a unimodular matrix; that is exactly equivalence with
    the unit simplex.
    """
    if len(values) != r + 1:
        raise NotSimplexImage(
            f"projection image has {len(values)} values, expected {r + 1}"
        )
    v0 = values[0]
    d = transpose([[x - y for x, y in zip(v, v0)] for v in values[1:]])
    if r > 0 and abs(det(d)) != 1:
        raise NotSimplexImage("image differences do not form a lattice basis")
    # invert the difference matrix; solve d * col = e_i over Z
    cols = solve_int_many(d, identity(r))
    if any(col is None for col in cols):
        raise ArithmeticError("a unimodular matrix has an integral inverse")
    mat = transpose(cols) if r else []
    shift = [-x for x in mat_vec(mat, list(v0))]
    return GroupHom.make(mat, shift, r)


def decompose_along(a: PointConfig, pi: GroupHom) -> CayleyStructure:
    """Split a into Cayley fibers along a projection with simplex image.

    Returns the partition into parts, the fibers A_i = (preimage of
    vertex i) - s(vertex i) written in kernel coordinates, and the
    lattice isomorphism f with f(a) = cayley_sum(fibers).
    """
    if pi.domain_rank != a.dim:
        raise ValueError(f"projection of Z^{pi.domain_rank} applied to a "
                         f"configuration in Z^{a.dim}")
    require_normalized(a, "decompose_along")
    n = a.dim
    r = pi.codomain_rank
    parts, values = _group_by_image(a, pi)
    g = _simplex_chart(values, r)
    chart = g.compose(pi)  # sends part i to vertex i
    if r == 0:
        f = GroupHom.identity_map(n)
        return CayleyStructure(a, 0, tuple(parts), pi, (a,), f, g)
    phi = chart.linear().matrix_rows
    # section s of phi: integer right inverse, columnwise; it exists
    # exactly when phi is surjective over Z
    s_cols = solve_int_many(phi, identity(r))
    if any(col is None for col in s_cols):
        raise NotSimplexImage("projection is not surjective over Z")
    s = transpose(s_cols)  # n x r
    # canonical (HNF) basis of the saturated kernel, so that coordinate
    # kernels get identity coordinates
    kernel = hnf_basis(kernel_basis_int(phi))
    f_rows: IntMat = []
    for x_row in identity(n):
        # x - s(phi(x)) lies in ker phi; take its kernel coordinates
        img = mat_vec(phi, x_row)
        red = [xv - sv for xv, sv in zip(x_row, mat_vec(s, img))]
        coords = hnf_coords(kernel, red)
        if coords is None:
            raise ArithmeticError("x - s(phi(x)) lies outside the "
                                  "saturated kernel of phi")
        f_rows.append(coords)
    # f(x) = (kernel coords of x - s(phi x), chart(x))
    top = transpose(f_rows)  # (n-r) x n acting on columns
    f_mat = top + chart.linear().matrix_rows
    tr = [0] * (n - r) + list(chart.translation or [0] * r)
    f = GroupHom.make(f_mat, tr if any(tr) else None, n)
    images = [f.apply(p) for p in a.points]
    fibers = tuple(
        PointConfig(n - r, tuple(sorted(images[i][: n - r] for i in part)))
        for part in parts
    )
    if set(images) != set(cayley_sum(fibers).points):
        raise ArithmeticError("the section frame does not carry the "
                              "configuration onto the Cayley sum of its "
                              "fibers")
    return CayleyStructure(a, r, tuple(parts), pi, fibers, f, g)


def join_type_wrt(struct: SimplexProjection, pi1: GroupHom) -> bool:
    """Whether struct.base is of join type with respect to (pi1, pi2).

    struct is the simplex projection of the base along pi = pi2 o pi1.
    Its parts have difference lattices M_i; the predicate holds when
    the images pi1(M_i) inside ker pi2 sum directly.
    """
    a = struct.base
    lin = pi1.linear()
    total = 0
    stacked: IntMat = []
    for part in struct.parts:
        base_pt = lin.apply(a.points[part[0]])
        rows = [
            [x - y for x, y in zip(lin.apply(a.points[i]), base_pt)]
            for i in part[1:]
        ]
        basis = hnf_basis(rows)
        total += len(basis)
        stacked.extend(basis)
    if not stacked:
        return True
    return rank_int(stacked) == total


def projection_for_partition(a: PointConfig, parts) -> GroupHom | None:
    """The unique projection sending part i to vertex i, if one exists.

    Solves P(u - u0) = vertex(part of u) over Z for the matrix P, with u0
    the first point of part 0; returns None when the system has no
    integer solution or P is not surjective.
    """
    r = len(parts) - 1
    u0 = a.points[parts[0][0]]
    d_rows = []
    e_rows = []
    for i, part in enumerate(parts):
        v = list(_simplex_vertex(i, r))
        for j in part:
            d_rows.append([x - y for x, y in zip(a.points[j], u0)])
            e_rows.append(v)
    if r == 0:
        return GroupHom.zero_map(a.dim)
    p_rows = solve_int_many(d_rows, transpose(e_rows))
    if any(x is None for x in p_rows):
        return None
    pi = GroupHom.make(p_rows, None, a.dim)
    if not pi.is_surjective():
        return None
    return pi


def _affine_basis(a: PointConfig) -> tuple[list[int], IntMat]:
    """Greedy affine basis of a: point 0, then each point whose difference
    from point 0 raises the rank.  Returns the indices and the differences."""
    basis = [0]
    rows: IntMat = []
    for j in range(1, len(a)):
        if len(rows) == a.dim:
            break
        diff = [x - y for x, y in zip(a.points[j], a.points[0])]
        if rank_int(rows + [diff]) > len(rows):
            rows.append(diff)
            basis.append(j)
    return basis, rows


def enumerate_simplex_projections(a: PointConfig, limit: int = 11,
                                  r_min: int = 0):
    """All simplex projections of a with r >= r_min, one per realizable
    point partition, ordered by (r, parts).

    A projection onto the simplex is fixed by where it sends an affine
    basis u_b0, ..., u_bn of a, so it suffices to try every labeling of
    the basis points by vertices, in restricted-growth order: Bell(dim+1)
    candidates at most.  With D the matrix of differences u_bk - u_b0
    and d = det D, the labeled map sends u_j to (sum over each label of
    the entries of W_j = adj(D)(u_j - u_b0)) / d; the labeling is kept
    when every point lands on a vertex.  Since the differences of a
    normalized a generate Z^n and every vertex is hit by a basis point,
    such a map is integral and surjective, and every part contains a
    basis point, so each partition is found exactly once.  Row l of its
    matrix is the sum of the rows of adj(D) at the basis points labeled
    l, divided by d.

    The labeling is searched depth first, one basis position at a time.
    A point outside the basis is tested as soon as the last position in
    the support of its W_j is labeled, and a failed test cuts every
    labeling that extends the prefix; so does a prefix that can no
    longer reach r_min + 1 labels.
    """
    if a.dim > limit:
        raise TooLarge(f"dim {a.dim} exceeds enumeration limit {limit}")
    require_normalized(a, "enumerate_simplex_projections")
    n = a.dim
    if r_min > n:
        return []
    basis, diffs = _affine_basis(a)
    u0 = a.points[0]
    d, adj = adjugate(transpose(diffs))
    offsets = [[x - y for x, y in zip(p, u0)] for p in a.points]
    # the nonzero entries of W_j for the points outside the basis, keyed
    # by basis position (position 0 is u_b0 itself and has no column),
    # filed under the last position of their support; W_j != 0 as
    # u_j != u_b0
    tests: list[list] = [[] for _ in range(n + 1)]
    in_basis = set(basis)
    for j, off in enumerate(offsets):
        if j not in in_basis:
            w = [(k + 1, x) for k, x in enumerate(mat_vec(adj, off)) if x]
            tests[w[-1][0]].append((j, w))
    label = [0] * (n + 1)
    vertex = [0] * len(a)
    out = [_labeled_projection(a, basis, label, vertex, labels, d, adj,
                               offsets)
           for labels in _kept_labelings(tests, d, r_min, label, vertex)]
    out.sort(key=lambda st: (st.r, st.parts))
    return out


def _kept_labelings(tests, d, r_min, label, vertex, k=1, labels=1):
    """Depth-first search over the labelings of basis positions k..n.

    label[0..k-1] is a restricted-growth prefix using labels
    0..labels-1.  Extends it in place and yields the number of labels of
    every complete labeling that passes the vertex tests in tests and
    uses at least r_min + 1 labels; vertex then holds the vertex of
    every point outside the basis.
    """
    n = len(label) - 1
    if k > n:
        yield labels
        return
    for lab in range(labels + 1):
        used = max(labels, lab + 1)
        if used + n - k < r_min + 1:
            continue
        label[k] = lab
        for j, w in tests[k]:
            v = _vertex_of(w, label, used, d)
            if v is None:
                break
            vertex[j] = v
        else:
            yield from _kept_labelings(tests, d, r_min, label, vertex,
                                       k + 1, used)


def _vertex_of(w, label, labels, d):
    """The vertex that a point with W entries w lands on under the
    labeling, or None when it lands on no vertex."""
    sums = [0] * labels
    for k, x in w:
        sums[label[k]] += x
    hit = [lab for lab in range(1, labels) if sums[lab]]
    if not hit:
        return 0
    if len(hit) > 1 or sums[hit[0]] != d:
        return None
    return hit[0]


def _labeled_projection(a, basis, label, vertex, labels, d, adj,
                        offsets) -> SimplexProjection:
    """The simplex projection of a kept labeling of the affine basis.

    vertex holds the vertex of every point outside the basis; the
    entries of the basis points are filled in from label.  Checks
    that the map is integral and sends every u_j - u_b0 to its vertex,
    so that, every vertex being hit by a basis point, the image of a is
    a translated unit simplex.
    """
    n = a.dim
    for k, b in enumerate(basis):
        vertex[b] = label[k]
    by_vertex: dict[int, list[int]] = {}
    for j, v in enumerate(vertex):
        by_vertex.setdefault(v, []).append(j)
    # dicts keep insertion order, so parts come by least index
    parts = tuple(tuple(p) for p in by_vertex.values())
    rows = [[0] * n for _ in range(labels - 1)]
    for k in range(1, n + 1):
        if label[k]:
            row = rows[label[k] - 1]
            for i, x in enumerate(adj[k - 1]):
                row[i] += x
    if any(x % d for row in rows for x in row):
        raise ArithmeticError(
            f"partition {parts} passed the vertex test but its "
            "projection is not integral")
    mat = [[x // d for x in row] for row in rows]
    r = labels - 1
    for j, off in enumerate(offsets):
        if tuple(mat_vec(mat, off)) != _simplex_vertex(vertex[j], r):
            raise ArithmeticError(
                f"partition {parts} passed the vertex test but its "
                f"projection does not send point {j} to its vertex")
    # no kernel dedupe: the parts are the cosets of ker pi met with a,
    # so distinct partitions have distinct kernels
    return SimplexProjection(a, r, parts, GroupHom.make(mat, None, n))
