"""Lattice point configurations and Z-affine maps between them.

A configuration is a finite set of distinct points in Z^n, stored in
canonical lexicographic order.  Maps are integer matrices with an
optional translation part, applied as v -> matrix * v + translation.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field

from .exact_linalg import (
    IntMat,
    adjugate,
    det,
    hnf,
    hnf_basis,
    hnf_coords,
    identity,
    is_surjective,
    mat_mul,
    mat_vec,
    rank_int,
    transpose,
)


class CollapseError(ValueError):
    """A map that should be injective on a configuration merged points."""


@dataclass(frozen=True)
class PointConfig:
    """A finite set of distinct points in Z^dim, lexicographically sorted."""

    dim: int
    points: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError(f"negative dimension {self.dim}")
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError(f"point {list(p)} does not have length "
                                 f"{self.dim}")

    @classmethod
    def make(cls, points, dim: int | None = None, name: str | None = None) -> "PointConfig":
        """Build a configuration, deduplicating repeated points with a warning."""
        pts = [tuple(int(x) for x in p) for p in points]
        if dim is None:
            if not pts:
                raise ValueError("cannot infer dimension of an empty configuration")
            dim = len(pts[0])
        unique = sorted(set(pts))
        if len(unique) < len(pts):
            warnings.warn(
                f"configuration{' ' + name if name else ''} contains repeated "
                f"points; deduplicated {len(pts)} -> {len(unique)}",
                stacklevel=2,
            )
        return cls(dim=dim, points=tuple(unique), name=name)

    def __len__(self) -> int:
        return len(self.points)

    @functools.cached_property
    def normalized(self) -> bool:
        """Whether the differences of the points generate Z^dim.

        Computed at most once per configuration; ``normalize`` records
        it for the configurations it returns, so they never compute it.
        """
        if not self.dim:
            return True
        return difference_lattice(self) == identity(self.dim)

    def translate(self, v) -> "PointConfig":
        pts = [tuple(x + y for x, y in zip(p, v)) for p in self.points]
        return PointConfig(self.dim, tuple(sorted(pts)), self.name)


@dataclass(frozen=True)
class GroupHom:
    """A Z-affine map v -> matrix * v + translation between lattices.

    matrix has shape codomain_rank x domain_rank; translation, when
    present, has codomain length.
    """

    matrix: tuple[tuple[int, ...], ...]
    translation: tuple[int, ...] | None = None
    domain_rank: int = field(default=-1)

    def __post_init__(self):
        if self.domain_rank < 0:
            assert self.matrix, "domain rank required for empty matrix"
            object.__setattr__(self, "domain_rank", len(self.matrix[0]))
        if self.translation is not None:
            assert len(self.translation) == self.codomain_rank

    @classmethod
    def make(cls, matrix, translation=None, domain_rank: int | None = None) -> "GroupHom":
        mat = tuple(tuple(int(x) for x in row) for row in matrix)
        if domain_rank is None:
            domain_rank = len(mat[0]) if mat else 0
        tr = tuple(int(x) for x in translation) if translation is not None else None
        return cls(matrix=mat, translation=tr, domain_rank=domain_rank)

    @property
    def codomain_rank(self) -> int:
        return len(self.matrix)

    @property
    def matrix_rows(self) -> IntMat:
        return [list(r) for r in self.matrix]

    def apply(self, v) -> tuple[int, ...]:
        assert len(v) == self.domain_rank
        img = mat_vec(self.matrix, v)
        if self.translation is not None:
            img = [x + t for x, t in zip(img, self.translation)]
        return tuple(img)

    def linear(self) -> "GroupHom":
        return GroupHom(self.matrix, None, self.domain_rank)

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        assert inner.codomain_rank == self.domain_rank
        mat = mat_mul(self.matrix_rows, inner.matrix_rows)
        tr = [0] * self.codomain_rank
        if inner.translation is not None:
            tr = mat_vec(self.matrix_rows, list(inner.translation))
        if self.translation is not None:
            tr = [x + t for x, t in zip(tr, self.translation)]
        translation = tuple(tr) if any(tr) else None
        return GroupHom.make(mat, translation, inner.domain_rank)

    def is_surjective(self) -> bool:
        return is_surjective(self.matrix_rows)

    def kernel_lattice(self) -> IntMat:
        """Saturated HNF basis of the kernel of the linear part."""
        from .exact_linalg import kernel_basis_int

        mat = self.matrix_rows
        if not mat:
            return identity(self.domain_rank)
        return hnf_basis(kernel_basis_int(mat)) if self.domain_rank else []

    def inverse(self) -> "GroupHom":
        """Inverse of a Z-affine isomorphism (square unimodular matrix)."""
        m = self.matrix_rows
        n = len(m)
        assert n == self.domain_rank and (n == 0 or abs(det(m)) == 1)
        inv = _unimodular_inverse(m)
        tr = None
        if self.translation is not None:
            tr = tuple(-x for x in mat_vec(inv, list(self.translation)))
        return GroupHom.make(inv, tr, n)

    @classmethod
    def identity_map(cls, n: int) -> "GroupHom":
        return cls.make(identity(n), None, n)

    @classmethod
    def zero_map(cls, domain_rank: int) -> "GroupHom":
        return cls(matrix=(), translation=None, domain_rank=domain_rank)


def _unimodular_inverse(m: IntMat) -> IntMat:
    h, u = hnf(m)
    # h is the identity up to pivot signs for a unimodular m
    assert all(h[i][i] in (1, -1) for i in range(len(m))) and all(
        h[i][j] == 0 for i in range(len(m)) for j in range(len(m)) if i != j
    )
    return [[x * h[i][i] for x in u[i]] for i in range(len(m))]


def apply_affine(a: PointConfig, f: GroupHom, dedupe: bool = False) -> PointConfig:
    """Image configuration under f; collapsing maps raise CollapseError
    unless dedupe is set."""
    assert f.domain_rank == a.dim
    images = [f.apply(p) for p in a.points]
    if len(set(images)) < len(images) and not dedupe:
        raise CollapseError("map identifies distinct points of the configuration")
    return PointConfig(f.codomain_rank, tuple(sorted(set(images))), a.name)


def difference_lattice(a: PointConfig) -> IntMat:
    """HNF basis of the subgroup of Z^dim generated by all differences."""
    assert len(a) > 0
    base = a.points[0]
    rows = [[x - y for x, y in zip(p, base)] for p in a.points[1:]]
    return hnf_basis(rows)


def is_normalized(a: PointConfig) -> bool:
    """Whether the differences of a generate the full ambient lattice."""
    return a.normalized


def require_normalized(a: PointConfig, what: str) -> None:
    """Raise ValueError unless a is normalized (see ``normalize``)."""
    if not a.normalized:
        raise ValueError(f"{what} expects a normalized configuration; "
                         f"normalize it first")


def _normalized(dim: int, points, name: str | None) -> PointConfig:
    """A configuration that is normalized by construction, marked so."""
    b = PointConfig(dim, points, name)
    vars(b)["normalized"] = True  # the value of the cached property
    return b


def normalize(a: PointConfig) -> tuple[PointConfig, GroupHom]:
    """Rewrite a in coordinates of its own difference lattice.

    Returns (b, theta) where b spans Z^m with full difference lattice,
    m = rank of the difference lattice of a, and theta is a Z-affine
    embedding Z^m -> Z^dim with theta(b) = a as point sets.  The
    coordinates of b are taken in a basis of the lattice its
    differences generate, so b is normalized, and is marked so.
    """
    assert len(a) > 0
    basis = difference_lattice(a)  # rows, HNF
    m = len(basis)
    if basis == identity(a.dim):
        # every coordinate below is the point itself and theta the identity
        return (_normalized(m, tuple(sorted(a.points)), a.name),
                GroupHom.identity_map(m))
    base = list(a.points[0])
    # drop the translation entirely when the anchor lies in the lattice
    if hnf_coords(basis, base) is not None:
        base = [0] * a.dim
    coords = []
    for p in a.points:
        k = hnf_coords(basis, [x - y for x, y in zip(p, base)])
        if k is None:
            raise ArithmeticError("difference outside its own lattice")
        coords.append(tuple(k))
    b = _normalized(m, tuple(sorted(coords)), a.name)
    # theta: k -> k * basis + base, column convention => matrix = basis^T
    matrix = transpose(basis) if basis else [[] for _ in range(a.dim)]
    translation = tuple(base) if any(base) else None
    theta = GroupHom.make(matrix, translation, m)
    return b, theta


def _content(v) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g


def _rational_basis_indices(rows: IntMat, n: int) -> list[int]:
    """Indices of rows forming a rational basis of the span (rank n)."""
    picked: list[int] = []
    for i, r in enumerate(rows):
        if rank_int([rows[j] for j in picked + [i]]) > len(picked):
            picked.append(i)
            if len(picked) == n:
                break
    assert len(picked) == n
    return picked


def affine_equivalent(a: PointConfig, b: PointConfig) -> GroupHom | None:
    """A Z-affine isomorphism mapping a onto b, or None.

    Both sides are normalized first, then a search over anchor pairs and
    basis assignments recovers the linear part.  The gcd of the entries of
    a difference vector is preserved by any unimodular map, which prunes
    the assignment search.
    """
    na, tha = normalize(a)
    nb, thb = normalize(b)
    if na.dim != nb.dim or len(na) != len(nb):
        return None
    n = na.dim
    if n == 0:
        cand = GroupHom(matrix=(), translation=None, domain_rank=0)
        return _conjugate_witness(cand, tha, thb, a, b)
    anchor_a = na.points[0]
    d_a = [[x - y for x, y in zip(p, anchor_a)] for p in na.points]
    basis_idx = _rational_basis_indices(d_a, n)
    basis_a = [d_a[i] for i in basis_idx]
    d, adj = adjugate(basis_a)
    basis_contents = [_content(r) for r in basis_a]
    contents_a = sorted(_content(r) for r in d_a)
    target = set(nb.points)
    for anchor_b in nb.points:
        d_b = [[x - y for x, y in zip(q, anchor_b)] for q in nb.points]
        if sorted(_content(r) for r in d_b) != contents_a:
            continue
        candidates = [
            [r for r in d_b if _content(r) == c] for c in basis_contents
        ]
        for chosen in itertools.product(*candidates):
            # basis_a * x = chosen over Z; the linear part acting on
            # column vectors is then x^T
            num = mat_mul(adj, list(chosen))  # d * x
            if any(v % d for row in num for v in row):
                continue
            x = [[v // d for v in row] for row in num]
            if abs(det(x)) != 1:
                continue
            mat = transpose(x)
            shift = [y - z for y, z in
                     zip(anchor_b, mat_vec(mat, list(anchor_a)))]
            cand = GroupHom.make(mat, shift, n)
            if {cand.apply(p) for p in na.points} == target:
                return _conjugate_witness(cand, tha, thb, a, b)
    return None


def _conjugate_witness(phi, theta_a, theta_b, a, b):
    """Lift a witness between normalized configs to the original ambients.

    When both configurations span their ambient lattices the witness is
    conjugated back through the normalization isomorphisms; otherwise the
    witness between the normalized representatives is returned as-is.
    """
    if phi is None:
        return None
    def invertible(th):
        return (th.codomain_rank == th.domain_rank
                and (th.domain_rank == 0 or abs(det(th.matrix_rows)) == 1))

    if a.dim == b.dim and invertible(theta_a) and invertible(theta_b):
        full = theta_b.compose(phi).compose(theta_a.inverse())
        if set(apply_affine(a, full).points) == set(b.points):
            return full
    return phi


# --- file formats -----------------------------------------------------------


def load_config_json(text: str) -> PointConfig:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "points" not in obj:
        raise ValueError("expected a JSON object with a 'points' field")
    pts = obj["points"]
    if not isinstance(pts, list) or not all(isinstance(p, list) for p in pts):
        raise ValueError("'points' must be a list of points")
    for x in itertools.chain(*pts):
        # bool is an int subclass; floats and bools are refused, not truncated
        if type(x) is not int:
            raise ValueError(f"coordinate {x!r} is not an integer")
    cfg = PointConfig.make(pts, name=obj.get("name"))
    dim = obj.get("dim", cfg.dim)
    if type(dim) is not int or dim != cfg.dim:
        raise ValueError(f"'dim' is {dim!r} but the points have length "
                         f"{cfg.dim}")
    return cfg


def load_config_text(text: str, name: str | None = None) -> PointConfig:
    pts = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        pts.append([int(tok) for tok in line.split()])
    if not pts:
        raise ValueError("no points found in text configuration")
    return PointConfig.make(pts, name=name)


def load_config_file(path) -> PointConfig:
    from pathlib import Path

    p = Path(path)
    text = p.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if p.suffix == ".json" or stripped.startswith("{"):
        cfg = load_config_json(text)
        if cfg.name is None:
            cfg = PointConfig(cfg.dim, cfg.points, p.stem)
        return cfg
    return load_config_text(text, name=p.stem)


def dump_config_json(a: PointConfig) -> str:
    return json.dumps(
        {"name": a.name or "", "points": [list(p) for p in a.points]},
        separators=(", ", ": "),
    )
