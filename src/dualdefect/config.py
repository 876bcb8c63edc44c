"""Lattice point configurations and Z-affine maps between them.

A configuration is a finite set of distinct points in Z^n, stored in
canonical lexicographic order.  Maps are integer matrices with an
optional translation part, applied as v -> matrix * v + translation.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import warnings
from dataclasses import dataclass, field

from .exact_linalg import (
    DimensionError,
    IntMat,
    hnf_basis,
    hnf_coords,
    identity,
    is_surjective,
    kernel_basis_int,
    mat_mul,
    mat_vec,
    transpose,
)

# an integer as the loaders accept it: ASCII digits with an optional minus
DECIMAL = re.compile(r"-?[0-9]+")


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
            if not self.matrix:
                raise ValueError("domain rank required for empty matrix")
            object.__setattr__(self, "domain_rank", len(self.matrix[0]))
        if self.translation is not None:
            if len(self.translation) != self.codomain_rank:
                raise DimensionError(
                    f"translation of length {len(self.translation)} for "
                    f"codomain rank {self.codomain_rank}")

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
        if len(v) != self.domain_rank:
            raise DimensionError(f"vector of length {len(v)} for domain "
                                 f"rank {self.domain_rank}")
        img = mat_vec(self.matrix, v)
        if self.translation is not None:
            img = [x + t for x, t in zip(img, self.translation)]
        return tuple(img)

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        if inner.codomain_rank != self.domain_rank:
            raise DimensionError(
                f"cannot compose after a map onto rank "
                f"{inner.codomain_rank}; domain rank is {self.domain_rank}")
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
        mat = self.matrix_rows
        if not mat:
            return identity(self.domain_rank)
        return hnf_basis(kernel_basis_int(mat))

    @classmethod
    def identity_map(cls, n: int) -> "GroupHom":
        return cls.make(identity(n), None, n)

    @classmethod
    def zero_map(cls, domain_rank: int) -> "GroupHom":
        return cls(matrix=(), translation=None, domain_rank=domain_rank)


def apply_affine(a: PointConfig, f: GroupHom, dedupe: bool = False) -> PointConfig:
    """Image configuration under f; collapsing maps raise CollapseError
    unless dedupe is set."""
    if f.domain_rank != a.dim:
        raise DimensionError(f"map of domain rank {f.domain_rank} on a "
                             f"configuration in Z^{a.dim}")
    images = [f.apply(p) for p in a.points]
    if len(set(images)) < len(images) and not dedupe:
        raise CollapseError("map identifies distinct points of the configuration")
    return PointConfig(f.codomain_rank, tuple(sorted(set(images))), a.name)


def group_indices(keys) -> tuple[tuple[int, ...], ...]:
    """The indices of keys grouped by equal key, groups ordered by least
    index."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    # dicts keep insertion order, so groups come by least index
    return tuple(map(tuple, groups.values()))


def difference_lattice(a: PointConfig) -> IntMat:
    """HNF basis of the subgroup of Z^dim generated by all differences."""
    if not a.points:
        raise ValueError("an empty configuration has no difference lattice")
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


# --- file formats -----------------------------------------------------------


def read_json(text: str):
    """``json.loads``; nesting too deep to parse is a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None


def load_config_json(text: str) -> PointConfig:
    obj = read_json(text)
    if not isinstance(obj, dict) or "points" not in obj:
        raise ValueError("expected a JSON object with a 'points' field")
    pts = obj["points"]
    if not isinstance(pts, list) or not all(isinstance(p, list) for p in pts):
        raise ValueError("'points' must be a list of points")
    for x in itertools.chain(*pts):
        # bool is an int subclass; floats and bools are refused, not truncated
        if type(x) is not int:
            raise ValueError(f"coordinate {x!r} is not an integer")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError(f"'name' is {name!r}, not a string or null")
    cfg = PointConfig.make(pts, name=name)
    dim = obj.get("dim", cfg.dim)
    if type(dim) is not int or dim != cfg.dim:
        raise ValueError(f"'dim' is {dim!r} but the points have length "
                         f"{cfg.dim}")
    return cfg


def load_config_text(text: str, name: str | None = None) -> PointConfig:
    """Points from text, one per line, as ``DECIMAL`` tokens: ``1_0``,
    ``+1`` and non-ASCII digits are refused, not read as numbers."""
    pts = []
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        for tok in toks:
            if not DECIMAL.fullmatch(tok):
                raise ValueError(f"{tok!r} is not an integer")
        if toks:
            pts.append([int(tok) for tok in toks])
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
    else:
        cfg = load_config_text(text)
    # an unnamed configuration takes the file's stem after it is read,
    # so a dedupe warning carries only a name the file itself gives
    if cfg.name is None:
        cfg = PointConfig(cfg.dim, cfg.points, p.stem)
    return cfg


def dump_config_json(a: PointConfig) -> str:
    return json.dumps(
        {"name": a.name or "", "points": [list(p) for p in a.points]},
        separators=(", ", ": "),
    )
