import functools
import random

import pytest

from dualdefect import cayley
from dualdefect.cayley import (
    DimensionError,
    NotSimplexImage,
    TooLarge,
    cayley_sum,
    decompose_along,
    enumerate_simplex_projections,
    is_join_type,
    join_type_wrt,
    projection_for_partition,
    simplex_projection,
)
from dualdefect.config import (
    GroupHom,
    PointConfig,
    apply_affine,
    is_normalized,
    load_config_file,
    normalize,
)
from dualdefect.exact_linalg import mat_vec, snf, transpose

from conftest import (
    EX58_U,
    EX58_V,
    FIXTURES,
    is_surjective_snf,
    lattice_leq,
    random_unimodular,
    segre_product,
    unit_vector,
)


def proj_last(m, r):
    """Projection of Z^{m+r} onto the last r coordinates."""
    if r == 0:
        return GroupHom.zero_map(m)
    rows = [[0] * m + [1 if j == i else 0 for j in range(r)]
            for i in range(r)]
    return GroupHom.make(rows, None, m + r)


def test_cayley_sum_segre(segre_square):
    s01 = PointConfig.make([(0,), (1,)])
    assert cayley_sum([s01, s01]).points == segre_square.points


def test_cayley_sum_single_fiber(segre_square):
    assert cayley_sum([segre_square]).points == segre_square.points


def test_cayley_sum_ex5_7_size(ex5_7):
    assert len(ex5_7) == 14 and ex5_7.dim == 5


def test_cayley_sum_dimension_mismatch():
    with pytest.raises(DimensionError):
        cayley_sum([PointConfig.make([(0,)]), PointConfig.make([(0, 0)])])


def test_is_join_type_examples():
    s01 = PointConfig.make([(0,), (1,)])
    assert is_join_type([s01, s01]) is False
    singleton = PointConfig.make([(5,)], dim=1)
    assert is_join_type([singleton, s01]) is True
    assert is_join_type([PointConfig.make([(0, 0)])] * 3) is True


def test_is_join_type_ex58_pi1_image_fibers():
    # spans <f5>, <f2-f1>, <f4-f3> inside Z^5
    f = lambda i: list(unit_vector(i, 5))
    fib0 = PointConfig.make([(0,) * 5, tuple(f(5)), tuple(2 * x for x in f(5))])
    fib1 = PointConfig.make([tuple(f(1)), tuple(f(2))])
    fib2 = PointConfig.make([tuple(f(3)), tuple(f(4))])
    assert is_join_type([fib0, fib1, fib2]) is True


def test_decompose_segre_pr2(segre_square):
    st = decompose_along(segre_square, GroupHom.make([[0, 1]]))
    assert st.r == 1
    assert [fb.points for fb in st.fibers] == [((0,), (1,)), ((0,), (1,))]


def test_decompose_zero_map(segre_square):
    st = decompose_along(segre_square, GroupHom.zero_map(2))
    assert st.r == 0
    assert st.parts == (tuple(range(4)),)
    assert st.fibers[0].points == segre_square.points


def test_decompose_ex5_8(ex5_8):
    pi = GroupHom.make([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]])
    st = decompose_along(ex5_8, pi)
    assert st.r == 2
    assert {pi.apply(p) for p in ex5_8.points} == {(0, 0), (1, 0), (0, 1)}
    psets = {frozenset(ex5_8.points[i] for i in part) for part in st.parts}
    e = lambda i: unit_vector(i, 6)
    assert psets == {
        frozenset([(0,) * 6, e(5), e(6)]),
        frozenset([e(1), e(2), EX58_U]),
        frozenset([e(3), e(4), EX58_V]),
    }
    assert _lifted_fibers(st) == _part_points(st)


def _part_points(st):
    return [sorted(st.base.points[i] for i in part) for part in st.parts]


def _lifted_fibers(st):
    """Each fiber lifted back into the ambient lattice: the first point of
    its part plus its coordinates times the HNF basis of ker pi."""
    kernel = st.kernel_lattice()
    lifted = []
    for part, fiber in zip(st.parts, st.fibers):
        first = st.base.points[part[0]]
        lifted.append(sorted(
            tuple(x + sum(k * row[j] for k, row in zip(coords, kernel))
                  for j, x in enumerate(first))
            for coords in fiber.points))
    return lifted


def test_decompose_rejects_non_simplex_image(segre_square):
    # full identity: image is the square itself, not a simplex
    with pytest.raises(NotSimplexImage):
        decompose_along(segre_square, GroupHom.identity_map(2))


def test_join_type_wrt_ex5_8(ex5_8):
    pi1 = GroupHom.make([
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 2],
    ])
    pi2 = GroupHom.make([[1, 1, 0, 0, 0], [0, 0, 1, 1, 0]])
    st = decompose_along(ex5_8, pi2.compose(pi1))
    assert join_type_wrt(st, pi1) is True
    st0 = decompose_along(ex5_8, GroupHom.zero_map(5).compose(pi1))
    assert join_type_wrt(st0, pi1) is True


def test_join_type_wrt_ex5_7(ex5_7):
    # pi1 the projection killing the first two coordinates, pi2 identity
    pi1 = GroupHom.make([[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    pi2 = GroupHom.identity_map(3)
    st = decompose_along(ex5_7, pi2.compose(pi1))
    assert join_type_wrt(st, pi1) is True


def test_enumerate_two_points():
    structs = enumerate_simplex_projections(PointConfig.make([(0,), (1,)]))
    assert sorted(st.r for st in structs) == [0, 1]


def test_enumerate_single_point():
    structs = enumerate_simplex_projections(PointConfig.make([()], dim=0))
    assert len(structs) == 1 and structs[0].r == 0


def test_enumerate_segre(segre_square):
    structs = enumerate_simplex_projections(segre_square)
    kers = [tuple(map(tuple, st.kernel_lattice()))
            for st in structs if st.r == 1]
    assert ((0, 1),) in kers and ((1, 0),) in kers
    assert any(st.r == 0 for st in structs)
    # kernels pairwise distinct (duplicate-free guarantee)
    all_kers = [tuple(map(tuple, st.kernel_lattice())) for st in structs]
    assert len(all_kers) == len(set(all_kers))


def test_enumerate_limit_guard(ex5_7):
    # the limit bounds dim (5 here), not the number of points (14)
    with pytest.raises(TooLarge):
        enumerate_simplex_projections(ex5_7, limit=4)
    assert len(enumerate_simplex_projections(ex5_7, limit=5)) == 15


def test_enumerate_rejects_unnormalized():
    with pytest.raises(ValueError):
        enumerate_simplex_projections(PointConfig.make([(0,), (2,)]))


def _set_partitions(n: int, max_parts: int):
    """Reference: restricted-growth-string enumeration of the set
    partitions of range(n) into at most max_parts parts."""
    rgs = [0] * n

    def rec(i: int, k: int):
        if i == n:
            parts: list[list[int]] = [[] for _ in range(k)]
            for j, c in enumerate(rgs):
                parts[c].append(j)
            yield [tuple(p) for p in parts]
            return
        for c in range(min(k + 1, max_parts)):
            rgs[i] = c
            yield from rec(i + 1, max(k, c + 1))

    if n == 0:
        yield []
        return
    yield from rec(0, 0)


def _point_solver(a):
    """Reference: a solver of (u_j - u_0) . x = b_j over Z for every
    point u_j of a, b the indicator of a given part, by one Smith normal
    form of the differences in point order: x is v * y with
    s * y = u * b.  None when there is no integer solution."""
    u0 = a.points[0]
    s, u, v = snf([[x - y for x, y in zip(pt, u0)] for pt in a.points])
    u_cols = transpose(u)

    def solve(part):
        y = [0] * a.dim
        for i, c in enumerate(map(sum, zip(*(u_cols[j] for j in part)))):
            d = s[i][i] if i < a.dim else 0
            if d:
                y[i], rem = divmod(c, d)
                if rem:
                    return None
            elif c:
                return None
        return mat_vec(v, y)
    return solve


def _projection_by_solve(a, parts, solve):
    """Reference: the projection P sending part i to vertex i, if one
    exists, from P(u - u_0) = vertex(part of u), as part 0 holds u_0,
    the first point (as in every restricted growth string), solved one
    row of P at a time by ``solve`` (``_point_solver(a)``); None when
    the system has no integer solution or P is not surjective."""
    r = len(parts) - 1
    if r == 0:
        return GroupHom.zero_map(a.dim)
    p_rows = []
    for part in parts[1:]:
        row = solve(part)
        if row is None:
            return None
        p_rows.append(row)
    return (GroupHom.make(p_rows, None, a.dim)
            if is_surjective_snf(p_rows) else None)


def _brute_force_projections(a):
    """Reference enumeration: every set partition of the points into at
    most dim+1 parts that extends to a simplex projection, deduplicated
    by kernel.  Bell(#A) candidates, each solved over Z; the package's
    projection_for_partition must give the same answer on every one."""
    out = []
    seen_kernels = set()
    solve = _point_solver(a)
    for parts in _set_partitions(len(a), a.dim + 1):
        pi = _projection_by_solve(a, parts, solve)
        found = projection_for_partition(a, parts)
        st = None if found is None else found[0]
        assert (None if st is None else st.pi) == pi, (a.points, parts)
        assert st is None or st.parts == tuple(map(tuple, parts))
        if pi is None:
            continue
        struct = decompose_along(a, pi)
        key = tuple(map(tuple, struct.kernel_lattice()))
        if key in seen_kernels:
            continue
        seen_kernels.add(key)
        out.append(struct)
    out.sort(key=lambda st: (st.r, st.parts))
    return out


def _signature(structs):
    return [(st.r, st.parts, st.pi.matrix) for st in structs]


def _random_normalized_config(rng):
    """A random point set, or a Cayley sum moved by a unimodular map;
    at most 9 points and dim at most 3 after normalization."""
    if rng.random() < 0.5:
        n = rng.randint(1, 3)
        k = rng.randint(n + 2, (7, 9, 8)[n - 1])
        pts = set()
        while len(pts) < k:
            pts.add(tuple(rng.randint(-3, 3) for _ in range(n)))
        cfg = PointConfig.make(sorted(pts))
    else:
        m, r = rng.choice([(1, 1), (1, 2), (2, 1)])
        fibers = []
        for _ in range(r + 1):
            k = rng.randint(2, 3)
            pts = set()
            while len(pts) < k:
                pts.add(tuple(rng.randint(-1, 1) for _ in range(m)))
            fibers.append(PointConfig.make(sorted(pts), dim=m))
        cs = cayley_sum(fibers)
        shift = [rng.randint(-3, 3) for _ in range(cs.dim)]
        cfg = apply_affine(
            cs, GroupHom.make(random_unimodular(rng, cs.dim), shift))
    return normalize(cfg)[0]


def _assert_enumeration_matches(a, label):
    """Every r_min from 0 to dim + 1 gives the brute force filtered to
    r >= r_min, and each record is what decompose_along makes of its pi."""
    expected = _signature(_brute_force_projections(a))
    for r_min in range(a.dim + 2):
        got = enumerate_simplex_projections(a, r_min=r_min)
        assert _signature(got) == [s for s in expected if s[0] >= r_min], \
            (label, r_min)
        for st in got:
            redone = decompose_along(a, st.pi)
            assert (redone.r, redone.parts) == (st.r, st.parts), label


def _reuse_frames(monkeypatch):
    """Build each configuration's affine frame once: the frame is a pure
    function of the configuration, and ``projection_for_partition``
    rebuilds it for every one of the brute force's partitions."""
    monkeypatch.setattr(cayley, "_affine_frame",
                        functools.lru_cache(maxsize=1)(cayley._affine_frame))


def test_enumerate_matches_brute_force_on_fixtures(monkeypatch):
    _reuse_frames(monkeypatch)
    for path in sorted(FIXTURES.iterdir()):
        a, _ = normalize(load_config_file(path))
        if len(a) > 12:
            continue
        _assert_enumeration_matches(a, path.name)


def test_enumerate_matches_brute_force_on_random_configs(monkeypatch):
    _reuse_frames(monkeypatch)
    rng = random.Random(0xB311)
    for _ in range(100):
        a = _random_normalized_config(rng)
        _assert_enumeration_matches(a, a.points)


def test_enumerate_tests_points_early_and_cuts_by_r(monkeypatch):
    # each point is tested once its last basis position is labeled, and
    # a prefix that cannot reach r_min + 1 labels is cut: the search
    # makes 7,890 and 1,092 vertex tests here; testing at the leaves
    # only makes 274,570 for the first, cutting by r only at the end
    # 285,149 for the second
    calls = 0
    real = cayley._vertex_of

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(cayley, "_vertex_of", counted)
    for cfg, r_min, most in ((segre_product(4, 5), 0, 10_000),
                             (segre_product(1, 8), 7, 1_500)):
        calls = 0
        enumerate_simplex_projections(normalize(cfg)[0], r_min=r_min)
        assert calls <= most, (cfg.dim, r_min, calls)


def test_enumerate_ex5_7_fixture():
    a, _ = normalize(load_config_file(FIXTURES / "ex5_7.json"))
    structs = enumerate_simplex_projections(a)
    assert len(structs) == 15
    for st in structs:
        assert decompose_along(a, st.pi).parts == st.parts


def test_simplex_projection_matches_decompose_along_on_fixtures():
    for path in sorted(FIXTURES.iterdir()):
        a, _ = normalize(load_config_file(path))
        for st in enumerate_simplex_projections(a):
            assert simplex_projection(a, st.pi) == st, path.name
            full = decompose_along(a, st.pi)
            assert (full.r, full.parts, full.pi) == (st.r, st.parts, st.pi)
            assert _lifted_fibers(full) == _part_points(full), path.name


def test_enumerate_structures_are_valid(segre_square):
    for st in enumerate_simplex_projections(segre_square):
        redone = decompose_along(segre_square, st.pi)
        assert redone.parts == st.parts
        assert sorted(i for p in st.parts for i in p) == list(range(4))


def test_roundtrip_cayley_then_decompose():
    rng = random.Random(3)
    done = 0
    while done < 30:
        r = rng.randint(0, 2)
        m = rng.randint(1, 2)
        fibs = []
        for _ in range(r + 1):
            pts = set()
            while len(pts) < rng.randint(1, 3):
                pts.add(tuple(rng.randint(-2, 2) for _ in range(m)))
            fibs.append(PointConfig.make(sorted(pts), dim=m))
        cs = cayley_sum(fibs)
        if not is_normalized(cs):
            continue
        st = decompose_along(cs, proj_last(m, r))
        assert st.r == r

        def norm(f):
            base = f.points[0]
            return sorted(tuple(x - y for x, y in zip(p, base))
                          for p in f.points)

        assert sorted(map(norm, st.fibers)) == sorted(map(norm, fibs))
        done += 1


def test_coarsening_preserves_join_type():
    # two join-type fibers in disjoint blocks; the coarsening to r = 0
    # merges them into one fiber whose single-summand family is join type
    f0 = PointConfig.make([(0, 0), (1, 0), (2, 0)])
    f1 = PointConfig.make([(0, 0), (0, 1), (0, 2)])
    assert is_join_type([f0, f1])
    cs = cayley_sum([f0, f1])
    fine = decompose_along(cs, proj_last(2, 1))
    assert is_join_type(fine.fibers)
    coarse = decompose_along(cs, GroupHom.zero_map(3))
    assert is_join_type(coarse.fibers)
    # nested kernels as required for a coarsening
    assert lattice_leq(fine.kernel_lattice(), coarse.kernel_lattice())


def test_projection_for_partition_rejects_bad_partition(segre_square):
    # opposite corners cannot be separated by an integer linear functional
    # constant on each part
    parts = ((0, 3), (1, 2))
    assert projection_for_partition(segre_square, parts) is None


@pytest.mark.parametrize("parts", [
    ((1, 2), (0, 3)),        # point 0 not in part 0
    ((0, 2), (3,), (1,)),    # parts not ordered by least index
    ((0, 1), (2,)),          # point 3 missing
    ((0, 1), (1, 2, 3)),     # point 1 twice
    ((0, 1, 2, 3), ()),      # an empty part
    (),
])
def test_projection_for_partition_requires_parts_by_least_index(
        segre_square, parts):
    with pytest.raises(ValueError, match="least index"):
        projection_for_partition(segre_square, parts)
