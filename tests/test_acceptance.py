"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single PASS line on success (visible with -s or in
captured output); a failure raises with the criterion number in the
test name.
"""

import json
import random
import time

from dualdefect.alpha import AlphaProblem, alpha
from dualdefect.cayley import cayley_sum, enumerate_simplex_projections, is_join_type
from dualdefect.cli import run
from dualdefect.config import (
    GroupHom,
    PointConfig,
    apply_affine,
    load_config_file,
    normalize,
)
from dualdefect.exact_linalg import (
    RationalSubspace,
    det,
    hnf,
    kernel_basis_int,
    mat_mul,
    rank_int,
    saturate,
    snf,
)
from dualdefect.structure import (
    structure_certificate,
    verify_certificate,
)
from dualdefect.tangency import TangencyProblem, defect_oracle

from conftest import (
    FIXTURES,
    lattice_eq,
    part_alpha_problem,
    random_unimodular,
    segre_product,
)


class Budget:
    def __init__(self, criterion: int, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded {self.seconds}s "
                f"budget ({elapsed:.1f}s)"
            )
            print(f"[criterion {self.criterion}] PASS ({elapsed:.2f}s)")
        else:
            print(f"[criterion {self.criterion}] FAIL")
        return False


def test_criterion_1_segre_square_trivial_certificate():
    with Budget(1, 1.0):
        cfg, _ = normalize(load_config_file(FIXTURES / "segre.json"))
        cert = structure_certificate(cfg)
        assert cert.delta == 0
        assert cert.r == 0
        assert cert.c == 0
        assert cert.grouping == (tuple(range(4)),)


def test_criterion_2_cayley_of_four_fibers():
    with Budget(2, 1.0):
        cfg, _ = normalize(load_config_file(FIXTURES / "ex5_7.json"))
        cert = structure_certificate(cfg)
        assert cert.delta == 1
        assert cert.r == 3
        assert cert.c == 2
        by_tail = {}
        for i, pt in enumerate(cfg.points):
            by_tail.setdefault(pt[2:], []).append(i)
        assert {frozenset(g) for g in cert.grouping} == {
            frozenset(g) for g in by_tail.values()
        }
        assert cert.pi1.kernel_lattice() == [
            [1, 0, 0, 0, 0], [0, 1, 0, 0, 0]
        ]


def test_criterion_3_nine_points_in_z6_with_exhaustive_check():
    from dualdefect.exact_linalg import hnf_basis

    cfg, _ = normalize(load_config_file(FIXTURES / "ex5_8.json"))
    with Budget(3, 1.0):
        cert = structure_certificate(cfg)
        assert (cert.delta, cert.r, cert.c) == (1, 2, 1)
        e = lambda i: tuple(1 if j == i - 1 else 0 for j in range(6))
        psets = {frozenset(cfg.points[i] for i in part)
                 for part in cert.grouping}
        assert psets == {
            frozenset([(0,) * 6, e(5), e(6)]),
            frozenset([e(1), e(2), (-1, 2, 0, 0, -2, 1)]),
            frozenset([e(3), e(4), (0, 0, -1, 2, -2, 1)]),
        }
        expected_pi = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]]
        assert lattice_eq(
            hnf_basis(kernel_basis_int(cert.pi.matrix_rows)),
            hnf_basis(kernel_basis_int(expected_pi)),
        )
    with Budget(3, 30.0):
        report = verify_certificate(cfg, cert, exhaustive=True)
        assert report["condition4_chain"]
        assert report["all_passed"], report


def test_criterion_3_exhaustive_verify_is_output_sensitive(tmp_path):
    # segre_product(1, 8) has dim 9 and delta 7; visiting all Bell(10)
    # labelings and decomposing every structure took about 34 s; the
    # pruned search skips every prefix that fails a point or cannot
    # reach r = 7
    cfg = tmp_path / "segre_1_8.json"
    cert = tmp_path / "cert.json"
    cfg.write_text(json.dumps({"points": segre_product(1, 8).points}))
    assert run(["analyze", str(cfg), "--out", str(cert)]) == 0
    with Budget(3, 5.0):
        assert run(["verify", str(cfg), str(cert), "--exhaustive"]) == 0


def test_criterion_4_alpha_of_the_mixed_subspace_family():
    with Budget(4, 1.0):
        sub = lambda rows: RationalSubspace.from_rows(2, rows)
        v0 = sub([[1, 0]])
        v1 = sub([[0, 1]])
        v2 = sub([[1, 0], [0, 1]])
        assert alpha(AlphaProblem.make([v0, v1, v2, v2])) == 2


def test_criterion_5_segre_products_dual_path():
    with Budget(5, 5.0):
        for a in range(1, 4):
            for b in range(a, 4):
                cfg = segre_product(a, b)
                res = defect_oracle(TangencyProblem.make(cfg))
                assert res.delta == b - a, (a, b, res)
                cert = structure_certificate(cfg)
                assert cert.delta == b - a, (a, b, cert.delta)


def test_criterion_6_random_configurations_agree_and_twist():
    with Budget(6, 60.0):
        rng = random.Random(0xC6)
        for _ in range(200):
            n = rng.randint(1, 5)
            target = rng.randint(2, 10)
            pts = set()
            for _ in range(4 * target):
                pts.add(tuple(rng.randint(-4, 4) for _ in range(n)))
                if len(pts) >= target:
                    break
            a, _ = normalize(PointConfig.make(sorted(pts)))
            cert = structure_certificate(a)
            res = defect_oracle(TangencyProblem.make(a))
            if res.empty_dual:
                assert cert.delta == 0
            else:
                assert cert.delta == res.delta
            if a.dim >= 1:
                u = random_unimodular(rng, a.dim)
                t = [rng.randint(-4, 4) for _ in range(a.dim)]
                b = apply_affine(a, GroupHom.make(u, t))
                tres = defect_oracle(TangencyProblem.make(b))
                tcert = structure_certificate(b)
                assert tcert.delta == cert.delta
                assert (tres.delta is None and res.delta is None) \
                    or tres.delta == res.delta


def test_criterion_7_join_defect_law():
    with Budget(7, 60.0):
        rng = random.Random(0xC7)
        pool = [
            PointConfig.make([(0,), (1,), (2,)]),
            PointConfig.make([(0,), (1,), (2,), (3,)]),
            PointConfig.make([(0, 0), (1, 0), (0, 1), (1, 1)]),
            PointConfig.make([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]),
        ]
        for f in pool:
            check = defect_oracle(TangencyProblem.make(f))
            assert not check.empty_dual and check.delta == 0
        for _ in range(50):
            r = rng.randint(1, 2)
            facs = [rng.choice(pool) for _ in range(r + 1)]
            m = sum(f.dim for f in facs)
            placed = []
            off = 0
            for f in facs:
                placed.append(PointConfig.make(
                    [(0,) * off + p + (0,) * (m - off - f.dim)
                     for p in f.points], dim=m))
                off += f.dim
            assert is_join_type(placed)
            cert = structure_certificate(cayley_sum(placed))
            assert cert.delta == r, (facs, cert.delta, r)


def test_criterion_8_lower_bound_law_on_fixtures():
    with Budget(8, 300.0):
        for path in sorted(FIXTURES.iterdir()):
            cfg, _ = normalize(load_config_file(path))
            cert = structure_certificate(cfg)
            if cert.oracle_delta is None:
                continue
            for st in enumerate_simplex_projections(cfg):
                ap = part_alpha_problem(cfg, st.parts, cert.seed,
                                        cert.bound, cert.trials)
                c2 = alpha(ap)
                assert st.r - c2 <= cert.delta, (
                    path.name, st.parts, st.r, c2, cert.delta
                )


def test_criterion_9_exact_linalg_invariants_at_scale():
    with Budget(9, 30.0):
        rng = random.Random(0xC9)
        for _ in range(1000):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = [[rng.randint(-100, 100) for _ in range(cols)]
                 for _ in range(rows)]
            h, u = hnf(m)
            assert mat_mul(u, m) == h
            assert abs(det(u)) == 1
            s, su, sv = snf(m)
            assert mat_mul(mat_mul(su, m), sv) == s
            assert abs(det(su)) == 1 and abs(det(sv)) == 1
            diag = [s[i][i] for i in range(min(rows, cols))]
            for x, y in zip(diag, diag[1:]):
                assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
            ker = kernel_basis_int(m)
            assert rank_int(m) + len(ker) == cols
            for row in ker:
                assert all(
                    sum(a * b for a, b in zip(mr, row)) == 0 for mr in m
                )
            sat = saturate(m)
            assert saturate(sat) == sat
