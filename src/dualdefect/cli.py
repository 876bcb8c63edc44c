"""Command-line front end.

Subcommands: analyze (structure certificate), oracle (randomized corank
oracle only), verify (re-check an emitted certificate), gen (test corpus
generation), batch (analyze a directory).  Exit codes: 0 success, 1
verification or certification failure, or a stdout whose reader went
away, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import stat
import sys
import warnings
from pathlib import Path

from .cayley import EXHAUSTIVE_LIMIT, TooLarge, cayley_sum, is_join_type
from .config import (
    GroupHom,
    PointConfig,
    apply_affine,
    dump_config_json,
    load_config_file,
    normalize,
)
from .exact_linalg import identity
from .structure import (
    CertificateMismatch,
    CertificationError,
    certificate_from_json,
    certificate_to_obj,
    structure_certificate,
    verify_certificate,
)
from .tangency import (
    DEFAULT_BOUND,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    GenericityFailure,
    TangencyProblem,
    check_sampling,
    defect_oracle,
)

MAX_GEN_DIM = 8
MAX_GEN_POINTS = 14
GEN_KINDS = ("random", "cayley_join_type", "unimodular_twist")


def _add_sampling(p: argparse.ArgumentParser, seed_only: bool = False):
    """The sampling flags.  gen only seeds its generator, and verify,
    which samples with the certificate's own parameters, takes none."""
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"random seed (default {hex(DEFAULT_SEED)})")
    if not seed_only:
        p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)


def _add_output(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out", type=Path, default=None,
                   help="write the report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dualdefect",
        description="Dual defect of toric varieties with structure "
                    "certificates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="emit a structure certificate")
    pa.add_argument("config", type=Path)
    pa.add_argument("--exhaustive", action="store_true",
                    help="also run exhaustive enumeration checks")
    pa.add_argument("--exhaustive-limit", type=int,
                    help="largest dim the enumeration accepts; the cost "
                         f"is Bell(dim+1) checks (default {EXHAUSTIVE_LIMIT})")
    _add_sampling(pa)
    _add_output(pa)

    po = sub.add_parser("oracle", help="run only the corank oracle")
    po.add_argument("config", type=Path)
    _add_sampling(po)
    _add_output(po)

    pv = sub.add_parser("verify", help="re-check a certificate")
    pv.add_argument("config", type=Path)
    pv.add_argument("certificate", type=Path)
    pv.add_argument("--exhaustive", action="store_true")
    pv.add_argument("--exhaustive-limit", type=int,
                    help="largest dim the enumeration accepts (default "
                         f"{EXHAUSTIVE_LIMIT})")
    _add_output(pv)

    pg = sub.add_parser("gen", help="generate a test corpus")
    pg.add_argument("--kind", required=True, choices=GEN_KINDS)
    pg.add_argument("--count", type=int, default=10)
    pg.add_argument("--n", type=int,
                    help="ambient dimension (random kind only; default 3)")
    pg.add_argument("--points", type=int,
                    help="points per configuration (random kind only; "
                         "default 7)")
    _add_sampling(pg, seed_only=True)
    _add_output(pg)

    pb = sub.add_parser("batch", help="analyze every config in a directory")
    pb.add_argument("inputs", type=Path, nargs="+")
    _add_sampling(pb)
    _add_output(pb)
    return ap


def _emit(text: str, out: Path | None):
    """Write text and a newline to stdout or to ``out``.  A regular
    file is overwritten in place and cut to length only if it was longer
    (truncating on open costs more); a failed write leaves it empty, not
    new bytes over old.  A FIFO or device is written as a stream."""
    if out is None:
        sys.stdout.write(text + "\n")
        return
    data = (text + "\n").encode("utf-8")
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            st = os.fstat(fd)
            regular = stat.S_ISREG(st.st_mode)
            try:
                # a positive buffer size skips open's isatty probe
                with os.fdopen(fd, "wb", buffering=len(data),
                               closefd=False) as f:
                    f.write(data)
            except OSError:
                if regular:
                    os.ftruncate(fd, 0)
                raise
            if regular and st.st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise _cannot_write(out, exc)


def _cannot_write(path: Path, exc: OSError) -> SystemExit:
    return SystemExit(_fail_input(f"cannot write {path}: {exc.strerror}"))


def _read_config(path: Path) -> PointConfig:
    """``load_config_file``, with each warning it raises (repeated
    points) printed to stderr as one line that names the file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return load_config_file(path)
        finally:
            for w in caught:
                print(f"warning: {path}: {w.message}", file=sys.stderr)


def _load(path: Path) -> PointConfig:
    try:
        return _read_config(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(_fail_input(f"cannot read {path}: {exc}"))


def _fail_input(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _analysis_payload(cfg: PointConfig, args, exhaustive: bool,
                      limit: int):
    a, _theta = normalize(cfg)
    cert = structure_certificate(a, args.seed, args.bound, args.trials)
    report = None
    if exhaustive:
        report = verify_certificate(a, cert, exhaustive=True, limit=limit)
    return a, cert, report


def _cert_text(name, cert, report) -> str:
    lines = [
        f"configuration: {name or '(unnamed)'}",
        f"n: {cert.n}",
        f"r: {cert.r}",
        f"c: {cert.c}",
        f"delta: {cert.delta}",
        f"grouping: {[list(g) for g in cert.grouping]}",
        f"pi1: {[list(r) for r in cert.pi1.matrix]}",
        f"pi2: {[list(r) for r in cert.pi2.matrix]}",
        f"p: {[list(r) for r in cert.p.matrix]}",
        f"seed: {cert.seed}  bound: {cert.bound}  trials: {cert.trials}",
        "oracle delta: " + ("empty dual" if cert.oracle_delta is None
                            else str(cert.oracle_delta)),
        f"checks: {cert.checks_dict()}",
    ]
    if report is not None:
        lines.append(f"exhaustive checks: {report}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    cfg = _load(args.config)
    try:
        a, cert, report = _analysis_payload(
            cfg, args, args.exhaustive, args.exhaustive_limit
        )
    except (CertificationError, GenericityFailure) as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    except TooLarge as exc:
        return _fail_input(str(exc))
    if args.format == "json":
        payload = certificate_to_obj(cert)
        if report is not None:
            payload["exhaustive_checks"] = report
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(_cert_text(cfg.name, cert, report), args.out)
    if report is not None and not report["all_passed"]:
        return 1
    return 0


def cmd_oracle(args) -> int:
    cfg = _load(args.config)
    a, _ = normalize(cfg)
    res = defect_oracle(
        TangencyProblem.make(a, args.seed, args.bound, args.trials)
    )
    obj = {
        "name": cfg.name or "",
        "status": "empty_dual" if res.empty_dual else "computed",
        "delta": res.delta,
        "samples_used": res.samples_used,
    }
    if args.format == "json":
        _emit(json.dumps(obj, indent=2), args.out)
    else:
        _emit(
            f"configuration: {obj['name'] or '(unnamed)'}\n"
            f"status: {obj['status']}\n"
            f"delta: {obj['delta']}\n"
            f"samples used: {obj['samples_used']}",
            args.out,
        )
    return 0


def cmd_verify(args) -> int:
    cfg = _load(args.config)
    try:
        cert = certificate_from_json(
            args.certificate.read_text(encoding="utf-8")
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail_input(f"cannot read certificate: {exc}")
    a, _ = normalize(cfg)
    try:
        report = verify_certificate(
            a, cert, exhaustive=args.exhaustive, limit=args.exhaustive_limit
        )
    except (TooLarge, CertificateMismatch) as exc:
        return _fail_input(str(exc))
    except GenericityFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        _emit(json.dumps({"checks": report,
                          "passed": report["all_passed"]}, indent=2),
              args.out)
    else:
        lines = [f"{k}: {'pass' if v else 'FAIL'}" for k, v in report.items()]
        _emit("\n".join(lines), args.out)
    return 0 if report["all_passed"] else 1


# --- corpus generation ------------------------------------------------------

_FACTOR_POOL = [
    PointConfig.make([(0,), (1,), (2,)]),
    PointConfig.make([(0,), (1,), (2,), (3,)]),
    PointConfig.make([(0, 0), (1, 0), (0, 1), (1, 1)]),
    PointConfig.make([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]),
]


def _random_unimodular(rng: random.Random, n: int):
    u = identity(n)
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                u[i][k] += c * u[j][k]
    return u


def generate_corpus(kind: str, count: int, n: int | None,
                    points: int | None, seed: int):
    """Deterministic corpus of configurations with optional expected delta;
    ``n`` and ``points`` (default 3 and 7) shape the random kind only."""
    if kind not in GEN_KINDS:
        raise ValueError(f"unknown corpus kind {kind}")
    if kind != "random" and (n, points) != (None, None):
        raise ValueError(f"--kind {kind} takes no --n or --points")
    if count < 0:
        raise ValueError(f"count must be at least 0, not {count}")
    if kind == "random":
        n = 3 if n is None else n
        points = 7 if points is None else points
        if not (1 <= n <= MAX_GEN_DIM):
            raise ValueError(f"n must be in 1..{MAX_GEN_DIM}")
        if not (2 <= points <= MAX_GEN_POINTS):
            raise ValueError(f"points must be in 2..{MAX_GEN_POINTS}")
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        if kind == "random":
            pts = set()
            attempts = 0
            while len(pts) < points and attempts < 200:
                pts.add(tuple(rng.randint(-4, 4) for _ in range(n)))
                attempts += 1
            if len(pts) < points:
                raise ValueError(f"drew only {len(pts)} distinct points "
                                 f"in [-4, 4]^{n}, not {points}")
            cfg = PointConfig.make(sorted(pts), name=f"random_{idx:03d}")
            out.append((cfg, None))
        elif kind == "cayley_join_type":
            r = rng.randint(1, 2)
            facs = [rng.choice(_FACTOR_POOL) for _ in range(r + 1)]
            m = sum(f.dim for f in facs)
            placed = []
            off = 0
            for f in facs:
                placed.append(PointConfig.make(
                    [(0,) * off + p + (0,) * (m - off - f.dim)
                     for p in f.points], dim=m))
                off += f.dim
            if not is_join_type(placed):
                raise ArithmeticError("factors on disjoint coordinates "
                                      "do not sum directly")
            cs = cayley_sum(placed)
            cfg = PointConfig(cs.dim, cs.points, f"join_{idx:03d}")
            out.append((cfg, r))
        else:
            base = PointConfig.make([(0, 0), (1, 0), (0, 1), (1, 1)])
            u = _random_unimodular(rng, 2)
            t = [rng.randint(-5, 5) for _ in range(2)]
            cfg = apply_affine(base, GroupHom.make(u, t))
            cfg = PointConfig(cfg.dim, cfg.points, f"twist_{idx:03d}")
            out.append((cfg, 0))
    return out


def cmd_gen(args) -> int:
    try:
        corpus = generate_corpus(args.kind, args.count, args.n, args.points,
                                 args.seed)
    except ValueError as exc:
        return _fail_input(str(exc))
    outdir = args.out or Path(".")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(outdir, exc)
    manifest = []
    for cfg, expected in corpus:
        obj = json.loads(dump_config_json(cfg))
        if expected is not None:
            obj["expected_delta"] = expected
        path = outdir / f"{cfg.name}.json"
        _emit(json.dumps(obj), path)
        manifest.append({"file": str(path), "expected_delta": expected})
    if args.format == "json":
        print(json.dumps(manifest, indent=2))
    else:
        for rec in manifest:
            print(f"{rec['file']} expected_delta={rec['expected_delta']}")
    return 0


def _batch_files(inputs):
    files = []
    for p in inputs:
        if p.is_dir():
            files.extend(sorted(q for q in p.iterdir()
                                if q.suffix in (".json", ".txt")))
        else:
            files.append(p)
    return sorted(set(files))


def cmd_batch(args) -> int:
    records = []
    any_failed = False
    for path in _batch_files(args.inputs):
        rec = {"file": str(path)}
        try:
            cfg = _read_config(path)
            a, _ = normalize(cfg)
            cert = structure_certificate(a, args.seed, args.bound,
                                         args.trials)
            rec.update(delta=cert.delta, r=cert.r, c=cert.c, ok=True)
        except Exception as exc:  # per-file failures do not abort the batch
            rec.update(ok=False, error=str(exc))
            any_failed = True
        records.append(rec)
    if args.format == "json":
        _emit(json.dumps(records, indent=2), args.out)
    else:
        lines = []
        for rec in records:
            if rec["ok"]:
                lines.append(f"{rec['file']}: delta={rec['delta']} "
                             f"r={rec['r']} c={rec['c']}")
            else:
                lines.append(f"{rec['file']}: FAILED ({rec['error']})")
        _emit("\n".join(lines), args.out)
    return 1 if any_failed else 0


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "exhaustive_limit" in vars(args):
        if args.exhaustive_limit is None:
            args.exhaustive_limit = EXHAUSTIVE_LIMIT
        elif not args.exhaustive:
            return _fail_input("--exhaustive-limit needs --exhaustive")
    if "trials" in vars(args):
        try:
            check_sampling(args.bound, args.trials)
        except ValueError as exc:
            return _fail_input(str(exc))
    handler = {
        "analyze": cmd_analyze,
        "oracle": cmd_oracle,
        "verify": cmd_verify,
        "gen": cmd_gen,
        "batch": cmd_batch,
    }[args.command]
    try:
        return handler(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # the reader went away: send what Python still flushes at exit
        # to devnull, and exit 1 without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
