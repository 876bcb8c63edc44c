"""Command-line front end.

Subcommands: analyze (structure certificate), oracle (randomized corank
oracle only), verify (re-check an emitted certificate), gen (test corpus
generation), batch (analyze a directory).

``run`` alone maps outcomes to exit codes.  Exit 2 with ``error: ...``
on stderr: an ``InputError`` (unreadable or malformed input, unwritable
``--out``, bad flag value), ``TooLarge``, ``CertificateMismatch``, or an
argparse usage error.  Exit 1 with ``verification failed: ...`` (verify)
or ``certification failed: ...`` (the other commands): one of the
``NAMED_FAILURES``, ``CertificationError`` and ``GenericityFailure``.
Exit 1 also for a report whose checks did not all pass, or a stdout
whose reader went away.  batch records an unreadable or malformed file
or a ``NAMED_FAILURES`` exception per file, exits 1 if any file failed,
and never reads its own ``--out``.  Other exceptions are bugs: uncaught.
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
    check_seed,
    defect_oracle,
)

MAX_GEN_DIM = 8
MAX_GEN_POINTS = 14
GEN_KINDS = ("random", "cayley_join_type", "unimodular_twist")
NAMED_FAILURES = (CertificationError, GenericityFailure)


class InputError(Exception):
    """Input a command cannot use; ``run`` exits 2 on it."""


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
        raise InputError(f"cannot write {out}: {exc.strerror}") from exc


def _report(args, obj, text):
    """Emit ``obj`` as indented JSON or, with ``--format text``, the
    lines that ``text()`` builds."""
    _emit(json.dumps(obj, indent=2) if args.format == "json"
          else "\n".join(text()), args.out)


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
        raise InputError(f"cannot read {path}: {exc}") from exc


def _cert_lines(name, cert, report) -> list[str]:
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
    return lines


def cmd_analyze(args) -> int:
    cfg = _load(args.config)
    a, _theta = normalize(cfg)
    cert = structure_certificate(a, args.seed, args.bound, args.trials)
    obj = certificate_to_obj(cert)
    report = None
    if args.exhaustive:
        report = obj["exhaustive_checks"] = verify_certificate(
            a, cert, exhaustive=True, limit=args.exhaustive_limit)
    _report(args, obj, lambda: _cert_lines(cfg.name, cert, report))
    return 0 if report is None or report["all_passed"] else 1


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
    _report(args, obj, lambda: [
        f"configuration: {obj['name'] or '(unnamed)'}",
        f"status: {obj['status']}",
        f"delta: {obj['delta']}",
        f"samples used: {obj['samples_used']}",
    ])
    return 0


def cmd_verify(args) -> int:
    cfg = _load(args.config)
    try:
        cert = certificate_from_json(
            args.certificate.read_text(encoding="utf-8")
        )
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read certificate: {exc}") from exc
    a, _ = normalize(cfg)
    report = verify_certificate(
        a, cert, exhaustive=args.exhaustive, limit=args.exhaustive_limit
    )
    _report(args, {"checks": report, "passed": report["all_passed"]},
            lambda: [f"{k}: {'pass' if v else 'FAIL'}"
                     for k, v in report.items()])
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
    check_seed(seed)
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
        raise InputError(str(exc)) from exc
    outdir = args.out or Path(".")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {outdir}: {exc.strerror}") from exc
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


def _batch_files(inputs, out: Path | None):
    """The input files and the .json and .txt files of the input
    directories, sorted, without the report file ``out``."""
    files = set()
    for p in inputs:
        files.update([q for q in p.iterdir() if q.suffix in (".json", ".txt")]
                     if p.is_dir() else [p])
    if out is not None:
        # realpath, not Path.resolve, which raises on a symlink loop
        report = os.path.realpath(out)
        files = {f for f in files if os.path.realpath(f) != report}
    return sorted(files)


def cmd_batch(args) -> int:
    records = []
    for path in _batch_files(args.inputs, args.out):
        rec = {"file": str(path)}
        try:
            a, _ = normalize(_read_config(path))
            cert = structure_certificate(a, args.seed, args.bound,
                                         args.trials)
            rec.update(delta=cert.delta, r=cert.r, c=cert.c, ok=True)
        except (OSError, ValueError, *NAMED_FAILURES) as exc:
            rec.update(ok=False, error=str(exc))
        records.append(rec)
    _report(args, records, lambda: [
        f"{rec['file']}: delta={rec['delta']} r={rec['r']} c={rec['c']}"
        if rec["ok"] else f"{rec['file']}: FAILED ({rec['error']})"
        for rec in records])
    return 0 if all(rec["ok"] for rec in records) else 1


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "oracle": cmd_oracle,
        "verify": cmd_verify,
        "gen": cmd_gen,
        "batch": cmd_batch,
    }[args.command]
    try:
        if "exhaustive_limit" in vars(args):
            if args.exhaustive_limit is None:
                args.exhaustive_limit = EXHAUSTIVE_LIMIT
            elif not args.exhaustive:
                raise InputError("--exhaustive-limit needs --exhaustive")
        if "seed" in vars(args):  # every command but verify
            try:
                check_seed(args.seed)
                if "trials" in vars(args):
                    check_sampling(args.bound, args.trials)
            except ValueError as exc:
                raise InputError(str(exc)) from exc
        return handler(args)
    except (InputError, TooLarge, CertificateMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NAMED_FAILURES as exc:
        check = "verification" if args.command == "verify" else "certification"
        print(f"{check} failed: {exc}", file=sys.stderr)
        return 1


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
