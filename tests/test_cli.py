import ast
import collections
import contextlib
import errno
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import types
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as hst

from dualdefect import cli, exact_linalg, structure, tangency
from dualdefect.cli import generate_corpus, run
from dualdefect.config import GroupHom, load_config_file, normalize
from dualdefect.structure import (
    certificate_from_json,
    certificate_to_json,
    structure_certificate,
    verify_certificate,
)
from dualdefect.tangency import MAX_TRIALS, GenericityFailure

from conftest import FIXTURES

SRC = FIXTURES.parent / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_ex5_8(capsys):
    code, out, _ = invoke(
        capsys, "analyze", str(FIXTURES / "ex5_8.json"), "--seed", "7"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["delta"] == 1 and obj["r"] == 2 and obj["c"] == 1


def _count_draws_and_hessians(monkeypatch):
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tangency, "sample_combination",
                        counted("draws", tangency.sample_combination))
    monkeypatch.setattr(tangency, "hessian",
                        counted("hessians", tangency.hessian))
    return counts


def test_analyze_draws_each_sample_once(capsys, monkeypatch):
    # the oracle and the contact grouping share one round of three
    # tangency samples and their Hessians; alpha, check_star and vprime
    # share one round of three K samples
    counts = _count_draws_and_hessians(monkeypatch)
    code, _, _ = invoke(capsys, "analyze", str(FIXTURES / "ex5_8.json"))
    assert code == 0
    assert counts == {"draws": 6, "hessians": 3}


def test_nondefective_analyze_and_verify_read_one_sample(
        tmp_path, capsys, monkeypatch):
    # the first sampled Hessian of segre is nonsingular, which decides
    # delta = 0 for analyze and for the oracle verify replays
    cfg = str(FIXTURES / "segre.json")
    cert_path = str(tmp_path / "cert.json")
    counts = _count_draws_and_hessians(monkeypatch)
    assert invoke(capsys, "analyze", cfg, "--out", cert_path)[0] == 0
    assert counts == {"draws": 1, "hessians": 1}
    counts.clear()
    assert invoke(capsys, "verify", cfg, cert_path)[0] == 0
    assert counts == {"draws": 1, "hessians": 1}


def _random_nondefective_config(tmp_path):
    """The first random configuration with a nonempty tangency space
    and delta = 0, written to a file."""
    for cfg, _ in generate_corpus("random", 20, 4, 9, 5):
        a, _ = normalize(cfg)
        tp = tangency.TangencyProblem.make(a)
        if tp.dim_l and tangency.defect_oracle(tp).delta == 0:
            path = tmp_path / f"{cfg.name}.json"
            path.write_text(json.dumps({"dim": cfg.dim,
                                        "points": cfg.points}))
            return str(path)
    raise AssertionError("no nondefective random configuration")


def test_nondefective_analyze_builds_no_basis_of_l(tmp_path, capsys,
                                                   monkeypatch):
    # the tangency samples are back-substituted from one forward pass of
    # [1; A]: no Gauss-Jordan elimination runs anywhere in the package
    configs = [str(FIXTURES / "segre.json"),
               _random_nondefective_config(tmp_path)]
    calls = collections.Counter()
    for module in (exact_linalg, tangency, structure,
                   importlib.import_module("dualdefect.alpha"),
                   importlib.import_module("dualdefect.cayley"),
                   importlib.import_module("dualdefect.config")):
        for name in ("rref_ff", "kernel_basis_ff"):
            fn = getattr(module, name, None)
            if fn is not None:
                def counted(*a, _fn=fn, _name=name):
                    calls[_name] += 1
                    return _fn(*a)
                monkeypatch.setattr(module, name, counted)
    for cfg in configs:
        code, out, _ = invoke(capsys, "analyze", cfg)
        assert code == 0 and json.loads(out)["delta"] == 0
    assert calls == {}


def test_verify_builds_no_kernel_lattice_of_pi1(tmp_path, capsys,
                                                monkeypatch):
    # pi1_surjective and pi1_kernel_rank read one HNF of the columns of
    # pi1, p_matches the HNF of pi1(ker pi), and the chain of
    # --exhaustive a Q-basis of ker pi1: no lattice of pi1 is built, and
    # only the one of pi.  The chain reads its last link off each
    # labeling, so no pi' is built either, and structure runs those
    # three eliminations before the structure loop and none in it
    built = []
    real = GroupHom.kernel_lattice
    cayley = importlib.import_module("dualdefect.cayley")
    calls = collections.Counter()

    def spy(self):
        built.append(self.matrix_rows)
        return real(self)

    def counted(owner, name):
        real = getattr(owner, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, spy)

    certs = []
    for name in ("ex5_8", "p1xp2"):
        cfg = str(FIXTURES / f"{name}.json")
        cert_path = tmp_path / f"{name}.cert.json"
        assert invoke(capsys, "analyze", cfg, "--out", str(cert_path))[0] == 0
        certs.append((cfg, str(cert_path),
                      json.loads(cert_path.read_text())["pi1"]))
    monkeypatch.setattr(GroupHom, "kernel_lattice", spy)
    counted(cayley.AffineFrame, "projection")
    for name in ("hnf_basis", "kernel_basis_ff"):
        counted(structure, name)
    cfg, cert_path, pi1 = certs[0]
    assert invoke(capsys, "verify", cfg, cert_path)[0] == 0
    assert len(built) == 1 and pi1 not in built
    for cfg, cert_path, pi1 in certs:
        built.clear()
        calls.clear()
        assert invoke(capsys, "verify", cfg, cert_path, "--exhaustive")[0] == 0
        assert built and pi1 not in built
        assert calls == {"hnf_basis": 2, "kernel_basis_ff": 1}


@pytest.mark.parametrize("shift,draws", [(0, 1), (1, 1), (-1, 3)])
def test_verify_replay_stops_at_the_first_corank_at_most_delta(
        tmp_path, capsys, monkeypatch, shift, draws):
    # every sampled Hessian of ex5_8 has corank 1: the replay stops at the
    # first one unless the claimed delta is below it, and then reads the
    # whole round of trials = 3 and finds no corank to stop at
    cert = _ex5_8_certificate(capsys)
    cert["delta"] = cert["oracle_delta"] = cert["delta"] + shift
    counts = _count_draws_and_hessians(monkeypatch)
    code, out, _ = _verify_edited(tmp_path, capsys, cert)
    assert counts == {"draws": draws, "hessians": draws}
    checks = json.loads(out)["checks"]
    assert code == (0 if shift == 0 else 1)
    assert checks["oracle_replayed"] is (shift == 0)


def test_replay_reads_the_samples_the_oracle_read(ex5_8, monkeypatch):
    # the replay reads the problem's own round 0, so after the oracle
    # read all of it, no delta makes it draw or build a Hessian again
    tp = tangency.TangencyProblem.make(ex5_8)
    assert tangency.defect_oracle(tp).samples_used == 3
    counts = _count_draws_and_hessians(monkeypatch)
    assert [tangency.first_corank_at_most(tp, d) for d in (1, 0)] == [
        1, None]
    assert counts == {}


_DEEP = "[" * 100_000


@pytest.mark.parametrize("command,nested", [
    *((command, nested) for nested in ("config", "points")
      for command in ("analyze", "oracle", "verify")),
    ("verify", "certificate"),
])
def test_deeply_nested_json_exit_2(tmp_path, capsys, command, nested):
    # json.loads raises RecursionError on this nesting; it is an input
    # error like any other unreadable file
    cert = tmp_path / "cert.json"
    code, _, _ = invoke(capsys, "analyze", str(FIXTURES / "segre.json"),
                        "--out", str(cert))
    assert code == 0
    cfg = tmp_path / "config.json"
    segre = (FIXTURES / "segre.json").read_text(encoding="utf-8")
    cfg.write_text({"config": _DEEP, "points": '{"points": ' + _DEEP,
                    "certificate": segre}[nested], encoding="utf-8")
    if nested == "certificate":
        cert.write_text(_DEEP, encoding="utf-8")
    argv = [command, str(cfg)] + ([str(cert)] if command == "verify" else [])
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    bad = "certificate" if nested == "certificate" else cfg
    assert err.startswith(f"error: cannot read {bad}: ")
    assert "nested too deeply" in err


def test_pipeline_makes_no_snf(tmp_path, capsys, monkeypatch):
    # the pipeline reads kernels, coordinates, surjectivity and the lift
    # of pi2 off Hermite normal forms; the Smith normal form is only the
    # reference the tests check them against
    def snf(*args):
        raise AssertionError("the pipeline called exact_linalg.snf")

    monkeypatch.setattr(exact_linalg, "snf", snf)
    for fx in sorted(FIXTURES.iterdir()):
        cfg = str(fx)
        cert_path = str(tmp_path / (fx.stem + ".cert.json"))
        assert invoke(capsys, "analyze", cfg, "--out", cert_path)[0] == 0
        assert invoke(capsys, "verify", cfg, cert_path)[0] == 0
        assert invoke(capsys, "verify", cfg, cert_path,
                      "--exhaustive")[0] == 0
        assert invoke(capsys, "oracle", cfg)[0] == 0
    code, out, _ = invoke(capsys, "batch", str(FIXTURES))
    assert code == 0 and all(rec["ok"] for rec in json.loads(out))


def test_ex5_8_eliminates_each_sampled_matrix_once(capsys, monkeypatch):
    # each of the three Hessians gets one forward Bareiss pass and no
    # rref_ff; check_star reads the removal condition off the dependency
    # kernels, and vprime eliminates its one candidate span once
    alpha_module = importlib.import_module("dualdefect.alpha")
    args = collections.defaultdict(list)  # last argument of each call
    active = set()  # the pipeline stages running now

    def spy(owner, name, scope=None):
        fn = getattr(owner, name)

        def wrapper(*a):
            if scope is None or scope in active:
                args[name].append(a[-1])
            return fn(*a)
        monkeypatch.setattr(owner, name, wrapper)

    def scoped(name):
        fn = getattr(structure, name)

        def wrapper(*a):
            active.add(name)
            try:
                return fn(*a)
            finally:
                active.discard(name)
        monkeypatch.setattr(structure, name, wrapper)

    hessians = []
    real_hessian = tangency.hessian

    def hessian(*a):
        hessians.append(real_hessian(*a))
        return hessians[-1]

    monkeypatch.setattr(tangency, "hessian", hessian)
    spy(exact_linalg, "_bareiss")
    spy(exact_linalg, "rref_ff")
    scoped("check_star")
    scoped("vprime")
    real_from_rows = exact_linalg.RationalSubspace.from_rows.__func__

    def from_rows(cls, *a):
        if "vprime" in active:
            args["from_rows"].append(a[-1])
        return real_from_rows(cls, *a)

    monkeypatch.setattr(exact_linalg.RationalSubspace, "from_rows",
                        classmethod(from_rows))
    assert invoke(capsys, "analyze", str(FIXTURES / "ex5_8.json"))[0] == 0
    assert len(hessians) == 3
    for h in hessians:
        assert sum(m is h for m in args["_bareiss"]) == 1
        assert not any(m is h for m in args["rref_ff"])
    assert not hasattr(alpha_module, "rank_int")
    assert len(args["from_rows"]) == 1


def _bench_tracing():
    """The module ``bench/tracing.py``, which is not a package."""
    path = FIXTURES.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_traced_names_resolve():
    # `bench/run.py --trace 1` wraps each of these by name
    tracing = _bench_tracing()
    missing = [f"{layer}.{fn}"
               for layer, fns in tracing.LAYER_FUNCTIONS.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(
                   f"dualdefect.{layer}"), fn, None))]
    assert missing == []
    layer, fn = tracing.KEPT_RATIO_OF.split(".")
    assert fn in tracing.LAYER_FUNCTIONS[layer]


def test_package_imports_only_the_standard_library():
    # the package has no runtime dependency outside the standard library
    imported = []
    for path in sorted((SRC / "dualdefect").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
    assert imported
    assert [(name, module) for name, module in imported
            if module.split(".")[0] not in sys.stdlib_module_names] == []


def _package_trees():
    """(file name, syntax tree) of each module of the package."""
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((SRC / "dualdefect").glob("*.py"))]


def _names_read(tree) -> set[str]:
    """The names a module loads, and those its __all__ lists."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return read


def test_package_has_no_unused_imports():
    # every name a module imports is read there or listed in __all__
    unused = []
    for name, tree in _package_trees():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and \
                        node.module == "__future__":
                    continue
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = \
                        node.lineno
        read = _names_read(tree)
        unused += [(name, imp, line)
                   for imp, line in imported.items() if imp not in read]
    assert unused == []


def test_package_defines_nothing_unread():
    # every module-level function or class, and every method, is read
    # somewhere in the package (as a name or an attribute), listed in
    # __all__ or traced by the benchmark; Python itself calls dunders
    read = {fn for fns in _bench_tracing().LAYER_FUNCTIONS.values()
            for fn in fns}
    defined = []
    for name, tree in _package_trees():
        read |= _names_read(tree)
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.append((name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(name, f"{node.name}.{sub.name}", sub.name)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__")
                                     and sub.name.endswith("__"))]
    assert defined
    assert [(name, qual) for name, qual, short in defined
            if short not in read] == []


def test_structure_reads_no_field_of_the_frame_layout():
    # verify --exhaustive uses the affine frame through its methods; the
    # coordinate layout (outside, inverse, scale) stays in cayley
    tree = dict(_package_trees())["structure.py"]
    read = [(node.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in ("outside", "inverse", "scale")]
    assert read == []


def test_only_the_sample_stream_reads_sample_rounds():
    # SampledProblem is the one sampler: every other reader of a round
    # takes it from a problem's stream and shares its evaluated samples
    inside, outside = [], []
    for name, tree in _package_trees():
        stream = {id(node) for cls in ast.walk(tree)
                  if name == "tangency.py" and isinstance(cls, ast.ClassDef)
                  and cls.name == "SampledProblem"
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Name) and node.id == "sample_rounds"
                 and isinstance(node.ctx, ast.Load))
                    or (isinstance(node, ast.Attribute)
                        and node.attr == "sample_rounds")):
                (inside if id(node) in stream else outside).append(
                    (name, node.lineno))
    assert inside and outside == []


def test_only_run_maps_exceptions_to_exit_codes():
    # no module raises or catches SystemExit, and of the cli functions
    # only run (for the exit code) and cmd_batch (for per-file records)
    # catch the exceptions that end a command with exit 1 or 2
    assert [(name, node.lineno) for name, tree in _package_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "SystemExit"] == []
    tree = dict(_package_trees())["cli.py"]
    constants = {t.id: {n.id for n in ast.walk(node.value)
                        if isinstance(n, ast.Name)}
                 for node in tree.body if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name)}
    mapped = {"InputError", "TooLarge", "CertificateMismatch",
              "CertificationError", "GenericityFailure"}
    caught = {}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        names = {n.id for h in ast.walk(fn) if isinstance(h, ast.ExceptHandler)
                 and h.type is not None for n in ast.walk(h.type)
                 if isinstance(n, ast.Name)}
        caught[fn.name] = set().union(names, *(constants.get(n, ())
                                               for n in names)) & mapped
    assert caught.pop("run") == mapped
    assert caught.pop("cmd_batch") == {"CertificationError",
                                       "GenericityFailure"}
    assert {name: c for name, c in caught.items() if c} == {}


def test_package_has_no_assert_statements():
    # python -O strips asserts, so invariants are explicit exceptions
    asserts = [(path.name, node.lineno)
               for path in sorted((SRC / "dualdefect").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(
                   encoding="utf-8")))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_oracle_segre(capsys):
    code, out, _ = invoke(capsys, "oracle", str(FIXTURES / "segre.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["delta"] == 0 and obj["status"] == "computed"
    assert obj["samples_used"] == 1


def test_analyze_simplex_empty_dual(capsys):
    code, out, _ = invoke(capsys, "analyze", str(FIXTURES / "simplex3.txt"))
    assert code == 0
    obj = json.loads(out)
    assert obj["delta"] == 0 and obj["r"] == 0
    assert obj["oracle_delta"] == "empty_dual"


def test_text_json_same_numbers(capsys):
    code, jout, _ = invoke(capsys, "analyze", str(FIXTURES / "ex5_7.json"))
    assert code == 0
    obj = json.loads(jout)
    code, tout, _ = invoke(
        capsys, "analyze", str(FIXTURES / "ex5_7.json"), "--format", "text"
    )
    assert code == 0
    assert f"delta: {obj['delta']}" in tout
    assert f"r: {obj['r']}" in tout
    assert f"c: {obj['c']}" in tout


def test_verify_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _, _ = invoke(
        capsys, "analyze", str(FIXTURES / "ex5_8.json"),
        "--out", str(cert_path),
    )
    assert code == 0
    code, out, _ = invoke(
        capsys, "verify", str(FIXTURES / "ex5_8.json"), str(cert_path)
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_tampered_exit_1(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    invoke(capsys, "analyze", str(FIXTURES / "ex5_8.json"),
           "--out", str(cert_path))
    obj = json.loads(cert_path.read_text())
    obj["delta"] = obj["r"] - obj["c"] + 1
    cert_path.write_text(json.dumps(obj))
    code, out, _ = invoke(
        capsys, "verify", str(FIXTURES / "ex5_8.json"), str(cert_path)
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_all_fixtures(tmp_path, capsys):
    for fx in sorted(FIXTURES.iterdir()):
        cert_path = tmp_path / (fx.stem + ".cert.json")
        code, _, _ = invoke(capsys, "analyze", str(fx),
                            "--out", str(cert_path))
        assert code == 0, fx
        code, _, _ = invoke(capsys, "verify", str(fx), str(cert_path))
        assert code == 0, fx


def test_exhaustive_limit_exit_2(tmp_path, capsys):
    # ex5_8 has dim 6, above the limit: an input error, not a traceback
    cfg = str(FIXTURES / "ex5_8.json")
    code, _, err = invoke(capsys, "analyze", cfg, "--exhaustive",
                          "--exhaustive-limit", "2")
    assert code == 2
    assert "error:" in err and "limit 2" in err
    cert_path = tmp_path / "cert.json"
    invoke(capsys, "analyze", cfg, "--out", str(cert_path))
    code, out, err = invoke(capsys, "verify", cfg, str(cert_path),
                            "--exhaustive", "--exhaustive-limit", "2")
    assert code == 2 and out == ""
    assert "error:" in err and "limit 2" in err


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_exhaustive_limit_needs_exhaustive(tmp_path, capsys, command):
    # the limit bounds only the enumeration, so without --exhaustive it
    # is a usage error, not silently ignored
    cfg = str(FIXTURES / "ex5_8.json")
    args = [command, cfg]
    if command == "verify":
        cert_path = tmp_path / "cert.json"
        assert invoke(capsys, "analyze", cfg, "--out", str(cert_path))[0] == 0
        args.append(str(cert_path))
    for limit in ("-3", "11"):
        code, out, err = invoke(capsys, *args, "--exhaustive-limit", limit)
        assert code == 2 and out == ""
        assert err == "error: --exhaustive-limit needs --exhaustive\n"


def test_verify_exhaustive_ex5_7(tmp_path, capsys):
    cfg = str(FIXTURES / "ex5_7.json")
    cert_path = tmp_path / "cert.json"
    invoke(capsys, "analyze", cfg, "--out", str(cert_path))
    code, out, _ = invoke(capsys, "verify", cfg, str(cert_path),
                          "--exhaustive")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks["lower_bound_law"] and checks["condition4_chain"]
    assert checks["all_passed"]


def test_missing_file_exit_2(capsys):
    code, _, err = invoke(capsys, "analyze", "/does/not/exist.json")
    assert code == 2
    assert "error" in err


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = invoke(capsys, "analyze", str(bad))
    assert code == 2


def test_gen_out_of_range_exit_2(capsys):
    code, _, _ = invoke(capsys, "gen", "--kind", "random", "--n", "99")
    assert code == 2


def test_gen_deterministic(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    invoke(capsys, "gen", "--kind", "cayley_join_type", "--count", "4",
           "--out", str(d1), "--seed", "5")
    invoke(capsys, "gen", "--kind", "cayley_join_type", "--count", "4",
           "--out", str(d2), "--seed", "5")
    files1 = sorted(p.name for p in d1.iterdir())
    assert files1 == sorted(p.name for p in d2.iterdir())
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_gen_join_type_expected_delta(tmp_path, capsys):
    invoke(capsys, "gen", "--kind", "cayley_join_type", "--count", "3",
           "--out", str(tmp_path), "--seed", "2")
    from dualdefect.config import load_config_file, normalize
    from dualdefect.structure import structure_certificate
    for p in sorted(tmp_path.iterdir()):
        obj = json.loads(p.read_text())
        a, _ = normalize(load_config_file(p))
        cert = structure_certificate(a)
        assert cert.delta == obj["expected_delta"]


def test_gen_unimodular_twist_defect_zero(tmp_path, capsys):
    invoke(capsys, "gen", "--kind", "unimodular_twist", "--count", "3",
           "--out", str(tmp_path), "--seed", "9")
    from dualdefect.config import load_config_file, normalize
    from dualdefect.structure import structure_certificate
    for p in sorted(tmp_path.iterdir()):
        a, _ = normalize(load_config_file(p))
        assert structure_certificate(a).delta == 0


def test_batch_fixtures(capsys):
    code, out, _ = invoke(capsys, "batch", str(FIXTURES))
    assert code == 0
    records = json.loads(out)
    by_name = {r["file"].split("/")[-1]: r for r in records}
    assert by_name["segre.json"]["delta"] == 0
    assert by_name["ex5_7.json"]["delta"] == 1
    assert by_name["ex5_8.json"]["delta"] == 1
    assert by_name["p1xp2.json"]["delta"] == 1
    assert all(r["ok"] for r in records)


def test_batch_partial_failure(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("0\n1\n")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, _ = invoke(capsys, "batch", str(tmp_path))
    assert code == 1
    records = json.loads(out)
    status = {r["file"].split("/")[-1]: r["ok"] for r in records}
    assert status["good.txt"] is True and status["bad.json"] is False


def test_batch_does_not_read_its_own_report(tmp_path, capsys, monkeypatch):
    # the report written into an input directory is not an input of the
    # next run, however --out spells its path
    d = tmp_path / "d"
    d.mkdir()
    (d / "good.txt").write_text("0\n1\n", encoding="utf-8")
    report = d / "report.json"
    assert invoke(capsys, "batch", str(d), "--out", str(report))[0] == 0
    first = report.read_bytes()
    monkeypatch.chdir(tmp_path)
    assert invoke(capsys, "batch", str(d), "--out", "d/report.json")[0] == 0
    assert report.read_bytes() == first
    assert [r["file"] for r in json.loads(first)] == [str(d / "good.txt")]
    # a symlink loop is a failed file, with or without --out
    (d / "loop.json").symlink_to("loop.json")
    for out in ([], ["--out", str(report)]):
        code, _, _ = invoke(capsys, "batch", str(d), *out)
        assert code == 1
    assert [r["ok"] for r in json.loads(report.read_text())] == [True, False]


def test_batch_records_named_failures_and_surfaces_bugs(tmp_path, capsys,
                                                        monkeypatch):
    # a failed check is recorded per file; any other exception is a bug
    # and escapes run instead of becoming a failed record
    (tmp_path / "p1xp2.json").write_bytes(
        (FIXTURES / "p1xp2.json").read_bytes())
    code, out, _ = invoke(capsys, "batch", str(tmp_path), "--bound", "1",
                          "--trials", "2")
    assert code == 1
    [rec] = json.loads(out)
    assert rec["ok"] is False and rec["error"] == (
        "removal condition fails at every sampling bound up to 4")

    def broken(*args):
        raise ArithmeticError("a bug")

    monkeypatch.setattr(cli, "structure_certificate", broken)
    with pytest.raises(ArithmeticError):
        run(["batch", str(tmp_path)])


def test_byte_identical_reports(capsys):
    code1, out1, _ = invoke(capsys, "analyze", str(FIXTURES / "ex5_8.json"))
    code2, out2, _ = invoke(capsys, "analyze", str(FIXTURES / "ex5_8.json"))
    assert code1 == code2 == 0
    assert out1 == out2


def test_generate_corpus_validation():
    with pytest.raises(ValueError):
        generate_corpus("random", 1, 0, 7, 1)
    with pytest.raises(ValueError):
        generate_corpus("random", 1, 3, 200, 1)
    with pytest.raises(ValueError, match="count"):
        generate_corpus("random", -3, 3, 7, 1)
    # only 9 distinct points fit in [-4, 4]
    with pytest.raises(ValueError, match="distinct"):
        generate_corpus("random", 1, 1, 10, 1)
    assert generate_corpus("random", 0, 3, 7, 1) == []
    assert generate_corpus("random", 1, None, None, 1) == \
        generate_corpus("random", 1, 3, 7, 1)
    with pytest.raises(ValueError, match="unknown"):
        generate_corpus("bogus", 0, None, None, 1)
    # the fixed kinds have shapes of their own
    for kind in ("cayley_join_type", "unimodular_twist"):
        for n, points in ((3, None), (None, 7), (3, 7)):
            with pytest.raises(ValueError, match="--n or --points"):
                generate_corpus(kind, 1, n, points, 1)


@pytest.mark.parametrize("kind", ["cayley_join_type", "unimodular_twist"])
@pytest.mark.parametrize("flag", ["--n", "--points"])
def test_gen_refuses_shape_flags_of_fixed_kinds(tmp_path, capsys, kind,
                                                flag):
    # those kinds draw their own shapes, so a shape flag is an input
    # error, not ignored
    code, out, err = invoke(capsys, "gen", "--kind", kind, flag, "5",
                            "--out", str(tmp_path / "corpus"))
    assert code == 2 and out == "" and flag in err
    assert not (tmp_path / "corpus").exists()


def test_gen_negative_count_exit_2(tmp_path, capsys):
    code, out, err = invoke(capsys, "gen", "--kind", "random", "--count",
                            "-3", "--out", str(tmp_path))
    assert code == 2 and out == "" and "count" in err


def _module_env() -> dict:
    """The environment with the package on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_module(*args, timeout=120):
    """Run python <args> as a subprocess with the package on the path."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=_module_env(), timeout=timeout)


@pytest.mark.parametrize("command", ["analyze", "oracle", "batch"])
@pytest.mark.parametrize("flag,value", [("--trials", "0"),
                                        ("--trials", str(MAX_TRIALS + 1)),
                                        ("--bound", "-5")])
def test_bad_sampling_parameters_exit_2(capsys, command, flag, value):
    code, out, err = invoke(capsys, command, str(FIXTURES / "ex5_8.json"),
                            flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["analyze", str(FIXTURES / "ex5_8.json")],
    ["oracle", str(FIXTURES / "ex5_8.json"), "--bound", "1", "--trials", "1"],
    ["batch", str(FIXTURES)],
    ["gen", "--kind", "random", "--count", "1"],
])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    # random.Random(-3) draws what Random(3) draws, so --seed -3 would
    # silently run seed 3
    out_dir = tmp_path / "out"
    code, out, err = invoke(capsys, *argv, "--seed", "-3",
                            "--out", str(out_dir))
    assert code == 2 and out == ""
    assert err == "error: seed must be at least 0, not -3\n"
    assert not out_dir.exists()


def test_negative_seed_refused_by_the_library(ex5_8):
    with pytest.raises(ValueError, match="seed must be at least 0"):
        structure_certificate(ex5_8, seed=-1)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        generate_corpus("random", 1, None, None, -1)
    obj = json.loads(certificate_to_json(structure_certificate(ex5_8)))
    obj["seed"] = -1
    with pytest.raises(ValueError, match="seed must be at least 0"):
        certificate_from_json(json.dumps(obj))


def test_bound_zero_exits_2():
    # with bound 0 every weight is 0, so the sampler would redraw forever
    proc = run_module("-m", "dualdefect", "analyze",
                      str(FIXTURES / "ex5_8.json"), "--bound", "0",
                      timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("error: sampling bound")


def test_optimized_interpreter_same_certificate():
    cfg = str(FIXTURES / "ex5_8.json")
    plain = run_module("-m", "dualdefect", "analyze", cfg)
    optimized = run_module("-O", "-m", "dualdefect", "analyze", cfg)
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
    assert json.loads(plain.stdout)["delta"] == 1


def test_removal_condition_failure_escalates_the_bound(capsys):
    # with bound 3 the sampled K element of ex5_8 fails the removal
    # condition; a larger bound gives a generic sample and the default
    # certificate's numbers
    code, out, _ = invoke(capsys, "analyze", str(FIXTURES / "ex5_8.json"),
                          "--bound", "3")
    assert code == 0
    cert = json.loads(out)
    assert (cert["delta"], cert["bound"]) == (1, 3)


def test_removal_condition_failure_exits_1(capsys):
    # on p1xp2 the samples fail the removal condition at bounds 1, 2 and
    # 4; that is a named certification failure, not a traceback
    code, out, err = invoke(capsys, "analyze", str(FIXTURES / "p1xp2.json"),
                            "--bound", "1", "--trials", "2")
    assert code == 1 and out == ""
    assert "removal condition fails at every sampling bound up to 4" in err


def test_attempts_that_fail_differently_are_each_named(capsys):
    # on ex5_8 at seed 0 the bound-1 grouping has no simplex projection,
    # and the groupings at bounds 2 and 4 give one delta less than the
    # oracle's; the message names each attempt's failure with its bound
    code, out, err = invoke(capsys, "analyze", str(FIXTURES / "ex5_8.json"),
                            "--seed", "0", "--bound", "1", "--trials", "1")
    assert code == 1 and out == ""
    assert err == (
        "certification failed: every sampling bound fails: at bound 1, "
        "contact grouping is not realizable over Z; at bound 2, structure "
        "delta 1 disagrees with oracle delta 2; at bound 4, structure "
        "delta 1 disagrees with oracle delta 2\n")


@pytest.mark.parametrize("field,value", [("bound", 0), ("trials", 0),
                                         ("trials", None),
                                         ("trials", MAX_TRIALS + 1),
                                         ("seed", -3)])
def test_certificate_with_bad_sampling_parameters_exit_2(tmp_path, capsys,
                                                         field, value):
    cfg = str(FIXTURES / "ex5_8.json")
    code, out, _ = invoke(capsys, "analyze", cfg)
    assert code == 0
    cert = json.loads(out)
    cert[field] = value
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert), encoding="utf-8")
    code, out, err = invoke(capsys, "verify", cfg, str(cert_path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read certificate: ")


def test_most_trials_accepted(capsys):
    # a nondefective oracle reads one sample however many a round holds
    code, out, _ = invoke(capsys, "oracle", str(FIXTURES / "segre.json"),
                          "--trials", str(MAX_TRIALS))
    assert code == 0
    assert json.loads(out)["samples_used"] == 1


def test_huge_trials_certificate_exits_2_at_once(tmp_path, capsys):
    # verify's oracle samples as many points as the certificate's
    # trials; ten million of them used to run for hours
    cfg = str(FIXTURES / "ex5_8.json")
    code, out, _ = invoke(capsys, "analyze", cfg)
    assert code == 0
    cert = json.loads(out)
    cert["trials"] = 10_000_000
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert), encoding="utf-8")
    proc = run_module("-m", "dualdefect", "verify", cfg, str(cert_path),
                      timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("error: cannot read certificate")
    start = time.perf_counter()
    code, _, _ = invoke(capsys, "verify", cfg, str(cert_path))
    assert code == 2
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("exhaustive", [False, True])
def test_analyze_json_is_the_certificate_plus_checks(capsys, exhaustive):
    # analyze encodes the certificate object once; the bytes are those
    # of certificate_to_json, reparsed, with the exhaustive report added
    flags = ["--exhaustive"] if exhaustive else []
    for path in sorted(FIXTURES.iterdir()):
        code, out, _ = invoke(capsys, "analyze", str(path), *flags)
        a, _ = normalize(load_config_file(path))
        cert = structure_certificate(a)
        payload = json.loads(certificate_to_json(cert))
        if exhaustive:
            if code == 2:  # above the enumeration limit
                continue
            payload["exhaustive_checks"] = verify_certificate(
                a, cert, exhaustive=True)
        assert code == 0, path.name
        assert out == json.dumps(payload, indent=2) + "\n", path.name


@pytest.mark.parametrize("command,flag", [("verify", "--seed"),
                                          ("verify", "--bound"),
                                          ("verify", "--trials"),
                                          ("gen", "--bound"),
                                          ("gen", "--trials")])
def test_sampling_flags_refused_where_unused(tmp_path, capsys, command, flag):
    # verify samples with the certificate's parameters and gen never
    # samples, so a sampling flag there is a usage error, not ignored
    cfg = str(FIXTURES / "ex5_8.json")
    if command == "verify":
        cert_path = tmp_path / "cert.json"
        assert invoke(capsys, "analyze", cfg, "--out", str(cert_path))[0] == 0
        args = ["verify", cfg, str(cert_path)]
    else:
        args = ["gen", "--kind", "random", "--count", "1",
                "--out", str(tmp_path / "corpus")]
    with pytest.raises(SystemExit) as exc:
        run([*args, flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flag in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


def test_no_state_leaks_between_runs(capsys):
    cfg = str(FIXTURES / "segre.json")
    code, out, _ = invoke(capsys, "analyze", cfg, "--exhaustive")
    assert code == 0 and "exhaustive_checks" in json.loads(out)
    code, out, _ = invoke(capsys, "analyze", cfg)
    assert code == 0 and "exhaustive_checks" not in json.loads(out)


def _ex5_8_certificate(capsys) -> dict:
    code, out, _ = invoke(capsys, "analyze", str(FIXTURES / "ex5_8.json"))
    assert code == 0
    return json.loads(out)


def _verify_edited(tmp_path, capsys, cert, *flags):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert), encoding="utf-8")
    return invoke(capsys, "verify", str(FIXTURES / "ex5_8.json"),
                  str(cert_path), *flags)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda cert: cert["pi1"].pop(), id="pi1_row_dropped"),
    pytest.param(lambda cert: [row.pop() for row in cert["pi2"]],
                 id="pi2_column_dropped"),
    pytest.param(lambda cert: cert["p"].append(cert["p"][0]),
                 id="p_row_added"),
    pytest.param(lambda cert: cert.update(c=cert["n"]), id="c_too_large"),
    pytest.param(lambda cert: cert.update(checks=[]), id="checks_list"),
    pytest.param(lambda cert: cert.update(seed=1.5), id="seed_fraction"),
    pytest.param(lambda cert: cert.update(seed=True), id="seed_bool"),
    pytest.param(lambda cert: cert.update(bound=cert["bound"] + 0.5),
                 id="bound_fraction"),
    pytest.param(lambda cert: cert["pi1"][0].__setitem__(
        0, cert["pi1"][0][0] + 0.5), id="pi1_entry_fraction"),
    # rows written as digit strings spell the true certificate of ex5_8
    pytest.param(lambda cert: cert.update(
        grouping=["".join(map(str, g)) for g in cert["grouping"]]),
        id="grouping_digit_strings"),
    pytest.param(lambda cert: cert.update(
        pi1=["".join(map(str, row)) for row in cert["pi1"]]),
        id="pi1_digit_strings"),
    pytest.param(lambda cert: cert.update(
        grouping=dict(enumerate(cert["grouping"]))), id="grouping_object"),
])
def test_misshapen_certificate_exit_2(tmp_path, capsys, edit):
    cert = _ex5_8_certificate(capsys)
    edit(cert)
    code, out, err = _verify_edited(tmp_path, capsys, cert)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read certificate: ")


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda cert: None, "certificate is not a JSON object",
                 id="null"),
    pytest.param(lambda cert: "abc", "certificate is not a JSON object",
                 id="string"),
    pytest.param(lambda cert: 7, "certificate is not a JSON object",
                 id="number"),
    pytest.param(lambda cert: [], "certificate is not a JSON object",
                 id="array"),
    pytest.param(lambda cert: {k: v for k, v in cert.items()
                               if k != "checks"},
                 "certificate has no 'checks' field", id="no_checks"),
])
def test_certificate_not_an_object_or_without_a_field_exit_2(
        tmp_path, capsys, edit, message):
    # the message names what is wrong, not the Python error it caused
    cert = edit(_ex5_8_certificate(capsys))
    code, out, err = _verify_edited(tmp_path, capsys, cert)
    assert code == 2 and out == ""
    assert err == f"error: cannot read certificate: {message}\n"


def test_exhaustive_analysis_verifies_as_a_certificate(tmp_path, capsys):
    # keys beyond the certificate's, as analyze --exhaustive writes
    # exhaustive_checks, are accepted
    cfg = str(FIXTURES / "ex5_8.json")
    cert_path = tmp_path / "cert.json"
    assert invoke(capsys, "analyze", cfg, "--exhaustive",
                  "--out", str(cert_path))[0] == 0
    assert "exhaustive_checks" in json.loads(cert_path.read_text())
    assert invoke(capsys, "verify", cfg, str(cert_path))[0] == 0


def test_decimal_string_numbers_accepted(tmp_path, capsys):
    # _enc_int writes |x| >= 2^53 as decimal strings; any size reads back
    cert = _ex5_8_certificate(capsys)
    cert["seed"] = str(cert["seed"])
    cert["pi1"][0][0] = str(cert["pi1"][0][0])
    code, out, _ = _verify_edited(tmp_path, capsys, cert)
    assert code == 0


@pytest.mark.parametrize("argv,blocked", [
    (["analyze", "{cfg}"], "missing/x.json"),
    (["oracle", "{cfg}"], "."),
    (["verify", "{cfg}", "{cert}"], "missing/x.json"),
    (["gen", "--kind", "random", "--count", "1"], "cert.json"),
    (["batch", "{cfg}"], "missing/x.json"),
], ids=["analyze", "oracle", "verify", "gen", "batch"])
def test_unwritable_out_exit_2(tmp_path, capsys, argv, blocked):
    # a missing parent directory, a directory or an existing file as
    # --out is an input error, not a traceback
    cert = _write_certificate(tmp_path, capsys, "ex5_8.json")
    argv = [x.format(cfg=FIXTURES / "ex5_8.json", cert=cert) for x in argv]
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path / blocked))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path / blocked}: ")


def _analyze_stdout(capsys) -> str:
    code, out, _ = invoke(capsys, "analyze", str(FIXTURES / "ex5_8.json"))
    assert code == 0
    return out


def _analyze_to(capsys, out) -> tuple[int, str, str]:
    return invoke(capsys, "analyze", str(FIXTURES / "ex5_8.json"),
                  "--out", str(out))


def test_out_over_a_longer_file_leaves_no_stale_tail(tmp_path, capsys):
    # --out writes an existing file in place and cuts it to the new length
    expected = _analyze_stdout(capsys)
    out = tmp_path / "cert.json"
    out.write_text("x" * (3 * len(expected)), encoding="utf-8")
    out.chmod(0o600)
    before = out.stat()
    assert _analyze_to(capsys, out) == (0, "", "")
    assert out.read_bytes() == expected.encode("utf-8")
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


def test_out_through_a_symlink_writes_the_target(tmp_path, capsys):
    expected = _analyze_stdout(capsys)
    target = tmp_path / "target.json"
    target.write_text("old", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert _analyze_to(capsys, link)[0] == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text(encoding="utf-8") == expected


def test_out_keeps_hard_links(tmp_path, capsys):
    expected = _analyze_stdout(capsys)
    out = tmp_path / "cert.json"
    out.write_text("old " * 1000, encoding="utf-8")
    other = tmp_path / "other.json"
    os.link(out, other)
    assert _analyze_to(capsys, out)[0] == 0
    assert other.read_text(encoding="utf-8") == expected
    assert out.stat().st_nlink == 2


def test_out_new_file_mode_follows_the_umask(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        assert _analyze_to(capsys, tmp_path / "cert.json")[0] == 0
    finally:
        os.umask(old)
    assert (tmp_path / "cert.json").stat().st_mode & 0o777 == 0o666 & ~0o027


def test_out_dev_null_exit_0(capsys):
    assert _analyze_to(capsys, os.devnull) == (0, "", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_out_fifo_is_written_as_a_stream(tmp_path, capsys):
    # a FIFO cannot be cut to length; it gets the bytes and exit 0
    expected = _analyze_stdout(capsys)
    fifo = tmp_path / "cert.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert _analyze_to(capsys, fifo) == (0, "", "")
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [expected.encode("utf-8")]


def test_out_failed_write_leaves_the_file_empty(tmp_path, capsys,
                                               monkeypatch):
    # a write that fails part way (here ENOSPC after half the bytes) is
    # exit 2 and leaves an empty file, not new bytes over an old tail
    out = tmp_path / "cert.json"
    out.write_text("x" * 100_000, encoding="utf-8")
    fdopen = os.fdopen

    @contextlib.contextmanager
    def disk_fills(fd, *args, **kwargs):
        with fdopen(fd, *args, **kwargs) as f:
            def write(data):
                f.write(data[:len(data) // 2])
                f.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            yield types.SimpleNamespace(write=write)

    monkeypatch.setattr(os, "fdopen", disk_fills)
    code, stdout, err = _analyze_to(capsys, out)
    assert (code, stdout) == (2, "")
    assert err == (f"error: cannot write {out}: "
                   f"{os.strerror(errno.ENOSPC)}\n")
    assert out.read_bytes() == b""


def test_package_has_no_truncating_write():
    # --out files are overwritten in place (cli._emit): no write_text or
    # write_bytes, no open of a path for writing and no O_TRUNC, so a
    # truncating open cannot come back unnoticed; os.fdopen wraps a
    # descriptor that is already open and is allowed
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in (
                    "write_text", "write_bytes", "O_TRUNC"):
                found.append((name, node.lineno, node.attr))
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if not ((isinstance(fn, ast.Name) and fn.id == "open")
                    or (isinstance(fn, ast.Attribute) and fn.attr == "open"
                        and not (isinstance(fn.value, ast.Name)
                                 and fn.value.id == "os"))):
                continue
            mode = (node.args[1:2] + [kw.value for kw in node.keywords
                                      if kw.arg == "mode"]
                    or [ast.Constant("r")])[0]
            if not isinstance(mode, ast.Constant) or "w" in mode.value:
                found.append((name, node.lineno, "open"))
    assert found == []


def test_repeated_points_warning_is_one_stderr_line(tmp_path, capsys):
    # the dedupe warning names the file and has no source line; stdout
    # and the exit code are those of the deduplicated configuration
    dup = tmp_path / "dup.json"
    dup.write_text('{"points": [[0], [0], [1]]}', encoding="utf-8")
    clean = tmp_path / "dup.txt"
    clean.write_text("0\n1\n", encoding="utf-8")
    line = (f"warning: {dup}: configuration contains repeated points; "
            "deduplicated 3 -> 2\n")
    for command in ("analyze", "oracle", "batch"):
        code, out, err = invoke(capsys, command, str(dup))
        code_clean, out_clean, err_clean = invoke(capsys, command,
                                                  str(clean))
        assert err == line and err_clean == ""
        assert code == code_clean
        assert out == out_clean.replace(str(clean), str(dup))
    # a name the file gives is kept in the line
    named = tmp_path / "named.json"
    named.write_text('{"name": "sq", "points": [[0], [1], [1]]}',
                     encoding="utf-8")
    assert invoke(capsys, "analyze", str(named))[2] == (
        f"warning: {named}: configuration sq contains repeated points; "
        "deduplicated 3 -> 2\n")


def test_repeated_points_under_python_warnings_as_errors(tmp_path):
    dup = tmp_path / "dup.txt"
    dup.write_text("0 0\n0 0\n1 0\n0 1\n", encoding="utf-8")
    proc = run_module("-W", "error", "-m", "dualdefect", "analyze", str(dup))
    assert proc.returncode == 0
    assert proc.stderr.decode() == (
        f"warning: {dup}: configuration contains repeated points; "
        "deduplicated 4 -> 3\n")


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # the manifest is larger than a pipe buffer, so its write meets the
    # closed pipe
    with subprocess.Popen(
            [sys.executable, "-m", "dualdefect", "gen", "--kind", "random",
             "--count", "2000", "--out", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_module_env()) as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err and err == b""


def _write_certificate(tmp_path, capsys, fixture, edit=None) -> str:
    code, out, _ = invoke(capsys, "analyze", str(FIXTURES / fixture))
    assert code == 0
    cert = json.loads(out)
    if edit:
        edit(cert)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    return str(path)


def test_certificate_of_another_dimension_exit_2_optimized(tmp_path,
                                                           capsys):
    # without an explicit check only an assert stopped this, and -O
    # strips asserts
    cert = _write_certificate(tmp_path, capsys, "p1xp2.json")
    proc = run_module("-O", "-m", "dualdefect", "verify",
                      str(FIXTURES / "ex5_8.json"), cert)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.decode().startswith("error: certificate has n = 3")


def test_non_simplex_image_is_a_failed_check_optimized(tmp_path, capsys):
    def double_pi2_row(cert):
        cert["pi2"][0] = [2 * x for x in cert["pi2"][0]]

    cert = _write_certificate(tmp_path, capsys, "ex5_8.json",
                              double_pi2_row)
    proc = run_module("-O", "-m", "dualdefect", "verify",
                      str(FIXTURES / "ex5_8.json"), cert, "--format", "json")
    assert proc.returncode == 1
    checks = json.loads(proc.stdout)["checks"]
    assert [k for k, v in checks.items() if not v] == [
        "simplex_image", "r_matches", "join_type_wrt_pi2", "all_passed"]


_BROKEN_INVARIANTS = """
from dualdefect import cayley, cli, config, exact_linalg, structure
from dualdefect.config import GroupHom, PointConfig

square = PointConfig.make([(0, 0), (1, 0), (0, 1), (1, 1)])
# normalize of an already normalized square takes no coordinates at all
doubled = PointConfig.make([(0, 0), (2, 0), (0, 2), (2, 2)])
pr2 = GroupHom.make([[0, 1]])
cases = [
    (config, "hnf_coords", lambda b, v: None,
     lambda: config.normalize(doubled)),
    (cayley, "hnf_coords", lambda b, v: None,
     lambda: cayley.decompose_along(square, pr2)),
    (cli, "is_join_type", lambda fibers: False,
     lambda: cli.generate_corpus("cayley_join_type", 1, None, None, 0)),
    (cayley, "_vertex_of", lambda w, label, labels, scale: 0,
     lambda: cayley.enumerate_simplex_projections(square)),
    # shape checks on bad arguments, with nothing faked
    (cayley, None, None,
     lambda: cayley.SimplexProjection(square, 1, ((0, 1, 2, 3),), pr2)),
    (config, None, None, lambda: pr2.apply((1, 2, 3))),
    (exact_linalg, None, None,
     lambda: exact_linalg.mat_mul([[1, 2]], [[1, 0]])),
]
for module, name, fake, call in cases:
    if name is not None:
        real = getattr(module, name)
        setattr(module, name, fake)
    try:
        call()
        print("passed")
    except (ArithmeticError, ValueError) as exc:
        print(type(exc).__name__)
    finally:
        if name is not None:
            setattr(module, name, real)
"""


def test_solve_path_invariants_survive_optimized_interpreter():
    # each faked case fakes the one impossible outcome its check guards
    # against; the others pass arguments of the wrong shape
    proc = run_module("-O", "-c", _BROKEN_INVARIANTS)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["ArithmeticError"] * 4 + [
        "ValueError", "DimensionError", "DimensionError"]


_UNNORMALIZED_ENTRY_POINTS = """
from dualdefect import cayley, structure, tangency
from dualdefect.config import GroupHom, PointConfig

doubled = PointConfig.make([(0, 0), (2, 0), (0, 2), (2, 2)])
cases = [
    lambda: structure.structure_certificate(doubled),
    lambda: cayley.decompose_along(doubled, GroupHom.make([[0, 1]])),
    lambda: cayley.simplex_projection(doubled, GroupHom.make([[0, 1]])),
    lambda: cayley.projection_for_partition(doubled, ((0, 1), (2, 3))),
    lambda: tangency.tangency_space(doubled),
]
for call in cases:
    try:
        call()
        print("passed")
    except ValueError as exc:
        print("ValueError" if "expects a normalized" in str(exc) else exc)
"""


def test_unnormalized_input_refused_optimized():
    # the precondition is an explicit check, so -O keeps it
    proc = run_module("-O", "-c", _UNNORMALIZED_ENTRY_POINTS)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["ValueError"] * 5


@pytest.mark.parametrize("edit,check", [
    pytest.param(lambda cert: cert.update(oracle_delta=4),
                 "oracle_recorded", id="oracle_delta_4"),
    pytest.param(lambda cert: cert.update(oracle_delta="empty_dual"),
                 "oracle_recorded", id="oracle_delta_empty_dual"),
    pytest.param(lambda cert: cert.update(checks={}),
                 "checks_recorded", id="checks_empty"),
    pytest.param(lambda cert: cert["checks"].update(oracle_agrees=False),
                 "checks_recorded", id="checks_oracle_agrees_false"),
    pytest.param(lambda cert: cert["checks"].update(extra=True),
                 "checks_recorded", id="checks_extra_key"),
    pytest.param(lambda cert: cert["checks"].update(pi_factors=1),
                 "checks_recorded", id="checks_value_not_true"),
])
def test_verify_rejects_tampered_record(tmp_path, capsys, edit, check):
    cert = _ex5_8_certificate(capsys)
    edit(cert)
    code, out, _ = _verify_edited(tmp_path, capsys, cert)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [k for k, v in checks.items() if not v] == [check, "all_passed"]


def test_no_fraction_on_analyze_and_verify(tmp_path, capsys, monkeypatch):
    # the pipeline is integer-only: forbidding Fraction changes no byte
    def outputs():
        out = []
        for fx in sorted(FIXTURES.iterdir()):
            cert = tmp_path / (fx.stem + ".cert.json")
            out.append(invoke(capsys, "analyze", str(fx), "--out", str(cert)))
            out.append((cert.read_bytes(),))
            out.append(invoke(capsys, "verify", str(fx), str(cert),
                              "--exhaustive"))
        return out

    plain = outputs()
    assert all(res[0] == 0 for res in plain[::3] + plain[2::3]), plain

    class NoFraction:
        def __init__(self, *args):
            raise AssertionError("Fraction built on an integer-only path")

    monkeypatch.setattr(exact_linalg, "Fraction", NoFraction)
    assert outputs() == plain


def test_verify_rejects_tampered_p(tmp_path, capsys):
    cert = _ex5_8_certificate(capsys)
    cert["p"][0][0] += 1
    code, out, _ = _verify_edited(tmp_path, capsys, cert)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks["p_matches"] is False
    assert [k for k, v in checks.items() if not v] == ["p_matches",
                                                       "all_passed"]


def test_exhaustive_genericity_failure_exits_1(tmp_path, capsys,
                                               monkeypatch):
    cert = _ex5_8_certificate(capsys)

    def not_generic(p, target):
        raise GenericityFailure("no sampled component span passed")

    monkeypatch.setattr(structure, "vprime", not_generic)
    code, out, err = _verify_edited(tmp_path, capsys, cert, "--exhaustive")
    assert code == 1 and out == ""
    assert "verification failed: no sampled component span" in err


@pytest.mark.parametrize("text,message", [
    ('{"points": [[0, 0], [1.7, 0], [0, 1], [1, 1]]}', "not an integer"),
    ('{"points": [[0, 0], [true, 0], [0, 1], [1, 1]]}', "not an integer"),
    ('{"points": [[0, 0], [1, 0, 0], [0, 1], [1, 1]]}', "length 2"),
    ('{"dim": 3, "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}', "'dim'"),
])
def test_bad_config_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = invoke(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: ") and message in err


_BAD_NAMES = ["7", '["x"]', "true", '{"a": 1}']


def _named_config(tmp_path, name) -> str:
    path = tmp_path / "named.json"
    path.write_text('{"name": %s, "points": [[0, 0], [1, 0], [0, 1], '
                    '[1, 1]]}' % name, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", _BAD_NAMES)
@pytest.mark.parametrize("command", ["analyze", "oracle"])
def test_non_string_name_exit_2(tmp_path, capsys, command, name):
    path = _named_config(tmp_path, name)
    code, out, err = invoke(capsys, command, path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: ") and "'name'" in err


@pytest.mark.parametrize("name", _BAD_NAMES)
def test_non_string_name_verify_exit_2(tmp_path, capsys, name):
    cert = tmp_path / "cert.json"
    code, _, _ = invoke(capsys, "analyze", str(FIXTURES / "segre.json"),
                        "--out", str(cert))
    assert code == 0
    path = _named_config(tmp_path, name)
    code, out, err = invoke(capsys, "verify", path, str(cert))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: ") and "'name'" in err


@pytest.mark.parametrize("name", _BAD_NAMES)
def test_non_string_name_fails_its_batch_file(tmp_path, capsys, name):
    path = _named_config(tmp_path, name)
    (tmp_path / "good.json").write_text(
        '{"name": null, "points": [[0], [1]]}', encoding="utf-8")
    code, out, _ = invoke(capsys, "batch", str(tmp_path))
    assert code == 1
    status = {r["file"]: r for r in json.loads(out)}
    assert status[path]["ok"] is False and "'name'" in status[path]["error"]
    assert status[str(tmp_path / "good.json")]["ok"] is True


def test_ragged_text_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 0\n1 0 0\n0 1\n", encoding="utf-8")
    code, out, err = invoke(capsys, "analyze", str(path))
    assert code == 2 and out == "" and "length 2" in err


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661"])
def test_non_decimal_text_token_exit_2(tmp_path, capsys, token):
    path = tmp_path / "bad.txt"
    path.write_text(f"0 0\n{token} 0\n0 1\n1 1\n", encoding="utf-8")
    code, out, err = invoke(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert f"{token!r} is not an integer" in err


def test_matching_dim_field_accepted(tmp_path, capsys):
    path = tmp_path / "segre.json"
    path.write_text('{"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}',
                    encoding="utf-8")
    code, out, _ = invoke(capsys, "analyze", str(path))
    assert code == 0 and json.loads(out)["delta"] == 0


# --- fuzz of cli.run ---------------------------------------------------------

FUZZ = settings(max_examples=60, deadline=timedelta(seconds=5),
                derandomize=True, database=None)

# integer fields whose +-1 edit makes the certificate false, so that
# verify must not pass it; seed, bound and trials only fix the draws
FALSIFYING_FIELDS = ("delta", "r", "c", "oracle_delta")

_scalars = hst.one_of(
    hst.none(), hst.booleans(), hst.integers(-3, 40),
    hst.sampled_from([10**7, -10**7]),
    hst.floats(allow_nan=False, allow_infinity=False, width=16),
    hst.text(max_size=4), hst.sampled_from(["7", "-1", "1e3"]))
_values = hst.recursive(
    _scalars,
    lambda inner: hst.lists(inner, max_size=4)
    | hst.dictionaries(hst.text(max_size=3), inner, max_size=2),
    max_leaves=8)


def _quiet_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(x) for x in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding the certificates of ex5_8 and p1xp2."""
    d = tmp_path_factory.mktemp("fuzz")
    for name in ("ex5_8", "p1xp2"):
        code, _ = _quiet_run(["analyze", FIXTURES / f"{name}.json",
                              "--out", d / f"{name}.cert.json"])
        assert code == 0
    return d


def _verify_both_ways(cfg_path, cert_path):
    """verify and verify --exhaustive: the exit codes, after checking
    that neither ended in a traceback."""
    codes = []
    for flags in ([], ["--exhaustive"]):
        code, err = _quiet_run(["verify", cfg_path, cert_path, *flags])
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err, err
        codes.append(code)
    return codes


@hst.composite
def certificate_edits(draw):
    """A certificate field and an edit of it: dropped, replaced by any
    JSON value, moved by +-1, or one entry of a matrix replaced."""
    key = draw(hst.sampled_from(
        ["n", "r", "c", "delta", "grouping", "pi1", "pi2", "p", "seed",
         "bound", "trials", "oracle_delta", "checks"]))
    kind = draw(hst.sampled_from(["drop", "replace", "step", "entry"]))
    if kind == "step":
        return key, kind, draw(hst.sampled_from([-1, 1]))
    return key, kind, draw(_values)


def _apply_edit(obj, key, kind, value):
    """The edited certificate, and whether the edit is an integer +-1
    step of a falsifying field."""
    obj = json.loads(json.dumps(obj))
    if kind == "drop":
        del obj[key]
    elif kind == "step" and type(obj[key]) is int:
        obj[key] += value
        return obj, key in FALSIFYING_FIELDS
    elif kind == "entry" and obj[key] and isinstance(obj[key], list) \
            and isinstance(obj[key][0], list) and obj[key][0]:
        obj[key][0][-1] = value
    else:
        obj[key] = value
    return obj, False


@FUZZ
@given(name=hst.sampled_from(["ex5_8", "p1xp2"]), edit=certificate_edits())
def test_fuzz_verify_edited_certificates(fuzz_dir, name, edit):
    obj = json.loads((fuzz_dir / f"{name}.cert.json").read_text())
    edited, falsified = _apply_edit(obj, *edit)
    cert_path = fuzz_dir / "edited.json"
    cert_path.write_text(json.dumps(edited), encoding="utf-8")
    codes = _verify_both_ways(FIXTURES / f"{name}.json", cert_path)
    if falsified:
        assert 0 not in codes, (edit, codes)


def test_stepped_falsifying_fields_never_pass(fuzz_dir):
    for name in ("ex5_8", "p1xp2"):
        obj = json.loads((fuzz_dir / f"{name}.cert.json").read_text())
        for key in FALSIFYING_FIELDS:
            for step in (-1, 1):
                edited, falsified = _apply_edit(obj, key, "step", step)
                assert falsified
                cert_path = fuzz_dir / "stepped.json"
                cert_path.write_text(json.dumps(edited), encoding="utf-8")
                codes = _verify_both_ways(FIXTURES / f"{name}.json",
                                          cert_path)
                assert 0 not in codes, (name, key, step, codes)


_coords = hst.one_of(hst.integers(-2, 2), _scalars)
_points = hst.lists(hst.lists(_coords, max_size=4), max_size=8)


@hst.composite
def malformed_configs(draw):
    """Config text: a point list that may be ragged or hold non-integers,
    an optional "dim", any JSON value, or whitespace-separated rows."""
    form = draw(hst.sampled_from(["json", "value", "text"]))
    if form == "json":
        obj = {"points": draw(_points)}
        if draw(hst.booleans()):
            obj["dim"] = draw(_scalars)
        return ".json", json.dumps(obj)
    if form == "value":
        return ".json", json.dumps(draw(_values))
    rows = draw(hst.lists(hst.lists(hst.integers(-2, 2), max_size=4),
                          max_size=8))
    return ".txt", "\n".join(" ".join(map(str, row)) for row in rows)


@pytest.mark.filterwarnings("ignore:configuration .*repeated points")
@FUZZ
@given(name=hst.sampled_from(["ex5_8", "p1xp2"]), config=malformed_configs())
def test_fuzz_verify_malformed_configs(fuzz_dir, name, config):
    suffix, text = config
    cfg_path = fuzz_dir / f"config{suffix}"
    cfg_path.write_text(text, encoding="utf-8")
    _verify_both_ways(cfg_path, fuzz_dir / f"{name}.cert.json")


# at n = 1 only 9 distinct points exist, so n is drawn small often
@FUZZ
@given(kind=hst.sampled_from(["random", "cayley_join_type",
                              "unimodular_twist"]),
       count=hst.integers(-1, 3),
       n=hst.none() | hst.integers(1, 2) | hst.integers(-1, 9),
       points=hst.none() | hst.integers(0, 16),
       seed=hst.integers(0, 2 ** 16))
@example(kind="random", count=1, n=1, points=14, seed=0)
def test_fuzz_gen_writes_what_was_asked_or_exits_2(kind, count, n, points,
                                                   seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "corpus"
        argv = ["gen", "--kind", kind, "--count", count, "--seed", seed,
                "--out", out]
        argv += [] if n is None else ["--n", n]
        argv += [] if points is None else ["--points", points]
        code, err = _quiet_run(argv)
        assert code in (0, 2), (code, err)
        assert "Traceback" not in err, err
        if code == 2:
            assert not out.exists()
            return
        files = sorted(out.iterdir())
        assert len(files) == count
        if kind != "random":
            assert n is None and points is None
            return
        for path in files:
            cfg = load_config_file(path)
            assert cfg.dim == (3 if n is None else n), path.name
            assert len(cfg) == (7 if points is None else points), path.name
