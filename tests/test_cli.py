import collections
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as hst

from dualdefect import exact_linalg, structure, tangency
from dualdefect.cli import generate_corpus, run
from dualdefect.tangency import GenericityFailure

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


def test_analyze_draws_each_sample_once(capsys, monkeypatch):
    # the oracle and the contact grouping share one round of three
    # tangency samples and their Hessians; alpha, check_star and vprime
    # share one round of three K samples
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
    code, _, _ = invoke(capsys, "analyze", str(FIXTURES / "ex5_8.json"))
    assert code == 0
    assert counts == {"draws": 6, "hessians": 3}


def test_bench_traced_names_resolve():
    # `bench/run.py --trace 1` wraps each of these by name
    path = FIXTURES.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}.{fn}"
               for layer, fns in tracing.LAYER_FUNCTIONS.items()
               for fn in fns
               if not callable(getattr(importlib.import_module(
                   f"dualdefect.{layer}"), fn, None))]
    assert missing == []
    layer, fn = tracing.KEPT_RATIO_OF.split(".")
    assert fn in tracing.LAYER_FUNCTIONS[layer]


def test_oracle_segre(capsys):
    code, out, _ = invoke(capsys, "oracle", str(FIXTURES / "segre.json"))
    assert code == 0
    obj = json.loads(out)
    assert obj["delta"] == 0 and obj["status"] == "computed"


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


def run_module(*args, timeout=120):
    """Run python <args> as a subprocess with the package on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, timeout=timeout)


@pytest.mark.parametrize("command", ["analyze", "oracle", "batch"])
@pytest.mark.parametrize("flag,value", [("--trials", "0"),
                                        ("--bound", "-5")])
def test_bad_sampling_parameters_exit_2(capsys, command, flag, value):
    code, out, err = invoke(capsys, command, str(FIXTURES / "ex5_8.json"),
                            flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


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
    # on ex5_7 one sample per bound fails the removal condition at bounds
    # 1, 2 and 4; that is a named certification failure, not a traceback
    code, out, err = invoke(capsys, "analyze", str(FIXTURES / "ex5_7.json"),
                            "--bound", "1", "--trials", "1")
    assert code == 1 and out == ""
    assert "removal condition fails at every sampling bound up to 4" in err


@pytest.mark.parametrize("field,value", [("bound", 0), ("trials", 0),
                                         ("trials", None)])
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


@pytest.mark.parametrize("command", ["verify", "gen"])
def test_sampling_flags_unchecked_where_unused(tmp_path, capsys, command):
    # verify samples with the certificate's parameters, gen never samples
    cfg = str(FIXTURES / "ex5_8.json")
    if command == "verify":
        cert_path = tmp_path / "cert.json"
        assert invoke(capsys, "analyze", cfg, "--out", str(cert_path))[0] == 0
        args = ["verify", cfg, str(cert_path)]
    else:
        args = ["gen", "--kind", "random", "--count", "1",
                "--out", str(tmp_path / "corpus")]
    code, _, _ = invoke(capsys, *args, "--bound", "0", "--trials", "0")
    assert code == 0


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
])
def test_misshapen_certificate_exit_2(tmp_path, capsys, edit):
    cert = _ex5_8_certificate(capsys)
    edit(cert)
    code, out, err = _verify_edited(tmp_path, capsys, cert)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read certificate: ")


def test_decimal_string_numbers_accepted(tmp_path, capsys):
    # _enc_int writes |x| >= 2^53 as decimal strings; any size reads back
    cert = _ex5_8_certificate(capsys)
    cert["seed"] = str(cert["seed"])
    cert["pi1"][0][0] = str(cert["pi1"][0][0])
    code, out, _ = _verify_edited(tmp_path, capsys, cert)
    assert code == 0


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
from dualdefect import cayley, config, structure
from dualdefect.config import GroupHom, PointConfig

square = PointConfig.make([(0, 0), (1, 0), (0, 1), (1, 1)])
# normalize of an already normalized square takes no coordinates at all
doubled = PointConfig.make([(0, 0), (2, 0), (0, 2), (2, 2)])
pr2 = GroupHom.make([[0, 1]])
cases = [
    (config, "hnf_coords", lambda b, v: None,
     lambda: config.normalize(doubled)),
    (cayley, "solve_int_many", lambda m, rhs: [None for _ in rhs],
     lambda: cayley._simplex_chart([(0,), (1,)], 1)),
    (cayley, "hnf_coords", lambda b, v: None,
     lambda: cayley.decompose_along(square, pr2)),
    (cayley, "cayley_sum", lambda fibers: PointConfig(2, ()),
     lambda: cayley.decompose_along(square, pr2)),
    (structure, "hnf_coords", lambda b, v: None,
     lambda: structure._restrict_to_kernel(GroupHom.identity_map(2), pr2,
                                           pr2)),
]
for module, name, fake, call in cases:
    real = getattr(module, name)
    setattr(module, name, fake)
    try:
        call()
        print("passed")
    except ArithmeticError as exc:
        print(type(exc).__name__)
    finally:
        setattr(module, name, real)
"""


def test_solve_path_invariants_survive_optimized_interpreter():
    # each case fakes the one impossible outcome its check guards against
    proc = run_module("-O", "-c", _BROKEN_INVARIANTS)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["ArithmeticError"] * 5


_UNNORMALIZED_ENTRY_POINTS = """
from dualdefect import cayley, structure, tangency
from dualdefect.config import GroupHom, PointConfig

doubled = PointConfig.make([(0, 0), (2, 0), (0, 2), (2, 2)])
cases = [
    lambda: structure.structure_certificate(doubled),
    lambda: cayley.decompose_along(doubled, GroupHom.make([[0, 1]])),
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
    assert proc.stdout.decode().split() == ["ValueError"] * 3


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


def test_ragged_text_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 0\n1 0 0\n0 1\n", encoding="utf-8")
    code, out, err = invoke(capsys, "analyze", str(path))
    assert code == 2 and out == "" and "length 2" in err


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

# integers stay small: verify samples as many oracle points as a
# certificate's trials asks for, without an upper limit
_scalars = hst.one_of(
    hst.none(), hst.booleans(), hst.integers(-3, 40),
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
