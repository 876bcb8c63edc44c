import json
import random
import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dualdefect.config import (
    CollapseError,
    GroupHom,
    PointConfig,
    apply_affine,
    difference_lattice,
    dump_config_json,
    is_normalized,
    load_config_json,
    load_config_text,
    normalize,
)
from dualdefect.exact_linalg import identity, snf

from conftest import (
    EX58_U,
    EX58_V,
    normalize_general,
    random_unimodular,
    unit_vector,
)


def test_normalize_collinear_points():
    a = PointConfig.make([(0, 0), (2, 0), (4, 0)])
    b, theta = normalize(a)
    assert b.dim == 1 and b.points == ((0,), (1,), (2,))
    assert [theta.apply(p) for p in b.points] == [(0, 0), (2, 0), (4, 0)]


def test_normalize_full_lattice_is_identity(segre_square):
    b, theta = normalize(segre_square)
    assert b == PointConfig(2, segre_square.points, segre_square.name)
    assert theta.matrix == ((1, 0), (0, 1))
    assert theta.translation is None


def test_normalize_single_point():
    b, theta = normalize(PointConfig.make([(1, 1)]))
    assert b.dim == 0 and b.points == ((),)
    assert theta.apply(()) == (1, 1)


def test_normalize_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 3)
        pts = {tuple(rng.randint(-4, 4) for _ in range(n))
               for _ in range(rng.randint(2, 6))}
        a = PointConfig.make(sorted(pts))
        b, _ = normalize(a)
        b2, theta2 = normalize(b)
        assert b2 == b
        assert theta2.matrix == tuple(map(tuple, identity(b.dim)))


def test_difference_lattice_examples(segre_square):
    assert difference_lattice(segre_square) == identity(2)
    assert difference_lattice(PointConfig.make([(0,), (2,)])) == [[2]]
    assert difference_lattice(PointConfig.make([(3, 7)])) == []


def test_difference_lattice_snf_identity_after_normalize():
    a = PointConfig.make([(0, 0), (2, 0), (0, 3), (2, 3)])
    b, _ = normalize(a)
    d = difference_lattice(b)
    s, _, _ = snf(d)
    assert all(s[i][i] == 1 for i in range(len(d)))


def test_apply_affine_identity(segre_square):
    out = apply_affine(segre_square, GroupHom.identity_map(2))
    assert out.points == segre_square.points


def test_apply_affine_ex58_pi1_images(ex5_8):
    pi1 = GroupHom.make([
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 2],
    ])
    img = apply_affine(ex5_8, pi1)
    f5 = unit_vector(5, 5)
    part0 = {pi1.apply((0,) * 6), pi1.apply(unit_vector(5, 6)),
             pi1.apply(unit_vector(6, 6))}
    assert part0 == {(0,) * 5, f5, tuple(2 * x for x in f5)}
    assert len(img) == 9


def test_apply_affine_collapse(segre_square):
    pr2 = GroupHom.make([[0, 1]])
    with pytest.raises(CollapseError):
        apply_affine(segre_square, pr2)
    merged = apply_affine(segre_square, pr2, dedupe=True)
    assert merged.points == ((0,), (1,))


def test_difference_lattice_unimodular_covariance():
    rng = random.Random(31)
    a = PointConfig.make([(0, 0), (2, 0), (0, 2)])
    u = random_unimodular(rng, 2)
    b = apply_affine(a, GroupHom.make(u))
    db = difference_lattice(b)
    # image of the lattice under u (rows transform by right-multiplication)
    from dualdefect.exact_linalg import hnf_basis, mat_mul, transpose
    da_img = hnf_basis(mat_mul(difference_lattice(a), transpose(u)))
    assert db == da_img


def test_dedupe_warning():
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        a = PointConfig.make([(0, 0), (0, 0), (1, 0)])
    assert len(a) == 2
    assert any("repeated" in str(w.message) for w in rec)


def test_dedupe_warning_names_a_named_configuration():
    with pytest.warns(UserWarning) as rec:
        PointConfig.make([(0, 0), (0, 0), (1, 0)], name="sq")
    assert [str(w.message) for w in rec] == [
        "configuration sq contains repeated points; deduplicated 3 -> 2"]


@pytest.mark.parametrize("value", [0.7, 1.9, 2.5, True, Fraction(1, 2),
                                   "1"])
def test_constructors_refuse_non_integers(value):
    # int() would truncate or coerce each of these; the library refuses
    # them as the JSON loader does
    named = re.escape(f"{value!r} is not an integer")
    with pytest.raises(ValueError, match=named):
        PointConfig.make([(0,), (value,)])
    with pytest.raises(ValueError, match=named):
        GroupHom.make([[value]])
    with pytest.raises(ValueError, match=named):
        GroupHom.make([[1]], [value])


def test_json_roundtrip(segre_square):
    text = dump_config_json(PointConfig(2, segre_square.points, "sq"))
    back = load_config_json(text)
    assert back.points == segre_square.points and back.name == "sq"


def test_text_format_comments_and_blanks():
    cfg = load_config_text("0 0  # origin\n\n1 0\n# full line comment\n0 1\n")
    assert cfg.points == ((0, 0), (0, 1), (1, 0))


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "\uff11", "1.0",
                                   "--1", "0x1"])
def test_text_format_refuses_non_ascii_decimal_tokens(token):
    # int() reads 1_0 as 10 and +1, the Arabic-Indic or fullwidth one as
    # 1; the text loader accepts only what the JSON loader would
    with pytest.raises(ValueError, match="not an integer"):
        load_config_text(f"0 0\n{token} 0\n0 1\n")


def test_text_format_empty_rejected():
    with pytest.raises(ValueError):
        load_config_text("# nothing here\n")


def test_json_missing_points_rejected():
    with pytest.raises(ValueError):
        load_config_json(json.dumps({"name": "x"}))


@pytest.mark.parametrize("name", [7, ["x"], True, {"a": 1}, 1.5])
def test_json_name_must_be_a_string_or_null(name):
    points = [[0], [1]]
    with pytest.raises(ValueError, match="'name'"):
        load_config_json(json.dumps({"name": name, "points": points}))
    assert load_config_json(
        json.dumps({"name": None, "points": points})).name is None
    assert load_config_json(
        json.dumps({"name": "", "points": points})).name == ""


configs = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                       min_size=1, max_size=7, unique=True)
    .map(lambda pts: PointConfig.make(pts, dim=n)))


@settings(max_examples=200, deadline=None)
@given(configs, st.sampled_from([1, 2, 3]))
def test_normalize_matches_general_path(a, scale):
    # scale > 1 usually leaves the difference lattice a proper sublattice
    a = PointConfig(a.dim, tuple(tuple(scale * x for x in p)
                                 for p in a.points))
    b, theta = normalize(a)
    ref_b, ref_theta = normalize_general(a)
    assert b == ref_b and theta == ref_theta
    assert vars(b)["normalized"] is True and is_normalized(ref_b)
    if is_normalized(a):
        assert b.points == a.points
        assert theta == GroupHom.identity_map(a.dim)


def test_normalized_is_computed_once_and_marked_by_normalize(monkeypatch):
    from dualdefect import config

    calls = []
    real = config.difference_lattice
    monkeypatch.setattr(config, "difference_lattice",
                        lambda a: calls.append(a) or real(a))
    doubled = PointConfig.make([(0, 0), (2, 0), (0, 2), (2, 2)])
    assert not is_normalized(doubled) and not is_normalized(doubled)
    assert len(calls) == 1
    b, _ = normalize(doubled)
    assert is_normalized(b) and len(calls) == 2  # normalize's own lattice
