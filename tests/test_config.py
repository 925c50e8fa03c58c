"""Configuration validation, feasibility classes, vector machinery."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import pair
from gathersim.config import (Feasibility, InitialConfiguration, classify,
                              pair_margin, vector_sequence)
from gathersim.generate import good_config, ungatherable_config
from gathersim.geometry import Point, Vec2


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        InitialConfiguration(0.0, (Point(0, 0), Point(1, 0)), (0.0, 0.0))
    with pytest.raises(ValueError):
        InitialConfiguration(0.5, (Point(0, 0),), (0.0,))
    with pytest.raises(ValueError):
        InitialConfiguration(0.5, (Point(0, 0), Point(1, 0)), (0.0, -1.0))
    with pytest.raises(ValueError):
        InitialConfiguration(0.5, (Point(0, 0), Point(0, 0)), (0.0, 1.0))
    with pytest.raises(ValueError):
        InitialConfiguration(0.5, (Point(0, 0), Point(float("nan"), 0)),
                             (0.0, 1.0))
    inf = float("inf")
    with pytest.raises(ValueError, match="epsilon must be finite"):
        InitialConfiguration(inf, (Point(0, 0), Point(1, 0)), (0.0, 0.0))
    with pytest.raises(ValueError, match="start times must be finite"):
        InitialConfiguration(0.5, (Point(0, 0), Point(1, 0)), (0.0, inf))


@pytest.mark.parametrize("n", [0, 1])
def test_generators_refuse_fewer_than_two_agents(n):
    with pytest.raises(ValueError, match="at least two agents"):
        good_config(0, n)
    with pytest.raises(ValueError, match="at least two agents"):
        ungatherable_config(0, n)


def test_classify_boundary_pair():
    # dist 1, time gap 1/2, eps 1/2: equality, gatherable only barely.
    cfg = pair(0.5, (0, 0), 0.0, (1, 0), 0.5)
    res = classify(cfg)
    assert res.kind is Feasibility.BAD_GATHERABLE
    assert res.witness == (0, 1)


def test_classify_good_pair():
    cfg = pair(0.5, (0, 0), 0.0, (1, 0), 2.0)
    res = classify(cfg)
    assert res.kind is Feasibility.GOOD
    assert res.witness == (0, 1)


def test_classify_ungatherable_pair():
    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 1.0)
    res = classify(cfg)
    assert res.kind is Feasibility.UNGATHERABLE
    assert res.witness is None


def test_classify_good_wins_over_equality():
    # One strict pair anywhere makes the whole configuration good.
    cfg = InitialConfiguration(
        0.5, (Point(0, 0), Point(1, 0), Point(0, 30)), (0.0, 0.5, 40.0))
    assert classify(cfg).kind is Feasibility.GOOD


def test_pair_margin_value():
    cfg = pair(0.5, (0, 0), 0.0, (1, 0), 2.0)
    assert abs(pair_margin(cfg, 0, 1) - 1.5) < 1e-12


def _shift_all(cfg, vx, vy, dt):
    return InitialConfiguration(
        cfg.epsilon,
        tuple(Point(p.x + vx, p.y + vy) for p in cfg.starts),
        tuple(t + dt for t in cfg.times))


dyadic = st.integers(-256, 256).map(lambda k: k / 32.0)


@given(dyadic, dyadic, st.integers(0, 256).map(lambda k: k / 32.0))
def test_classify_invariant_under_shift(vx, vy, dt):
    cases = [
        pair(0.5, (0, 0), 0.0, (1, 0), 0.5),
        pair(0.5, (0, 0), 0.0, (1, 0), 2.0),
        pair(0.5, (0, 0), 0.0, (10, 0), 1.0),
    ]
    for cfg in cases:
        assert classify(_shift_all(cfg, vx, vy, dt)).kind \
            == classify(cfg).kind


def test_classify_invariant_under_permutation():
    cfg = InitialConfiguration(
        0.5, (Point(0, 0), Point(1, 0), Point(0, 3)), (0.0, 2.0, 0.5))
    rev = InitialConfiguration(
        0.5, tuple(reversed(cfg.starts)), tuple(reversed(cfg.times)))
    assert classify(cfg).kind is classify(rev).kind


def test_vector_sequence_two_points():
    cfg = pair(0.5, (0, 0), 0.0, (1, 0), 0.0)
    assert vector_sequence(cfg) == [Vec2(-1, 0), Vec2(1, 0)]


def test_vector_sequence_three_points():
    cfg = InitialConfiguration(
        0.5, (Point(0, 0), Point(1, 0), Point(0, 1)), (0.0, 0.0, 0.0))
    seq = vector_sequence(cfg)
    assert len(seq) == 6
    assert seq[0] == Vec2(-1, 0)
    assert seq[-1] == Vec2(1, 0)
    for v in seq:
        assert Vec2(-v.dx, -v.dy) in seq
    assert list(seq) == sorted(seq, key=lambda v: (v.dx, v.dy))


def test_json_round_trip(tmp_path):
    cfg = InitialConfiguration(
        0.5, (Point(0, 0), Point(1, 0)), (0.0, 2.0))
    path = tmp_path / "cfg.json"
    cfg.save(path)
    data = json.loads(path.read_text())
    assert data == {"epsilon": 0.5,
                    "agents": [{"x": 0.0, "y": 0.0, "t": 0.0},
                               {"x": 1.0, "y": 0.0, "t": 2.0}]}
    assert InitialConfiguration.load(path) == cfg


def test_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        InitialConfiguration.from_dict([1, 2, 3])
    with pytest.raises(ValueError):
        InitialConfiguration.from_dict({"agents": []})
    good = {"epsilon": 0.5, "agents": [{"x": 0, "y": 0.0, "t": 0},
                                       {"x": 1.0, "y": 0, "t": 2.0}]}
    assert InitialConfiguration.from_dict(good) == InitialConfiguration(
        0.5, (Point(0, 0), Point(1, 0)), (0.0, 2.0))
    # Only JSON numbers load; bool is an int in Python.  An int too large
    # for a float is no coordinate either.
    for field, value in [("x", True), ("t", False), ("epsilon", "0.5"),
                         ("y", None), ("t", [1.0]), ("x", 10 ** 400)]:
        data = json.loads(json.dumps(good))
        if field == "epsilon":
            data[field] = value
        else:
            data["agents"][1][field] = value
        with pytest.raises(ValueError, match="malformed configuration"):
            InitialConfiguration.from_dict(data)
