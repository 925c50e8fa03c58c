"""Plane primitives: ordering, trajectories, closest-approach roots."""

import ast
import math
import pathlib
import random
import re
import sys
import tokenize

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gathersim
from gathersim import checks, engine, geometry
from gathersim.geometry import (POS_TOL, TIME_TOL, Point, Segment,
                                Trajectory, TrajectoryBuilder, Vec2,
                                earliest_approach, has_legal_speed,
                                lex_less, solve_crossing_in,
                                solve_crossing_out)

coord = st.floats(-50.0, 50.0)
points = st.builds(Point, coord, coord)


def test_lex_less_examples():
    assert lex_less(Point(0, 0), Point(1, 0))
    assert lex_less(Point(1, -1), Point(1, 0))
    assert not lex_less(Point(3, 7), Point(3, 7))


@given(points, points)
def test_lex_less_trichotomy(p, q):
    assert (lex_less(p, q) + lex_less(q, p) + (p == q)) == 1


# 1/64 grid keeps every sum exact, so the invariance is testable bitwise.
dyadic = st.integers(-3200, 3200).map(lambda k: k / 64.0)
dyadic_points = st.builds(Point, dyadic, dyadic)


@given(dyadic_points, dyadic_points, st.builds(Vec2, dyadic, dyadic))
def test_lex_less_translation_invariant(p, q, v):
    assert lex_less(p, q) == lex_less(p + v, q + v)


def test_point_vector_arithmetic():
    assert Point(1, 2) + Vec2(3, -1) == Point(4, 1)
    assert Point(4, 1) - Point(1, 2) == Vec2(3, -1)
    assert Vec2(3, 4).norm == 5.0
    u = Vec2(3, 4).normalized()
    assert abs(u.norm - 1.0) < 1e-12


def test_segment_velocity():
    seg = Segment(0.0, 2.0, Point(0, 0), Point(2, 0))
    assert seg.velocity == Vec2(1.0, 0.0)
    assert abs(seg.speed - 1.0) < 1e-12
    assert seg.point_at(1.0) == Point(1, 0)


def test_position_at_unit_move_midpoint():
    traj = Trajectory([Segment(0.0, 2.0, Point(0, 0), Point(2, 0))])
    assert traj.position_at(1.0) == Point(1, 0)


def test_position_at_waiting():
    traj = Trajectory([Segment(0.0, 10.0, Point(5, 5), Point(5, 5))])
    assert traj.position_at(7.0) == Point(5, 5)


def test_position_at_out_and_back_north():
    b = TrajectoryBuilder(0.0, Point(0, 0))
    b.move_to(3.0, 0.0, 3.0)
    b.move_to(6.0, 0.0, 0.0)
    traj = b.build()
    assert traj.position_at(4.0).dist(Point(0, 2)) < 1e-12


def test_position_at_outside_span_raises():
    traj = Trajectory([Segment(1.0, 2.0, Point(0, 0), Point(1, 0))])
    with pytest.raises(ValueError):
        traj.position_at(0.5)
    with pytest.raises(ValueError):
        traj.position_at(2.5)


def test_trajectory_rejects_illegal_speed():
    with pytest.raises(ValueError):
        Trajectory([Segment(0.0, 1.0, Point(0, 0), Point(2, 0))])


def test_trajectory_rejects_gap():
    with pytest.raises(ValueError):
        Trajectory([Segment(0.0, 1.0, Point(0, 0), Point(1, 0)),
                    Segment(1.0, 2.0, Point(5, 0), Point(6, 0))])


def test_trajectory_rejects_time_stepping_back():
    # Each step back lies within the TIME_TOL that Segment and the
    # contiguity check allow, so only the monotonicity check catches it.
    with pytest.raises(ValueError, match="steps back"):
        Trajectory([Segment(1.0, 1.0 - TIME_TOL / 2, Point(0, 0),
                            Point(0, 0))])
    with pytest.raises(ValueError, match="steps back"):
        Trajectory([Segment(0.0, 1.0, Point(0, 0), Point(1, 0)),
                    Segment(1.0 - TIME_TOL / 2, 1.0 - TIME_TOL / 4,
                            Point(1, 0), Point(1, 0))])


def test_head_on_approach_time():
    # B closes in from distance 2 at speed 1; gap hits 0.5 at t = 1.5.
    a = Trajectory([Segment(0.0, 5.0, Point(0, 0), Point(0, 0))])
    b = TrajectoryBuilder(0.0, Point(2, 0))
    b.move_to(2.0, 0.0, 0.0)
    b.move_to(5.0, 0.0, 0.0)
    t = earliest_approach(a, b.build(), 0.5, 0.0)
    assert t is not None and abs(t - 1.5) < 1e-9


def test_already_within_eps():
    a = Trajectory([Segment(0.0, 5.0, Point(0, 0), Point(0, 0))])
    b = Trajectory([Segment(0.0, 5.0, Point(0, 0.4), Point(0, 0.4))])
    assert earliest_approach(a, b, 0.5, 0.0) == 0.0


def test_parallel_motion_never_approaches():
    a = Trajectory([Segment(0.0, 5.0, Point(0, 0), Point(5, 0))])
    b = Trajectory([Segment(0.0, 5.0, Point(0, 1), Point(5, 1))])
    assert earliest_approach(a, b, 0.5, 0.0) is None


def test_tangent_contact_detected():
    # Perpendicular flyby grazing the eps circle exactly.
    a = Trajectory([Segment(0.0, 4.0, Point(0, 0), Point(0, 0))])
    b = TrajectoryBuilder(0.0, Point(-2.0, 0.5))
    b.move_to(4.0, 2.0, 0.5)
    t = earliest_approach(a, b.build(), 0.5, 0.0)
    assert t is not None and abs(t - 2.0) < 1e-6


def test_crossing_roots_snap_to_window():
    # Root lands within TIME_TOL of the window end: keep it.
    s = solve_crossing_in(2.0, 0.0, -1.0, 0.0, 0.5, 1.5 + 1e-12)
    assert s is not None and abs(s - 1.5) < 1e-9


def test_crossing_out_symmetric():
    s = solve_crossing_out(0.3, 0.0, 1.0, 0.0, 0.5, 10.0)
    assert s is not None and abs(s - 0.2) < 1e-9
    assert solve_crossing_out(0.3, 0.0, 0.0, 0.0, 0.5, 10.0) is None


def _random_walk(rng, t0, p0, legs, horizon):
    b = TrajectoryBuilder(t0, p0)
    t, p = t0, p0
    for _ in range(legs):
        if rng.random() < 0.3:
            dt = rng.uniform(0.1, 1.0)
            t += dt
            b.move_to(t, p.x, p.y)
        else:
            ang = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(0.1, 1.5)
            p = Point(p.x + d * math.cos(ang), p.y + d * math.sin(ang))
            t += d
            b.move_to(t, p.x, p.y)
    if t < horizon:
        b.move_to(horizon, p.x, p.y)
    return b.build()


@pytest.mark.parametrize("seed", range(12))
def test_earliest_approach_matches_scanning(seed):
    """Quadratic-root search vs naive time stepping at 1e-4."""
    rng = random.Random(seed)
    eps = rng.uniform(0.3, 0.8)
    horizon = 10.0
    a = _random_walk(rng, 0.0, Point(0, 0), 8, horizon)
    b = _random_walk(rng, 0.0, Point(rng.uniform(1.5, 3.0), 0), 8, horizon)
    exact = earliest_approach(a, b, eps, 0.0)

    step = 1e-4
    naive = None
    t = 0.0
    while t <= horizon:
        if a.position_at(t).dist(b.position_at(t)) <= eps:
            naive = t
            break
        t += step
    if exact is None:
        assert naive is None
    else:
        assert naive is not None
        assert abs(exact - naive) < 1e-3
        assert a.position_at(exact).dist(b.position_at(exact)) \
            <= eps + 1e-9


def test_earliest_approach_requires_overlap():
    a = Trajectory([Segment(0.0, 1.0, Point(0, 0), Point(0, 0))])
    b = Trajectory([Segment(5.0, 6.0, Point(0, 0), Point(0, 0))])
    with pytest.raises(ValueError):
        earliest_approach(a, b, 0.5, 0.0)


@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.05, 1.0))
@settings(max_examples=60)
def test_crossing_in_root_is_on_circle(r0, v, eps):
    # Head-on radial closing from distance r0 at speed v.
    s = solve_crossing_in(r0, 0.0, -v, 0.0, eps, 100.0)
    if r0 <= eps:
        assert s == 0.0
    else:
        assert s is not None
        assert abs((r0 - v * s) - eps) < 1e-7


# Relative coordinates with both zeros drawn on purpose: a pair scan
# takes r and v from either agent's side, which can flip a zero's sign.
signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))


@st.composite
def relative_motions(draw):
    """(rx, ry, vx, vy, eps), some starting at distance exactly eps and
    some with no relative velocity."""
    eps = draw(st.floats(0.05, 2.0))
    if draw(st.booleans()):
        rx, ry = draw(st.sampled_from([(eps, 0.0), (-eps, -0.0),
                                       (0.0, eps), (-0.0, -eps)]))
    else:
        rx, ry = draw(signed), draw(signed)
    if draw(st.booleans()):
        vx, vy = draw(st.sampled_from([(0.0, 0.0), (-0.0, 0.0),
                                       (-0.0, -0.0)]))
    else:
        vx, vy = draw(signed), draw(signed)
    return rx, ry, vx, vy, eps


@given(relative_motions(), st.floats(0.0, 10.0))
@settings(max_examples=300)
def test_crossing_solvers_ignore_the_side(motion, length):
    # The solvers use only |r|^2, |v|^2 and r.v, which negating all four
    # of (rx, ry, vx, vy) leaves as they are.
    rx, ry, vx, vy, eps = motion
    for solve in (solve_crossing_in, solve_crossing_out):
        assert solve(rx, ry, vx, vy, eps, length) \
            == solve(-rx, -ry, -vx, -vy, eps, length)


def _linear_position_at(traj, t):
    """Reference lookup: scan for the first segment ending at or after t."""
    if t < traj.start_time - TIME_TOL or t > traj.end_time + TIME_TOL:
        raise ValueError("outside span")
    t = min(max(t, traj.start_time), traj.end_time)
    for seg in traj.segments:
        if t <= seg.end_time + TIME_TOL:
            return seg.point_at(t)
    return traj.segments[-1].point_at(t)


def _linear_times_between(traj, t0, t1):
    return [t for t, _ in traj.breakpoints() if t0 < t < t1]


# Sub-tolerance durations sit on the lookup's edges.
durations = st.one_of(st.just(0.0),
                      st.floats(TIME_TOL / 4, 4 * TIME_TOL),
                      st.floats(0.01, 3.0))
legs = st.tuples(durations, st.booleans(), st.floats(0.0, 2 * math.pi))


@st.composite
def contiguous_trajectories(draw):
    t = draw(st.floats(-5.0, 5.0))
    p = Point(draw(coord), draw(coord))
    segs = []
    for dur, moving, ang in draw(st.lists(legs, min_size=1, max_size=10)):
        step = dur if moving else 0.0
        q = Point(p.x + step * math.cos(ang), p.y + step * math.sin(ang))
        segs.append(Segment(t, t + dur, p, q))
        t, p = t + dur, q
    return Trajectory(segs)


@given(contiguous_trajectories(), st.lists(st.floats(0.0, 1.0), max_size=4))
@settings(max_examples=150)
def test_position_at_bisect_matches_linear_scan(traj, fractions):
    times = [t for t, _ in traj.breakpoints()]
    queries = [b + d for b in times
               for d in (0.0, -TIME_TOL / 2, TIME_TOL / 2)]
    queries += [seg.start_time + f * seg.duration
                for seg in traj.segments for f in fractions]
    queries += [traj.start_time - 2 * TIME_TOL, traj.end_time + 2 * TIME_TOL]
    for t in queries:
        try:
            want = _linear_position_at(traj, t)
        except ValueError:
            with pytest.raises(ValueError) as pos_err:
                traj.position_at(t)
            with pytest.raises(ValueError) as xy_err:
                traj.xy_at(t)
            assert str(xy_err.value) == str(pos_err.value)
            continue
        pos = traj.position_at(t)
        assert pos == want
        # The float sampler gives the same coordinates, bit for bit.
        assert [c.hex() for c in traj.xy_at(t)] \
            == [c.hex() for c in pos.coords]
    for t0 in queries:
        for t1 in queries:
            assert list(traj.breakpoint_times_between(t0, t1)) \
                == _linear_times_between(traj, t0, t1)


def test_builder_merges_records_of_one_leg():
    leg, other = object(), object()
    b = TrajectoryBuilder(0.0, Point(0, 0))
    for k in range(1, 6):
        b.move_to(float(k), float(k), 0.0, leg)
    # Up to TIME_TOL early is clamped to the last time, also on replacing.
    b.move_to(5.0 - TIME_TOL / 2, 5.0, 0.0, leg)
    b.move_to(7.0, 5.0, 2.0, other)
    # None is no leg: every such record ends a segment of its own.
    b.move_to(8.0, 5.0, 2.0)
    b.move_to(9.0, 5.0, 2.0)
    segs = b.build().segments
    assert [(s.start_time, s.end_time) for s in segs] \
        == [(0.0, 5.0), (5.0, 7.0), (7.0, 8.0), (8.0, 9.0)]
    assert segs[0].end_point == Point(5, 0)


# One recorded leg: unit motion or rest, and the steps in which the engine
# records it, zero-length steps included.
step_dts = st.one_of(st.just(0.0), st.floats(1e-6, 2.0))
recorded_legs = st.tuples(st.booleans(), st.floats(0.0, 2 * math.pi),
                          st.lists(step_dts, min_size=1, max_size=6))


@given(st.floats(-5.0, 5.0), points,
       st.lists(recorded_legs, min_size=1, max_size=8))
@settings(max_examples=150)
def test_leg_merging_keeps_the_path(t0, p0, legs_drawn):
    merged = TrajectoryBuilder(t0, p0)
    plain = TrajectoryBuilder(t0, p0)
    t, x, y = t0, p0.x, p0.y
    recorded = []
    for moving, ang, dts in legs_drawn:
        leg = object()
        vx, vy = (math.cos(ang), math.sin(ang)) if moving else (0.0, 0.0)
        for dt in dts:
            # As the engine advances: start + v * sum(dt), step by step.
            t += dt
            x += vx * dt
            y += vy * dt
            merged.move_to(t, x, y, leg)
            plain.move_to(t, x, y)
            recorded.append(t)
    a, b = merged.build(), plain.build()
    for t in recorded:
        assert a.position_at(t).dist(b.position_at(t)) <= 1e-9
    assert {t for t, _ in a.breakpoints()} <= {t for t, _ in b.breakpoints()}
    assert len(a.segments) <= len(legs_drawn)
    assert all(has_legal_speed(seg) for seg in a.segments)


# -- The tolerance model --

def _small_float_literals():
    """(file name, line, literal) for each float literal below 1e-3."""
    for path in sorted(pathlib.Path(gathersim.__file__).parent.glob("*.py")):
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type != tokenize.NUMBER:
                    continue
                value = ast.literal_eval(tok.string)
                if isinstance(value, float) and 0.0 < value < 1e-3:
                    yield path.name, tok.line, tok.string


def test_every_float_slack_is_a_named_tolerance_in_geometry():
    names = []
    for name, line, literal in _small_float_literals():
        assert name == "geometry.py", (name, line)
        m = re.fullmatch(r"([A-Z][A-Z0-9_]*) = " + re.escape(literal),
                         line.strip())
        assert m, line
        names.append(m.group(1))
    assert len(names) == len(set(names)) <= 8


def test_tolerance_orderings():
    # The orderings stated with the tolerance model in geometry.
    assert checks.GA_DIST_SLACK > geometry.PROX_TOL
    assert engine._CERT_MARGIN > geometry.TIME_TOL
    assert geometry.POS_TOL > geometry.PROX_TOL
    assert geometry.SEPARATION_TOL > geometry.PROX_TOL
    assert geometry.SEPARATION_TOL > 2 * geometry.TIME_TOL
    assert geometry.SEPARATION_TOL < checks.GA_DIST_SLACK
    assert geometry.UNIT_SPEED_TOL > geometry.SPEED_TOL
    assert geometry.GRAZE_TOL > sys.float_info.epsilon
    assert geometry.DISC_FLOOR > 0.0
