"""Plane primitives: ordering, trajectories, eps-crossing roots."""

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
from gathersim.geometry import (GRAZE_TOL, SPEED_TOL, TIME_TOL,
                                UNIT_SPEED_TOL, Point, Trajectory,
                                TrajectoryBuilder, Vec2, lex_less,
                                solve_crossing_in, solve_crossing_out)

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
    traj = Trajectory([0.0, 2.0, 3.0], [0.0, 2.0, 2.0], [0.0, 0.0, 0.0])
    walk, rest = traj.segments
    assert (walk.start_time, walk.duration) == (0.0, 2.0)
    assert (walk.start_point, walk.end_point) == (Point(0, 0), Point(2, 0))
    assert walk.velocity == Vec2(1.0, 0.0)
    assert rest.velocity == Vec2(0.0, 0.0)


def test_position_at_unit_move_midpoint():
    traj = Trajectory([0.0, 2.0], [0.0, 2.0], [0.0, 0.0])
    assert traj.position_at(1.0) == Point(1, 0)


def test_position_at_waiting():
    traj = Trajectory([0.0, 10.0], [5.0, 5.0], [5.0, 5.0])
    assert traj.position_at(7.0) == Point(5, 5)


def test_position_at_out_and_back_north():
    b = TrajectoryBuilder(0.0, Point(0, 0))
    b.move_to(3.0, 0.0, 3.0)
    b.move_to(6.0, 0.0, 0.0)
    traj = b.build()
    assert traj.position_at(4.0).dist(Point(0, 2)) < 1e-12


def test_position_at_outside_span_raises():
    traj = Trajectory([1.0, 2.0], [0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        traj.position_at(0.5)
    with pytest.raises(ValueError):
        traj.position_at(2.5)


def _audit_legs(times, xs, ys):
    """checks.check_speeds on a trace of one agent on these columns: the
    Trajectory constructor checks their shape only."""
    trace = engine.Trace(events=[], final_tags=("",),
                         trajectories=(Trajectory(times, xs, ys),),
                         verdict=engine.Verdict("timeout", times[-1]))
    checks.check_speeds(trace)


def test_trajectory_rejects_illegal_speed():
    with pytest.raises(checks.CheckFailure):
        _audit_legs([0.0, 1.0], [0.0, 2.0], [0.0, 0.0])


def test_first_fault_of_a_trajectory_wins():
    # A speed-2 leg before a step back fails on the speed; the step back
    # first fails on its own.
    with pytest.raises(checks.CheckFailure,
                       match=r"^agent 0 segment at speed 2\.0$"):
        _audit_legs([0.0, 1.0, 0.5], [0.0, 2.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(checks.CheckFailure, match=r"^agent 0 trajectory "
                       r"time steps back from 1\.0 to 0\.5$"):
        _audit_legs([0.0, 1.0, 0.5, 1.5], [0.0, 0.0, 0.0, 2.0],
                    [0.0, 0.0, 0.0, 0.0])


def _legal_speed(dt, dx, dy):
    """Reference: the unit-speed rule, one leg per call."""
    if dt <= TIME_TOL:
        return True
    length = math.hypot(dx, dy)
    sp = length / dt
    return (sp <= SPEED_TOL or abs(sp - 1.0) <= UNIT_SPEED_TOL
            or abs(length - dt) <= 10.0 * TIME_TOL)


# Leg durations and speeds around each edge of the rule.
_durations = st.sampled_from([0.0, TIME_TOL / 2, TIME_TOL, 2 * TIME_TOL,
                              1e-6, 0.5, 1.0, 3.0, -TIME_TOL, -0.5])
_speeds = st.sampled_from([0.0, SPEED_TOL / 2, 2 * SPEED_TOL, 0.5,
                           1.0 - 2 * UNIT_SPEED_TOL, 1.0 - UNIT_SPEED_TOL / 2,
                           1.0, 1.0 + UNIT_SPEED_TOL / 2, 2.0,
                           math.nan]) | st.floats(0.0, 3.0)


@given(st.lists(st.tuples(_durations, _speeds, st.floats(0.0, 6.3)),
                min_size=1, max_size=8))
def test_first_illegal_leg_matches_the_rule_leg_by_leg(legs):
    # check_speeds fails on the first leg that steps back or breaks the
    # rule, and its message names that leg's times or speed.
    times, xs, ys = [0.0], [1.0], [-2.0]
    for dt, sp, ang in legs:
        times.append(times[-1] + dt)
        xs.append(xs[-1] + abs(dt) * sp * math.cos(ang))
        ys.append(ys[-1] + abs(dt) * sp * math.sin(ang))
    expect = None
    for k in range(len(legs)):
        dt = times[k + 1] - times[k]
        dx, dy = xs[k + 1] - xs[k], ys[k + 1] - ys[k]
        if dt < 0.0:
            expect = (f"agent 0 trajectory time steps back from {times[k]} "
                      f"to {times[k + 1]}")
            break
        if not _legal_speed(dt, dx, dy):
            expect = f"agent 0 segment at speed {math.hypot(dx, dy) / dt}"
            break
    if expect is None:
        _audit_legs(times, xs, ys)
    else:
        with pytest.raises(checks.CheckFailure) as failure:
            _audit_legs(times, xs, ys)
        assert str(failure.value) == expect


def test_trajectory_needs_two_breakpoints_in_each_column():
    for columns in (([0.0], [0.0], [0.0]),
                    ([0.0, 1.0], [0.0, 1.0], [0.0]),
                    ([0.0, 1.0], [0.0], [0.0, 0.0]),
                    ([0.0], [0.0, 1.0], [0.0, 0.0])):
        with pytest.raises(ValueError, match="two breakpoints"):
            Trajectory(*columns)


def test_trajectory_rejects_time_stepping_back():
    # Each step back lies within TIME_TOL, which xy_at treats as one
    # instant; only the monotonicity check catches it.
    with pytest.raises(checks.CheckFailure, match="steps back"):
        _audit_legs([1.0, 1.0 - TIME_TOL / 2], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(checks.CheckFailure, match="steps back"):
        _audit_legs([0.0, 1.0, 1.0 - TIME_TOL / 2], [0.0, 1.0, 1.0],
                    [0.0, 0.0, 0.0])


def test_head_on_approach_time():
    # The partner closes in from distance 2 at speed 1; the gap hits 0.5
    # at s = 1.5.
    s = solve_crossing_in(2.0, 0.0, -1.0, 0.0, 0.5, 5.0)
    assert s is not None and abs(s - 1.5) < 1e-9


def test_already_within_eps():
    assert solve_crossing_in(0.0, 0.4, 0.0, 0.0, 0.5, 5.0) == 0.0


def test_parallel_motion_never_approaches():
    # Both walk east at unit speed, 1 apart: no relative velocity.
    assert solve_crossing_in(0.0, 1.0, 0.0, 0.0, 0.5, 5.0) is None


def test_tangent_contact_detected():
    # Flybys at miss distance exactly eps touch the circle at s = 2.
    # Along an axis the discriminant is exactly 0; on the tilted path
    # rounding makes it slightly negative, and only GRAZE_TOL keeps the
    # touch.  A miss by more than that slack is no touch.
    eps = 0.5
    for angle in (0.0, 0.093):
        vx, vy = math.cos(angle), math.sin(angle)
        for miss in (eps, eps * (1 + 1e3 * GRAZE_TOL)):
            rx, ry = -2.0 * vx - miss * vy, -2.0 * vy + miss * vx
            s = solve_crossing_in(rx, ry, vx, vy, eps, 4.0)
            if miss > eps:
                assert s is None
                continue
            a1 = 2.0 * (rx * vx + ry * vy)
            a0 = rx * rx + ry * ry - eps * eps
            disc = a1 * a1 - 4.0 * (vx * vx + vy * vy) * a0
            assert disc == 0.0 if angle == 0.0 else disc < 0.0
            assert s is not None and abs(s - 2.0) < 1e-6


def test_crossing_roots_snap_to_window():
    # Root lands within TIME_TOL of the window end: keep it.
    s = solve_crossing_in(2.0, 0.0, -1.0, 0.0, 0.5, 1.5 + 1e-12)
    assert s is not None and abs(s - 1.5) < 1e-9


_TINY = 2.0 ** -40  # far inside TIME_TOL


@pytest.mark.parametrize("solve, args, length, expect", [
    # Interior roots, exact in floats.
    (solve_crossing_in, (2.0, 0.0, -1.0, 0.0), 5.0, 1.5),
    (solve_crossing_out, (0.0, 0.0, 1.0, 0.0), 10.0, 0.5),
    # Roots within TIME_TOL past the end snap onto it.
    (solve_crossing_in, (2.0, 0.0, -1.0, 0.0), 1.5 - 1e-12, 1.5 - 1e-12),
    (solve_crossing_out, (0.0, 0.0, 1.0, 0.0), 0.5 - 1e-12, 0.5 - 1e-12),
    # Roots just past a window of no time, whose end is -0.0 or 0.0.
    (solve_crossing_in, (0.5 + _TINY, 0.0, -1.0, 0.0), -0.0, -0.0),
    (solve_crossing_out, (0.5 - _TINY, 0.0, 1.0, 0.0), -0.0, -0.0),
    (solve_crossing_in, (0.5 + _TINY, 0.0, -1.0, 0.0), 0.0, 0.0),
    # A NaN end keeps the root; a NaN velocity gives a NaN root.
    (solve_crossing_in, (2.0, 0.0, -1.0, 0.0), math.nan, 1.5),
    (solve_crossing_in, (2.0, 0.0, math.nan, 0.0), 3.0, math.nan),
    (solve_crossing_out, (0.0, 0.0, math.nan, 0.0), 3.0, math.nan),
], ids=["interior in", "interior out", "past the end in",
        "past the end out", "-0.0 end in", "-0.0 end out", "0.0 end in",
        "NaN end", "NaN root in", "NaN root out"])
def test_crossing_roots_clamp_as_the_builtins_do(solve, args, length,
                                                 expect):
    # The solvers clamp a root onto [0, length] by comparisons; each
    # returns the float min(max(root, 0.0), length) gives, signed zeros
    # and NaN included.  The raw root is the one over an endless window.
    got = solve(*args, 0.5, length)
    raw = solve(*args, 0.5, math.inf)
    assert repr(got) == repr(expect) == repr(min(max(raw, 0.0), length))


def _solve_crossing_in_with_start_clamp(rx, ry, vx, vy, eps, length):
    """Reference: solve_crossing_in as it was with its start clamp, the
    root < -TIME_TOL test and the clamp of a negative root to 0.0."""
    a2 = vx * vx + vy * vy
    a0 = rx * rx + ry * ry - eps * eps
    if a0 <= 0.0:
        return 0.0
    if a2 <= geometry.SPEED_TOL2:
        return None
    a1 = 2.0 * (rx * vx + ry * vy)
    if a1 >= 0.0:
        return None
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        scale = max(a1 * a1, abs(4.0 * a2 * a0), geometry.DISC_FLOOR)
        if disc / scale < -GRAZE_TOL:
            return None
        disc = 0.0
    sq = math.sqrt(disc)
    q = -(a1 - sq) / 2.0
    root = a0 / q if q > 0.0 else -a1 / (2.0 * a2)
    if root < -TIME_TOL or root > length + TIME_TOL:
        return None
    root = 0.0 if root < 0.0 else root
    return length if length < root else root


def _same_float(a, b):
    """a and b are the same float, or both None: NaN matches NaN, and a
    zero matches only the zero of its own sign."""
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# Any float, with the edges of the float line drawn on purpose.
_solver_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     -5e-324, 2.0 ** -1022, -(2.0 ** -1022), 1e-300, 1e300,
                     TIME_TOL, -TIME_TOL]),
    st.floats(-5.0, 5.0), st.floats())


@given(st.tuples(*[_solver_floats] * 6))
@settings(max_examples=1000)
def test_crossing_in_has_no_start_clamp_to_miss(args):
    # No root of solve_crossing_in lies before 0, so the start clamp it
    # dropped never fired: it returns what it returned with it, bit for bit.
    assert _same_float(solve_crossing_in(*args),
                       _solve_crossing_in_with_start_clamp(*args))


def test_crossing_out_symmetric():
    s = solve_crossing_out(0.3, 0.0, 1.0, 0.0, 0.5, 10.0)
    assert s is not None and abs(s - 0.2) < 1e-9
    assert solve_crossing_out(0.3, 0.0, 0.0, 0.0, 0.5, 10.0) is None


@pytest.mark.parametrize("seed", range(12))
def test_crossing_in_matches_scanning(seed):
    """Quadratic-root search vs naive stepping at 1e-4 along one window."""
    rng = random.Random(seed)
    eps = rng.uniform(0.3, 0.8)
    length = 5.0
    rx, ry = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    # Roughly towards the origin, so that some pairs meet and some miss.
    ang = math.atan2(-ry, -rx) + rng.uniform(-0.3, 0.3)
    # Relative speed of two unit-speed agents: 0 to 2.
    speed = rng.choice([0.0, 1.0, rng.uniform(0.0, 2.0)])
    vx, vy = speed * math.cos(ang), speed * math.sin(ang)
    exact = solve_crossing_in(rx, ry, vx, vy, eps, length)

    step = 1e-4
    naive = None
    s = 0.0
    while s <= length:
        if math.hypot(rx + vx * s, ry + vy * s) <= eps:
            naive = s
            break
        s += step
    if exact is None:
        assert naive is None
    else:
        assert naive is not None
        assert abs(exact - naive) < 1e-3
        assert math.hypot(rx + vx * exact, ry + vy * exact) <= eps + 1e-9


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
    segs = traj.segments
    seg = next((s for s in segs if t <= s.end_time + TIME_TOL), segs[-1])
    sp, ep, dur = seg.start_point, seg.end_point, seg.duration
    if dur <= 0.0:
        return sp
    u = (t - seg.start_time) / dur
    return Point(sp.x + (ep.x - sp.x) * u, sp.y + (ep.y - sp.y) * u)


# Sub-tolerance durations sit on the lookup's edges.
durations = st.one_of(st.just(0.0),
                      st.floats(TIME_TOL / 4, 4 * TIME_TOL),
                      st.floats(0.01, 3.0))
legs = st.tuples(durations, st.booleans(), st.floats(0.0, 2 * math.pi))


@st.composite
def contiguous_trajectories(draw):
    times, xs, ys = [draw(st.floats(-5.0, 5.0))], [draw(coord)], [draw(coord)]
    for dur, moving, ang in draw(st.lists(legs, min_size=1, max_size=10)):
        step = dur if moving else 0.0
        times.append(times[-1] + dur)
        xs.append(xs[-1] + step * math.cos(ang))
        ys.append(ys[-1] + step * math.sin(ang))
    return Trajectory(times, xs, ys)


@given(contiguous_trajectories(), st.lists(st.floats(0.0, 1.0), max_size=4))
@settings(max_examples=150)
def test_position_at_bisect_matches_linear_scan(traj, fractions):
    queries = [b + d for b in traj.times
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


@pytest.mark.parametrize("dx, want", [(0.0, 0.0), (5e-324, 1e-12)])
def test_place_just_past_a_leg_shorter_than_the_overshoot(dx, want):
    # 1e-12 past a leg of 5e-324, within TIME_TOL, the share of the leg
    # overflows to inf; the place follows the leg's velocity, at rest or
    # at unit speed, where inf * dx gave NaN or inf.
    traj = Trajectory([0.0, 5e-324, 1.0], [0.0, dx, dx], [0.0, 0.0, 0.0])
    assert traj.xy_at(1e-12) == (want, 0.0)


def _xy_or_none(traj, t):
    try:
        return traj.xy_at(t)
    except ValueError:
        return None


@given(contiguous_trajectories(), st.lists(st.floats(0.0, 1.0), max_size=4),
       st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_xys_at_is_xy_at_of_each_time(traj, fractions, rng):
    ts = [b + d for b in traj.times
          for d in (0.0, -TIME_TOL / 2, TIME_TOL / 2)]
    ts += [seg.start_time + f * seg.duration
           for seg in traj.segments for f in fractions]
    # xy_at raises beyond TIME_TOL of the span's ends, and not within it:
    # one ulp either side of each bound.
    for edge in (traj.start_time - TIME_TOL, traj.end_time + TIME_TOL):
        ts += [math.nextafter(edge, -math.inf), edge,
               math.nextafter(edge, math.inf)]
    # Times may step back by up to TIME_TOL, as check_event_times allows,
    # and the batch takes them in any order.
    stepped = [u for t in sorted(ts) for u in (t, t - TIME_TOL)]
    for batch in (ts, stepped, rng.sample(ts, len(ts))):
        got = traj.xys_at(batch)
        assert len(got) == len(batch)
        for t, xy in zip(batch, got):
            want = _xy_or_none(traj, t)
            if want is None:
                assert xy is None, t
            else:
                assert [c.hex() for c in xy] == [c.hex() for c in want], t
    lo, hi = traj.start_time - TIME_TOL, traj.end_time + TIME_TOL
    below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    early, first, last, late = traj.xys_at([below, lo, hi, above])
    assert early is None and late is None and None not in (first, last)


def test_builder_keeps_every_record():
    b = TrajectoryBuilder(0.0, Point(0, 0))
    for k in range(1, 6):
        b.move_to(float(k), float(k), 0.0)
    assert b.last_time == 5.0
    b.move_to(7.0, 5.0, 2.0)
    # Records at one velocity still end a leg each.
    b.move_to(8.0, 5.0, 2.0)
    b.move_to(9.0, 5.0, 2.0)
    traj = b.build()
    assert traj.times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0, 9.0]
    assert traj.xs == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0, 5.0]
    assert traj.ys == [0.0] * 6 + [2.0] * 3
    # With no record past the first, the trajectory rests there for no time.
    rest = TrajectoryBuilder(2.0, Point(1, 3)).build()
    assert (rest.times, rest.xs, rest.ys) == ([2.0] * 2, [1] * 2, [3] * 2)


# -- Dead code --

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _names_read(node):
    """Every name, attribute and imported name that node mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _defined_names(stmt):
    """The names a module-level statement defines: a function's or a
    class's name, or the plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        return {sub.id for target in targets for sub in ast.walk(target)
                if isinstance(sub, ast.Name)}
    return set()


def _members(cls):
    """The names a class body defines, dunders aside: its methods,
    properties, fields and class attributes."""
    return {name for stmt in cls.body for name in _defined_names(stmt)
            if not (name.startswith("__") and name.endswith("__"))}


def _attributes_read(stmt):
    """Every attribute name that stmt reads, but a class member's reads
    of its own name."""
    if isinstance(stmt, ast.ClassDef):
        for sub in stmt.body:
            own = _defined_names(sub)
            yield from (name for name in _attributes_read(sub)
                        if name not in own)
        return
    for sub in ast.walk(stmt):
        if isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_definition_has_a_caller_outside_tests():
    # Definitions are functions, classes and module-level assignments, and
    # the members of classes; a member is called when some code reads an
    # attribute of its name.
    package = pathlib.Path(gathersim.__file__).resolve().parent
    defs = set()
    members = set()
    for path in package.glob("*.py"):
        if path.stem not in ("__init__", "__main__"):
            for stmt in ast.parse(path.read_text("utf-8")).body:
                defs.update(f"{path.stem}.{name}"
                            for name in _defined_names(stmt))
                if isinstance(stmt, ast.ClassDef):
                    members.update(f"{stmt.name}.{name}"
                                   for name in _members(stmt))
    used = set()
    attributes = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text("utf-8"))
            for stmt in tree.body:
                # A definition's mentions of itself are no caller.
                own = _defined_names(stmt)
                used.update(name for name in _names_read(stmt)
                            if name not in own)
                attributes.update(_attributes_read(stmt))
    dead = {d for d in defs if d.split(".", 1)[1] not in used}
    # Only tests call star_time_through_phase until a horizon taken from
    # the paper's bound uses it (ROADMAP item 3).  This fails when a new
    # definition has no caller, and again when that one gets one.
    assert sorted(dead) == ["algorithms.star_time_through_phase"]
    # Members that programs and users read, and that no code here needs.
    program_facing = {"AgentContext.now", "AgentContext.stop",
                      "GAView.self_index", "InitialConfiguration.translated",
                      "InitialConfiguration.time_shifted", "Trace.final_tags"}
    assert {m for m in members
            if m.split(".", 1)[1] not in attributes} == program_facing


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
    assert geometry.BOUND_SLACK > 2 * geometry.TIME_TOL
    assert geometry.BOUND_SLACK > checks.GA_DIST_SLACK
    assert geometry.UNIT_SPEED_TOL > geometry.SPEED_TOL
    assert geometry.GRAZE_TOL > sys.float_info.epsilon
    assert geometry.DISC_FLOOR > 0.0
    # The drift between two paths that match leg by leg, as the
    # Simulation.run docstring bounds it, and the 2e-8 rounding of the sure
    # test stay below the sure margin.
    leg = engine._LEG_SLACK
    assert (2 * math.sqrt(2) * leg + (1 + geometry.SPEED_TOL)
            * (6 * leg + 8 * geometry.TIME_TOL) + 2e-8) < engine._PATH_SLACK
