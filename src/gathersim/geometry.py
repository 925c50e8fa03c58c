"""Planar points, vectors, piecewise-linear trajectories and epsilon-approach queries.

All motion in this package is piecewise linear with segment speed either 0
(waiting) or 1 (moving), which keeps eps-crossing queries exact: the
squared distance between two agents on overlapping segments is a quadratic
in time.  A Trajectory stores its breakpoints as three float columns,
times, xs and ys; its Segment objects are a view built on request.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence, Union

# The tolerance model.  Every float slack of gathersim is defined here,
# once, and every other slack is written from these names.  All are
# absolute; distance slacks would scale with the frame and time slacks
# with the clock (Goldberg, "What every computer scientist should know
# about floating-point arithmetic", 1991).
#
# TIME_TOL        time.  Time noise: instants within it are one instant,
#                 and a unit-speed margin (|t_i - t_j| - distance, or a
#                 leg's length - duration) within it of zero is zero.
#                 engine._CERT_MARGIN must exceed it.
# PROX_TOL        distance.  Distance noise at an event instant: agents
#                 within eps + PROX_TOL are within eps.  Genuine
#                 approaches are found by root finding, not by this slack.
#                 checks.GA_DIST_SLACK must exceed it.
# POS_TOL         distance.  Positions within it are one point.  Exceeds
#                 PROX_TOL: distance noise never parts one point in two.
# SPEED_TOL       speed.  Speed noise: a direction within it of unit
#                 length is a unit vector, a speed at or below it is rest,
#                 and the crossing solvers take a relative velocity with
#                 |v|^2 <= SPEED_TOL2, its square, as none.
# UNIT_SPEED_TOL  speed.  A leg whose speed is within it of 1 moves at
#                 unit speed.  Exceeds SPEED_TOL: event-time snapping
#                 distorts the speed of a short leg more than that.
# GRAZE_TOL       dimensionless.  A negative discriminant within this
#                 fraction of its terms' scale is a grazing touch.  Exceeds
#                 the float unit round-off, 2.2e-16.
# DISC_FLOOR      distance^4 / time^2, the unit of the discriminant.  The
#                 least scale GRAZE_TOL is measured against; it only keeps
#                 that scale positive.
# SEPARATION_TOL  distance.  Width of the adjacency band: a pair joins
#                 within eps and separates only beyond eps + SEPARATION_TOL,
#                 so rounding at the eps circle neither parts a pair that
#                 just met nor makes it meet again.  Exceeds PROX_TOL, the
#                 slack a pair may join with at a GA.  Exceeds 2 * TIME_TOL:
#                 a solver snaps a root up to TIME_TOL past its window onto
#                 it, and at relative speed at most 2 the pair is then up
#                 to 2 * TIME_TOL outside eps.  Below checks.GA_DIST_SLACK,
#                 so every chain of adjacent agents passes the checker.
# BOUND_SLACK     distance.  Margin of the cannot-cross test of
#                 engine.next_events, which skips a pair farther than
#                 eps + BOUND_SLACK + CLOSING_SPEED s apart, s the span
#                 it would be solved over: such a pair has no crossing
#                 into eps within s.  Exceeds 2 * TIME_TOL, the distance the
#                 pair covers over the TIME_TOL past s in which
#                 solve_crossing_in still accepts a root, so the solver
#                 would find none either.  Exceeds checks.GA_DIST_SLACK: a
#                 grazing pass the solvers accept stays GRAZE_TOL R^2 /
#                 (2 eps) outside eps, R the pair's distance at the solve,
#                 which is below BOUND_SLACK while R^2 < 2e6 eps, and a GA
#                 beyond GA_DIST_SLACK fails the checker.  Far above the
#                 float spacing at coordinates up to 1e7 (1.9e-9).
# CLOSING_SPEED   speed.  The fastest a pair can close: both agents move
#                 at speed at most 1 + SPEED_TOL.  The cannot-cross test
#                 of engine.next_events and the pair walk of
#                 checks.check_ga_events advance by it.
TIME_TOL = 1e-9
PROX_TOL = 1e-9
POS_TOL = 1e-6
SPEED_TOL = 1e-9
UNIT_SPEED_TOL = 1e-6
GRAZE_TOL = 1e-12
DISC_FLOOR = 1e-30
SEPARATION_TOL = 5 * PROX_TOL
BOUND_SLACK = POS_TOL
SPEED_TOL2 = SPEED_TOL * SPEED_TOL
CLOSING_SPEED = 2.0 * (1.0 + SPEED_TOL)


@dataclass(frozen=True, slots=True)
class Point:
    x: float
    y: float

    def __add__(self, v: "Vec2") -> "Point":
        return Point(self.x + v.dx, self.y + v.dy)

    def __sub__(self, other: "Point") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def dist(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    @property
    def coords(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True, slots=True)
class Vec2:
    dx: float
    dy: float

    def __neg__(self) -> "Vec2":
        return Vec2(-self.dx, -self.dy)

    @property
    def norm(self) -> float:
        return math.hypot(self.dx, self.dy)

    def normalized(self) -> "Vec2":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return Vec2(self.dx / n, self.dy / n)

    @property
    def coords(self) -> tuple[float, float]:
        return (self.dx, self.dy)


def lex_less(a: Union[Point, Vec2], b: Union[Point, Vec2]) -> bool:
    """Strict lexicographic order on coordinates, first coordinate then second.

    A point or vector is "larger" than another when the other is lex_less.
    The order is translation invariant: shifting both arguments by the same
    vector preserves the outcome.
    """
    ax, ay = a.coords
    bx, by = b.coords
    if ax != bx:
        return ax < bx
    return ay < by


def is_finite_point(p: Point) -> bool:
    return math.isfinite(p.x) and math.isfinite(p.y)


@dataclass(frozen=True, slots=True)
class Segment:
    """One constant-velocity piece of a trajectory: a view of one leg of
    a Trajectory's columns."""

    start_time: float
    end_time: float
    start_point: Point
    end_point: Point

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def velocity(self) -> Vec2:
        dur = self.duration
        if dur <= 0.0:
            return Vec2(0.0, 0.0)
        d = self.end_point - self.start_point
        return Vec2(d.dx / dur, d.dy / dur)


class Trajectory:
    """Piecewise-linear path of a single agent, defined from its start time on.

    The path is stored as breakpoint columns: times[k], xs[k] and ys[k]
    are the time and coordinates of breakpoint k, and leg k runs at
    constant velocity from breakpoint k to breakpoint k + 1.  Only the
    columns' shape is checked here: checks.check_speeds audits that times
    never step back and that legs obey the unit-speed rule.  A trajectory
    recorded by the engine has one leg per instruction leg: one
    Go, Wait or GotoStop, or one stretch without an instruction.  segments
    is a view built from the columns on each read.  Trajectory(times, xs,
    ys) keeps the given lists, not copies.

    position_at, xy_at (its coordinates as a tuple) and xys_at (those of
    many times at once, None for a time out of span) are defined on
    [start_time, end_time]; queries before the start or after the end raise.
    """

    # _keys: times plus TIME_TOL, built on the first xys_at.
    __slots__ = ("times", "xs", "ys", "_keys")

    def __init__(self, times: list[float], xs: list[float],
                 ys: list[float]):
        if not len(times) == len(xs) == len(ys) >= 2:
            raise ValueError("trajectory needs two breakpoints in each "
                             "column")
        self.times = times
        self.xs = xs
        self.ys = ys
        self._keys: Optional[list[float]] = None

    @property
    def segments(self) -> list[Segment]:
        """The legs as Segments, built on each read."""
        ts = self.times
        pts = [Point(x, y) for x, y in zip(self.xs, self.ys)]
        return [Segment(ts[k], ts[k + 1], pts[k], pts[k + 1])
                for k in range(len(ts) - 1)]

    @property
    def start_time(self) -> float:
        return self.times[0]

    @property
    def end_time(self) -> float:
        return self.times[-1]

    @property
    def start_point(self) -> Point:
        return Point(self.xs[0], self.ys[0])

    @property
    def end_point(self) -> Point:
        return Point(self.xs[-1], self.ys[-1])

    def xy_at(self, t: float) -> tuple[float, float]:
        """Coordinates of position_at(t), without building a Point."""
        xy = self.xys_at((t,))[0]
        if xy is None:
            raise ValueError(f"time {t} outside trajectory span "
                             f"[{self.times[0]}, {self.times[-1]}]")
        return xy

    def xys_at(self, ts: Sequence[float]) -> list:
        """xy_at of each time of ts, in any order, or None where it raises."""
        times, xs, ys = self.times, self.xs, self.ys
        start, end = times[0], times[-1]
        keys = self._keys = self._keys or [u + TIME_TOL for u in times]
        out = []
        for t in ts:
            if t < start - TIME_TOL or t > end + TIME_TOL:
                out.append(None)
                continue
            t = start if t < start else end if t > end else t
            # Leg k - 1 is the first with t <= its end + TIME_TOL, which is
            # keys[k]; t <= end bounds the search.
            k = bisect_left(keys, t, 1)
            t0, x0, y0 = times[k - 1], xs[k - 1], ys[k - 1]
            dur = times[k] - t0
            if dur <= 0.0:
                out.append((x0, y0))
            else:
                u = (t - t0) / dur
                if u == math.inf:
                    # t lies past a leg shorter than t's overshoot past
                    # it: move by the leg's velocity, as inf * 0 is NaN.
                    out.append((x0 + (xs[k] - x0) / dur * (t - t0),
                                y0 + (ys[k] - y0) / dur * (t - t0)))
                    continue
                out.append((x0 + (xs[k] - x0) * u, y0 + (ys[k] - y0) * u))
        return out

    def position_at(self, t: float) -> Point:
        return Point(*self.xy_at(t))


class TrajectoryBuilder:
    """Incrementally records an agent's motion, one record per leg.

    The engine makes a record when a leg ends: the instruction, or
    stretch without one, that moved the agent since the previous record.
    Records are keyed on the clock: a leg that begins and ends within one
    instant gets none, so each record after the first ends one leg of the
    built trajectory.  Records are kept as float columns, the ones the
    built Trajectory holds; last_time is the time of the last record.
    """

    __slots__ = ("_times", "_xs", "_ys", "last_time")

    def __init__(self, start_time: float, start_point: Point):
        self._times = [start_time]
        self._xs = [start_point.x]
        self._ys = [start_point.y]
        self.last_time = start_time

    def move_to(self, t: float, x: float, y: float) -> None:
        """Record that the agent is at (x, y) at time t, after the last
        record."""
        self.last_time = t
        self._times.append(t)
        self._xs.append(x)
        self._ys.append(y)

    def build(self) -> Trajectory:
        """The recorded trajectory, on copies of the record columns.  Its
        legs are not checked here: checks.check_speeds audits them.

        A builder holding its first record only builds a rest there that
        lasts no time.
        """
        ts, xs, ys = self._times, self._xs, self._ys
        if len(ts) == 1:
            return Trajectory(ts * 2, xs * 2, ys * 2)
        return Trajectory(ts[:], xs[:], ys[:])


def solve_crossing_in(rx: float, ry: float, vx: float, vy: float,
                      eps: float, length: float) -> Optional[float]:
    """First s in [0, length] where |R0 + V s| drops to eps, else None.

    R0 is the relative position at s=0 and V the constant relative velocity.
    Uses the standard stable quadratic formula with citardauq pairing so the
    smaller root is accurate even when the roots differ widely in magnitude.
    A root within TIME_TOL past length is snapped onto it, and no root lies
    before 0; near-tangent passes (discriminant slightly negative) count as
    touching.
    """
    a2 = vx * vx + vy * vy
    a0 = rx * rx + ry * ry - eps * eps
    if a0 <= 0.0:
        # Already at distance <= eps at the window start.
        return 0.0
    if a2 <= SPEED_TOL2:
        return None
    a1 = 2.0 * (rx * vx + ry * vy)
    if a1 >= 0.0:
        # Moving apart or tangential for the whole window.
        return None
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        # Tolerate float loss on grazing passes: the minimum squared distance
        # is a0 - a1^2/(4 a2); accept if it is within noise of eps^2.
        scale = max(a1 * a1, abs(4.0 * a2 * a0), DISC_FLOOR)
        if disc / scale < -GRAZE_TOL:
            return None
        disc = 0.0
    sq = math.sqrt(disc)
    # a1 < 0 here, so q > 0 and the smaller root is a0 / q.
    q = -(a1 - sq) / 2.0
    # a0 > 0 over q > 0, or -a1 > 0 over 2 a2 > 0: root >= +0.0, or NaN.
    root = a0 / q if q > 0.0 else -a1 / (2.0 * a2)
    if root > length + TIME_TOL:
        return None
    # min(root, length) by a comparison, which costs less; NaN stays.
    return length if length < root else root


def solve_crossing_out(rx: float, ry: float, vx: float, vy: float,
                       eps: float, length: float) -> Optional[float]:
    """First s in [0, length] where |R0 + V s| exceeds eps, else None.

    Defined for pairs currently at distance <= eps.  Returns the larger root
    of the squared-distance quadratic, snapped onto the interval.
    """
    a2 = vx * vx + vy * vy
    a0 = rx * rx + ry * ry - eps * eps
    if a0 > 0.0:
        # Numerically already outside; separate immediately.
        return 0.0
    if a2 <= SPEED_TOL2:
        return None
    a1 = 2.0 * (rx * vx + ry * vy)
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    root = (-a1 + sq) / (2.0 * a2)
    if root < 0.0 or root > length + TIME_TOL:
        return None
    # min(root, length) by a comparison; see solve_crossing_in.
    return length if length < root else root
