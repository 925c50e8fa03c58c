"""Planar points, vectors, piecewise-linear trajectories and epsilon-approach queries.

All motion in this package is piecewise linear with segment speed either 0
(waiting) or 1 (moving), which keeps closest-approach queries exact: the
squared distance between two agents on overlapping segments is a quadratic
in time.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

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
TIME_TOL = 1e-9
PROX_TOL = 1e-9
POS_TOL = 1e-6
SPEED_TOL = 1e-9
UNIT_SPEED_TOL = 1e-6
GRAZE_TOL = 1e-12
DISC_FLOOR = 1e-30
SEPARATION_TOL = 5 * PROX_TOL
SPEED_TOL2 = SPEED_TOL * SPEED_TOL


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

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.dx + other.dx, self.dy + other.dy)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.dx - other.dx, self.dy - other.dy)

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
    """One constant-velocity piece of a trajectory.

    Trajectory enforces the unit-speed rule on its segments; see
    has_legal_speed.
    """

    start_time: float
    end_time: float
    start_point: Point
    end_point: Point

    def __post_init__(self):
        if self.end_time < self.start_time - TIME_TOL:
            raise ValueError("segment end precedes its start")

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

    @property
    def speed(self) -> float:
        dur = self.duration
        if dur <= 0.0:
            return 0.0
        return self.start_point.dist(self.end_point) / dur

    def xy_at(self, t: float) -> tuple[float, float]:
        """Coordinates of point_at(t), without building a Point."""
        sp = self.start_point
        dur = self.duration
        if dur <= 0.0:
            return (sp.x, sp.y)
        ep = self.end_point
        u = (t - self.start_time) / dur
        return (sp.x + (ep.x - sp.x) * u, sp.y + (ep.y - sp.y) * u)

    def point_at(self, t: float) -> Point:
        return Point(*self.xy_at(t))


def has_legal_speed(seg: Segment) -> bool:
    """The unit-speed rule: seg stands still or moves at speed 1.

    Sub-tolerance slivers from coalesced events carry no usable speed
    information and always pass.  Slightly longer slivers can still have
    their ratio distorted by event-time snapping, so unit speed is also
    accepted when the absolute length/duration drift is below snapping
    scale.
    """
    dur = seg.duration
    if dur <= TIME_TOL:
        return True
    length = seg.start_point.dist(seg.end_point)
    sp = length / dur
    return (sp <= SPEED_TOL or abs(sp - 1.0) <= UNIT_SPEED_TOL
            or abs(length - dur) <= 10.0 * TIME_TOL)


class Trajectory:
    """Piecewise-linear path of a single agent, defined from its start time on.

    Segments are contiguous in time and space, and their breakpoint times
    never step back.  A trajectory recorded by the engine has one segment
    per instruction leg: one Go, Wait or GotoStop, or one stretch without
    an instruction.  position_at, and xy_at which gives the same
    coordinates as a tuple, are defined on [start_time, end_time]; queries
    before the start or after the end raise.
    """

    # _times: breakpoint times, and _keys the same plus TIME_TOL, both
    # built on the first time query.
    __slots__ = ("segments", "_times", "_keys")

    def __init__(self, segments: list[Segment]):
        if not segments:
            raise ValueError("trajectory needs at least one segment")
        prev = None
        for seg in segments:
            if not has_legal_speed(seg):
                raise ValueError(f"segment speed {seg.speed} is neither "
                                 "0 nor 1")
            if seg.end_time < seg.start_time or (
                    prev is not None and seg.end_time < prev.end_time):
                raise ValueError("trajectory time steps back")
            if prev is not None:
                if abs(seg.start_time - prev.end_time) > TIME_TOL:
                    raise ValueError("segments are not contiguous in time")
                if prev.end_point.dist(seg.start_point) > POS_TOL:
                    raise ValueError("segments are not contiguous in space")
            prev = seg
        self.segments = list(segments)
        self._times: Optional[Sequence[float]] = None
        self._keys: Optional[Sequence[float]] = None

    @property
    def start_time(self) -> float:
        return self.segments[0].start_time

    @property
    def end_time(self) -> float:
        return self.segments[-1].end_time

    @property
    def start_point(self) -> Point:
        return self.segments[0].start_point

    @property
    def end_point(self) -> Point:
        return self.segments[-1].end_point

    def _breakpoint_times(self) -> Sequence[float]:
        times = self._times
        if times is None:
            times = self._times = array("d", [self.segments[0].start_time])
            times.extend([seg.end_time for seg in self.segments])
            self._keys = array("d", [t + TIME_TOL for t in times])
        return times

    def xy_at(self, t: float) -> tuple[float, float]:
        """Coordinates of position_at(t), without building a Point."""
        times = self._breakpoint_times()
        start, end = times[0], times[-1]
        if t < start - TIME_TOL or t > end + TIME_TOL:
            raise ValueError(f"time {t} outside trajectory span "
                             f"[{start}, {end}]")
        t = min(max(t, start), end)
        # The first segment with t <= end_time + TIME_TOL; _keys[k] is the
        # end of segment k - 1 plus TIME_TOL, and t <= end_time bounds the
        # search.
        k = bisect_left(self._keys, t, 1)
        return self.segments[k - 1].xy_at(t)

    def position_at(self, t: float) -> Point:
        return Point(*self.xy_at(t))

    def breakpoint_times_between(self, t0: float,
                                 t1: float) -> Sequence[float]:
        """Breakpoint times t with t0 < t < t1, in trajectory order."""
        times = self._breakpoint_times()
        return times[bisect_right(times, t0):bisect_left(times, t1)]

    def breakpoints(self) -> Iterator[tuple[float, Point]]:
        yield self.segments[0].start_time, self.segments[0].start_point
        for seg in self.segments:
            yield seg.end_time, seg.end_point


class TrajectoryBuilder:
    """Incrementally records an agent's motion, one record per leg.

    The engine makes a record when a leg ends: the instruction, or
    stretch without one, that moved the agent since the previous record.
    Every record names that leg.  Records of one leg lie on one straight
    constant-velocity line, so a record that continues the previous
    record's leg replaces it, and each segment of the built trajectory is
    one leg.
    """

    # _leg: the token of the last record; None never matches.
    __slots__ = ("_times", "_points", "_leg")

    def __init__(self, start_time: float, start_point: Point):
        self._times = [start_time]
        self._points = [start_point]
        self._leg = None

    def move_to(self, t: float, p: Point, leg: object = None) -> None:
        """Record that the agent is at p at time t, at the end of leg.

        leg is any token, compared by identity; None starts a new segment
        on every call.
        """
        times = self._times
        if t < times[-1] - TIME_TOL:
            raise ValueError("trajectory time went backwards")
        t = max(t, times[-1])
        if leg is not None and leg is self._leg:
            times[-1] = t
            self._points[-1] = p
        else:
            times.append(t)
            self._points.append(p)
            self._leg = leg

    def build(self) -> Trajectory:
        segs = []
        for i in range(len(self._times) - 1):
            if self._times[i + 1] - self._times[i] <= 0.0 \
                    and self._points[i].dist(self._points[i + 1]) <= POS_TOL:
                continue
            segs.append(Segment(self._times[i], self._times[i + 1],
                                self._points[i], self._points[i + 1]))
        if not segs:
            segs = [Segment(self._times[0], self._times[-1],
                            self._points[0], self._points[-1])]
        return Trajectory(segs)


def solve_crossing_in(rx: float, ry: float, vx: float, vy: float,
                      eps: float, length: float) -> Optional[float]:
    """First s in [0, length] where |R0 + V s| drops to eps, else None.

    R0 is the relative position at s=0 and V the constant relative velocity.
    Uses the standard stable quadratic formula with citardauq pairing so the
    smaller root is accurate even when the roots differ widely in magnitude.
    Roots within TIME_TOL outside [0, length] are snapped onto the interval;
    near-tangent passes (discriminant slightly negative) count as touching.
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
    root = a0 / q if q > 0.0 else -a1 / (2.0 * a2)
    if root < -TIME_TOL or root > length + TIME_TOL:
        return None
    return min(max(root, 0.0), length)


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
    return min(root, length)


def earliest_approach(traj_a: Trajectory, traj_b: Trajectory,
                      eps: float, t_from: float) -> Optional[float]:
    """Earliest t >= t_from with dist(a(t), b(t)) <= eps, or None.

    Both trajectories must cover a common time span containing t_from.
    Segment boundaries within TIME_TOL of a root are treated as the root.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    lo = max(traj_a.start_time, traj_b.start_time, t_from)
    hi = min(traj_a.end_time, traj_b.end_time)
    if hi < lo - TIME_TOL:
        raise ValueError("trajectories have no overlapping time coverage "
                         f"at or after t={t_from}")
    ia = [s for s in traj_a.segments if s.end_time >= lo - TIME_TOL]
    ib = [s for s in traj_b.segments if s.end_time >= lo - TIME_TOL]
    i = j = 0
    t = lo
    while i < len(ia) and j < len(ib):
        sa, sb = ia[i], ib[j]
        w_lo = max(sa.start_time, sb.start_time, t)
        w_hi = min(sa.end_time, sb.end_time, hi)
        if w_hi >= w_lo - TIME_TOL:
            pa = sa.point_at(w_lo)
            pb = sb.point_at(w_lo)
            va = sa.velocity
            vb = sb.velocity
            s = solve_crossing_in(pb.x - pa.x, pb.y - pa.y,
                                  vb.dx - va.dx, vb.dy - va.dy,
                                  eps, max(w_hi - w_lo, 0.0))
            if s is not None:
                return w_lo + s
            t = w_hi
        if sa.end_time <= sb.end_time + TIME_TOL:
            i += 1
        if sb.end_time <= sa.end_time + TIME_TOL:
            j += 1
        if w_hi >= hi - TIME_TOL and w_hi >= w_lo - TIME_TOL:
            break
    return None
