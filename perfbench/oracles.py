"""Correctness oracles computed apart from gathersim.

Nothing here calls into gathersim.  The oracles read a run's outputs as
plain data: the configuration as coordinate and time tuples, each agent's
recorded path as (time, x, y) breakpoints, the JSONL lines and the SVG
text.  Distances between agents are recomputed here from those paths, so
a fault in the engine's event search or in the trace checker cannot hide
itself.

Every oracle raises OracleFailure with a message naming what went wrong.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

GOOD = "GOOD"
BAD = "BAD_GATHERABLE"
UNGATHERABLE = "UNGATHERABLE"

# A segment moves at unit speed or stands still when its length is within
# SPEED_SLACK of its duration or of zero.  The engine snaps event times to
# 1e-9, so slivers a few nanoseconds long can read as any speed; the slack
# is absolute for that reason and still rejects any real speed change.
SPEED_SLACK = 1e-7
# Positions closer than this are one point (final gather points, clusters).
POINT_SLACK = 1e-6
# Width of the band around eps in which a grazing pass may or may not count
# as a meeting, and the time slack for matching a meeting to a GA.
EPS_BAND = 1e-6
TIME_SLACK = 1e-6
# Velocities closer than this continue one straight leg.
VELOCITY_SLACK = 1e-9


class OracleFailure(AssertionError):
    pass


def _fail(msg: str):
    raise OracleFailure(msg)


# -- classification ------------------------------------------------------------

def pair_class(eps: float, starts, times) -> str:
    """Feasibility class from the pair condition |t_i - t_j| >= d_ij - eps.

    Floats are exact rationals, and both sides of
    d_ij <= |t_i - t_j| + eps are non-negative, so comparing their squares
    in Fraction arithmetic decides strict inequality and equality exactly.
    """
    e = Fraction(eps)
    strict = equal = False
    n = len(starts)
    for i in range(n):
        for j in range(i + 1, n):
            dx = Fraction(starts[i][0]) - Fraction(starts[j][0])
            dy = Fraction(starts[i][1]) - Fraction(starts[j][1])
            reach = abs(Fraction(times[i]) - Fraction(times[j])) + e
            lhs, rhs = reach * reach, dx * dx + dy * dy
            if lhs > rhs:
                strict = True
            elif lhs == rhs:
                equal = True
    if strict:
        return GOOD
    return BAD if equal else UNGATHERABLE


def check_class(eps: float, starts, times, claimed: str) -> None:
    want = pair_class(eps, starts, times)
    if want != claimed:
        _fail(f"classify says {claimed}, pair condition says {want}")


# -- paths ---------------------------------------------------------------------

def check_speeds(paths) -> None:
    """Every recorded segment moves at speed 0 or 1."""
    for idx, pts in enumerate(paths):
        for (t0, x0, y0), (t1, x1, y1) in zip(pts, pts[1:]):
            dur = t1 - t0
            length = math.hypot(x1 - x0, y1 - y0)
            if length > SPEED_SLACK and abs(length - dur) > SPEED_SLACK:
                _fail(f"agent {idx} moves {length} in {dur} at t={t0}")


def legs(pts):
    """Breakpoints where the velocity changes; straight runs are merged.

    Each kept breakpoint is a recorded one, so positions at the kept
    breakpoints are exact; only zero-length time slivers are dropped.
    """
    out = [pts[0]]
    prev_v = None
    for p in pts[1:]:
        a = out[-1]
        dur = p[0] - a[0]
        if dur <= 0.0:
            if math.hypot(p[1] - a[1], p[2] - a[2]) > POINT_SLACK:
                _fail(f"path jumps at t={a[0]}")
            continue
        v = ((p[1] - a[1]) / dur, (p[2] - a[2]) / dur)
        if prev_v is not None and len(out) > 1 \
                and abs(v[0] - prev_v[0]) <= VELOCITY_SLACK \
                and abs(v[1] - prev_v[1]) <= VELOCITY_SLACK:
            out[-1] = p
            # Re-derive the leg's velocity from its recorded ends.
            b = out[-2]
            span = p[0] - b[0]
            prev_v = ((p[1] - b[1]) / span, (p[2] - b[2]) / span)
            continue
        out.append(p)
        prev_v = v
    return out


def _windows(pa, pb):
    """Common time windows of two leg lists with straight relative motion.

    Yields (t, span, rx, ry, vx, vy): at time t + s for s in [0, span],
    b minus a is (rx + vx s, ry + vy s).
    """
    lo = max(pa[0][0], pb[0][0])
    hi = min(pa[-1][0], pb[-1][0])
    if hi < lo:
        return
    times = [lo, *sorted({t for t, _, _ in pa if lo < t < hi}
                         | {t for t, _, _ in pb if lo < t < hi}), hi]
    ia = ib = 0
    for t, t_next in zip(times, times[1:]):
        while ia + 2 < len(pa) and pa[ia + 1][0] <= t:
            ia += 1
        while ib + 2 < len(pb) and pb[ib + 1][0] <= t:
            ib += 1
        ax, ay, avx, avy = _state(pa, ia, t)
        bx, by, bvx, bvy = _state(pb, ib, t)
        yield t, t_next - t, bx - ax, by - ay, bvx - avx, bvy - avy


def _state(pts, i, t):
    t0, x0, y0 = pts[i]
    if i + 1 == len(pts):
        return x0, y0, 0.0, 0.0
    t1, x1, y1 = pts[i + 1]
    dur = t1 - t0
    vx, vy = (x1 - x0) / dur, (y1 - y0) / dur
    return x0 + vx * (t - t0), y0 + vy * (t - t0), vx, vy


def closest_approach(pa, pb) -> float:
    """Smallest distance between two leg lists over their common span."""
    best = math.inf
    for _, span, rx, ry, vx, vy in _windows(pa, pb):
        vv = vx * vx + vy * vy
        s = 0.0 if vv == 0.0 else min(max(-(rx * vx + ry * vy) / vv, 0.0),
                                      span)
        best = min(best, math.hypot(rx + vx * s, ry + vy * s))
    return best


def first_within(pa, pb, radius: float):
    """Earliest common time at which the two are within radius, or None."""
    r2 = radius * radius
    for t, span, rx, ry, vx, vy in _windows(pa, pb):
        c = rx * rx + ry * ry - r2
        if c <= 0.0:
            return t
        a = vx * vx + vy * vy
        b = 2.0 * (rx * vx + ry * vy)
        if a == 0.0 or b >= 0.0:
            continue
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            continue
        s = (-b - math.sqrt(disc)) / (2.0 * a)
        if s <= span:
            return t + max(s, 0.0)
    return None


# -- run outputs ---------------------------------------------------------------

def parse_jsonl(lines) -> tuple[list[dict], dict]:
    """The events and the verdict of a JSONL trace; the verdict comes last."""
    try:
        objs = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        _fail(f"JSONL does not parse: {exc}")
    if not objs or objs[-1].get("kind") != "verdict":
        _fail("JSONL does not end with the verdict")
    if any(o.get("kind") == "verdict" for o in objs[:-1]):
        _fail("JSONL has a verdict before its last line")
    return objs[:-1], objs[-1]


def check_svg(text: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        _fail(f"SVG does not parse: {exc}")
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        _fail(f"SVG root is {root.tag}")


def check_gathered_at(verdict: dict, paths, point) -> None:
    """Gathered, with every agent ending within POINT_SLACK of point."""
    if verdict.get("verdict") != "gathered":
        _fail(f"verdict is {verdict.get('verdict')}, expected gathered")
    for idx, pts in enumerate(paths):
        _, x, y = pts[-1]
        if math.hypot(x - point[0], y - point[1]) > POINT_SLACK:
            _fail(f"agent {idx} ends at ({x}, {y}), not at {point}")


def check_split(verdict: dict, paths, clusters, eps: float) -> None:
    """Split, one group per cluster: each cluster ends at one point, and
    points of different clusters lie more than eps apart."""
    if verdict.get("verdict") != "split":
        _fail(f"verdict is {verdict.get('verdict')}, expected split")
    if verdict.get("groups") != len(clusters):
        _fail(f"{verdict.get('groups')} groups for {len(clusters)} clusters")
    ends = []
    for cluster in clusters:
        x0, y0 = paths[cluster[0]][-1][1:]
        for i in cluster:
            x, y = paths[i][-1][1:]
            if math.hypot(x - x0, y - y0) > POINT_SLACK:
                _fail(f"cluster {cluster} did not gather")
        ends.append((x0, y0))
    for a in range(len(ends)):
        for b in range(a + 1, len(ends)):
            if math.dist(ends[a], ends[b]) <= eps:
                _fail(f"clusters {a} and {b} ended within eps")


def check_no_meet(starts, times, eps: float, all_legs) -> None:
    """No pair ever comes within eps, nor closer than d_ij - |t_i - t_j|.

    Identical unit-speed programs move agent j along agent i's path shifted
    by p_j - p_i in space and t_j - t_i in time, so until they meet their
    distance cannot drop below d_ij - |t_i - t_j| (the paper's argument).
    """
    n = len(starts)
    for i in range(n):
        for j in range(i + 1, n):
            floor = math.dist(starts[i], starts[j]) - abs(times[i] - times[j])
            got = closest_approach(all_legs[i], all_legs[j])
            if got <= eps:
                _fail(f"agents {i} and {j} came within eps ({got})")
            if got < floor - POINT_SLACK:
                _fail(f"agents {i} and {j} came to {got}, "
                      f"below d - |dt| = {floor}")


def check_first_meetings(eps: float, all_legs, ga_events) -> None:
    """The first time each pair comes within eps carries a GA with both.

    A pass that only grazes eps may or may not count as a meeting, so the
    GA may fall anywhere from the first time the pair is within
    eps + EPS_BAND to the first time it is within eps - EPS_BAND.
    """
    n = len(all_legs)
    by_pair: dict[tuple[int, int], list[float]] = {}
    for ev in ga_events:
        members = sorted(ev["agents"])
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                by_pair.setdefault((members[a], members[b]), []).append(
                    ev["t"])
    for i in range(n):
        for j in range(i + 1, n):
            late = first_within(all_legs[i], all_legs[j], eps - EPS_BAND)
            if late is None:
                continue
            early = first_within(all_legs[i], all_legs[j], eps + EPS_BAND)
            if not any(early - TIME_SLACK <= t <= late + TIME_SLACK
                       for t in by_pair.get((i, j), ())):
                _fail(f"agents {i} and {j} first met at t={late} "
                      "without a GA containing both")
