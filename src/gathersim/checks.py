"""Post-hoc validators for simulation traces.

Each checker raises CheckFailure with a descriptive message; check_all runs
the full battery.  These re-derive properties from the recorded
trajectories and event log rather than trusting engine internals, so they
double as an independent audit of a run.
"""

from __future__ import annotations

import math
from itertools import combinations

from .config import InitialConfiguration
from .engine import Trace, connected_components
from .geometry import POS_TOL, TIME_TOL, Point, has_legal_speed

# GA participants may sit up to the engine's proximity slack beyond eps.
GA_DIST_SLACK = 1e-8


class CheckFailure(AssertionError):
    pass


def _fail(msg: str):
    raise CheckFailure(msg)


def check_event_times(trace: Trace) -> None:
    """Event log is sorted by time and free of negative times."""
    last = -math.inf
    for ev in trace.events:
        if ev.time < -TIME_TOL:
            _fail(f"event at negative time {ev.time}")
        if ev.time < last - TIME_TOL:
            _fail(f"event times go backwards: {ev.time} after {last}")
        last = max(last, ev.time)


def check_speeds(trace: Trace) -> None:
    """Every trajectory segment moves at unit speed or stands still."""
    for idx, traj in enumerate(trace.trajectories):
        for seg in traj.segments:
            if not has_legal_speed(seg):
                _fail(f"agent {idx} segment at speed {seg.speed}")


def _group_positions(trace: Trace, group, t: float) -> dict[int, Point]:
    return {i: trace.trajectories[i].position_at(t) for i in group}


def _pair_separated(trace: Trace, i: int, j: int, t0: float,
                    t1: float, eps: float) -> bool:
    """Whether dist(i, j) plausibly exceeded eps somewhere in (t0, t1).

    Distance along straight legs is convex, so the maximum over an
    interval is attained at a trajectory breakpoint.  Grazing separations
    peak barely past eps, hence the one-sided tolerance.
    """
    ta, tb = trace.trajectories[i], trace.trajectories[j]
    cuts = sorted({*ta.breakpoint_times_between(t0, t1),
                   *tb.breakpoint_times_between(t0, t1), t0, t1})
    best = max(ta.position_at(t).dist(tb.position_at(t)) for t in cuts)
    return best > eps - TIME_TOL


def check_ga_events(cfg: InitialConfiguration, trace: Trace) -> None:
    """GA groups are proximity-connected and contain a fresh contact.

    Connectivity: at the event time the participants form one connected
    component of the within-eps graph.  Freshness: every GA has at least
    one pair meeting for the first time, or meeting again after the pair's
    distance exceeded eps since their previous common GA.  Pairs that stay
    adjacent may keep appearing in group events; what may not happen is a
    whole group re-firing with no new contact at all.
    """
    eps = cfg.epsilon
    last_meeting: dict[tuple[int, int], float] = {}
    for ev in trace.ga_events():
        group = sorted(ev.agents)
        pos = _group_positions(trace, group, ev.time)
        if len(group) < 2:
            _fail(f"GA at {ev.time} with fewer than two agents")
        close = [(i, j) for i, j in combinations(group, 2)
                 if pos[i].dist(pos[j]) <= eps + GA_DIST_SLACK]
        if len(connected_components(group, close)) != 1:
            _fail(f"GA at {ev.time}: group {group} not proximity-connected")

        fresh = False
        for i, j in close:
            prev = last_meeting.get((i, j))
            if prev is None:
                fresh = True
            elif ev.time - prev > TIME_TOL and \
                    _pair_separated(trace, i, j, prev, ev.time, eps):
                fresh = True
            if fresh:
                break
        if not fresh:
            _fail(f"GA at {ev.time}: group {group} has no fresh contact")
        for i, j in combinations(group, 2):
            last_meeting[(i, j)] = ev.time


def check_verdict(cfg: InitialConfiguration, trace: Trace) -> None:
    v = trace.verdict
    n = cfg.n
    if len(trace.final_positions) != n:
        _fail("final position count does not match agent count")
    if v.kind == "gathered":
        for idx, p in enumerate(trace.final_positions):
            if p.dist(v.point) > POS_TOL * 10.0:
                _fail(f"gathered verdict but agent {idx} ended at {p}, "
                      f"{p.dist(v.point)} from {v.point}")
    elif v.kind == "split":
        if v.groups is None or len(v.groups) < 2:
            _fail("split verdict without at least two groups")
    elif v.kind == "timeout":
        if not any(ev.kind == "horizon" for ev in trace.events):
            _fail("timeout verdict without a horizon event")
    else:
        _fail(f"unknown verdict kind {v.kind!r}")


def check_trajectory_starts(cfg: InitialConfiguration,
                            trace: Trace) -> None:
    """Each trajectory begins at the agent's start point and time."""
    for idx, traj in enumerate(trace.trajectories):
        if not traj.segments:
            _fail(f"agent {idx} has an empty trajectory")
        first = traj.segments[0]
        if abs(first.start_time - cfg.times[idx]) > TIME_TOL:
            _fail(f"agent {idx} trajectory starts at {first.start_time}, "
                  f"appearance is {cfg.times[idx]}")
        if first.start_point.dist(cfg.starts[idx]) > POS_TOL:
            _fail(f"agent {idx} trajectory starts away from its origin")


def check_all(cfg: InitialConfiguration, trace: Trace) -> None:
    check_event_times(trace)
    check_speeds(trace)
    check_trajectory_starts(cfg, trace)
    check_ga_events(cfg, trace)
    check_verdict(cfg, trace)
