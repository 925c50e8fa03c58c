"""Post-hoc validators for simulation traces.

Each checker raises CheckFailure with a descriptive message; check_all runs
the full battery.  These re-derive properties from the recorded
trajectories and event log rather than trusting engine internals, so they
double as an independent audit of a run.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .config import InitialConfiguration
from .engine import Trace, cluster_points
from .geometry import (POS_TOL, PROX_TOL, TIME_TOL, first_illegal_leg,
                       is_finite_point)

# GA members may sit this far beyond eps in the recorded trajectories:
# ten times the slack PROX_TOL with which the engine joins a group.
GA_DIST_SLACK = 10 * PROX_TOL


class CheckFailure(AssertionError):
    pass


def _fail(msg: str):
    raise CheckFailure(msg)


def check_event_times(trace: Trace) -> None:
    """Event log is sorted by time and free of negative and non-finite
    times."""
    last = -math.inf
    for ev in trace.events:
        if not math.isfinite(ev.time):
            _fail(f"event at non-finite time {ev.time}")
        if ev.time < -TIME_TOL:
            _fail(f"event at negative time {ev.time}")
        if ev.time < last - TIME_TOL:
            _fail(f"event times go backwards: {ev.time} after {last}")
        last = max(last, ev.time)


def check_speeds(trace: Trace) -> None:
    """Every trajectory segment moves at unit speed or stands still, and
    trajectory times never step back."""
    for idx, traj in enumerate(trace.trajectories):
        ts, xs, ys = traj.times, traj.xs, traj.ys
        k = first_illegal_leg(ts, xs, ys)
        if k is not None:
            dt = ts[k + 1] - ts[k]
            if dt < 0.0:
                _fail(f"agent {idx} trajectory time steps back from {ts[k]} "
                      f"to {ts[k + 1]}")
            _fail(f"agent {idx} segment at speed "
                  f"{math.hypot(xs[k + 1] - xs[k], ys[k + 1] - ys[k]) / dt}")


def _event_xy(trace: Trace, ev) -> tuple[list[int], list[tuple[float, float]]]:
    """ev's agents, sorted, and their trajectory positions at ev.time in
    that order, once ev is shown to record each one within POS_TOL."""
    t = ev.time
    what = "GA" if ev.kind == "ga" else ev.kind
    group = sorted(ev.agents)
    n = len(trace.trajectories)
    xy = []
    for i in group:
        if not 0 <= i < n:
            _fail(f"{what} at {t} names agent {i}, not one of the {n} agents")
        try:
            xy.append(trace.trajectories[i].xy_at(t))
        except ValueError:
            _fail(f"{what} at {t}: agent {i} has no position, the time lies "
                  "outside its trajectory span")
    if len(ev.positions) != len(xy):
        _fail(f"{what} at {t} records {len(ev.positions)} positions for "
              f"{len(xy)} agents")
    # Positions are recorded in ev.agents order, which the engine sorts.
    listed = xy
    if list(ev.agents) != group:
        where = dict(zip(group, xy))
        listed = [where[i] for i in ev.agents]
    for i, (x, y), p in zip(ev.agents, listed, ev.positions):
        d = math.hypot(x - p.x, y - p.y)
        if not d <= POS_TOL:
            _fail(f"{what} at {t}: agent {i} recorded at ({p.x}, {p.y}), "
                  f"{d} from its trajectory")
    return group, xy


def _pair_separated(trace: Trace, i: int, j: int, t0: float,
                    t1: float, eps: float) -> bool:
    """Whether dist(i, j) exceeded eps + PROX_TOL somewhere in [t0, t1].

    Distance along straight legs is convex, so the maximum over an
    interval is attained at a trajectory breakpoint.  The engine parts a
    pair only beyond eps + SEPARATION_TOL, so a pair within eps + PROX_TOL
    throughout never left eps.  The walk stops at the first breakpoint
    farther apart than that.
    """
    ta, tb = trace.trajectories[i], trace.trajectories[j]
    cuts = sorted({*ta.breakpoint_times_between(t0, t1),
                   *tb.breakpoint_times_between(t0, t1), t0, t1})
    limit = eps + PROX_TOL
    for t in cuts:
        ax, ay = ta.xy_at(t)
        bx, by = tb.xy_at(t)
        if math.hypot(ax - bx, ay - by) > limit:
            return True
    return False


def check_event_positions(trace: Trace) -> None:
    """Each appear and stop event names one agent and records its
    trajectory position to within POS_TOL.  A stopped agent stays put:
    no later breakpoint of its trajectory, and so no point of its
    straight legs, lies more than POS_TOL from its stop position."""
    for ev in trace.events:
        if ev.kind == "appear" or ev.kind == "stop":
            if len(ev.agents) != 1:
                _fail(f"{ev.kind} at {ev.time} names {len(ev.agents)} "
                      "agents, not one")
            _event_xy(trace, ev)
            if ev.kind == "stop":
                i, p = ev.agents[0], ev.positions[0]
                traj = trace.trajectories[i]
                ts, xs, ys = traj.times, traj.xs, traj.ys
                for k in range(bisect_right(ts, ev.time), len(ts)):
                    d = math.hypot(xs[k] - p.x, ys[k] - p.y)
                    if not d <= POS_TOL:
                        _fail(f"agent {i} moves after its stop at "
                              f"{ev.time}: at {ts[k]} it is {d} from its "
                              "stop position")


def _spanning_tree(xy, limit: float):
    """Edges (a, b) of a tree grown from xy[0] over the points within
    limit of each other, or None if it does not reach them all."""
    unreached, stack, tree = list(range(1, len(xy))), [0], []
    while stack and unreached:
        a = stack.pop()
        (xa, ya), keep = xy[a], []
        for b in unreached:
            if math.hypot(xa - xy[b][0], ya - xy[b][1]) <= limit:
                tree.append((a, b))
                stack.append(b)
            else:
                keep.append(b)
        unreached = keep
    return None if unreached else tree


def check_ga_events(cfg: InitialConfiguration, trace: Trace) -> None:
    """GA groups are well formed, proximity-connected and contain a fresh
    contact.

    Well formed: a GA names each member once, with one recorded
    position, within POS_TOL of its trajectory, and one tag.

    Connectivity: at the event time the participants form one connected
    component of the within-eps graph.  Freshness: every GA has at least
    one pair meeting for the first time, or meeting again after the pair's
    distance exceeded eps + PROX_TOL since their previous common GA.  Pairs
    that stay adjacent may keep appearing in group events; what may not
    happen is a whole group re-firing with no new contact at all.

    No per-pair state is kept, only a GA index: per agent, the GAs that
    hold it and its _event_xy sample at each.  A pair found farther than
    eps + PROX_TOL at its last common GA, more than TIME_TOL back, is
    fresh without a walk: those samples are the floats the walk's first
    cut measures.  A spanning tree certifies connectivity: a GA with the
    previous GA's members re-measures its tree, and a new tree is grown
    only if an edge is no longer close.  Freshness tries first the close
    pairs of members that moved since their own last GA, nearest to eps
    first (a new contact starts at eps); then the other close pairs.  A
    pair its samples do not show fresh is walked at once.  The rule is
    that some close pair is fresh, so the order sets only the cost;
    non-movers are tried too, as an agent can leave and come back to the
    bit-identical point.
    """
    eps = cfg.epsilon
    eps_close = eps + GA_DIST_SLACK
    apart_limit = eps + PROX_TOL
    ga_times = []
    gas_of = [[] for _ in trace.trajectories]
    xys_of = [[] for _ in trace.trajectories]
    tree_group = tree = None
    for ev in trace.ga_events():
        t = ev.time
        group, xy = _event_xy(trace, ev)
        m = len(group)
        if len(set(group)) != m:
            _fail(f"GA at {t} names an agent twice: {ev.agents}")
        if len(ev.tags) != m:
            _fail(f"GA at {t} records {len(ev.tags)} tags for {m} agents")
        if m < 2:
            _fail(f"GA at {t} with fewer than two agents")
        if group != tree_group or any(
                math.hypot(xy[a][0] - xy[b][0], xy[a][1] - xy[b][1])
                > eps_close for a, b in tree):
            tree, tree_group = _spanning_tree(xy, eps_close), group
            if tree is None:
                _fail(f"GA at {t}: group {group} not proximity-connected")

        def fresh(a, b):
            # gi[p] == gj[q] is the pair's last common GA: each step
            # bisects one list below the other's entry.
            i, j = group[a], group[b]
            gi, gj = gas_of[i], gas_of[j]
            p, q = len(gi) - 1, len(gj) - 1
            while p >= 0 and q >= 0 and gi[p] != gj[q]:
                if gi[p] > gj[q]:
                    p = bisect_right(gi, gj[q], 0, p) - 1
                else:
                    q = bisect_right(gj, gi[p], 0, q) - 1
            if p < 0 or q < 0:
                return True
            prev = ga_times[gi[p]]
            if not t - prev > TIME_TOL:
                return False
            (xi, yi), (xj, yj) = xys_of[i][p], xys_of[j][q]
            return (math.hypot(xi - xj, yi - yj) > apart_limit
                    or _pair_separated(trace, i, j, prev, t, eps))

        movers, still, near = [], [], []
        for a, i in enumerate(group):
            moved = not xys_of[i] or xys_of[i][-1] != xy[a]
            (movers if moved else still).append(a)
        for k, a in enumerate(movers):
            xa, ya = xy[a]
            for b in movers[k + 1:] + still:
                d = math.hypot(xa - xy[b][0], ya - xy[b][1])
                if d <= eps_close:
                    near.append((abs(d - eps), a, b))
        if not (any(fresh(a, b) for _, a, b in sorted(near))
                or any(fresh(a, b)
                       for k, a in enumerate(still) for b in still[k + 1:]
                       if math.hypot(xy[a][0] - xy[b][0], xy[a][1] - xy[b][1])
                       <= eps_close)):
            _fail(f"GA at {t}: group {group} has no fresh contact")
        ga_times.append(t)
        for i, p in zip(group, xy):
            gas_of[i].append(len(ga_times) - 1)
            xys_of[i].append(p)


def check_orders(trace: Trace) -> None:
    """Each order follows its GA: the last GA before it in the log is at
    its time and holds its issuer.  Its recipients are that GA's members
    but the issuer that have no earlier stop event, in GA order, and its
    target is finite."""
    ga = None
    stopped = set()
    for ev in trace.events:
        if ev.kind == "ga":
            ga = ev
        elif ev.kind == "stop":
            stopped.update(ev.agents)
        elif ev.kind == "order":
            t = ev.time
            if ga is None or not abs(t - ga.time) <= TIME_TOL:
                _fail(f"order at {t} follows no GA at its time")
            if ev.issuer not in ga.agents:
                _fail(f"order at {t}: issuer {ev.issuer} is not in the GA "
                      f"{ga.agents}")
            expect = tuple([i for i in ga.agents
                            if i != ev.issuer and i not in stopped])
            if tuple(ev.agents) != expect:
                _fail(f"order at {t} is sent to {ev.agents}, not to the "
                      f"awake members of its GA but the issuer, {expect}")
            if ev.target is None or not is_finite_point(ev.target):
                _fail(f"order at {t} has a non-finite target {ev.target}")


def check_verdict(cfg: InitialConfiguration, trace: Trace) -> None:
    """The verdict matches where and when the run ended.

    A gathered or split verdict comes at the time the trajectories end.
    Every agent ends within 10 POS_TOL of a gathered verdict's point.
    The ends of a split run, chained by gaps of at most POS_TOL, form one
    cluster per group, at least two, and each group point lies within
    POS_TOL of a cluster no other group point is nearest to.  A timeout
    verdict comes at the time of the horizon event.
    """
    v = trace.verdict
    finals = trace.final_positions
    if len(finals) != cfg.n:
        _fail("final position count does not match agent count")
    # Written so that NaN fails each test.
    if v.kind == "gathered":
        if v.point is None:
            _fail("gathered verdict without a point")
        for idx, p in enumerate(finals):
            if not p.dist(v.point) <= POS_TOL * 10.0:
                _fail(f"gathered verdict but agent {idx} ended at {p}, "
                      f"{p.dist(v.point)} from {v.point}")
    elif v.kind == "split":
        if v.groups is None or len(v.groups) < 2:
            _fail("split verdict without at least two groups")
        clusters = cluster_points(finals)
        if len(clusters) != len(v.groups):
            _fail(f"split verdict groups: {len(v.groups)} points for "
                  f"{len(clusters)} clusters of trajectory ends")
        taken = set()
        for g in v.groups:
            if g is None:
                _fail("split verdict with a missing group point")
            d, c = min((min(g.dist(finals[i]) for i in comp), c)
                       for c, comp in enumerate(clusters))
            if not d <= POS_TOL or c in taken:
                _fail(f"split verdict group point {g} is not within "
                      "POS_TOL of a cluster of trajectory ends of its own")
            taken.add(c)
    elif v.kind == "timeout":
        horizons = [ev.time for ev in trace.events if ev.kind == "horizon"]
        if not horizons:
            _fail("timeout verdict without a horizon event")
        if not abs(v.time - horizons[-1]) <= TIME_TOL:
            _fail(f"timeout verdict time {v.time} is not the time of the "
                  f"horizon event, {horizons[-1]}")
    else:
        _fail(f"unknown verdict kind {v.kind!r}")
    if v.kind != "timeout":
        end = max(traj.end_time for traj in trace.trajectories)
        if not abs(v.time - end) <= TIME_TOL:
            _fail(f"{v.kind} verdict time {v.time} is not the time the "
                  f"trajectories end, {end}")


def check_trajectory_starts(cfg: InitialConfiguration,
                            trace: Trace) -> None:
    """Each trajectory begins at the agent's start point and time."""
    for idx, traj in enumerate(trace.trajectories):
        if not traj.times:
            _fail(f"agent {idx} has an empty trajectory")
        # Written so that NaN fails each test.
        if not abs(traj.start_time - cfg.times[idx]) <= TIME_TOL:
            _fail(f"agent {idx} trajectory starts at {traj.start_time}, "
                  f"appearance is {cfg.times[idx]}")
        if not traj.start_point.dist(cfg.starts[idx]) <= POS_TOL:
            _fail(f"agent {idx} trajectory starts away from its origin")


def check_all(cfg: InitialConfiguration, trace: Trace) -> None:
    check_event_times(trace)
    check_speeds(trace)
    check_trajectory_starts(cfg, trace)
    check_event_positions(trace)
    check_ga_events(cfg, trace)
    check_orders(trace)
    check_verdict(cfg, trace)
