"""Post-hoc validators for simulation traces.

Each checker raises CheckFailure with a descriptive message; check_all runs
the full battery.  These re-derive properties from the recorded
trajectories and event log rather than trusting engine internals, so they
double as an independent audit of a run.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from itertools import combinations

from .config import InitialConfiguration
from .engine import Trace, cluster_points
from .geometry import (BOUND_SLACK, CLOSING_SPEED, POS_TOL, PROX_TOL,
                       SEPARATION_TOL, SPEED_TOL, TIME_TOL, first_illegal_leg,
                       is_finite_point, solve_crossing_in, solve_crossing_out)

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


def _legs(traj):
    """A trajectory's columns, its leg velocities and its excess: how far
    its legs run, in sum, beyond (1 + SPEED_TOL) times their durations.
    Over any span s its path covers at most (1 + SPEED_TOL) s plus that."""
    ts, xs, ys = traj.times, traj.xs, traj.ys
    vxs, vys, excess = [], [], 0.0
    for t0, t1, x0, x1, y0, y1 in zip(ts, ts[1:], xs, xs[1:], ys, ys[1:]):
        dt = t1 - t0
        excess += max(0.0, math.hypot(x1 - x0, y1 - y0) - (1 + SPEED_TOL) * dt)
        vxs.append((x1 - x0) / dt if dt > 0.0 else 0.0)
        vys.append((y1 - y0) / dt if dt > 0.0 else 0.0)
    return ts, xs, ys, vxs, vys, excess


def _entries(a, b, j, t, end, skip, gas, eps):
    """The times in [t, end] at which agents a and b, as _legs, enter eps
    by the band rule; t is the later one's appearance, j b's index and gas
    the times and members of a's GAs.  The pair enters at t within eps +
    PROX_TOL.  Apart, it enters where its distance drops to eps, unless a
    GA of that window holds both and finds it within PROX_TOL of eps,
    before that root or while the pair grazes the circle after it: the
    first such GA takes the entry, be it an edge the engine joined there
    or a grazing root solved a hair off the engine's.  It parts only
    beyond eps + SEPARATION_TOL.  Apart at t, it goes on from skip.

    Windows end at the agents' breakpoints.  By conservative advancement
    (Mirtich, PhD thesis, Berkeley 1996) the walk jumps where the pair
    cannot reach the circle it solves for: its distance moves at most
    CLOSING_SPEED s plus both excesses over a span s, or its relative
    speed times s within a window, and BOUND_SLACK short of the circle
    the solvers find no root (see BOUND_SLACK in geometry)."""
    ta, xa, ya, ua, wa, ea = a
    tb, xb, yb, ub, wb, eb = b
    gts, held = gas
    sep = eps + SEPARATION_TOL
    out = []
    inside = None
    while True:
        ka = bisect_right(ta, t, 0, len(ta) - 1) - 1
        kb = bisect_right(tb, t, 0, len(tb) - 1) - 1
        rx = xb[kb] + ub[kb] * (t - tb[kb]) - xa[ka] - ua[ka] * (t - ta[ka])
        ry = yb[kb] + wb[kb] * (t - tb[kb]) - ya[ka] - wa[ka] * (t - ta[ka])
        d = math.hypot(rx, ry)
        if inside is None:
            inside = d <= eps + PROX_TOL
            if inside:
                out.append(t)
            elif skip > t:
                t = skip
                continue
        if t >= end:
            return out
        w = min(ta[ka + 1], tb[kb + 1], end)
        gap = (sep - d if inside else d - eps) - BOUND_SLACK
        if gap - ea - eb > CLOSING_SPEED * (w - t):
            t += (gap - ea - eb) / CLOSING_SPEED
            continue
        vx = ub[kb] - ua[ka]
        vy = wb[kb] - wa[ka]
        s = near = None
        if gap <= math.hypot(vx, vy) * (w - t):
            if inside:
                s = solve_crossing_out(rx, ry, vx, vy, sep, w - t)
            elif rx * vx + ry * vy < 0.0 or d <= eps + PROX_TOL:
                near = solve_crossing_in(rx, ry, vx, vy, eps + PROX_TOL,
                                         w - t)
        if near is not None:
            s = solve_crossing_in(rx, ry, vx, vy, eps, w - t)
            for g in range(bisect_left(gts, t + near), bisect_right(gts, w)):
                u = gts[g] - t
                if s is not None and u > s:
                    # Past the root only while the pair grazes the circle.
                    c = -(rx * vx + ry * vy) / ((vx * vx + vy * vy) or 1.0)
                    c = min(max(c, s), u)
                    if math.hypot(rx + vx * c, ry + vy * c) < eps - PROX_TOL:
                        break
                if j in held[g] and abs(math.hypot(rx + vx * u, ry + vy * u)
                                        - eps) <= PROX_TOL:
                    s = u
                    break
        if s is None:
            t = w
            continue
        t += s
        inside = not inside
        if inside:
            out.append(t)


def _translate(a, e, until: float) -> bool:
    """Whether trajectory a is trajectory e's path shifted by their origins
    and start times up to the time until: so shifted, a's breakpoints
    before until are e's first ones, and its place at until is e's, to
    TIME_TOL in time and POS_TOL / 2 in each coordinate, and e has no
    other breakpoint short of until by more than TIME_TOL."""
    ta, te = a.times[0], e.times[0]
    until = min(until, a.times[-1])
    k = bisect_left(a.times, until)
    if k == 0:
        return True
    if e.times[-1] - te < until - ta or bisect_left(
            e.times, te + (until - ta) - TIME_TOL) != k:
        return False
    xa, ya = a.xy_at(until)
    xe, ye = e.xy_at(te + (until - ta))
    for ca, ce, tol in ((a.times[:k], e.times[:k], TIME_TOL),
                        (a.xs[:k] + [xa], e.xs[:k] + [xe], POS_TOL / 2),
                        (a.ys[:k] + [ya], e.ys[:k] + [ye], POS_TOL / 2)):
        diff = list(map(operator.sub, ca, ce))
        if not -tol <= min(diff) - diff[0] <= max(diff) - diff[0] <= tol:
            return False
    return True


def check_ga_events(cfg: InitialConfiguration, trace: Trace) -> None:
    """GA groups are well formed and proximity-connected, and every
    meeting of the engine's band rule has its GA.

    Well formed: a GA names each member once, with one recorded
    position, within POS_TOL of its trajectory, and one tag.
    Connectivity: at the event time the members form one connected
    component of the within-eps graph, certified by a spanning tree.  A
    GA with the previous GA's members re-measures that tree; a new tree
    is grown only if an edge is no longer close.

    Meetings: each pair is walked for its entries (see _entries) over
    its common span, up to a timed-out run's horizon.  The first GA that
    holds both agents at an entry's time, to within TIME_TOL, claims it;
    every entry is claimed, and every GA claims one no GA claimed before.

    Before the first GA the walk skips a pair that the paper's symmetry
    argument proves apart, where _translate shows both paths to be the
    earliest agent e's, shifted.  Pair (i, j), t_i <= t_j, is sure when
    d_ij - (1 + SPEED_TOL) (t_j - t_i) > eps + BOUND_SLACK + 2 POS_TOL +
    3 x_e, d_ij the distance of their starts and x_e e's excess (see
    _legs).  Term by term: p_j(t) - p_i(t) is d_ij's vector, plus e's
    displacement from t - t_j to t - t_i after its start, at most
    (1 + SPEED_TOL) (t_j - t_i) + x_e, plus two translate errors.  Each
    is at most sqrt(2) POS_TOL / 2 on matched legs, plus e's path over
    the TIME_TOL their breakpoints may differ by, below POS_TOL + x_e.
    So until the first GA the pair is beyond eps + BOUND_SLACK, where it
    neither appears nor meets a GA near eps, nor has a solver root.
    """
    eps = cfg.epsilon
    eps_close = eps + GA_DIST_SLACK
    trajs = trace.trajectories
    gas = trace.ga_events()
    gas_of = [[] for _ in trajs]
    tree_group = tree = None
    for k, ev in enumerate(gas):
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
        for i in group:
            gas_of[i].append(k)
    held = [set(ev.agents) for ev in gas]
    gas_of = [(ks, [gas[k].time for k in ks], [held[k] for k in ks])
              for ks in gas_of]
    first = gas[0].time if gas else math.inf
    e = min(range(len(trajs)), key=lambda i: trajs[i].times[0])
    legs = {e: _legs(trajs[e])}
    reach = eps + BOUND_SLACK + 2 * POS_TOL + 3 * legs[e][5]
    shifted = [_translate(traj, trajs[e], first) for traj in trajs]
    stop = min([ev.time for ev in trace.events if ev.kind == "horizon"],
               default=math.inf)
    claimed = [False] * len(gas)
    for i, j in combinations(range(len(trajs)), 2):
        a, b = trajs[i], trajs[j]
        t = max(a.times[0], b.times[0])
        end = min(a.times[-1], b.times[-1], stop)
        skip = first if shifted[i] and shifted[j] and math.hypot(
            a.xs[0] - b.xs[0], a.ys[0] - b.ys[0]) - (1 + SPEED_TOL) * abs(
            a.times[0] - b.times[0]) > reach else -math.inf
        if t > end or skip >= end:
            continue
        for k in (i, j):
            if k not in legs:
                legs[k] = _legs(trajs[k])
        ks, gts, sets = gas_of[i]
        for s in _entries(legs[i], legs[j], j, t, end, skip, (gts, sets),
                          eps):
            p = bisect_left(gts, s - TIME_TOL)
            while p < len(gts) and gts[p] <= s + TIME_TOL and j not in sets[p]:
                p += 1
            if not (p < len(gts) and gts[p] <= s + TIME_TOL):
                _fail(f"agents {i} and {j} come within eps at {s}, and no "
                      "GA then holds both")
            claimed[ks[p]] = True
    for ev, ok in zip(gas, claimed):
        if not ok:
            _fail(f"GA at {ev.time}: group {sorted(ev.agents)} has no fresh "
                  "contact")


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
