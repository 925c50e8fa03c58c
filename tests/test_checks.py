"""The trace checker's GA audit on real and doctored traces."""

import dataclasses
import math
from bisect import bisect_left, bisect_right
from itertools import combinations

import pytest

from gathersim import checks
from gathersim.algorithms import gather_n_program
from gathersim.checks import (GA_DIST_SLACK, CheckFailure, _fail,
                              check_all, check_ga_events, check_speeds)
from gathersim.config import InitialConfiguration
from gathersim.engine import (Event, Program, ProximityGraph, Trace, Verdict,
                              connected_components, run)
from gathersim.generate import good_config, ungatherable_config
from gathersim.geometry import (POS_TOL, PROX_TOL, TIME_TOL, Point,
                                Trajectory)


# -- Reference: check_ga_events as it was before it kept per-pair state --

def _ref_group_positions(trace: Trace, group, t: float) -> dict[int, Point]:
    return {i: trace.trajectories[i].position_at(t) for i in group}


def _ref_pair_separated(trace: Trace, i: int, j: int, t0: float,
                        t1: float, eps: float) -> bool:
    """Whether dist(i, j) exceeded eps + PROX_TOL somewhere in [t0, t1].

    Distance along straight legs is convex, so the maximum over an
    interval is attained at a trajectory breakpoint.
    """
    ta, tb = trace.trajectories[i], trace.trajectories[j]
    cuts = sorted({*(t for traj in (ta, tb) for t in traj.times[
        bisect_right(traj.times, t0):bisect_left(traj.times, t1)]), t0, t1})
    best = max(ta.position_at(t).dist(tb.position_at(t)) for t in cuts)
    return best > eps + PROX_TOL


def reference_check_ga_events(cfg: InitialConfiguration,
                              trace: Trace) -> None:
    """GA groups are proximity-connected and contain a fresh contact.

    Connectivity: at the event time the participants form one connected
    component of the within-eps graph.  Freshness: every GA has at least
    one pair meeting for the first time, or meeting again after the pair's
    distance exceeded eps + PROX_TOL since their previous common GA.  Pairs
    that stay adjacent may keep appearing in group events; what may not
    happen is a whole group re-firing with no new contact at all.
    """
    eps = cfg.epsilon
    last_meeting: dict[tuple[int, int], float] = {}
    for ev in trace.ga_events():
        group = sorted(ev.agents)
        pos = _ref_group_positions(trace, group, ev.time)
        if len(group) < 2:
            _fail(f"GA at {ev.time} with fewer than two agents")
        close = [(i, j) for i, j in combinations(group, 2)
                 if pos[i].dist(pos[j]) <= eps + GA_DIST_SLACK]
        nbr = {i: [] for i in group}
        for i, j in close:
            nbr[i].append(j)
            nbr[j].append(i)
        if connected_components(nbr, group) != [tuple(sorted(nbr))]:
            _fail(f"GA at {ev.time}: group {group} not proximity-connected")

        fresh = False
        for i, j in close:
            prev = last_meeting.get((i, j))
            if prev is None:
                fresh = True
            elif ev.time - prev > TIME_TOL and \
                    _ref_pair_separated(trace, i, j, prev, ev.time, eps):
                fresh = True
            if fresh:
                break
        if not fresh:
            _fail(f"GA at {ev.time}: group {group} has no fresh contact")
        for i, j in combinations(group, 2):
            last_meeting[(i, j)] = ev.time


# -- Helpers --

def _outcome(check, cfg, trace):
    try:
        check(cfg, trace)
    except Exception as exc:  # the reference may leak ValueError
        return type(exc).__name__, str(exc)
    return "pass"


def _kind(outcome) -> str:
    """"pass", or the kind of GA failure named at the end of its message."""
    if outcome == "pass":
        return outcome
    for kind in ("no fresh contact", "not proximity-connected",
                 "fewer than two agents", "no GA then holds both"):
        if outcome[1].endswith(kind):
            return kind
    return outcome[1]


def _with_gas(trace: Trace, gas: list[Event]) -> Trace:
    """trace with its GA events replaced by gas, other events kept.

    Events are sorted by time, and within an instant they keep the log's
    order, so an order still follows its GA: a GA of the trace keeps its
    place, and a new GA at place p of gas takes the place of the trace's
    GA p.
    """
    events = trace.events
    place = {id(ev): k for k, ev in enumerate(events)}
    ga_places = [k for k, ev in enumerate(events) if ev.kind == "ga"]
    keyed = [(ev.time, k, ev) for k, ev in enumerate(events)
             if ev.kind != "ga"]
    for p, ev in enumerate(gas):
        k = place.get(id(ev), ga_places[min(p, len(ga_places) - 1)])
        keyed.append((ev.time, k, ev))
    keyed.sort(key=lambda item: item[:2])
    return dataclasses.replace(trace, events=[ev for *_, ev in keyed])


def _positions_at(trace: Trace, agents, t: float) -> tuple[Point, ...]:
    return tuple(Point(*trace.trajectories[i].xy_at(t)) for i in agents)


def _doctored(trace: Trace):
    """(label, trace) for one-GA edits at the first, middle and last GA.

    Each edited GA stays well formed: a shifted GA records its members
    where they are at the new time, and a dropped member takes its
    position and tag along.  The reference reads neither, so only the
    GA rules, not the format checks, tell the two checkers apart.
    """
    gas = trace.ga_events()
    for k in sorted({0, len(gas) // 2, len(gas) - 1}):
        ev = gas[k]
        yield f"delete {k}", _with_gas(trace, gas[:k] + gas[k + 1:])
        yield f"duplicate {k}", _with_gas(trace, gas[:k + 1] + gas[k:])
        for dt in (-1e-3, 1e-3):
            t = ev.time + dt
            try:
                positions = _positions_at(trace, ev.agents, t)
            except ValueError:  # t lies outside a trajectory
                positions = ev.positions
            moved = dataclasses.replace(ev, time=t, positions=positions)
            yield (f"shift {k} by {dt}",
                   _with_gas(trace, gas[:k] + [moved] + gas[k + 1:]))
        for m in sorted({0, len(ev.agents) - 1}):
            fewer = dataclasses.replace(
                ev, agents=ev.agents[:m] + ev.agents[m + 1:],
                positions=ev.positions[:m] + ev.positions[m + 1:],
                tags=ev.tags[:m] + ev.tags[m + 1:])
            yield (f"drop member {m} of {k}",
                   _with_gas(trace, gas[:k] + [fewer] + gas[k + 1:]))


# -- Real traces, doctored one GA at a time --

RUNS = [(0, 3), (1, 4), (2, 5), (3, 6)]


@pytest.fixture(scope="module")
def real_runs():
    out = []
    for seed, n in RUNS:
        cfg = good_config(seed, n)
        out.append((cfg, run(cfg, gather_n_program(n))))
    return out


def test_real_traces_pass_both_checkers(real_runs):
    for cfg, trace in real_runs:
        assert trace.ga_events()
        assert _outcome(reference_check_ga_events, cfg, trace) == "pass"
        assert _outcome(check_ga_events, cfg, trace) == "pass"


def test_doctored_traces_match_reference(real_runs):
    # The band walk fails every trace the reference fails.  It also
    # fails a trace with a GA deleted or moved by 1e-3, which the
    # reference's freshness rule lets pass: a meeting then has no GA.  A
    # GA without a member the reference passes fails too if that member
    # met another one there.
    seen = set()
    for cfg, trace in real_runs:
        for label, doctored in _doctored(trace):
            want = _outcome(reference_check_ga_events, cfg, doctored)
            got = _outcome(check_ga_events, cfg, doctored)
            if want != "pass" or label.startswith(("delete", "shift")):
                assert got != "pass", label
                assert got[0] == "CheckFailure", label
            elif label.startswith("drop member"):
                assert _kind(got) in ("pass", "no GA then holds both"), label
            else:
                assert got == "pass", label
            seen.add(_kind(got))
    assert seen >= {"pass", "no fresh contact", "not proximity-connected",
                    "no GA then holds both"}


# Wider teams: GAs of the whole team that repeat their predecessor's
# members, so the audit reuses spanning trees and tries movers first.
WIDE_RUNS = [(0, 8), (1, 8), (0, 16), (1, 16)]


@pytest.fixture(scope="module")
def wide_runs():
    out = []
    for seed, n in WIDE_RUNS:
        cfg = good_config(seed, n)
        out.append((cfg, run(cfg, gather_n_program(n))))
    return out


def test_doctored_wide_traces_match_reference(wide_runs):
    whole = False
    for cfg, trace in wide_runs:
        gas = trace.ga_events()
        repeats = [b for a, b in zip(gas, gas[1:]) if a.agents == b.agents]
        assert repeats
        whole = whole or any(len(b.agents) == cfg.n for b in repeats)
    assert whole
    test_doctored_traces_match_reference(wide_runs)


def _edited(trace):
    """(label, trace) for every single GA of trace deleted, duplicated,
    or moved by 1e-3 either way with its positions sampled again."""
    gas = trace.ga_events()
    for k, ev in enumerate(gas):
        yield f"delete {k}", _with_gas(trace, gas[:k] + gas[k + 1:])
        yield f"duplicate {k}", _with_gas(trace, gas[:k + 1] + gas[k:])
        for dt in (-1e-3, 1e-3):
            t = ev.time + dt
            try:
                moved = dataclasses.replace(
                    ev, time=t, positions=_positions_at(trace, ev.agents, t))
            except ValueError:  # t lies outside a trajectory
                continue
            yield (f"shift {k} by {dt}",
                   _with_gas(trace, gas[:k] + [moved] + gas[k + 1:]))


def test_every_single_ga_edit_is_a_check_failure(real_runs, wide_runs):
    for cfg, trace in real_runs + wide_runs:
        check_all(cfg, trace)
        for label, edited in _edited(trace):
            with pytest.raises(CheckFailure):
                check_all(cfg, edited)


def test_missing_first_ga_is_a_check_failure():
    # The band walk finds the first meeting, and no GA records it.
    for seed in range(6):
        cfg = good_config(seed, 4)
        trace = run(cfg, gather_n_program(4))
        gas = trace.ga_events()
        with pytest.raises(CheckFailure):
            check_all(cfg, _with_gas(trace, gas[1:]))


def test_ga_past_trajectory_end_is_a_check_failure(real_runs):
    cfg, trace = real_runs[0]
    end = max(traj.end_time for traj in trace.trajectories)
    late = Event(end + 1.0, "ga", tuple(range(cfg.n)))
    doctored = dataclasses.replace(trace, events=trace.events + [late])
    with pytest.raises(CheckFailure) as err:
        check_all(cfg, doctored)
    assert str(err.value) == (f"GA at {end + 1.0}: agent 0 has no position, "
                              "the time lies outside its trajectory span")


def _malformed(case: str, cfg, trace) -> tuple[list[Event], str]:
    """trace's GAs with one made malformed, and the failure check_all
    must give.  Unless the case says otherwise, the first GA is edited."""
    gas = trace.ga_events()
    ev = gas[0]
    t, m = ev.time, len(ev.agents)
    if case == "self pair":
        # A GA of agent 0 with itself, recorded where agent 0 is.
        t += 0.5
        odd = Event(t, "ga", (0, 0), _positions_at(trace, (0, 0), t),
                    ("x", "x"))
        return gas + [odd], f"GA at {t} names an agent twice: (0, 0)"
    if case == "repeated member of the last GA":
        ev = gas[-1]
        odd = dataclasses.replace(ev, agents=ev.agents + ev.agents[-1:],
                                  positions=ev.positions + ev.positions[-1:],
                                  tags=ev.tags + ev.tags[-1:])
        return gas[:-1] + [odd], (f"GA at {ev.time} names an agent twice: "
                                  f"{odd.agents}")
    if case.startswith("unknown agent"):
        bad = cfg.n if case.endswith("n") else -1
        odd = dataclasses.replace(ev, agents=ev.agents + (bad,),
                                  positions=ev.positions + ev.positions[:1],
                                  tags=ev.tags + ev.tags[:1])
        message = f"GA at {t} names agent {bad}, not one of the {cfg.n} agents"
    elif case == "one position short":
        odd = dataclasses.replace(ev, positions=ev.positions[:-1])
        message = f"GA at {t} records {m - 1} positions for {m} agents"
    elif case == "one tag short":
        odd = dataclasses.replace(ev, tags=ev.tags[:-1])
        message = f"GA at {t} records {m - 1} tags for {m} agents"
    else:
        assert case == "one tag too many"
        odd = dataclasses.replace(ev, tags=ev.tags + ("x",))
        message = f"GA at {t} records {m + 1} tags for {m} agents"
    return [odd] + gas[1:], message


@pytest.mark.parametrize("case", [
    "unknown agent n", "unknown agent -1", "self pair",
    "repeated member of the last GA", "one position short", "one tag short",
    "one tag too many"])
def test_malformed_ga_is_a_check_failure(real_runs, case):
    cfg, trace = real_runs[0]
    gas, message = _malformed(case, cfg, trace)
    with pytest.raises(CheckFailure) as err:
        check_all(cfg, _with_gas(trace, gas))
    assert str(err.value) == message


def test_ga_positions_pair_with_agents_in_listed_order(real_runs):
    # A GA may list its members in any order; its k-th position and tag
    # belong to its k-th agent, not to the k-th smallest.
    cfg, trace = real_runs[1]
    gas = trace.ga_events()
    ev = next(ev for ev in gas
              if ev.positions[0].dist(ev.positions[-1]) > 0.1)
    k = gas.index(ev)
    flipped = dataclasses.replace(ev, agents=ev.agents[::-1],
                                  positions=ev.positions[::-1],
                                  tags=ev.tags[::-1])
    check_all(cfg, _with_gas(trace, gas[:k] + [flipped] + gas[k + 1:]))
    crossed = dataclasses.replace(flipped, positions=ev.positions)
    with pytest.raises(CheckFailure, match="from its trajectory"):
        check_all(cfg, _with_gas(trace, gas[:k] + [crossed] + gas[k + 1:]))


@pytest.mark.parametrize("kind", ["ga", "appear", "stop"])
def test_moved_event_position_is_a_check_failure(real_runs, kind):
    cfg, trace = real_runs[0]
    check_all(cfg, trace)
    k = next(k for k, ev in enumerate(trace.events) if ev.kind == kind)
    ev = trace.events[k]
    p = ev.positions[-1]
    moved = Point(p.x + 1e-3, p.y)
    events = list(trace.events)
    events[k] = dataclasses.replace(
        ev, positions=ev.positions[:-1] + (moved,))
    with pytest.raises(CheckFailure) as err:
        check_all(cfg, dataclasses.replace(trace, events=events))
    x, y = trace.trajectories[ev.agents[-1]].xy_at(ev.time)
    label = "GA" if kind == "ga" else kind
    assert str(err.value) == (
        f"{label} at {ev.time}: agent {ev.agents[-1]} recorded at "
        f"({moved.x}, {moved.y}), {math.hypot(x - moved.x, y - moved.y)} "
        "from its trajectory")


def test_segment_at_speed_two_is_a_check_failure():
    # Trajectory refuses such a leg, so it is put in after the run: one
    # more breakpoint in agent 1's columns, 2 away after 1 time unit.
    cfg = good_config(0, 3)
    trace = run(cfg, gather_n_program(3))
    k = 1
    traj = trace.trajectories[k]
    traj.times.append(traj.times[-1] + 1.0)
    traj.xs.append(traj.xs[-1] + 2.0)
    traj.ys.append(traj.ys[-1])
    for check in (check_speeds, lambda t: check_all(cfg, t)):
        with pytest.raises(CheckFailure) as err:
            check(trace)
        assert str(err.value) == f"agent {k} segment at speed 2.0"


@pytest.mark.parametrize("tail", [
    # Agent 1 stays put, but its trajectory goes back half a time unit
    # and forward again: no leg is fast, yet time steps back.
    [(-0.5, 0.0), (0.0, 0.0)],
    # The step back is followed by legs at speed 2 and 3; it comes first
    # and is named.
    [(-0.5, 0.0), (0.5, 2.0), (1.5, 5.0)]],
    ids=["back-and-forth", "before-fast-legs"])
def test_step_back_is_a_check_failure(tail):
    # tail: (time, x) of breakpoints after agent 1's end, relative to it.
    cfg = good_config(0, 3)
    trace = run(cfg, gather_n_program(3))
    k = 1
    traj = trace.trajectories[k]
    t, x, y = traj.times[-1], traj.xs[-1], traj.ys[-1]
    for dt, dx in tail:
        traj.times.append(t + dt)
        traj.xs.append(x + dx)
        traj.ys.append(y)
    for check in (check_speeds, lambda tr: check_all(cfg, tr)):
        with pytest.raises(CheckFailure) as err:
            check(trace)
        assert str(err.value) \
            == f"agent {k} trajectory time steps back from {t} to {t - 0.5}"


def test_final_positions_are_the_trajectory_ends():
    # One more unit-speed leg takes agent 1 two units east after the run:
    # it no longer ends at the gathering point, and the verdict fails.
    # Agent 1 stopped before, so check_all fails first at its stop.
    cfg = good_config(0, 3)
    trace = run(cfg, gather_n_program(3))
    assert trace.verdict.kind == "gathered"
    check_all(cfg, trace)
    k = 1
    traj = trace.trajectories[k]
    traj.times.append(traj.times[-1] + 2.0)
    traj.xs.append(traj.xs[-1] + 2.0)
    traj.ys.append(traj.ys[-1])
    assert trace.final_positions[k] == traj.end_point
    with pytest.raises(CheckFailure,
                       match=f"^gathered verdict but agent {k} ended at "):
        checks.check_verdict(cfg, trace)
    with pytest.raises(CheckFailure,
                       match=f"^agent {k} moves after its stop at "):
        check_all(cfg, trace)


def test_move_after_stop_is_a_check_failure():
    # Agent 2 stops at t ~ 20.44 and rests until the run ends at ~ 176.1.
    # A unit-speed leg 1 south and back in place of the start of that
    # rest keeps every speed legal and every event position right.
    cfg = good_config(0, 3)
    trace = run(cfg, gather_n_program(3))
    check_all(cfg, trace)
    k = 2
    stop = next(ev for ev in trace.events
                if ev.kind == "stop" and ev.agents == (k,))
    traj = trace.trajectories[k]
    ts, xs, ys = list(traj.times), list(traj.xs), list(traj.ys)
    b = ts.index(stop.time) + 1
    assert b == len(ts) - 1 and ts[b] > stop.time + 2.0
    x, y = xs[b], ys[b]
    ts[b:b] = [stop.time + 1.0, stop.time + 2.0]
    xs[b:b] = [x, x]
    ys[b:b] = [y - 1.0, y]
    trajectories = list(trace.trajectories)
    trajectories[k] = Trajectory(ts, xs, ys)
    doctored = dataclasses.replace(trace, trajectories=tuple(trajectories))
    with pytest.raises(CheckFailure) as err:
        check_all(cfg, doctored)
    p = stop.positions[0]
    assert str(err.value) == (
        f"agent {k} moves after its stop at {stop.time}: at "
        f"{stop.time + 1.0} it is {math.hypot(x - p.x, y - 1.0 - p.y)} "
        "from its stop position")


def _verdict_case(case: str):
    """A real run, its verdict doctored by case, and the failure check_all
    must give."""
    if case == "timeout at 7":
        cfg = ungatherable_config(0, 4)
        trace = run(cfg, gather_n_program(4), horizon=50.0)
        assert trace.verdict == Verdict("timeout", 50.0)
        return cfg, trace, Verdict("timeout", 7.0), (
            "timeout verdict time 7.0 is not the time of the horizon "
            "event, 50.0")
    cfg = good_config(0, 3)
    trace = run(cfg, gather_n_program(3))
    v = trace.verdict
    assert v.kind == "gathered"
    if case == "gathered at -5":
        return cfg, trace, dataclasses.replace(v, time=-5.0), (
            f"gathered verdict time -5.0 is not the time the trajectories "
            f"end, {v.time}")
    assert case == "split far away"
    groups = (Point(100.0, 100.0), Point(-100.0, 5.0))
    return cfg, trace, Verdict("split", v.time, groups=groups), (
        "split verdict groups: 2 points for 1 clusters of trajectory ends")


@pytest.mark.parametrize("case", [
    "split far away", "timeout at 7", "gathered at -5"])
def test_doctored_verdict_is_a_check_failure(case):
    cfg, trace, verdict, message = _verdict_case(case)
    check_all(cfg, trace)
    with pytest.raises(CheckFailure) as err:
        check_all(cfg, dataclasses.replace(trace, verdict=verdict))
    assert str(err.value) == message


@pytest.mark.parametrize("point", [
    Point(math.nan, math.nan), Point(math.nan, 0.0), None],
    ids=["nan-nan", "nan-0", "none"])
def test_gathered_verdict_without_a_finite_point_is_a_check_failure(point):
    # A NaN distance is not within 10 POS_TOL, and a gathered verdict
    # without a point is a failed check, not an AttributeError.
    cfg = good_config(0, 3)
    trace = run(cfg, gather_n_program(3))
    v = trace.verdict
    assert v.kind == "gathered"
    with pytest.raises(CheckFailure) as err:
        check_all(cfg, dataclasses.replace(
            trace, verdict=dataclasses.replace(v, point=point)))
    end = trace.final_positions[0]
    assert str(err.value) == (
        "gathered verdict without a point" if point is None else
        f"gathered verdict but agent 0 ended at {end}, nan from {point}")


@pytest.mark.parametrize("x, y", [(math.nan, math.nan), (math.nan, 0.0)])
def test_trajectory_that_starts_with_a_nan_sliver_is_a_check_failure(x, y):
    # A breakpoint at the start time, at a NaN point, is a sliver that
    # the speed rule lets pass; the trajectory does not start at its
    # agent's origin.
    cfg = good_config(0, 3)
    trace = run(cfg, gather_n_program(3))
    traj = trace.trajectories[0]
    ts, xs, ys = traj.times, traj.xs, traj.ys
    sliver = Trajectory([ts[0]] + ts, [x] + xs, [y] + ys)
    doctored = dataclasses.replace(
        trace, trajectories=(sliver,) + trace.trajectories[1:])
    with pytest.raises(CheckFailure) as err:
        checks.check_trajectory_starts(cfg, doctored)
    assert str(err.value) == "agent 0 trajectory starts away from its origin"


def test_split_groups_match_the_clusters_of_trajectory_ends():
    # Two still agents 3 apart, eps = 1: the run ends at once, split.
    # Each group point must lie within POS_TOL of its own cluster.
    cfg = InitialConfiguration(1.0, (Point(0, 0), Point(3, 0)), (0.0, 0.0))
    trace = run(cfg, Program)
    v = trace.verdict
    assert v.kind == "split" and v.groups == (Point(0, 0), Point(3, 0))
    check_all(cfg, trace)
    moved = (Point(0, 0), Point(3, 2 * POS_TOL))
    for groups in [(Point(0, POS_TOL / 2), Point(3, 0)), v.groups[::-1]]:
        check_all(cfg, dataclasses.replace(
            trace, verdict=dataclasses.replace(v, groups=groups)))
    for groups in [moved, (Point(0, 0), Point(0, 0))]:
        with pytest.raises(CheckFailure) as err:
            check_all(cfg, dataclasses.replace(
                trace, verdict=dataclasses.replace(v, groups=groups)))
        assert str(err.value) == (
            f"split verdict group point {groups[1]} is not within POS_TOL "
            "of a cluster of trajectory ends of its own")


def test_split_verdict_with_a_missing_group_point_is_a_check_failure():
    cfg = InitialConfiguration(1.0, (Point(0, 0), Point(3, 0)), (0.0, 0.0))
    trace = run(cfg, Program)
    v = trace.verdict
    assert v.kind == "split"
    with pytest.raises(CheckFailure) as err:
        check_all(cfg, dataclasses.replace(
            trace, verdict=dataclasses.replace(v, groups=(v.groups[0], None))))
    assert str(err.value) == "split verdict with a missing group point"


# -- Hand-made traces, one per path of the band walk --

# eps = 1.  Agent 0 waits at the origin.  Agent 1 walks south from
# (1 + H, 3) to (1 + H, 0), which it reaches at t = 3 moving across the
# line to agent 0, and rests there until t = 4 at distance eps + H,
# within eps + PROX_TOL.  It then walks west, reaching eps at 4 + H and
# 0.5 at 4.5 + H, east to 3 by 7 + H, leaving the band on the way, and
# west again to 0.5 by 9.5 + H, reaching eps at 9 + H.  It waits there
# until t = 10.
EPS = 1.0
H = 5e-10
HAND_CFG = InitialConfiguration(EPS, (Point(0, 0), Point(1 + H, 3)),
                                (0.0, 0.0))


def _hand_trace(ga_times) -> Trace:
    waits = Trajectory([0.0, 10.0], [0.0, 0.0], [0.0, 0.0])
    walks = Trajectory([0.0, 3.0, 4.0, 4.5 + H, 7.0 + H, 9.5 + H, 10.0],
                       [1.0 + H, 1.0 + H, 1.0 + H, 0.5, 3.0, 0.5, 0.5],
                       [3.0] + [0.0] * 6)
    trace = Trace(events=[], final_tags=("", ""), trajectories=(waits, walks),
                  verdict=Verdict("timeout", 10.0))
    trace.events = [Event(t, "ga", (0, 1), _positions_at(trace, (0, 1), t),
                          ("", "")) for t in ga_times]
    return trace


def _walked(monkeypatch) -> list[float]:
    """The entry times the band walks of check_ga_events find."""
    walked = []
    walk = checks._entries

    def recorded(*args):
        out = walk(*args)
        walked.extend(out)
        return out

    monkeypatch.setattr(checks, "_entries", recorded)
    return walked


@pytest.mark.parametrize("ga_times, walked, result", [
    # A GA at each entry.
    ([4.0 + H, 9.0 + H], [4.0 + H, 9.0 + H], "pass"),
    # A GA in the rest finds the pair within PROX_TOL of eps: it takes the
    # contact, and the walk west from t = 4 makes no entry.
    ([3.5, 9.0 + H], [3.5, 9.0 + H], "pass"),
    # A GA TIME_TOL / 2 after the root finds the pair within PROX_TOL of
    # eps too, and the entry is at the GA.
    ([4.0 + H + TIME_TOL / 2, 9.0 + H], [4.0 + H + TIME_TOL / 2, 9.0 + H],
     "pass"),
    # At 4.2 the pair is 0.8 apart and entered at 4 + H.
    ([4.0 + H, 4.2, 9.0 + H], [4.0 + H, 9.0 + H], "no fresh contact"),
    # Nothing between 9 + H and 9.8 parts the pair.
    ([4.0 + H, 9.0 + H, 9.8], [4.0 + H, 9.0 + H], "no fresh contact"),
    # A GA repeated at its instant, or TIME_TOL / 2 later, claims the
    # entry its first copy claimed.
    ([4.0 + H, 4.0 + H, 9.0 + H], [4.0 + H, 9.0 + H], "no fresh contact"),
    ([4.0 + H, 4.0 + H + TIME_TOL / 2, 9.0 + H], [4.0 + H, 9.0 + H],
     "no fresh contact"),
])
def test_freshness_paths(monkeypatch, ga_times, walked, result):
    entries = _walked(monkeypatch)
    got = _outcome(check_ga_events, HAND_CFG, _hand_trace(ga_times))
    assert _kind(got) == result
    assert entries == pytest.approx(walked, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("ga_times, missed", [
    ([9.0 + H], 4.0 + H), ([4.0 + H], 9.0 + H),
    # A GA 1e-3 late finds the pair 1e-3 inside eps.
    ([4.0 + H + 1e-3, 9.0 + H], 4.0 + H)])
def test_meeting_without_its_ga_is_a_check_failure(ga_times, missed):
    with pytest.raises(CheckFailure) as err:
        check_ga_events(HAND_CFG, _hand_trace(ga_times))
    message = str(err.value)
    assert message.startswith("agents 0 and 1 come within eps at ")
    assert message.endswith(", and no GA then holds both")
    at = float(message.split(" at ")[1].split(",")[0])
    assert at == pytest.approx(missed, rel=0.0, abs=1e-12)


def _line_trace(paths, ga_times) -> Trace:
    """Agents each on paths[i] = (times, xs), or (times, xs, ys) off the
    x axis, and a GA of them all at each of ga_times."""
    trajs = tuple(Trajectory(ts, xs, ys[0] if ys else [0.0] * len(ts))
                  for ts, xs, *ys in paths)
    agents = tuple(range(len(trajs)))
    trace = Trace(events=[], final_tags=("",) * len(agents),
                  trajectories=trajs, verdict=Verdict("timeout", 10.0))
    trace.events = [Event(t, "ga", agents, _positions_at(trace, agents, t),
                          ("",) * len(agents)) for t in ga_times]
    return trace


@pytest.mark.parametrize("x2, result", [
    # Agent 2 ends 1 + 2 GA_DIST_SLACK right of agent 0, within eps of
    # agent 1: the chain 0-1-2 still connects the group.
    (1.0 + 2 * GA_DIST_SLACK, "pass"),
    # It ends as far left of agent 0, 1.05 from agent 1: no chain does.
    (-1.0 - 2 * GA_DIST_SLACK, "not proximity-connected"),
])
def test_repeat_ga_remeasures_its_spanning_tree(x2, result):
    # Agents 0 and 1 wait at x = 0 and 0.05.  At the first GA, at t = 0,
    # agent 2 waits at -0.9 and agent 3 at (0, 1), so the tree grown from
    # agent 0 holds the edges 0-1, 0-2 and 0-3.  Agent 2 then walks to
    # x2, which stretches the edge 0-2 past eps + GA_DIST_SLACK by the
    # second GA, of the same members.  Agent 3 walks out to (0, 3) and
    # back, and meets agent 0 again at that GA.
    walk = abs(x2 + 0.9)
    trace = _line_trace([([0.0, 10.0], [0.0, 0.0]),
                         ([0.0, 10.0], [0.05, 0.05]),
                         ([0.0, 1.0, 1.0 + walk, 10.0],
                          [-0.9, -0.9, x2, x2]),
                         ([0.0, 2.0, 3.0, 5.0, 10.0], [0.0] * 5,
                          [1.0, 3.0, 3.0, 1.0, 1.0])], [0.0, 5.0])
    want = _outcome(reference_check_ga_events, HAND_CFG, trace)
    got = _outcome(check_ga_events, HAND_CFG, trace)
    assert got == want
    assert _kind(got) == result


@pytest.mark.parametrize("excursion, walked, result", [
    # Agent 1 walks out to x = 2, 2 from agent 0, and back: it meets
    # agent 0 again at 3.5 and agent 2 at 4.
    (True, [0.0, 3.5, 0.0, 0.0, 4.0], "pass"),
    # The same trace with agent 1 waiting throughout meets no one again.
    (False, [0.0, 0.0, 0.0], "no fresh contact"),
])
def test_returner_is_fresh_by_the_walk(monkeypatch, excursion, walked,
                                       result):
    # Agents 0 and 2 wait at x = 0 and -0.5, and every pair meets at its
    # appearance.  Agent 1 is at 0.5 at t = 0 and at each GA.
    entries = _walked(monkeypatch)
    returner = (([0.0, 1.0, 2.5, 4.0, 10.0], [0.5, 0.5, 2.0, 0.5, 0.5])
                if excursion else ([0.0, 10.0], [0.5, 0.5]))
    trace = _line_trace([([0.0, 10.0], [0.0, 0.0]), returner,
                         ([0.0, 10.0], [-0.5, -0.5])], [0.0, 3.5, 4.0])
    got = _outcome(check_ga_events, HAND_CFG, trace)
    assert _kind(got) == result
    assert entries == walked


# -- The order audit --

def _first_order():
    """good_config(0, 4) under gather-n, its events, and the places of
    its first order and of the GA that order follows."""
    cfg = good_config(0, 4)
    trace = run(cfg, gather_n_program(4))
    assert sum(ev.kind == "order" for ev in trace.events) == 28
    check_all(cfg, trace)
    events = list(trace.events)
    k = next(k for k, ev in enumerate(events) if ev.kind == "order")
    j = max(j for j in range(k) if events[j].kind == "ga")
    return cfg, trace, events, k, j


@pytest.mark.parametrize("case", [
    "time NaN", "issuer 99", "recipients (0, 0, 7)", "target (inf, 1e6)",
    "ahead of its GA"])
def test_doctored_order_is_a_check_failure(case):
    cfg, trace, events, k, j = _first_order()
    order, ga = events[k], events[j]
    t = order.time
    if case == "time NaN":
        doctored, message = (dataclasses.replace(order, time=math.nan),
                             "event at non-finite time nan")
    elif case == "issuer 99":
        doctored, message = (dataclasses.replace(order, issuer=99),
                             f"order at {t}: issuer 99 is not in the GA "
                             f"{ga.agents}")
    elif case == "recipients (0, 0, 7)":
        doctored, message = (
            dataclasses.replace(order, agents=(0, 0, 7)),
            f"order at {t} is sent to (0, 0, 7), not to the awake members "
            f"of its GA but the issuer, {order.agents}")
    elif case == "target (inf, 1e6)":
        target = Point(math.inf, 1e6)
        doctored, message = (dataclasses.replace(order, target=target),
                             f"order at {t} has a non-finite target {target}")
    else:
        assert case == "ahead of its GA"
        # The GA moves behind its first order.
        events[j:k + 1] = events[j + 1:k + 1] + [ga]
        k -= 1
        doctored, message = order, f"order at {t} follows no GA at its time"
    events[k] = doctored
    with pytest.raises(CheckFailure) as err:
        check_all(cfg, dataclasses.replace(trace, events=events))
    assert str(err.value) == message


def test_order_to_a_far_finite_target_passes():
    # The log does not say where a program should send its team, so a
    # finite target far away is one it may have chosen.
    cfg, trace, events, k, _ = _first_order()
    events[k] = dataclasses.replace(events[k], target=Point(1e6, 1e6))
    check_all(cfg, dataclasses.replace(trace, events=events))


def test_order_skips_members_stopped_before_it():
    # A member that stopped, even inside the GA's callbacks, gets no
    # order; one named anyway fails the audit.  Checked on the log up to
    # the first order.
    _, trace, events, k, _ = _first_order()
    order = events[k]
    stop = Event(order.time, "stop", (order.agents[0],),
                 (Point(0.0, 0.0),))
    checks.check_orders(dataclasses.replace(
        trace, events=events[:k] + [stop, dataclasses.replace(
            order, agents=order.agents[1:])]))
    with pytest.raises(CheckFailure, match="not to the awake members"):
        checks.check_orders(dataclasses.replace(
            trace, events=events[:k] + [stop, order]))


# -- A meeting the engine missed --

@pytest.mark.parametrize("seed", range(3))
def test_meeting_the_engine_missed_is_a_check_failure(monkeypatch, seed):
    # The engine joins the first pair that approaches but runs no GA for
    # it: the run goes on with legal trajectories, and the band walk finds
    # the meeting that no GA records.
    dropped = []
    apply = ProximityGraph.apply

    def drops_one(graph, t, hits):
        approaches = apply(graph, t, hits)
        if not dropped and approaches:
            i, j = pair = min(approaches)
            dropped.append((t, pair))
            graph._nbr[i].add(j)
            graph._nbr[j].add(i)
            approaches.discard(pair)
        return approaches

    monkeypatch.setattr(ProximityGraph, "apply", drops_one)
    cfg = good_config(seed, 4)
    trace = run(cfg, gather_n_program(4))
    [(t, (i, j))] = dropped
    assert not any(ev.time == t and {i, j} <= set(ev.agents)
                   for ev in trace.ga_events())
    check_speeds(trace)
    with pytest.raises(CheckFailure) as err:
        check_all(cfg, trace)
    assert str(err.value) == (f"agents {i} and {j} come within eps at {t}, "
                              "and no GA then holds both")
