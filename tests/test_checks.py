"""The trace checker's GA audit on real and doctored traces."""

import dataclasses
import math
from itertools import combinations

import pytest

from gathersim import checks
from gathersim.algorithms import gather_n_program
from gathersim.checks import (GA_DIST_SLACK, CheckFailure, _fail,
                              check_all, check_ga_events, check_speeds)
from gathersim.config import InitialConfiguration
from gathersim.engine import (Event, Program, Trace, Verdict,
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
    cuts = sorted({*ta.breakpoint_times_between(t0, t1),
                   *tb.breakpoint_times_between(t0, t1), t0, t1})
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
                 "fewer than two agents"):
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


class _Walks:
    """Records the pairs that check_ga_events walks breakpoint by breakpoint."""

    def __init__(self, monkeypatch):
        self.calls = []
        walk = checks._pair_separated

        def recorded(trace, i, j, t0, t1, eps):
            result = walk(trace, i, j, t0, t1, eps)
            self.calls.append((i, j, t0, t1, result))
            return result

        monkeypatch.setattr(checks, "_pair_separated", recorded)


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


def test_doctored_traces_match_reference(real_runs, monkeypatch):
    walks = _Walks(monkeypatch)
    seen = set()
    for cfg, trace in real_runs:
        for label, doctored in _doctored(trace):
            want = _outcome(reference_check_ga_events, cfg, doctored)
            got = _outcome(check_ga_events, cfg, doctored)
            if want != "pass" and want[0] == "ValueError":
                # The reference leaked position_at's error; the checker
                # names the agent and the time instead.
                assert got[0] == "CheckFailure", label
                assert "outside its trajectory span" in got[1], label
                seen.add("out of span")
                continue
            assert got == want, label
            seen.add(_kind(got))
    assert seen >= {"pass", "no fresh contact", "not proximity-connected"}
    # Some doctored GA made the checker walk breakpoints, with both
    # answers.
    assert {result for *_, result in walks.calls} == {True, False}


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


def test_doctored_wide_traces_match_reference(wide_runs, monkeypatch):
    whole = False
    for cfg, trace in wide_runs:
        gas = trace.ga_events()
        repeats = [b for a, b in zip(gas, gas[1:]) if a.agents == b.agents]
        assert repeats
        whole = whole or any(len(b.agents) == cfg.n for b in repeats)
    assert whole
    test_doctored_traces_match_reference(wide_runs, monkeypatch)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="ROADMAP item 1")
def test_missing_first_ga_is_a_check_failure():
    # check_ga_events vets only the GAs a trace names, so a trace without
    # its first meeting still passes.  A complete GA oracle rejects it.
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


# -- Hand-made traces, one per freshness path --

# eps = 1.  Agent 0 waits at the origin.  Agent 1 walks in from (3, 0),
# is at distance eps at t=2 and 0.5 at t=2.5, walks back out to 3 by
# t=5, in again to 0.5 by t=7.5, and waits there until t=10.
EPS = 1.0
HAND_CFG = InitialConfiguration(EPS, (Point(0, 0), Point(3, 0)), (0.0, 0.0))


def _hand_trace(ga_times) -> Trace:
    waits = Trajectory([0.0, 10.0], [0.0, 0.0], [0.0, 0.0])
    walks = Trajectory([0.0, 2.0, 2.5, 5.0, 7.5, 10.0],
                       [3.0, 1.0, 0.5, 3.0, 0.5, 0.5], [0.0] * 6)
    trace = Trace(events=[], final_tags=("", ""), trajectories=(waits, walks),
                  verdict=Verdict("timeout", 10.0))
    trace.events = [Event(t, "ga", (0, 1), _positions_at(trace, (0, 1), t),
                          ("", "")) for t in ga_times]
    return trace


@pytest.mark.parametrize("ga_times, walked, result", [
    # A pair that never met is fresh.
    ([2.0], [], "pass"),
    # The pair's last GA found it at distance eps + 5e-9, farther than
    # eps + PROX_TOL: fresh from the flag, with no walk.
    ([2.0 - 5e-9, 2.5], [], "pass"),
    # At 2.5 the pair was 0.5 apart, so 7.5 walks and finds t=5.
    ([2.5, 7.5], [True], "pass"),
    # At distance eps the pair was within eps + PROX_TOL, so 2.5 walks,
    # and the pair never left eps between the two GAs.
    ([2.0, 2.5], [False], "no fresh contact"),
    # Nothing between 7.5 and 8 separates the pair.
    ([2.5, 7.5, 8.0], [True, False], "no fresh contact"),
    # The flag needs the last GA more than TIME_TOL back: the pair is
    # apart at eps + 5e-9, yet a GA at the same instant is not fresh.
    ([2.0 - 5e-9, 2.0 - 5e-9], [], "no fresh contact"),
    ([2.0 - 5e-9, 2.0 - 5e-9 + TIME_TOL / 2], [], "no fresh contact"),
])
def test_freshness_paths(monkeypatch, ga_times, walked, result):
    walks = _Walks(monkeypatch)
    trace = _hand_trace(ga_times)
    want = _outcome(reference_check_ga_events, HAND_CFG, trace)
    got = _outcome(check_ga_events, HAND_CFG, trace)
    assert got == want
    assert _kind(got) == result
    assert [res for *_, res in walks.calls] == walked


def _line_trace(paths, ga_times) -> Trace:
    """Agents on the x axis, each paths[i] = (times, xs), and a GA of
    them all at each of ga_times."""
    trajs = tuple(Trajectory(ts, xs, [0.0] * len(ts)) for ts, xs in paths)
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
    # It ends as far left of agent 0, 1.5 from agent 1: no chain does.
    (-1.0 - 2 * GA_DIST_SLACK, "not proximity-connected"),
])
def test_repeat_ga_remeasures_its_spanning_tree(x2, result):
    # Agents 0 and 1 wait at x = 0 and 0.5.  At the first GA agent 2
    # waits at -0.9, so the tree grown from agent 0 holds the edges 0-1
    # and 0-2.  Agent 2 then walks to x2, which stretches the edge 0-2
    # past eps + GA_DIST_SLACK by the second GA, of the same members.
    walk = abs(x2 + 0.9)
    trace = _line_trace([([0.0, 10.0], [0.0, 0.0]),
                         ([0.0, 10.0], [0.5, 0.5]),
                         ([0.0, 1.0, 1.0 + walk, 10.0],
                          [-0.9, -0.9, x2, x2])], [0.5, 5.0])
    want = _outcome(reference_check_ga_events, HAND_CFG, trace)
    got = _outcome(check_ga_events, HAND_CFG, trace)
    assert got == want
    assert _kind(got) == result


@pytest.mark.parametrize("excursion, walked, result", [
    # Agent 1 walks out to x = 2, 2 from agent 0, and back: only a walk
    # can show its pairs fresh.
    (True, [True], "pass"),
    # The same trace with agent 1 waiting throughout has no fresh pair.
    (False, [False, False, False], "no fresh contact"),
])
def test_returner_is_fresh_by_the_walk(monkeypatch, excursion, walked,
                                       result):
    # Agents 0 and 2 wait at x = 0 and -0.5, agent 1 is at 0.5 at both
    # GAs.  No member moved since its last GA, so the fresh pair is one
    # the mover-first order tries last.
    walks = _Walks(monkeypatch)
    returner = (([0.0, 1.0, 2.5, 4.0, 10.0], [0.5, 0.5, 2.0, 0.5, 0.5])
                if excursion else ([0.0, 10.0], [0.5, 0.5]))
    trace = _line_trace([([0.0, 10.0], [0.0, 0.0]), returner,
                         ([0.0, 10.0], [-0.5, -0.5])], [0.5, 5.0])
    back = trace.trajectories[1]
    assert back.xy_at(0.5) == back.xy_at(5.0)
    want = _outcome(reference_check_ga_events, HAND_CFG, trace)
    got = _outcome(check_ga_events, HAND_CFG, trace)
    assert got == want
    assert _kind(got) == result
    assert [res for *_, res in walks.calls] == walked


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
