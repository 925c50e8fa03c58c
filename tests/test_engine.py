"""Engine semantics: events, GA groups, gossip frames, verdicts."""

import heapq
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import pair
from test_acceptance import _dedicated_horizon
from gathersim import engine
from gathersim.algorithms import (dedicated_program, gather_a_program,
                                  gather_n_program)
from gathersim.checks import check_all
from gathersim.config import (Feasibility, InitialConfiguration,
                             pair_margin)
from gathersim.engine import (PROX_TOL, AgentRef, Go, GotoStop,
                              InvalidInstruction, Program, ProximityGraph,
                              Simulation, Wait, connected_components,
                              default_horizon, run)
from gathersim.generate import (boundary_pair, config_of_class, good_config,
                                good_pair, ungatherable_config)
from gathersim.geometry import (BOUND_SLACK, CLOSING_SPEED, POS_TOL,
                                SEPARATION_TOL, SPEED_TOL, TIME_TOL, Point,
                                TrajectoryBuilder, Vec2,
                                solve_crossing_in, solve_crossing_out)


class Still(Program):
    """Appears and does nothing."""


class WalkEast(Program):
    def __init__(self, dist=2.0):
        self.dist = dist

    def on_appear(self, ctx):
        ctx.issue(Go(Vec2(1.0, 0.0), self.dist))


def test_appearance_proximity_ga():
    # Second agent appears within eps of the first: GA at that instant.
    cfg = pair(0.5, (0, 0), 0.0, (0.3, 0), 1.0)
    trace = run(cfg, Still, horizon=5.0)
    gas = trace.ga_events()
    assert len(gas) == 1
    assert abs(gas[0].time - 1.0) < 1e-9
    assert gas[0].agents == (0, 1)


def test_moving_approach_time():
    # Gap 2 closes at speed 1 and hits eps = 0.5 at t = 1.5.
    class WalkWest(Program):
        def on_appear(self, ctx):
            ctx.issue(Go(Vec2(-1.0, 0.0), 2.0))

    cfg = pair(0.5, (0, 0), 0.0, (2, 0), 0.0)
    mk = iter([Still(), WalkWest()])
    trace = run(cfg, lambda: next(mk), horizon=10.0)
    gas = trace.ga_events()
    assert len(gas) == 1
    assert abs(gas[0].time - 1.5) < 1e-9


def test_no_ga_outside_range():
    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    trace = run(cfg, Still, horizon=3.0)
    assert trace.ga_events() == []
    assert trace.verdict.kind == "split"


def test_three_agent_chain_component():
    # b sits between a and c; when a walks into range of b, the GA group
    # is the whole component {a, b, c}.
    cfg = InitialConfiguration(
        1.0,
        (Point(0, 0), Point(2.5, 0), Point(3.3, 0)),
        (0.0, 0.0, 0.0))
    mk = iter([WalkEast(2.0), Still(), Still()])
    trace = run(cfg, lambda: next(mk), horizon=10.0)
    gas = trace.ga_events()
    # b and c are adjacent from the start (appearance GA), then a reaches
    # x = 1.5, coming within eps of b at t = 1.5.
    assert gas[0].agents == (1, 2)
    assert gas[1].agents == (0, 1, 2)
    assert abs(gas[1].time - 1.5) < 1e-9


def form_ga_groups(adjacent, new_edges):
    """Reference: the GA groups as the engine once formed them, from the
    components of the whole proximity graph that contain a new edge.

    adjacent holds the pairs within epsilon before this instant, new_edges
    the pairs that crossed within epsilon at it.  Groups are sorted
    internally and ordered by smallest member.
    """
    edges = adjacent | new_edges
    nodes = {v for edge in edges for v in edge}
    fresh = {a for a, _ in new_edges}
    return sorted(comp for comp in _closure_components(nodes, edges)
                  if not fresh.isdisjoint(comp))


def _adjacent_pairs(nbr):
    """The pairs of the engine's neighbour sets, after asserting that
    they are symmetric and irreflexive."""
    for i, row in enumerate(nbr):
        assert i not in row
        assert all(i in nbr[j] for j in row)
    return {(i, j) for i, row in enumerate(nbr) for j in row if i < j}


def _engine_ga_groups(adjacent, new_edges):
    """The GA groups a proximity graph yields for new_edges, with four
    agents far apart that hold the given adjacency."""
    agents = [SimpleNamespace(x=10.0 * k, y=0.0) for k in range(4)]
    graph = ProximityGraph(agents, 0.5, 10.0)
    for i, j in adjacent:
        graph._nbr[i].add(j)
        graph._nbr[j].add(i)
    groups = list(graph.ga_groups(0.0, new_edges))
    assert _adjacent_pairs(graph._nbr) == adjacent | new_edges
    return groups


def test_form_ga_groups_rules():
    # (adjacent, new edges, groups): the engine's GAs follow the rules
    # of the reference.
    for adjacent, new_edges, groups in [
            ({(1, 2)}, set(), []),
            ({(1, 2)}, {(0, 1)}, [(0, 1, 2)]),
            ({(1, 2)}, {(0, 3)}, [(0, 3)]),
            (set(), {(2, 3), (0, 1)}, [(0, 1), (2, 3)]),
            ({(0, 1), (2, 3)}, {(1, 2)}, [(0, 1, 2, 3)])]:
        assert form_ga_groups(adjacent, new_edges) == groups
        assert _engine_ga_groups(adjacent, new_edges) == groups


@st.composite
def graphs(draw):
    """Distinct nodes in shuffled order plus edges among them, with
    repeats, reversed copies and self-loops allowed."""
    nodes = draw(st.lists(st.integers(0, 30), unique=True, max_size=12))
    nodes = draw(st.permutations(nodes))
    if not nodes:
        return nodes, []
    node = st.sampled_from(nodes)
    return nodes, draw(st.lists(st.tuples(node, node), max_size=20))


def _closure_components(nodes, edges):
    """Reference: grow every node's reachable set to a fixed point."""
    reach = {v: {v} for v in nodes}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            for u, v in ((a, b), (b, a)):
                if not reach[v] <= reach[u]:
                    reach[u] |= reach[v]
                    changed = True
    return {tuple(sorted(r)) for r in reach.values()}


@given(graphs(), st.data())
def test_connected_components_matches_closure(graph, data):
    nodes, edges = graph
    starts = data.draw(st.lists(st.sampled_from(nodes), max_size=6)
                       if nodes else st.just([]))
    nbr = {v: [] for v in nodes}
    for a, b in edges:
        nbr[a].append(b)
        nbr[b].append(a)
    comps = connected_components(nbr, starts)
    held = {c for c in _closure_components(nodes, edges)
            if not set(starts).isdisjoint(c)}
    assert len(comps) == len(held)
    assert set(comps) == held
    assert all(list(c) == sorted(c) for c in comps)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    assert connected_components(nbr, nodes) == sorted(
        _closure_components(nodes, edges))


def test_idle_agent_is_polled_only_at_its_own_events():
    # The silent agent issues nothing, and is 100 away from the walker;
    # the ends of the walker's five legs do not poll it again.
    polls = []

    class Silent(Program):
        def on_idle(self, ctx):
            polls.append(ctx.now)

    class FiveLegs(Program):
        def on_appear(self, ctx):
            for _ in range(5):
                ctx.issue(Go(Vec2(1.0, 0.0), 1.0))

    cfg = pair(0.5, (0, 0), 0.0, (100, 0), 0.0)
    mk = iter([Silent(), FiveLegs()])
    trace = run(cfg, lambda: next(mk), horizon=50.0)
    assert trace.ga_events() == []
    assert polls == [0.0]


def test_far_agent_does_not_change_idle_polls():
    # Agent 0 waits three times and then issues nothing.  A walker 100
    # away, whose legs end at other instants, leaves its polls as they
    # are.
    class ThreeWaits(Program):
        def __init__(self, polls):
            self.polls = polls

        def on_idle(self, ctx):
            self.polls.append(ctx.now)
            if len(self.polls) <= 3:
                ctx.issue(Wait(1.0))

    class Steps(Program):
        def on_appear(self, ctx):
            for _ in range(20):
                ctx.issue(Go(Vec2(0.0, 1.0), 0.35))

    def polls_of_agent_0(starts, factories):
        polls = []
        mk = iter([ThreeWaits(polls)] + factories)
        cfg = InitialConfiguration(0.5, tuple(Point(*p) for p in starts),
                                   (0.0,) * len(starts))
        trace = run(cfg, lambda: next(mk), horizon=20.0)
        assert trace.ga_events() == []
        return polls

    alone = polls_of_agent_0([(0, 0), (-100, 0)], [Still()])
    crowded = polls_of_agent_0([(0, 0), (-100, 0), (100, 0)],
                               [Still(), Steps()])
    assert alone == [0.0, 1.0, 2.0, 3.0]
    assert crowded == alone


def test_no_repeat_ga_while_adjacent():
    # Two still agents within eps: exactly one GA, not one per instant.
    cfg = pair(0.5, (0, 0), 0.0, (0.2, 0), 0.0)
    trace = run(cfg, Still, horizon=5.0)
    assert len(trace.ga_events()) == 1


def test_separation_then_rega():
    # Walker leaves eps range and comes back: two GAs.
    class OutAndBack(Program):
        def on_appear(self, ctx):
            ctx.issue(Go(Vec2(1.0, 0.0), 2.0))
            ctx.issue(Go(Vec2(-1.0, 0.0), 2.0))

    cfg = pair(0.5, (0, 0), 0.0, (0.2, 0), 0.0)
    mk = iter([Still(), OutAndBack()])
    trace = run(cfg, lambda: next(mk), horizon=10.0)
    assert len(trace.ga_events()) == 2


def test_gossip_round_trip_frames():
    """b learns a's origin in b's frame; a's own entry stays at (0,0)."""
    seen = {}

    class Recorder(Program):
        def on_ga(self, ctx, view):
            seen[ctx.self_ref] = dict(ctx.knowledge)

    cfg = pair(1.0, (0, 0), 0.0, (0.8, 0.6), 0.0)
    trace = run(cfg, Recorder, horizon=5.0)
    assert len(trace.ga_events()) == 1
    (ka, kb) = (seen[r] for r in sorted(seen, key=lambda r: r._token))
    assert ka[AgentRef(0)] == Point(0, 0)
    assert ka[AgentRef(1)].dist(Point(0.8, 0.6)) < 1e-9
    assert kb[AgentRef(1)] == Point(0, 0)
    assert kb[AgentRef(0)].dist(Point(-0.8, -0.6)) < 1e-9


def _all_pairs_gossip(self, members):
    """The original O(m^2 K) merge: every receiver scans every sender's
    snapshot, in group order, and keeps the first copy of each ref."""
    snapshots = {ag.idx: dict(ag.knowledge) for ag in members}
    for recv in members:
        for send in members:
            if send is recv:
                continue
            offset = Vec2(send.origin.x - recv.origin.x,
                          send.origin.y - recv.origin.y)
            for ref, p in snapshots[send.idx].items():
                if ref not in recv.knowledge:
                    recv.knowledge[ref] = p + offset


def _knowledge_at_every_ga(cfg):
    """(token, start point bits) of each agent's knowledge, in insertion
    order, at every on_ga callback of a gather-n run."""
    make = gather_n_program(cfg.n)
    log = []

    class Recording(Program):
        def __init__(self):
            self.inner = make()

        def on_appear(self, ctx):
            self.inner.on_appear(ctx)

        def on_ga(self, ctx, view):
            log.append(tuple(
                (ref._token, tuple(map(float.hex, p.coords)))
                for ref, p in ctx.knowledge.items()))
            self.inner.on_ga(ctx, view)

        def on_order(self, ctx, target, issuer):
            self.inner.on_order(ctx, target, issuer)

        def on_idle(self, ctx):
            self.inner.on_idle(ctx)

    trace = run(cfg, Recording)
    return log, trace.jsonl_lines()


@pytest.mark.parametrize("seed,n", [(0, 6), (1, 7), (2, 8)])
def test_gossip_matches_all_pairs_merge(seed, n, monkeypatch):
    cfg = good_config(seed, n)
    real = Simulation._gossip
    saturated = []  # per GA: share of members that know all n agents

    def counted(self, members):
        saturated.append(sum(len(ag.knowledge) == n
                             for ag in members) / len(members))
        real(self, members)

    monkeypatch.setattr(Simulation, "_gossip", counted)
    log, lines = _knowledge_at_every_ga(cfg)
    # The reference covers both ways through _gossip: the early return of
    # a GA whose members all know everyone, and the merge.
    assert 1.0 in saturated and min(saturated) < 1.0
    if (seed, n) == (1, 7):
        # This run also has GAs where only some members know everyone,
        # which an early return on any saturated member would get wrong.
        assert any(0.0 < share < 1.0 for share in saturated)
    monkeypatch.setattr(Simulation, "_gossip", _all_pairs_gossip)
    ref_log, ref_lines = _knowledge_at_every_ga(cfg)
    assert len(log) > n
    assert log == ref_log
    assert lines == ref_lines


def _full_scan_pair_events(graph, live, now, t_bound):
    """The pair scan without certificates: every live pair, every call."""
    eps = graph.eps
    window = t_bound - now
    states = []
    for ag in live:
        m = ag.motion
        if m is None:
            states.append((ag.idx, ag.x, ag.y, 0.0, 0.0))
        else:
            states.append((ag.idx, ag.x, ag.y, m.vx, m.vy))
    t_event = t_bound
    hits = []
    for k, (i, ax, ay, avx, avy) in enumerate(states):
        for j, bx, by, bvx, bvy in states[k + 1:]:
            rx = bx - ax
            ry = by - ay
            vx = bvx - avx
            vy = bvy - avy
            if j in graph._nbr[i]:
                s = solve_crossing_out(rx, ry, vx, vy, eps + SEPARATION_TOL,
                                       window)
            else:
                s = solve_crossing_in(rx, ry, vx, vy, eps, window)
            if s is None:
                continue
            t = now + s
            hits.append((t, (i, j)))
            if t < t_event:
                t_event = t
    return t_event, hits


def _check_pair_events_against_full_scan(monkeypatch):
    """Make every pair scan assert that it equals the full scan; returns
    the list of (t_event, hits) the scans produced.

    While a run is symmetric, every pair is sure and run calls no scan:
    it sets the clock to the scan's bound, and the full scan over that
    window must find no hit.  The clock becomes a property whose setter
    checks each such move, counted as a scan of (t, [])."""
    real = ProximityGraph.next_events
    scans = []
    # The Simulation whose run is on, as running[-1].
    running = []

    def checked(self, live, now, t_bound):
        assert running[-1]._path is None
        expect = _full_scan_pair_events(self, live, now, t_bound)
        t_event, hits = real(self, live, now, t_bound)
        assert t_event == expect[0]
        assert sorted(hits) == sorted(expect[1])
        scans.append((t_event, hits))
        return t_event, hits

    def set_now(self, t):
        # __init__ sets the clock before the path.
        if getattr(self, "_path", None) is not None:
            # A symmetric run's positions are current only once synced.
            self._sync()
            expect = _full_scan_pair_events(self._prox, self._live,
                                            self._now, t)
            assert expect == (t, [])
            scans.append((t, []))
        self.__dict__["_now"] = t

    def tracking(real_run):
        def tracked(self):
            running.append(self)
            try:
                return real_run(self)
            finally:
                running.pop()
        return tracked

    monkeypatch.setattr(ProximityGraph, "next_events", checked)
    monkeypatch.setattr(Simulation, "_now",
                        property(lambda self: self.__dict__["_now"], set_now),
                        raising=False)
    # _GeneralBody's run is its own copy of the loop.
    for cls in (Simulation, _GeneralBody):
        monkeypatch.setattr(cls, "run", tracking(cls.run))
    return scans


@pytest.mark.parametrize("make", [
    lambda: good_config(0, 6), lambda: good_config(1, 7),
    lambda: good_config(2, 8), lambda: ungatherable_config(0, 8),
    lambda: ungatherable_config(1, 8)],
    ids=["good-0-6", "good-1-7", "good-2-8", "ungatherable-0-8",
         "ungatherable-1-8"])
def test_pair_certificates_match_full_scan(make, monkeypatch):
    cfg = make()
    plain = run(cfg, gather_n_program(cfg.n)).jsonl_lines()
    scans = _check_pair_events_against_full_scan(monkeypatch)
    groups = _check_ga_groups_against_reference(monkeypatch)
    trace = run(cfg, gather_n_program(cfg.n))
    assert trace.jsonl_lines() == plain
    assert len(scans) > cfg.n
    assert groups == [ev.agents for ev in trace.ga_events()]


@pytest.mark.parametrize("seed,n", [(0, 6), (1, 7), (2, 8)])
def test_applied_hit_keeps_its_scan_adjacency(seed, n, monkeypatch):
    # apply reads a hit's kind from the pair's adjacency when it applies
    # the hit: a separation when adjacent, else an approach.  That is the
    # adjacency the scan that found the hit solved the pair with.
    real_scan = ProximityGraph.next_events
    real_apply = ProximityGraph.apply
    at_scan = {}
    applied = {True: 0, False: 0}

    def scan(self, live, now, t_bound):
        t_event, hits = real_scan(self, live, now, t_bound)
        at_scan.clear()
        for _, (i, j) in hits:
            at_scan[i, j] = j in self._nbr[i]
        return t_event, hits

    def apply(self, t, hits):
        for ht, (i, j) in hits:
            if ht <= t + TIME_TOL:
                assert (j in self._nbr[i]) == at_scan[i, j]
                applied[at_scan[i, j]] += 1
        return real_apply(self, t, hits)

    monkeypatch.setattr(ProximityGraph, "next_events", scan)
    monkeypatch.setattr(ProximityGraph, "apply", apply)
    cfg = good_config(seed, n)
    run(cfg, gather_n_program(n))
    # Both kinds were applied: separations and approaches.
    assert applied[True] > 0 and applied[False] > 0


def _check_ga_groups_against_reference(monkeypatch):
    """Make every GA instant assert that the neighbour sets are symmetric
    and irreflexive, and that its groups are form_ga_groups' on the pairs
    of those sets plus the new edges; returns the groups, in order."""
    real = ProximityGraph.ga_groups
    groups = []

    def checked(self, t, new_edges):
        expect = form_ga_groups(_adjacent_pairs(self._nbr), new_edges)
        got = []
        for group in real(self, t, new_edges):
            got.append(group)
            yield group
        assert got == expect
        _adjacent_pairs(self._nbr)
        groups.extend(got)

    monkeypatch.setattr(ProximityGraph, "ga_groups", checked)
    return groups


class Legs(Program):
    """Walks the given (direction, distance) legs, then stands still."""

    def __init__(self, *legs):
        self.legs = legs

    def on_appear(self, ctx):
        for direction, dist in self.legs:
            ctx.issue(Go(direction, dist))


EAST = Vec2(1.0, 0.0)
WEST = Vec2(-1.0, 0.0)
NORTH = Vec2(0.0, 1.0)


def test_pair_turning_back_as_it_separates_does_not_meet_again():
    # The mover reaches the rim of the still agent's epsilon disc at
    # t = 0.3 and turns back at once.  It never gets farther than
    # eps + SEPARATION_TOL, so the pair never separates and cannot meet
    # again.
    cfg = pair(0.5, (0, 0), 0.0, (0.2, 0), 0.0)
    mk = iter([Still(), Legs((EAST, 0.3), (WEST, 0.3))])
    trace = run(cfg, lambda: next(mk), horizon=2.0)
    assert [ev.time for ev in trace.ga_events()] == [0.0]


def test_pair_parked_at_epsilon_does_not_meet_again():
    # The mover parks at distance exactly epsilon at t = 0.3, inside the
    # separation band, so the pair stays adjacent.  The walker far away
    # ends legs at t = 1, 2 and 3; none of those instants is a meeting.
    cfg = InitialConfiguration(
        0.5, (Point(0, 0), Point(0.2, 0), Point(100, 0)), (0.0,) * 3)
    mk = iter([Still(), Legs((EAST, 0.3)),
               Legs((NORTH, 1.0), (NORTH, 1.0), (NORTH, 1.0))])
    trace = run(cfg, lambda: next(mk), horizon=5.0)
    assert [ev.time for ev in trace.ga_events()] == [0.0]


def test_band_pair_is_chained_into_a_ga_but_not_adjacent():
    # a and b meet at t = 0; b then parks at eps + 3e-9, inside the
    # separation band but beyond eps + PROX_TOL, so the pair keeps its
    # edge.  c appears within eps of a at t = 1: the edge chains b into
    # the GA, and every member sees only the pairs within eps + PROX_TOL
    # as adjacent.
    seen = {}

    class Sees(Legs):
        def on_ga(self, ctx, view):
            if len(view.participants) == 3:
                me = view.participants[view.self_index].ref
                seen[me] = {p.ref: p.adjacent for p in view.others()}

    cfg = InitialConfiguration(
        0.5, (Point(0, 0), Point(0.2, 0), Point(-0.4, 0)), (0.0, 0.0, 1.0))
    mk = iter([Sees(), Sees((EAST, 0.3 + 3e-9)), Sees()])
    trace = run(cfg, lambda: next(mk), horizon=2.0)
    assert [(ev.time, ev.agents) for ev in trace.ga_events()] == \
        [(0.0, (0, 1)), (1.0, (0, 1, 2))]
    gap = trace.trajectories[1].position_at(1.0).x - 0.5
    assert PROX_TOL < gap < SEPARATION_TOL
    a, b, c = AgentRef(0), AgentRef(1), AgentRef(2)
    assert seen == {a: {b: False, c: True},
                    b: {a: False, c: False},
                    c: {a: True, b: False}}
    check_all(cfg, trace)


@pytest.mark.parametrize("k", range(12))
def test_pair_meets_on_the_eps_circle_or_at_an_appearance(k):
    # Two agents meet again only after they were farther than eps, so
    # every GA of theirs either comes with an appearance or finds them at
    # distance eps, where the approach root put them.
    cfg = good_pair(k)
    trace = run(cfg, dedicated_program(cfg, cfg.epsilon))
    for ev in trace.ga_events():
        (ax, ay), (bx, by) = (traj.xy_at(ev.time)
                              for traj in trace.trajectories)
        on_circle = abs(math.hypot(ax - bx, ay - by) - cfg.epsilon) \
            <= PROX_TOL
        appears = any(abs(ev.time - t) <= TIME_TOL for t in cfg.times)
        assert on_circle or appears, ev.time


def test_adjacency_flip_is_rescanned(monkeypatch):
    # eps = 1.  c walks north along x = 1 + 5e-10 past the still a: it
    # never comes within eps of a, so the pair has no crossing and no
    # certificate.  At t = 3, when c passes a at distance 1 + 5e-10, b
    # appears between them; that is close enough for the PROX_TOL slack of
    # b's GA, which marks a and c adjacent.  Neither a nor c changed a
    # leg, so only the certificate that GA gives the pair makes it due for
    # the separation the full scan reports, once c is eps + SEPARATION_TOL
    # from a: the pair's one hit, after t = 3.
    cfg = InitialConfiguration(
        1.0, (Point(0, 0), Point(0.5, 0), Point(1 + 5e-10, -3.0)),
        (0.0, 3.0, 0.0))
    mk = iter([Still(), Still(), Legs((NORTH, 6.0))])
    scans = _check_pair_events_against_full_scan(monkeypatch)
    trace = run(cfg, lambda: next(mk), horizon=10.0)
    assert [(ev.time, ev.agents) for ev in trace.ga_events()] \
        == [(3.0, (0, 1, 2))]
    hits = [t for _, found in scans for t, pair in found if pair == (0, 2)]
    assert len(hits) == 1 and 3.0 < hits[0] < 3.001


def test_crossing_past_the_window_stays_a_certificate(monkeypatch):
    # c's wait ends the first window at t = 1.  a walks east towards the
    # still b; its leg ends 0.5e-9 later, and the line of that leg would
    # reach distance eps from b 1.2e-9 after t = 1: beyond the TIME_TOL
    # the solver allows past a window, so the full scan finds nothing.
    # The stretched solve must not clamp that root back into the window.
    class WalkLeg(Program):
        def on_appear(self, ctx):
            ctx.issue(Go(Vec2(1.0, 0.0), 1.0 + 0.5e-9))

    class WaitOne(Program):
        def on_appear(self, ctx):
            ctx.issue(Wait(1.0))

    cfg = InitialConfiguration(
        1.0, (Point(-2.0 - 1.2e-9, 0), Point(0, 0), Point(0, 50)),
        (0.0, 0.0, 0.0))
    mk = iter([WalkLeg(), Still(), WaitOne()])
    scans = _check_pair_events_against_full_scan(monkeypatch)
    trace = run(cfg, lambda: next(mk), horizon=5.0)
    assert trace.ga_events() == []
    # The scan right after the appearances covers [0, 1].
    assert scans[1] == (1.0, [])


def test_scan_solves_each_due_pair_once(monkeypatch):
    # Changed agents 1 and 3 share the pair (1, 3), which is also due in
    # the certificate heap; (0, 2) is due with two heap entries, and the
    # adjacent (4, 5) is due at now, as after a crossing or an edge catch,
    # both with no changed end.  The scan has to visit eleven pairs once
    # each, with one solve each: 1 and 3 with each of the four other
    # agents, (1, 3), (0, 2), (4, 5).
    def agent(idx, x, vx=None):
        motion = None if vx is None else SimpleNamespace(
            vx=vx, vy=0.0, t_end=5.0)
        return SimpleNamespace(idx=idx, x=x, y=0.0, motion=motion)

    agents = [agent(0, 0.0), agent(1, 5.0, 1.0), agent(2, 0.8, -1.0),
              agent(3, 5.6), agent(4, 10.0), agent(5, 10.3, 1.0)]
    graph = ProximityGraph(agents, 0.5, 100.0)
    graph._nbr[4].add(5)
    graph._nbr[5].add(4)
    graph.changed.update((1, 3))
    for t, (i, j) in ((0.7, (1, 3)), (0.5, (0, 2)), (0.5, (0, 2)),
                      (0.0, (4, 5))):
        graph._cert[i * 6 + j] = t
        heapq.heappush(graph._cert_queue, (t, i * 6 + j))
    calls = []
    for name in ("solve_crossing_in", "solve_crossing_out"):
        real = getattr(engine, name)

        def counted(*args, real=real):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(engine, name, counted)
    expect = _full_scan_pair_events(graph, agents, 0.0, 1.0)
    t_event, hits = graph.next_events(agents, 0.0, 1.0)
    assert len(calls) == 11
    assert len({(args[0], args[1]) for args in calls}) == 11
    assert t_event == expect[0] and sorted(hits) == sorted(expect[1])
    assert sorted(pair for _, pair in hits) == [(0, 2), (1, 3), (4, 5)]



def _counted_solve_in(monkeypatch):
    """Count engine.solve_crossing_in calls; returns the list of their
    arguments."""
    calls = []
    real = engine.solve_crossing_in

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "solve_crossing_in", counted)
    return calls


def test_lockstep_pair_is_solved_once(monkeypatch):
    # Agents 0 and 1 walk on identical motions, so their relative
    # velocity is exactly 0, and they lie within lim of each other.
    # Farther apart than eps, the pair cannot approach: its one solve
    # finds no root, and it gets cert inf and no heap entry.  Within eps
    # and not adjacent, the same pair is solved once and meets at now.
    def agent(idx, x, y):
        motion = SimpleNamespace(vx=0.6, vy=-0.8, t_end=5.0)
        return SimpleNamespace(idx=idx, x=x, y=y, motion=motion)

    calls = _counted_solve_in(monkeypatch)

    def scan(rx, ry):
        agents = [agent(0, 1.5, -2.0), agent(1, 1.5 + rx, -2.0 + ry)]
        graph = ProximityGraph(agents, 0.5, 100.0)
        graph.changed.add(0)
        del calls[:]
        return graph, graph.next_events(agents, 1.0, 2.0)

    # Beyond eps, 5 and 1 apart, within the lim of about 8.5 over the
    # span of 4, up to E = 5.
    for rx, ry in ((3.0, -4.0), (0.6, -0.8)):
        graph, found = scan(rx, ry)
        assert found == (2.0, [])
        assert [args[2:] for args in calls] == [(0.0, 0.0, 0.5, math.inf)]
        assert graph._cert[1] == math.inf and graph._cert_queue == []

    graph, found = scan(0.18, -0.24)
    assert found == (1.0, [(1.0, (0, 1))])
    assert len(calls) == 1
    assert graph._cert[1] == 1.0


def test_skipped_pair_calls_no_solver(monkeypatch):
    # Agent 0 walks east from now = 1 to 5 and agent 1 waits till 9, so
    # the pair would be solved over the span 4, in which it closes by at
    # most 4 CLOSING_SPEED.  Beyond lim = eps + BOUND_SLACK + that, it
    # gets cert inf with no solve and no heap entry, whether its
    # certificate was due at now or not.  Agent 1 waits, so the pair is
    # not in lockstep.  At lim or nearer the pair is solved: from 8.4 it
    # has no root in the span, from 4.5 it reaches eps at the span's end,
    # its new certificate.
    def agent(idx, x, vx, t_end):
        motion = SimpleNamespace(vx=vx, vy=0.0, t_end=t_end)
        return SimpleNamespace(idx=idx, x=x, y=0.0, motion=motion)

    calls = _counted_solve_in(monkeypatch)

    def scan(x, due=False):
        agents = [agent(0, 0.0, 1.0, 5.0), agent(1, x, 0.0, 9.0)]
        graph = ProximityGraph(agents, 0.5, 100.0)
        graph._cert[1] = 3.0
        graph.changed.add(0)
        if due:
            graph._cert[1] = 1.0
            heapq.heappush(graph._cert_queue, (1.0, 1))
        del calls[:]
        assert graph.next_events(agents, 1.0, 2.0) == (2.0, [])
        return graph

    lim = 0.5 + BOUND_SLACK + 4.0 * CLOSING_SPEED
    for x in (40.0, math.nextafter(lim, math.inf)):
        for due in (False, True):
            graph = scan(x, due)
            assert calls == []
            assert graph._cert[1] == math.inf and graph._cert_queue == []
    for x in (lim, 8.4):
        graph = scan(x)
        assert len(calls) == 1
        assert graph._cert[1] == math.inf and graph._cert_queue == []
    graph = scan(4.5)
    assert len(calls) == 1
    assert graph._cert[1] == 5.0 and graph._cert_queue == [(5.0, 1)]


@pytest.mark.parametrize("gap, cert", [(1e-7, 5.0), (2e-6, math.inf)])
def test_separation_past_the_first_motion_end(gap, cert):
    # An adjacent pair at one point: agent 0 walks east till 5 and agent
    # 1 till 9, so E = 5, parting at the speed that leaves them gap short
    # of eps + SEPARATION_TOL at E.  Its separation lies past the span of
    # 4 from now = 1.  Within BOUND_SLACK of the band's edge at E the
    # pair is certified at E; farther inside it gets cert inf.
    sep = 0.5 + SEPARATION_TOL
    angle = 2.0 * math.asin((sep - gap) / 8.0)

    def agent(idx, angle, t_end):
        motion = SimpleNamespace(vx=math.cos(angle), vy=math.sin(angle),
                                 t_end=t_end)
        return SimpleNamespace(idx=idx, x=0.0, y=0.0, motion=motion)

    agents = [agent(0, 0.0, 5.0), agent(1, angle, 9.0)]
    graph = ProximityGraph(agents, 0.5, 100.0)
    graph._nbr[0].add(1)
    graph._nbr[1].add(0)
    graph.changed.add(0)
    assert graph.next_events(agents, 1.0, 2.0) == (2.0, [])
    assert graph._cert[1] == cert
    assert graph._cert_queue == ([(cert, 1)] if cert < math.inf else [])


@settings(deadline=None, max_examples=300)
@given(eps=st.floats(1e-3, 10.0), window=st.floats(0.0, 10.0),
       share=st.floats(0.0, 1.0), speed=st.sampled_from([0.0, 1.0])
       | st.floats(0.0, 1.0), r_angle=st.floats(0.0, 2.0 * math.pi),
       v_turn=st.floats(-math.pi, math.pi),
       rel=st.floats(-1e-12, 1e-12) | st.floats(-1.0, 0.0))
def test_pair_beyond_lim_has_no_root(eps, window, share, speed, r_angle,
                                     v_turn, rel):
    # Agent 0 stands still at the origin until t_end, agent 1 moves at
    # any speed up to CLOSING_SPEED, a pair's fastest closing, on a
    # longer motion, v_turn off straight at agent 0; the pair is solved
    # from now = 0 over the span max(t_end, window + _CERT_MARGIN).  Its
    # distance lies within 1e-12 (relative) of lim, or below lim, and its
    # square below 2e6 eps, where the grazing passes the solver accepts
    # stay within BOUND_SLACK of eps.  Whenever the scan calls no solver,
    # the solver finds no root over that span.
    stretch = window + engine._CERT_MARGIN
    longest = (math.sqrt(2e6 * eps) / (1.0 + 1e-12) - eps - BOUND_SLACK) \
        / CLOSING_SPEED
    t_end = stretch + share * (longest - stretch)
    v = speed * CLOSING_SPEED
    v_angle = r_angle + math.pi + v_turn
    vx, vy = v * math.cos(v_angle), v * math.sin(v_angle)
    lim = eps + BOUND_SLACK + CLOSING_SPEED * t_end
    dist = lim * (1.0 + rel)
    rx, ry = dist * math.cos(r_angle), dist * math.sin(r_angle)
    assume(rx * rx + ry * ry < 2e6 * eps)
    agents = [SimpleNamespace(idx=0, x=0.0, y=0.0, motion=SimpleNamespace(
                  vx=0.0, vy=0.0, t_end=t_end)),
              SimpleNamespace(idx=1, x=rx, y=ry, motion=SimpleNamespace(
                  vx=vx, vy=vy, t_end=2.0 * t_end + 1.0))]
    graph = ProximityGraph(agents, eps, 1e9)
    graph.changed.add(0)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counted_solve_in(mp)
        graph.next_events(agents, 0.0, window)
    if not calls:
        assert graph._cert[1] == math.inf
        assert solve_crossing_in(rx, ry, vx, vy, eps,
                                 max(t_end, stretch)) is None


def test_leg_cut_short_by_a_ga_is_solved_again(monkeypatch):
    # a walks east on a leg that would end at t = 20, away from the still
    # c: the pair has no crossing on it.  b appears next to a at t = 1;
    # in that GA a drops its plan and turns west towards c.  The leg
    # change solves the pair again, and it meets at 4.5.
    certs = []

    class Turns(Program):
        def on_appear(self, ctx):
            ctx.issue(Go(EAST, 20.0))

        def on_ga(self, ctx, view):
            certs.append(ctx._sim._prox._cert[2])
            ctx.clear_plan()
            ctx.issue(Go(WEST, 10.0))

    cfg = InitialConfiguration(
        0.5, (Point(0, 0), Point(1.2, 0), Point(-3, 0)), (0.0, 1.0, 0.0))
    mk = iter([Turns(), Still(), Still()])
    scans = _check_pair_events_against_full_scan(monkeypatch)
    trace = run(cfg, lambda: next(mk), horizon=12.0)
    assert certs[0] == math.inf  # at the GA with b
    assert [(ev.time, ev.agents) for ev in trace.ga_events()] \
        == [(1.0, (0, 1)), (4.5, (0, 2))]
    assert len(scans) > 3


def test_leg_aimed_at_partner_after_a_natural_end_meets_on_time(
        monkeypatch):
    # a walks west for a unit, then east, straight at c; c walks west,
    # straight at a, in unit legs and then one that ends at 5.76.  The
    # pair's bound from t = 0 lies 5e-7 before the crossing at 5.75; the
    # pair is in lockstep then, so the bound comes with no solve.  It
    # lets the leg ends at t = 1 to 4 skip the pair, not the one at 5,
    # whose solve finds the crossing, the float the full scan gives.
    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    mk = iter([Legs((WEST, 1.0), (EAST, 20.0)),
               Legs(*[(WEST, 1.0)] * 5, (WEST, 0.76), (WEST, 5.0))])
    solves_at = []
    real = engine.solve_crossing_in

    def counted(*args):
        solves_at.append(sim._now)
        return real(*args)

    monkeypatch.setattr(engine, "solve_crossing_in", counted)
    scans = _check_pair_events_against_full_scan(monkeypatch)
    sim = Simulation(cfg, lambda: next(mk), horizon=6.0)
    trace = sim.run()
    assert [(ev.time, ev.agents) for ev in trace.ga_events()] \
        == [(5.75, (0, 1))]
    assert [t for t in solves_at if t < 5.75] == [5.0]
    assert (5.75, [(5.75, (0, 1))]) in scans


@settings(deadline=None, max_examples=60)
@given(good=st.booleans(), n=st.integers(3, 8),
       seed=st.integers(0, 2 ** 16),
       sizes=st.none() | st.sets(st.integers(2, 9), min_size=1,
                                 max_size=3))
# Translated by 1e5, each of these walks an agent to within epsilon of a
# resting one at its leg's end: a root past E from the leg's start comes
# within TIME_TOL of E when solved from a later instant.
@example(good=True, n=4, seed=4224, sizes={5})
@example(good=True, n=3, seed=62745, sizes={4, 9})
@example(good=True, n=5, seed=47507, sizes={3, 8, 9})
@example(good=True, n=6, seed=46248, sizes={3, 8})
@example(good=True, n=7, seed=37639, sizes={5, 7, 9})
def test_speed_bounds_keep_every_scan_equal_to_the_full_scan(
        good, n, seed, sizes):
    # gather-n when sizes is None, else gather-a with candidate sizes.
    cfg = (good_config if good else ungatherable_config)(seed, n)
    factory = gather_n_program(n) if sizes is None \
        else gather_a_program(sorted(sizes))
    for moved in (cfg, cfg.translated(Vec2(1e5, -1e5))):
        with pytest.MonkeyPatch.context() as mp:
            scans = _check_pair_events_against_full_scan(mp)
            run(moved, factory)
        assert len(scans) > n


class _Waiter(Program):
    """Stands where it appeared in waits of one time unit: it is never
    idle."""

    def on_appear(self, ctx):
        ctx.issue(Wait(1.0))

    on_idle = on_appear


class _Split(Program):
    """A program that is not anonymous: it waits 0.1, then runs gather-n,
    and at its first idle poll from local time 6 on, choose(ctx) may make
    it a _Waiter for good."""

    def __init__(self, choose, walk):
        self.choose = choose
        self.inner = walk()
        self.chosen = False

    def on_appear(self, ctx):
        # A first leg that lasts no whole number of time units.
        ctx.issue(Wait(0.1))

    def on_ga(self, ctx, view):
        self.inner.on_ga(ctx, view)

    def on_order(self, ctx, target, issuer):
        self.inner.on_order(ctx, target, issuer)

    def on_idle(self, ctx):
        if ctx.now < 1.0:
            self.inner.on_appear(ctx)
            return
        if not self.chosen and ctx.now >= 6.0:
            self.chosen = True
            if self.choose(ctx):
                self.inner = _Waiter()
        self.inner.on_idle(ctx)


def _split_factory(kind, n):
    """Agents that tell themselves apart by their ref's hash, by state
    shared across instances (the order of their choices), or by their
    local time at the choice: the wait of 0.1 ends at a time rounded
    from their start time, so the local time's last bits differ."""
    walk = gather_n_program(n)
    if kind == "hash":
        def choose(ctx):
            return hash(ctx.self_ref) % 2 == 0
    elif kind == "shared":
        polls = itertools.count()

        def choose(ctx):
            return next(polls) % 2 == 0
    else:
        assert kind == "local time"

        def choose(ctx):
            # Its last bit: the spacing of floats in [4, 8) is 2 ** -50.
            return int(ctx.now * 2 ** 50) % 2 == 1
    return lambda: _Split(choose, walk)


@pytest.mark.parametrize("kind", ["hash", "shared", "local time"])
def test_non_anonymous_programs_match_the_full_scan(kind, monkeypatch):
    # No algorithm run by anonymous agents gathers an UNGATHERABLE
    # configuration, so agents that meet here told themselves apart.  The
    # symmetric run checks every leg and ends at the first that leaves
    # its path: every scan still equals the full scan.
    scans = _check_pair_events_against_full_scan(monkeypatch)
    gas = 0
    for s in range(4):
        cfg = ungatherable_config(100 + s, 4)
        sim = Simulation(cfg, _split_factory(kind, 4), horizon=300.0)
        assert sim._path is not None
        trace = sim.run()
        check_all(cfg, trace)
        gas += len(trace.ga_events())
    assert gas > 0
    assert len(scans) > 100


def _sure_pair(side):
    """Two agents at (0, 0) from time 0 and at (x, 0) from 0.5, eps 1.2,
    with x the least float that makes the pair sure, or the float below
    it.  The sure test: -pair_margin - SPEED_TOL |t_i - t_j| >
    BOUND_SLACK + _PATH_SLACK."""
    def sure(x):
        cfg = InitialConfiguration(1.2, (Point(0.0, 0.0), Point(x, 0.0)),
                                   (0.0, 0.5))
        return cfg, (-pair_margin(cfg, 0, 1) - SPEED_TOL * 0.5
                     > BOUND_SLACK + engine._PATH_SLACK)

    # Near the threshold, so the walk up takes a few floats, not millions.
    x = 1.2 + 0.5 + SPEED_TOL * 0.5 + BOUND_SLACK + engine._PATH_SLACK
    for _ in range(8):
        x = math.nextafter(x, -math.inf)
    assert not sure(x)[1]
    while not sure(x)[1]:
        x = math.nextafter(x, math.inf)
    return sure(x if side > 0 else math.nextafter(x, -math.inf))[0]


@pytest.mark.parametrize("side", [1, -1])
def test_sure_threshold_one_float_either_side(side, monkeypatch):
    # At the least float that makes the pair sure, the run is symmetric
    # and solves no pair; one float below it, it is not, and the pair is
    # solved.  Both scans equal the full scan.
    cfg = _sure_pair(side)
    sim = Simulation(cfg, gather_n_program(2))
    assert (sim._path is not None) == (side > 0)
    calls = _counted_solve_in(monkeypatch)
    scans = _check_pair_events_against_full_scan(monkeypatch)
    ended = []
    real_end = Simulation._end_symmetry
    monkeypatch.setattr(Simulation, "_end_symmetry",
                        lambda self: ended.append(self._now) or real_end(self))
    trace = sim.run()
    assert trace.verdict.kind == "timeout"
    assert len(scans) > 100
    if side > 0:
        assert ended == [] and calls == []
    else:
        assert len(calls) > 100


@pytest.mark.parametrize("shift", ["as-is", "far-plane", "late-time"])
def test_ungatherable_runs_stay_symmetric_and_solve_nothing(shift,
                                                           monkeypatch):
    # Every pair of these runs is sure, and every leg stays on the path
    # to the horizon, also with coordinates near 1e7 and clocks near 1e6.
    # The log holds every scan call and every end of symmetry, in order:
    # no scan is called before the symmetry ends, and it never ends.
    calls = _counted_solve_in(monkeypatch)
    outs = []
    real_out = engine.solve_crossing_out
    monkeypatch.setattr(engine, "solve_crossing_out",
                        lambda *args: outs.append(args) or real_out(*args))
    log = []
    real_scan = ProximityGraph.next_events
    real_end = Simulation._end_symmetry
    monkeypatch.setattr(ProximityGraph, "next_events",
                        lambda *args: log.append("scan") or real_scan(*args))
    monkeypatch.setattr(Simulation, "_end_symmetry",
                        lambda self: log.append("end") or real_end(self))
    for s in range(3):
        cfg = ungatherable_config(s, 8)
        horizon = default_horizon(cfg)
        if shift == "far-plane":
            cfg = cfg.translated(Vec2(1e7, -1e7))
        elif shift == "late-time":
            cfg = cfg.time_shifted(1e6)
            horizon += 1e6
        sim = Simulation(cfg, gather_n_program(8), horizon)
        assert sim._path is not None
        trace = sim.run()
        assert trace.verdict.kind == "timeout"
        assert sim._path is not None and len(sim._path) > 300
    assert calls == [] and outs == [] and log == []


@pytest.mark.parametrize("case, end", [
    ("near pair", None), ("early end", 1.0 - 5e-10),
    ("late arrival", None)])
def test_symmetric_run_ends_where_the_path_stops_holding(case, end):
    # Agents that wait in legs of one time unit: 2 and 3 are far from
    # the rest.  In the "near pair" case 0 and 1 start within eps of each
    # other, so not every pair is sure, the run never starts symmetric
    # and every pair is scanned: 0 and 1 meet.  Otherwise 0 is far from
    # 1, and 1 appears within TIME_TOL before the end of 0's first wait,
    # which then ends early and so faster than the path, or 1 appears
    # beyond TIME_TOL before it, and the run stays symmetric.
    t1 = {"near pair": 0.0, "early end": 1.0 - 5e-10,
          "late arrival": 1.0 - 5e-9}[case]
    x1 = 0.3 if case == "near pair" else -10.0
    cfg = InitialConfiguration(
        0.5, (Point(0.0, 0.0), Point(x1, 0.0), Point(10.0, 0.0),
              Point(0.0, 10.0)), (0.0, t1, 0.0, 0.0))
    sim = Simulation(cfg, _Waiter, horizon=20.0)
    starts = case != "near pair"
    assert (sim._path is not None) == starts
    ended = []
    real_end = sim._end_symmetry
    sim._end_symmetry = lambda: ended.append(sim._now) or real_end()
    trace = sim.run()
    assert ended == ([] if end is None else [end])
    assert (sim._path is None) == (not starts or end is not None)
    assert len(trace.ga_events()) == (0 if starts else 1)


def _column_bits(trace):
    """The JSONL lines, and the float.hex of every trajectory column."""
    return trace.jsonl_lines(), [
        [[v.hex() for v in col] for col in (traj.times, traj.xs, traj.ys)]
        for traj in trace.trajectories]


def _lazy_and_eager(cfg, factory, horizon=None):
    """Run cfg as it is, symmetric with lazy positions, and as the
    reference, a run that ends the symmetry before it starts and so
    syncs every agent at every instant.  factory() makes each run's
    program factory, so the runs share no program state.  Returns both
    simulations and traces."""
    lazy = Simulation(cfg, factory(), horizon)
    assert lazy._path is not None
    eager = Simulation(cfg, factory(), horizon)
    eager._end_symmetry()
    return lazy, lazy.run(), eager, eager.run()


@pytest.mark.parametrize("shift", ["as-is", "far-plane", "late-time"])
def test_symmetric_positions_replay_the_eager_floats(shift):
    # A symmetric run moves an agent only at its own events and places
    # the others on their legs when they are read; its trace is bit for
    # bit the one of a run that moves every agent at every instant, also
    # with coordinates near 1e7 and clocks near 1e6.
    for s in range(6):
        cfg = ungatherable_config(s, 8)
        horizon = None
        if shift == "far-plane":
            cfg = cfg.translated(Vec2(1e7, -1e7))
        elif shift == "late-time":
            cfg = cfg.time_shifted(1e6)
            horizon = 1e6 + 400.0
        lazy, trace, eager, ref = _lazy_and_eager(
            cfg, lambda: gather_n_program(8), horizon)
        assert trace.verdict.kind == "timeout"
        assert lazy._path is not None and eager._path is None
        assert _column_bits(trace) == _column_bits(ref)


class _GeneralBody(Simulation):
    """The reference for run's short path, its branch for a lone leg end:
    every instant runs the general body, _process_instant."""

    def run(self):
        # Simulation.run without the branch for a lone leg end.
        horizon = self.horizon
        arrivals = self._arrivals
        ends = self._ends
        prox = self._prox
        while True:
            while ends and ends[0][2].motion is not ends[0][3]:
                heapq.heappop(ends)
            if not arrivals and not ends:
                return self._finish(timed_out=False)
            t_due = ends[0][0] if ends else math.inf
            if arrivals and arrivals[0].start_time < t_due:
                t_due = arrivals[0].start_time
            t_bound = horizon if horizon < t_due else t_due
            if self._now > t_bound:
                t_bound = self._now
            if self._path is not None:
                prox.changed.clear()
                t_event, pair_hits = t_bound, []
            else:
                t_event, pair_hits = prox.next_events(
                    self._live, self._now, t_bound)
            if t_event > horizon + TIME_TOL or (
                    t_event >= horizon - TIME_TOL and not pair_hits
                    and t_due > t_event + TIME_TOL):
                return self._finish(timed_out=True)
            self._now = t_event
            if self._path is None:
                self._sync()
            self._process_instant(pair_hits)


def _short_and_general(cfg, factory, horizon=None):
    """Run cfg as it is and as a _GeneralBody.  factory() makes each
    run's program factory, so the runs share no program state.  Both
    runs must end their symmetry at the same instants, and every instant
    of the first must find the changed agents cleared, by the scan or in
    its place while every pair is sure.  Returns both traces, the times
    of the first run's instants that took the short path (an _arrive
    outside _process_instant) and of those that ran the general body,
    and the instants at which its symmetry ended."""
    short, general, ended, ref_ended = [], [], [], []
    inside = []
    real_general = Simulation._process_instant
    real_arrive = Simulation._arrive
    real_end = Simulation._end_symmetry

    def counted_general(self, pair_hits):
        assert not self._prox.changed
        general.append(self._now)
        inside.append(self._now)
        real_general(self, pair_hits)
        inside.pop()

    def counted_arrive(self, agent):
        if not inside:
            assert not self._prox.changed
            short.append(self._now)
        real_arrive(self, agent)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulation, "_process_instant", counted_general)
        mp.setattr(Simulation, "_arrive", counted_arrive)
        mp.setattr(Simulation, "_end_symmetry",
                   lambda self: ended.append(self._now) or real_end(self))
        trace = Simulation(cfg, factory(), horizon).run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulation, "_end_symmetry",
                   lambda self: ref_ended.append(self._now) or real_end(self))
        ref = _GeneralBody(cfg, factory(), horizon).run()
    assert ended == ref_ended
    return SimpleNamespace(trace=trace, ref=ref, short=short,
                           general=general, ended=ended)


@pytest.mark.parametrize("shift", ["as-is", "far-plane", "late-time"])
def test_short_path_matches_the_general_body_on_symmetric_runs(shift):
    # Nearly every instant of a symmetric run is one leg end, and takes
    # the short path; the trace is bit for bit the general body's.
    for s in range(6):
        cfg = ungatherable_config(s, 8)
        horizon = None
        if shift == "far-plane":
            cfg = cfg.translated(Vec2(1e7, -1e7))
        elif shift == "late-time":
            cfg = cfg.time_shifted(1e6)
            horizon = 1e6 + 400.0
        got = _short_and_general(cfg, lambda: gather_n_program(8), horizon)
        assert got.trace.verdict.kind == "timeout"
        assert _column_bits(got.trace) == _column_bits(got.ref)
        assert len(got.short) > 300
        assert len(got.short) > 20 * len(got.general)
        assert got.ended == []


@pytest.mark.parametrize("seed,n", [(0, 4), (1, 6), (2, 8), (3, 8)])
def test_short_path_matches_the_general_body_under_gather_n(seed, n,
                                                            monkeypatch):
    _check_pair_events_against_full_scan(monkeypatch)
    cfg = good_config(seed, n)
    got = _short_and_general(cfg, lambda: gather_n_program(n))
    assert got.trace.ga_events()
    assert _column_bits(got.trace) == _column_bits(got.ref)
    assert got.short and got.general


@pytest.mark.parametrize("make", [good_pair, boundary_pair],
                         ids=["good", "boundary"])
def test_short_path_matches_the_general_body_under_dedicated(make,
                                                             monkeypatch):
    _check_pair_events_against_full_scan(monkeypatch)
    took = 0
    for seed in range(8):
        cfg = make(seed)
        got = _short_and_general(
            cfg, lambda: dedicated_program(cfg, cfg.epsilon),
            _dedicated_horizon(cfg))
        assert _column_bits(got.trace) == _column_bits(got.ref)
        took += len(got.short)
    assert took > 0


_STOP = "stop"


class _Script(Program):
    """Takes the steps of its plan one at a time, at its appearance and
    at each idle poll, then nothing, and logs each callback as (kind, its
    agent's number, local time).  A step is an instruction to issue, a
    tuple of instructions to issue together, or _STOP, which stops the
    agent.  An agent that turns drops its plan at a GA and walks west."""

    def __init__(self, k, plan, log, turns):
        self.k = k
        self.plan = list(plan)
        self.log = log
        self.turns = turns

    def _next(self, ctx, kind):
        self.log.append((kind, self.k, ctx.now))
        if self.plan:
            step = self.plan.pop(0)
            if step is _STOP:
                ctx.stop()
                return
            for instr in step if type(step) is tuple else (step,):
                ctx.issue(instr)

    def on_appear(self, ctx):
        self._next(ctx, "appear")

    def on_idle(self, ctx):
        self._next(ctx, "idle")

    def on_ga(self, ctx, view):
        self.log.append(("ga", self.k, ctx.now))
        if self.turns:
            ctx.clear_plan()
            ctx.issue(Go(WEST, 2.0))


_FAR3 = ((0.0, 0.0), (10.0, 0.0), (0.0, 10.0))

# name: (eps, starts, times, plans, the agents that turn, the instant
# of the case, and whether it takes the short path).  Runs end at 8.
_EDGE_INSTANTS = {
    # Agent 1's wait ends at 1, agent 0's 5e-10 later, and both are
    # polled at 1 in index order, though the heap holds agent 1's end
    # first.  Agent 0's end is the heap's second entry, ends[1].
    "two leg ends": (0.5, _FAR3, (0.0, 0.0, 0.0),
                     [[Wait(1.0 + 5e-10), Wait(1.0)], [Wait(1.0)] * 2,
                      [Wait(0.5), Wait(3.0)]], (), 1.0, False),
    # The same with the second end in ends[2]: the legs were set in index
    # order, 0, 1, 2, so the heap is [0, 1, 2] by agent.
    "two leg ends, the second in ends[2]": (
        0.5, _FAR3, (0.0, 0.0, 0.0),
        [[Wait(1.0)], [Wait(5.0)], [Wait(1.0 + 5e-10)]], (), 1.0, False),
    "leg end at an appearance": (0.5, _FAR3[:2], (0.0, 1.0),
                                 [[Wait(1.0)] * 2, [Wait(1.0)]], (),
                                 1.0, False),
    # Agent 1's first leg leaves agent 0's path, which ends the symmetry
    # at 0.25; agent 0 stops at 1 on the short path.
    "GotoStop arrival": (0.5, _FAR3[:2], (0.0, 0.25),
                         [[GotoStop(Point(1.0, 0.0))], [Wait(1.0)]], (),
                         1.0, True),
    # A symmetric run whose path is one GotoStop: agent 0 arrives first,
    # at 1, and its stop ends the symmetry on the short path.
    "GotoStop arrival in a symmetric run": (
        0.5, _FAR3, (0.0, 0.25, 0.5), [[GotoStop(Point(1.0, 0.0))]] * 3,
        (), 1.0, True),
    # A symmetric run of waits: agent 0 is the first left idle, at 3,
    # which ends the symmetry on the short path.
    "agent left idle": (0.5, _FAR3, (0.0, 0.25, 0.5), [[Wait(1.0)] * 3] * 3,
                        (), 3.0, True),
    # The same run with a leg that ends 5e-10 after the horizon: the
    # instant at the horizon ends it early, and so the symmetry, though
    # the agent walks on.
    "early end at the horizon": (
        0.5, _FAR3, (0.0, 0.25, 0.5),
        [[Wait(1.0)] * 3 + [Wait(5.0 + 5e-10), Wait(1.0)]] * 3, (), 8.0,
        True),
    # Agent 0 stops at (1, 0) at 1, where the symmetry has ended, and is
    # left idle there.  Agent 1 walks west all along: it meets agent 0
    # only because the end of agent 0's leg makes the scan solve the
    # pair again.
    "idle agent met later": (0.5, ((0.0, 0.0), (5.0, 0.0)), (0.0, 0.0),
                             [[Go(EAST, 1.0)], [Go(WEST, 10.0)]], (), 1.0,
                             True),
    # Agent 0 walks onto agent 1's eps disc at its leg's end, 1; the GA
    # there turns it, and its heap entry, due then, goes stale.
    "stale at its due time": (0.5, ((0.0, 0.0), (1.5, 0.0), (0.0, 10.0)),
                              (0.0, 0.0, 0.0),
                              [[Go(EAST, 1.0)], [], [Wait(3.0)]], (0,),
                              1.0, False),
    # The GA at 0.5 turns agent 0, whose entry due at 1 goes stale.  It
    # is the heap's second entry when agent 2's wait ends 5e-10 earlier:
    # that instant has one live leg end, but not one due entry.
    "stale second entry": (0.5, ((0.0, 0.0), (1.0, 0.0), (0.0, 10.0)),
                           (0.0, 0.0, 0.0),
                           [[Go(EAST, 1.0)], [], [Wait(1.0 - 5e-10)]],
                           (0,), 1.0 - 5e-10, False),
    # A head that lasts no time begins no leg: at 1 the short path's poll
    # skips agent 0's Go of length 0 and begins the wait behind it on the
    # path.  Agent 0, left idle at 2, ends the symmetry there.
    "zero-length Go at the head": (
        0.5, _FAR3, (0.0, 0.25, 0.5),
        [[Wait(1.0), (Go(EAST, 0.0), Wait(1.0))]] * 3, (), 1.0, True),
    # The same with a Wait(0.0), in a run whose symmetry ended at 0.25,
    # where agent 1's first leg leaves agent 0's path.
    "Wait(0.0) at the head": (
        0.5, _FAR3[:2], (0.0, 0.25),
        [[Wait(1.0), (Wait(0.0), Go(EAST, 1.0))], [Go(WEST, 1.0)]], (),
        1.0, True),
    # At 1 the short path's poll begins agent 0's GotoStop on the path;
    # the agents stop at 2, 2.25 and 2.5, and the first stop ends the
    # symmetry.
    "GotoStop begun on the short path": (
        0.5, _FAR3, (0.0, 0.25, 0.5),
        [[Wait(1.0), GotoStop(Point(1.0, 0.0))]] * 3, (), 1.0, True),
    # Agent 0's on_idle stops it at 1, which ends the symmetry.
    "on_idle stops the agent": (
        0.5, _FAR3, (0.0, 0.25, 0.5), [[Wait(1.0), _STOP]] * 3, (), 1.0,
        True),
    # Agent 1's second leg, begun on the short path at 1.25, leaves the
    # path of agent 0, which waits; its check ends the symmetry.  Agent 1
    # walks west onto agent 0, and meets it only because it joined the
    # changed agents the next scan solves.
    "leg off the path met later": (
        0.5, ((0.0, 0.0), (5.0, 0.0)), (0.0, 0.25),
        [[Wait(1.0), Wait(10.0)], [Wait(1.0), Go(WEST, 10.0)]], (), 1.25,
        True),
    # Agent 1, the earlier, is the first to begin a second leg, so the
    # path takes it; agent 0, left idle at 1.25 on the short path, ends
    # the symmetry.  Agent 1 walks west onto agent 0 on that matched leg,
    # and meets it only because an agent without a motion joins the
    # changed agents when the symmetry ends.
    "agent left idle met later": (
        0.5, ((0.0, 0.0), (5.0, 0.0)), (0.25, 0.0),
        [[Go(EAST, 1.0)], [Go(EAST, 1.0), Go(WEST, 10.0)]], (), 1.25,
        True),
}


@pytest.mark.parametrize("case", list(_EDGE_INSTANTS))
def test_edge_instants_match_the_general_body(case):
    eps, starts, times, plans, turns, at, short_path = _EDGE_INSTANTS[case]
    cfg = InitialConfiguration(eps, tuple(Point(*p) for p in starts), times)
    logs = []

    def factory():
        log = []
        logs.append(log)
        made = itertools.count()

        def program():
            k = next(made)
            return _Script(k, plans[k], log, k in turns)
        return program

    got = _short_and_general(cfg, factory, 8.0)
    assert _column_bits(got.trace) == _column_bits(got.ref)
    assert logs[0] == logs[1]
    assert (at in got.short) == short_path
    assert (at in got.general) != short_path
    polled = [k for kind, k, now in logs[0]
              if kind == "idle" and now + times[k] == at]
    if case.startswith("two leg ends"):
        assert polled == ([0, 1] if case == "two leg ends" else [0, 2])
    stops = [ev.time for ev in got.trace.events if ev.kind == "stop"]
    if case == "GotoStop arrival":
        assert stops == [at]
    if case == "GotoStop arrival in a symmetric run":
        assert stops == [1.0, 1.25, 1.5]
    if case == "GotoStop begun on the short path":
        assert stops == [2.0, 2.25, 2.5]
    if case == "on_idle stops the agent":
        assert stops == [1.0, 1.25, 1.5]
    if case in ("agent left idle", "early end at the horizon",
                "GotoStop arrival in a symmetric run",
                "on_idle stops the agent", "leg off the path met later",
                "agent left idle met later"):
        assert got.ended == [at]
    if case in ("zero-length Go at the head",
                "GotoStop begun on the short path"):
        assert got.ended == [2.0]
    if case == "Wait(0.0) at the head":
        assert got.ended == [0.25]
    if case == "idle agent met later":
        assert [ev.time for ev in got.trace.ga_events()] == [3.5]
    if case == "leg off the path met later":
        assert [ev.time for ev in got.trace.ga_events()] == [5.75]
    if case == "agent left idle met later":
        assert [ev.time for ev in got.trace.ga_events()] == [5.5]
    if case.startswith("stale"):
        assert [ev.time for ev in got.trace.ga_events()] == [
            1.0 if case == "stale at its due time" else 0.5]


_LENGTHS = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(1e-3, 3.0)
_INSTRUCTIONS = st.one_of(
    st.builds(Go, st.sampled_from([EAST, WEST, NORTH, Vec2(0.6, -0.8)]),
              _LENGTHS),
    st.builds(Wait, _LENGTHS),
    st.builds(GotoStop, st.builds(Point, st.sampled_from([-1.0, 0.0, 1.5]),
                                  st.sampled_from([0.0, 1.0]))))
_PLANS = st.lists(_INSTRUCTIONS | st.tuples(_INSTRUCTIONS, _INSTRUCTIONS),
                  max_size=5)


@st.composite
def _script_runs(draw):
    """A configuration of 2 to 4 agents, 1.5 apart or more on a grid, and
    each agent's _Script plan, one for all of them or one each, and the
    agents that turn.  Start times may tie; every pair starts sure."""
    n = draw(st.integers(2, 4))
    cells = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=n, max_size=n, unique=True))
    times = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=n,
                          max_size=n))
    cfg = InitialConfiguration(
        0.5, tuple(Point(1.5 * x, 1.5 * y) for x, y in cells), tuple(times))
    if draw(st.booleans()):
        plans = [draw(_PLANS)] * n
    else:
        plans = [draw(_PLANS) for _ in range(n)]
    turns = draw(st.sets(st.integers(0, n - 1)))
    return cfg, plans, turns


@settings(deadline=None, max_examples=200)
@given(case=_script_runs())
def test_scripted_runs_match_the_general_body(case):
    # Zero-length heads, GotoStops, stops on arrival, GAs that turn an
    # agent and tied leg ends, on runs that stay symmetric or leave the
    # path: the short path's trace and callbacks are the general body's.
    cfg, plans, turns = case
    logs = []

    def factory():
        log = []
        logs.append(log)
        made = itertools.count()

        def program():
            k = next(made)
            return _Script(k, plans[k], log, k in turns)
        return program

    with pytest.MonkeyPatch.context() as mp:
        _check_pair_events_against_full_scan(mp)
        got = _short_and_general(cfg, factory, 8.0)
    assert _column_bits(got.trace) == _column_bits(got.ref)
    assert logs[0] == logs[1]


@pytest.mark.parametrize("vx, vy", [(1.0, 0.0), (0.0, 1.0), (0.6, -0.8)])
def test_leg_keeps_a_signed_zero_start_up_to_its_start(vx, vy):
    # A leg from (-0.0, -0.0) gives its start with both signs at its own
    # start instant and just before it; x0 + vx (t - t0) there would be
    # -0.0 + 0.0, which is +0.0.  Just after it the place moves on.
    t0 = 2.0
    leg = engine._Motion(t0, -0.0, -0.0, t0 + 3.0, 3.0 * vx, 3.0 * vy,
                         vx, vy, False)
    for t in (t0, t0 - 1e-12):
        assert [math.copysign(1.0, c) for c in leg.at(t)] == [-1.0, -1.0]
    assert leg.at(t0 + 0.5) == (0.5 * vx, 0.5 * vy)


@pytest.mark.parametrize("shift", ["as-is", "far-plane", "late-time",
                                   "sure-pair"])
def test_appearance_is_beyond_eps_while_every_pair_is_sure(shift):
    # While every pair is sure, an appearance makes no edge, and a
    # symmetric run skips its touching test: the appearing agent stands
    # at its origin, and an earlier one has moved at most
    # (1 + SPEED_TOL) |t_i - t_j| from its own.  In the eager reference,
    # every agent that appeared no later lies beyond eps + BOUND_SLACK of
    # the appearing one, also at the least float that makes a pair sure.
    if shift == "sure-pair":
        cases = [(_sure_pair(1), 20.0)]
    else:
        cases = []
        for s in range(6):
            cfg = ungatherable_config(s, 8)
            horizon = None
            if shift == "far-plane":
                cfg = cfg.translated(Vec2(1e7, -1e7))
            elif shift == "late-time":
                cfg = cfg.time_shifted(1e6)
                horizon = 1e6 + 400.0
            cases.append((cfg, horizon))
    for cfg, horizon in cases:
        _, trace, _, ref = _lazy_and_eager(
            cfg, lambda: gather_n_program(cfg.n), horizon)
        assert _column_bits(trace) == _column_bits(ref)
        assert ref.ga_events() == []
        for j, (o, t_j) in enumerate(zip(cfg.starts, cfg.times)):
            for i, t_i in enumerate(cfg.times):
                if i != j and t_i <= t_j:
                    x, y = ref.trajectories[i].xy_at(t_j)
                    assert math.hypot(x - o.x, y - o.y) \
                        > cfg.epsilon + BOUND_SLACK


class _LongThenShort(Program):
    """One long walk, then short walks east and west, for good."""

    def __init__(self):
        self.east = True

    def on_appear(self, ctx):
        ctx.issue(Go(Vec2(0.6, 0.8), 150.0))

    def on_idle(self, ctx):
        self.east = not self.east
        ctx.issue(Go(Vec2(1.0 if self.east else -1.0, 0.0), 0.0625))


# Agent 1's long walk, from t = 100 to 250, spans 1,600 of agent 0's
# short walks.
_LONG_THEN_SHORT = InitialConfiguration(
    0.5, (Point(0.0, 0.0), Point(0.0, -400.0)), (0.0, 100.0))


def test_long_leg_across_many_short_ones_matches_the_eager_floats():
    lazy, trace, _, ref = _lazy_and_eager(
        _LONG_THEN_SHORT, lambda: _LongThenShort, 400.0)
    assert lazy._path is not None
    walk = [t for t in trace.trajectories[0].times if 100.0 < t < 250.0]
    assert len(walk) > 1000
    assert _column_bits(trace) == _column_bits(ref)


class _LongWalkWatcher(_LongThenShort):
    """_LongThenShort that, at each idle poll, logs the simulation time
    and where every other agent is, read off its shared context."""

    def __init__(self, shared):
        super().__init__()
        self.shared = shared

    def on_appear(self, ctx):
        self.shared["ctxs"].append(ctx)
        super().on_appear(ctx)

    def on_idle(self, ctx):
        for other in self.shared["ctxs"]:
            if other is not ctx:
                self.shared["log"].append((other._sim._now, other.position))
        super().on_idle(ctx)


def test_positions_read_mid_leg_do_not_drift_from_its_line():
    # A position is its leg's start plus velocity times elapsed time,
    # rounded once per read, so however many instants the long walk
    # spans, every read lies on the exact line through the leg's float
    # start and velocity up to a few ulps; stepped from instant to
    # instant instead, the rounding would add up along the walk.
    logs = []

    def factory():
        shared = {"ctxs": [], "log": []}
        logs.append(shared["log"])
        return lambda: _LongWalkWatcher(shared)

    lazy, _, eager, _ = _lazy_and_eager(_LONG_THEN_SHORT, factory, 400.0)
    assert lazy._path is not None and eager._path is None
    t0 = Fraction(100.0)
    vx, vy = Fraction(0.6), Fraction(0.8)
    for log in logs:
        walk = [(t, p) for t, p in log if 100.0 < t < 250.0]
        assert len(walk) > 1000
        err = max(max(abs(Fraction(p.x) - vx * (Fraction(t) - t0)),
                      abs(Fraction(p.y) - vy * (Fraction(t) - t0)))
                  for t, p in walk)
        assert err < Fraction(1, 10 ** 13)
    assert logs[0] == logs[1]


class _Meddler(Program):
    """gather-n, with state shared by every instance: each keeps the ctx
    of every agent that appeared.  With act "read", at each idle poll it
    logs where every other agent is, mid-leg; with act "clear" or "stop",
    the 200th poll of the run clears the plan of, or stops, every other
    agent, each in the middle of a walk."""

    def __init__(self, shared, act):
        self.shared = shared
        self.act = act
        self.inner = gather_n_program(8)()

    def on_appear(self, ctx):
        self.shared["ctxs"].append(ctx)
        self.inner.on_appear(ctx)

    def on_ga(self, ctx, view):
        self.inner.on_ga(ctx, view)

    def on_order(self, ctx, target, issuer):
        self.inner.on_order(ctx, target, issuer)

    def on_idle(self, ctx):
        shared = self.shared
        others = [o for o in shared["ctxs"] if o is not ctx]
        shared["polls"] += 1
        if self.act == "read":
            for other in others:
                p = other.position
                shared["log"].append((p.x.hex(), p.y.hex()))
        elif shared["polls"] == 200:
            for other in others:
                if self.act == "clear":
                    other.clear_plan()
                else:
                    other.stop()
        self.inner.on_idle(ctx)


@pytest.mark.parametrize("act", ["read", "clear", "stop"])
def test_programs_that_read_or_halt_other_agents_see_eager_floats(act):
    # Every position a program reads off another agent's context, and
    # every record a halt of that agent makes, is the eager float.
    for s in range(3):
        cfg = ungatherable_config(s, 8)
        logs = []

        def factory():
            shared = {"ctxs": [], "log": [], "polls": 0}
            logs.append(shared["log"])
            return lambda: _Meddler(shared, act)

        lazy, trace, _, ref = _lazy_and_eager(cfg, factory, 300.0)
        assert logs[0] == logs[1]
        assert (len(logs[0]) > 1000) == (act == "read")
        assert _column_bits(trace) == _column_bits(ref)
        assert (lazy._path is not None) == (act == "read")
        stops = [ev for ev in trace.events if ev.kind == "stop"]
        assert len(stops) == (0 if act == "read" else
                              len(cfg.times) - 1 if act == "stop" else
                              len(stops))
        check_all(cfg, trace)


def _view_for(sim, observer, group):
    """The _view_bits of observer's view, built per observer from the live
    agents, without the shared snapshot; adjacency is measured from the
    observer."""
    entries = []
    for i in group:
        ag = sim.agents[i]
        rel = Point(ag.x - observer.origin.x,
                    ag.y - observer.origin.y)
        rel_init = (ag.origin.x - observer.origin.x,
                    ag.origin.y - observer.origin.y)
        near = math.hypot(ag.x - observer.x, ag.y - observer.y) \
            <= sim.eps + PROX_TOL
        entries.append(((rel.coords, rel_init), ag.idx,
                        (ag.ref._token, rel.x.hex(), rel.y.hex(), ag.tag,
                         near)))
    entries.sort(key=lambda e: e[0])
    self_index = next(k for k, e in enumerate(entries)
                      if e[1] == observer.idx)
    return ((sim._now - observer.start_time).hex(), self_index,
            tuple(e[2] for e in entries))


def _view_bits(view):
    return (view.time.hex(), view.self_index,
            tuple((p.ref._token, p.position.x.hex(), p.position.y.hex(),
                   p.tag, p.adjacent) for p in view.participants))


@pytest.mark.parametrize("seed,n", [(0, 6), (1, 7), (2, 8)])
def test_views_match_per_observer_build(seed, n, monkeypatch):
    real = Simulation._views
    made = []  # (view, bits expected at GA start) of every view handed out
    skipped = []

    def checked(self, members):
        views = real(self, members)
        group = [ag.idx for ag in members]
        awake = [i for i in group if not self.agents[i].stopped]
        assert sorted(views) == awake
        made.extend((views[i], _view_for(self, self.agents[i], group))
                    for i in awake)
        skipped.append(len(group) - len(awake))
        return views

    monkeypatch.setattr(Simulation, "_views", checked)
    run(good_config(seed, n), gather_n_program(n))
    assert len(skipped) > n
    # Members stopped at GA start get no view and are still covered.
    assert sum(skipped) > 0
    # Tokens and shadows never read their views; the reads below build
    # those too, after the run, and still see each GA's start.
    assert any(view._participants is None for view, _ in made)
    for view, bits in made:
        assert _view_bits(view) == bits


def _snapshot_read(view):
    def rows(parts):
        return tuple(((p.ref, p.tag, p.adjacent), p.position) for p in parts)
    return (view.time, view.self_index, rows(view.participants),
            rows(view.others()))


def test_view_is_a_ga_start_snapshot():
    """A view read late shows the GA's start, not the agents' live state.

    Agent 0 is first in group order: in on_ga it changes its tag, clears
    its plan and walks east, keeping its view unread until its next
    on_idle.  Agent 1 appears within epsilon of it, reads its view only
    after agent 0's callback, walks west, and reads the stored view again
    at its next on_idle.  By then live positions would flip the order and
    the adjacency of the two.
    """
    reads = []

    class First(Program):
        view = None

        def on_appear(self, ctx):
            ctx.tag = "zero"
            ctx.issue(Wait(5.0))

        def on_ga(self, ctx, view):
            self.view = view
            ctx.tag = "after"
            ctx.clear_plan()
            ctx.issue(Go(Vec2(1.0, 0.0), 3.0))

        def on_idle(self, ctx):
            if self.view is not None:
                reads.append((0, ctx.now, _snapshot_read(self.view)))
                self.view = None

    class Later(Program):
        view = None

        def on_appear(self, ctx):
            ctx.tag = "one"
            ctx.issue(Go(Vec2(-1.0, 0.0), 1.0))

        def on_ga(self, ctx, view):
            self.view = view
            reads.append((1, ctx.now, _snapshot_read(view)))
            ctx.tag = "later"

        def on_idle(self, ctx):
            if self.view is not None:
                reads.append((1, ctx.now, _snapshot_read(self.view)))
                self.view = None

    cfg = InitialConfiguration(1.0, (Point(0.0, 0.0), Point(0.3, 0.4)),
                               (0.0, 1.0))
    mk = iter([First(), Later()])
    trace = run(cfg, lambda: next(mk), horizon=10.0)
    assert [ev.time for ev in trace.ga_events()] == [1.0]
    a = (AgentRef(0), "zero", True)
    b = (AgentRef(1), "one", True)
    seen_by_0 = (1.0, 0, ((a, Point(0.0, 0.0)), (b, Point(0.3, 0.4))),
                 ((b, Point(0.3, 0.4)),))
    seen_by_1 = (0.0, 1, ((a, Point(-0.3, -0.4)), (b, Point(0.0, 0.0))),
                 ((a, Point(-0.3, -0.4)),))
    assert reads == [(1, 0.0, seen_by_1), (1, 1.0, seen_by_1),
                     (0, 4.0, seen_by_0)]
    # At the late reads the agents stand more than epsilon apart, agent 0
    # east of agent 1.
    assert trace.trajectories[0].position_at(2.0).dist(
        Point(1.0, 0.0)) < 1e-12
    assert trace.trajectories[1].position_at(2.0).dist(
        Point(-0.7, 0.4)) < 1e-12


def test_orders_can_only_be_sent_from_on_ga():
    """Four agents appear at once, chained within epsilon, 5 from the
    origin.  Agent 3 stops in on_appear, so the one GA has three awake
    members.  Agent 0 orders from on_ga; every agent also tries to order
    from on_appear, on_idle and on_order, and each of those calls raises.
    """
    refused = []
    received = []

    class Probe(Program):
        def _try(self, ctx, where):
            try:
                ctx.send_order(Point(9.0, 9.0))
            except RuntimeError as exc:
                refused.append((ctx.self_ref, where, str(exc)))

        def on_appear(self, ctx):
            self._try(ctx, "appear")

        def on_idle(self, ctx):
            self._try(ctx, "idle")

        def on_order(self, ctx, target, issuer):
            received.append((ctx.self_ref, target, issuer))
            self._try(ctx, "order")

    class Issuer(Probe):
        def on_ga(self, ctx, view):
            ctx.send_order(Point(1.0, 2.0))

    class Sleeper(Probe):
        def on_appear(self, ctx):
            ctx.stop()

    starts = (Point(5.0, 5.0), Point(5.3, 5.0), Point(5.6, 5.0),
              Point(5.0, 5.3))
    cfg = InitialConfiguration(0.5, starts, (0.0,) * 4)
    mk = iter([Issuer(), Probe(), Probe(), Sleeper()])
    trace = run(cfg, lambda: next(mk), horizon=10.0)
    assert [ev.agents for ev in trace.ga_events()] == [(0, 1, 2, 3)]
    orders = [ev for ev in trace.events if ev.kind == "order"]
    assert [(ev.issuer, ev.agents, ev.target) for ev in orders] \
        == [(0, (1, 2), Point(6.0, 7.0))]
    assert received == [(AgentRef(i), Point(6.0 - starts[i].x, 2.0),
                         AgentRef(0)) for i in (1, 2)]
    message = "orders can only be sent during a GA"
    assert sorted((ref._token, where, msg) for ref, where, msg in refused) \
        == sorted([(i, "appear", message) for i in range(3)]
                  + [(i, "order", message) for i in (1, 2)]
                  + [(i, "idle", message) for i in range(3)])


def test_refs_are_unordered():
    a, b = AgentRef(0), AgentRef(1)
    assert a == a and a != b
    assert hash(a) == hash(AgentRef(0)) and hash(a) != hash(b)
    with pytest.raises(TypeError):
        a < b  # noqa: B015


class Issues(Program):
    """Issues one instruction on appearing."""

    def __init__(self, instr):
        self.instr = instr

    def on_appear(self, ctx):
        ctx.issue(self.instr)


def test_invalid_instruction_rejected():
    # NaN passes a plain "< 0" test and used to fail only when the
    # trajectory was built; an infinite GotoStop target never ended the
    # run.  An instruction validates itself when made, and the error
    # names it.
    for make, message in (
            (lambda: Go(Vec2(2.0, 0.0), 1.0),
             "direction is not a unit vector: "
             "Go(direction=Vec2(dx=2.0, dy=0.0), distance=1.0)"),
            (lambda: Go(Vec2(1.0, 0.0), -1.0),
             "distance is negative or NaN: "
             "Go(direction=Vec2(dx=1.0, dy=0.0), distance=-1.0)"),
            (lambda: Go(Vec2(1.0, 0.0), math.nan),
             "distance is negative or NaN: "
             "Go(direction=Vec2(dx=1.0, dy=0.0), distance=nan)"),
            (lambda: Go(Vec2(math.nan, 0.0), 1.0),
             "direction is not a unit vector: "
             "Go(direction=Vec2(dx=nan, dy=0.0), distance=1.0)"),
            (lambda: Go(Vec2(0.0, math.nan), 1.0),
             "direction is not a unit vector: "
             "Go(direction=Vec2(dx=0.0, dy=nan), distance=1.0)"),
            (lambda: Wait(-1.0),
             "wait is negative or NaN: Wait(duration=-1.0)"),
            (lambda: Wait(math.nan),
             "wait is negative or NaN: Wait(duration=nan)"),
            (lambda: GotoStop(Point(math.nan, 0.0)),
             "target is not finite: GotoStop(target=Point(x=nan, y=0.0))"),
            (lambda: GotoStop(Point(0.0, math.inf)),
             "target is not finite: GotoStop(target=Point(x=0.0, y=inf))"),
            (lambda: GotoStop(Point(-math.inf, 1.0)),
             "target is not finite: "
             "GotoStop(target=Point(x=-inf, y=1.0))")):
        with pytest.raises(InvalidInstruction,
                           match=f"^{re.escape(message)}$"):
            make()

    # A program that makes an invalid instruction fails its run.
    class IssuesBadGo(Program):
        def on_appear(self, ctx):
            ctx.issue(Go(Vec2(1.0, 0.0), -1.0))

    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    with pytest.raises(InvalidInstruction, match="distance is negative"):
        run(cfg, IssuesBadGo, horizon=5.0)


def test_non_instruction_rejected():
    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    with pytest.raises(InvalidInstruction,
                       match=r"^unknown instruction 'north'$"):
        run(cfg, lambda: Issues("north"), horizon=5.0)


def _waits_for_nothing(count):
    class WaitsForNothing(Program):
        def on_appear(self, ctx):
            for _ in range(count):
                ctx.issue(Wait(0.0))
    return WaitsForNothing


def test_endless_zero_duration_instructions_rejected():
    # More zero waits in a row than MAX_INSTANT_INSTRUCTIONS fail the run.
    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    with pytest.raises(InvalidInstruction,
                       match="^too many zero-duration instructions$"):
        run(cfg, _waits_for_nothing(engine.MAX_INSTANT_INSTRUCTIONS + 1),
            horizon=5.0)


def test_as_many_zero_duration_instructions_as_allowed_run():
    # A program may emit MAX_INSTANT_INSTRUCTIONS of them in a row.
    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    trace = run(cfg, _waits_for_nothing(engine.MAX_INSTANT_INSTRUCTIONS),
                horizon=5.0)
    assert trace.verdict.kind == "split"
    assert trace.final_positions == (Point(0, 0), Point(10, 0))


def test_issue_after_stop_rejected():
    class IssuesAfterStop(Program):
        def on_appear(self, ctx):
            ctx.stop()
            ctx.issue(Wait(1.0))

    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    with pytest.raises(InvalidInstruction, match="^agent has stopped$"):
        run(cfg, IssuesAfterStop, horizon=5.0)


@pytest.mark.parametrize("instr", [Wait(math.inf),
                                   Go(Vec2(1.0, 0.0), math.inf)], ids=repr)
def test_endless_instruction_runs_to_the_horizon(instr):
    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    trace = run(cfg, lambda: Issues(instr), horizon=5.0)
    assert trace.verdict.kind == "timeout"
    walked = 5.0 if isinstance(instr, Go) else 0.0
    assert trace.final_positions[0] == Point(walked, 0.0)


def test_goto_stop_and_gathered_verdict():
    class MeetAtOrigin(Program):
        def on_appear(self, ctx):
            # Own-frame target: back to own origin for agent 0, and the
            # other's origin offset for agent 1 is unknown, so send both
            # to their own origin shifted to a common point via a fixed
            # absolute-free rule: agent at (0,0) stays, walker goes west.
            ctx.issue(GotoStop(Point(0.0, 0.0)))

    cfg = pair(0.5, (0, 0), 0.0, (0.2, 0), 0.0)
    trace = run(cfg, MeetAtOrigin, horizon=5.0)
    assert trace.verdict.kind == "split"  # both stop at own origins

    class WalkerStops(Program):
        def on_appear(self, ctx):
            ctx.issue(GotoStop(Point(-0.2, 0.0)))

    mk = iter([MeetAtOrigin(), WalkerStops()])
    trace = run(cfg, lambda: next(mk), horizon=5.0)
    assert trace.verdict.kind == "gathered"
    assert trace.verdict.point.dist(Point(0, 0)) < 1e-9
    assert all(ev.kind != "horizon" for ev in trace.events)


def test_wait_then_move():
    class WaitWalk(Program):
        def on_appear(self, ctx):
            ctx.issue(Wait(2.0))
            ctx.issue(Go(Vec2(0.0, 1.0), 1.0))

    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    trace = run(cfg, WaitWalk, horizon=10.0)
    traj = trace.trajectories[0]
    assert traj.position_at(2.0) == Point(0, 0)
    assert traj.position_at(3.0).dist(Point(0, 1)) < 1e-9


def test_timeout_verdict_and_horizon_event():
    class Forever(Program):
        def on_appear(self, ctx):
            ctx.issue(Go(Vec2(1.0, 0.0), 1.0))

        def on_idle(self, ctx):
            ctx.issue(Go(Vec2(1.0, 0.0), 1.0))

    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    trace = run(cfg, Forever, horizon=7.0)
    assert trace.verdict.kind == "timeout"
    assert trace.events[-1].kind == "horizon"
    assert trace.trajectories[0].end_time == 7.0


# Work that falls due exactly at the horizon is still processed.

def test_appearance_at_horizon_is_processed():
    cfg = pair(0.5, (0, 0), 0.0, (5, 0), 3.0)
    trace = run(cfg, Still, horizon=3.0)
    assert [(ev.kind, ev.time, ev.agents) for ev in trace.events
            if ev.kind == "appear"] == [("appear", 0.0, (0,)),
                                         ("appear", 3.0, (1,))]


def test_leg_ending_at_horizon_reaches_on_idle():
    class WalkThenStop(WalkEast):
        def on_idle(self, ctx):
            ctx.stop()

    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    trace = run(cfg, WalkThenStop, horizon=2.0)
    assert [(ev.kind, ev.time, ev.agents) for ev in trace.events
            if ev.kind == "stop"] == [("stop", 2.0, (0,)),
                                       ("stop", 2.0, (1,))]
    assert trace.verdict.kind == "split"


def test_approach_at_horizon_records_ga():
    # a walks east from the origin towards b, still at (3, 0); with
    # epsilon 1/2 they meet at t = 2.5 exactly, the horizon.
    mk = iter([WalkEast(10.0), Still()])
    cfg = pair(0.5, (0, 0), 0.0, (3, 0), 0.0)
    trace = run(cfg, lambda: next(mk), horizon=2.5)
    assert [ev.time for ev in trace.ga_events()] == [2.5]
    assert trace.verdict.kind == "timeout"


@pytest.mark.parametrize("times", [(0.0, 5.0), (5.0, 6.0)])
def test_next_event_past_horizon_times_out(times):
    # The first case waits for an appearance past the horizon, the second
    # starts after it.
    mk = iter([WalkEast(10.0), Still()])
    cfg = pair(0.5, (0, 0), times[0], (10, 0), times[1])
    trace = run(cfg, lambda: next(mk), horizon=2.0)
    assert trace.events[-1].kind == "horizon"
    assert trace.events[-1].time == 2.0
    assert trace.verdict.kind == "timeout"
    assert trace.verdict.time == 2.0


@pytest.mark.parametrize("horizon", [math.nan, -5.0, 0.0, math.inf,
                                     -math.inf])
def test_horizon_must_be_finite_and_positive(horizon):
    # Only the constructor runs: a NaN horizon that got through would make
    # run() loop forever, since every comparison with NaN is false.
    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    with pytest.raises(ValueError, match="horizon must be finite"):
        Simulation(cfg, Still, horizon)


def test_trajectory_has_one_segment_per_leg():
    # The stepper ends a leg every 0.5 time units, but the engine records
    # the walker once, at the end of its single 5-unit leg.
    class Walker(Program):
        def on_appear(self, ctx):
            ctx.issue(Go(Vec2(0.0, 1.0), 5.0))

    class Stepper(Program):
        def on_appear(self, ctx):
            for _ in range(10):
                ctx.issue(Wait(0.5))

    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 0.0)
    mk = iter([Walker(), Stepper()])
    trace = run(cfg, lambda: next(mk), horizon=20.0)
    walker, stepper = trace.trajectories
    assert [(s.start_time, s.end_time) for s in walker.segments] \
        == [(0.0, 5.0)]
    assert walker.end_point == Point(0, 5)
    # Consecutive waits are separate legs even at the same velocity.
    assert [s.end_time for s in stepper.segments] \
        == [0.5 * k for k in range(1, 11)]


_STILL_LEG = object()


class _LastRecordOfEachLeg:
    """Wraps a builder and passes on, of consecutive records of one leg,
    only the last.  The leg is a token compared by identity."""

    def __init__(self, builder):
        self.builder = builder
        self.pending = None

    def record(self, t, x, y, leg):
        held = self.pending
        if held is not None and leg is not held[3]:
            self.builder.move_to(*held[:3])
        self.pending = (t, x, y, leg)

    def move_to(self, t, x, y):
        """A record that is a leg of its own: the closing pad."""
        self.record(t, x, y, object())

    @property
    def last_time(self):
        held = self.pending
        return self.builder.last_time if held is None else held[0]

    def build(self):
        if self.pending is not None:
            self.builder.move_to(*self.pending[:3])
            self.pending = None
        return self.builder.build()


class _EveryEventRecorder(Simulation):
    """The reference recorder: every move of the clock records every live
    agent at the end of its current leg, and leg ends record nothing.
    Only the last record of each leg reaches the builder."""

    def _record_leg(self, agent):
        pass

    @property
    def _now(self):
        return self.__dict__["_now"]

    @_now.setter
    def _now(self, t):
        self.__dict__["_now"] = t
        live = self.__dict__.get("_live")  # None while __init__ runs
        if not live:
            return
        self._sync()  # a symmetric run's positions are current only once synced
        for ag in live:
            if not isinstance(ag.builder, _LastRecordOfEachLeg):
                ag.builder = _LastRecordOfEachLeg(ag.builder)
            m = ag.motion
            ag.builder.record(t, ag.x, ag.y, _STILL_LEG if m is None else m)


def _segment_bits(trace):
    return [[(s.start_time.hex(), s.end_time.hex(),
              s.start_point.x.hex(), s.start_point.y.hex(),
              s.end_point.x.hex(), s.end_point.y.hex())
             for s in traj.segments] for traj in trace.trajectories]


def _recorder_case(kind, seed, n=2):
    if kind == "gather-n":
        cfg = good_config(seed, n)
        return cfg, gather_n_program(n), None
    if kind == "timeout":
        cfg = ungatherable_config(seed, n)
        return cfg, gather_n_program(n), None
    cfg = config_of_class(seed, Feasibility.GOOD, n=2)
    return cfg, dedicated_program(cfg, cfg.epsilon), _dedicated_horizon(cfg)


_RECORDER_CASES = ([("gather-n", seed, n) for n in (4, 8)
                    for seed in range(4)]
                   + [("timeout", 0, 8), ("dedicated", 5)])


@pytest.mark.parametrize("case", _RECORDER_CASES,
                         ids=["-".join(map(str, c)) for c in _RECORDER_CASES])
def test_leg_records_match_every_event_recorder(case, monkeypatch):
    cfg, factory, horizon = _recorder_case(*case)
    calls = []
    real = TrajectoryBuilder.move_to

    def counted(self, *args):
        calls.append(None)
        return real(self, *args)

    monkeypatch.setattr(TrajectoryBuilder, "move_to", counted)
    trace = Simulation(cfg, factory, horizon).run()
    made = len(calls)
    ref = _EveryEventRecorder(cfg, factory, horizon).run()
    assert trace.jsonl_lines() == ref.jsonl_lines()
    assert _segment_bits(trace) == _segment_bits(ref)
    segments = sum(len(traj.segments) for traj in trace.trajectories)
    # One record per leg: the closing pad is made only where it adds one.
    assert made == segments
    if case[0] == "gather-n":
        assert trace.ga_events()
    elif case[0] == "timeout":
        assert trace.verdict.kind == "timeout"
    else:
        assert trace.verdict.kind == "gathered"


def test_default_horizon_formula():
    cfg = pair(0.25, (0, 0), 0.0, (3, 4), 2.0)
    expect = 50.0 * (5.0 + 2.0 + 2) + 100.0 / 0.25
    assert abs(default_horizon(cfg) - expect) < 1e-9


def test_trace_jsonl_schema():
    import json
    cfg = pair(0.5, (0, 0), 0.0, (0.2, 0), 1.0)
    trace = run(cfg, Still, horizon=5.0)
    lines = trace.jsonl_lines()
    objs = [json.loads(s) for s in lines]
    kinds = [o["kind"] for o in objs]
    assert kinds[0] == "appear" and "ga" in kinds
    assert objs[-1]["kind"] == "verdict"
    ga = next(o for o in objs if o["kind"] == "ga")
    assert set(ga) == {"t", "kind", "agents", "positions", "tags"}
    assert ga["agents"] == [0, 1]
    # The verdict line carries no "t": each kind has its own fields.
    assert objs[-1] == {"kind": "verdict", "verdict": "split", "groups": 2,
                        "points": [[0.0, 0.0], [0.2, 0.0]]}
    good = pair(0.5, (0, 0), 0.0, (1, 0), 1.0)
    gathered = json.loads(run(good, gather_n_program(2)).jsonl_lines()[-1])
    assert set(gathered) == {"kind", "verdict", "point"}
    assert gathered["verdict"] == "gathered"
    far = pair(0.5, (0, 0), 0.0, (9, 0), 0.0)
    timeout = run(far, lambda: WalkEast(100.0), horizon=2.0)
    assert json.loads(timeout.jsonl_lines()[-1]) == {
        "kind": "verdict", "verdict": "timeout", "time": 2.0}


def test_ga_line_tags_are_the_roles_after_the_meeting():
    # The first GA of this run meets two cruisers; their callbacks make
    # them explorer and token, and the GA line records those roles, while
    # the views show the roles of the meeting's start.
    seen = []
    make = gather_n_program(3)

    class Recorded(Program):
        def __init__(self):
            self.inner = make()

        def on_appear(self, ctx):
            self.inner.on_appear(ctx)

        def on_ga(self, ctx, view):
            seen.append(tuple(p.tag for p in view.participants))
            self.inner.on_ga(ctx, view)

        def on_order(self, ctx, target, issuer):
            self.inner.on_order(ctx, target, issuer)

        def on_idle(self, ctx):
            self.inner.on_idle(ctx)

    trace = run(good_config(0, 3), Recorded)
    first = trace.ga_events()[0]
    assert first.agents == (0, 2)
    assert seen[:2] == [("cruiser", "cruiser")] * 2
    assert first.tags == ("explorer", "token")
    line = next(s for s in trace.jsonl_lines() if '"kind": "ga"' in s)
    assert line.endswith('"tags": ["explorer", "token"]}')


def _event_obj(ev):
    """Reference: the JSON object README documents for an event."""
    if ev.kind == "appear":
        return {"t": ev.time, "kind": "appear", "agent": ev.agents[0],
                "position": list(ev.positions[0].coords)}
    if ev.kind == "ga":
        return {"t": ev.time, "kind": "ga", "agents": list(ev.agents),
                "positions": [list(p.coords) for p in ev.positions],
                "tags": list(ev.tags)}
    if ev.kind == "order":
        return {"t": ev.time, "kind": "order", "issuer": ev.issuer,
                "recipients": list(ev.agents),
                "target": list(ev.target.coords)}
    if ev.kind == "stop":
        return {"t": ev.time, "kind": "stop", "agent": ev.agents[0],
                "position": list(ev.positions[0].coords)}
    if ev.kind == "horizon":
        return {"t": ev.time, "kind": "horizon"}
    raise ValueError(f"unknown event kind {ev.kind}")


def _verdict_obj(v):
    """Reference: the JSON object README documents for a verdict."""
    if v.kind == "gathered":
        return {"kind": "verdict", "verdict": "gathered",
                "point": list(v.point.coords)}
    if v.kind == "split":
        return {"kind": "verdict", "verdict": "split",
                "groups": len(v.groups),
                "points": [list(p.coords) for p in v.groups]}
    return {"kind": "verdict", "verdict": "timeout", "time": v.time}


def _assert_lines_are_json_dumps(trace):
    import json
    expect = [json.dumps(_event_obj(ev)) for ev in trace.events]
    expect.append(json.dumps(_verdict_obj(trace.verdict)))
    assert trace.jsonl_lines() == expect


@pytest.mark.parametrize("seed", range(4))
def test_jsonl_lines_are_json_dumps_of_gather_n_traces(seed):
    kinds = set()
    for n in range(2, 9):
        trace = run(good_config(seed, n), gather_n_program(n))
        _assert_lines_are_json_dumps(trace)
        kinds.update(ev.kind for ev in trace.events)
    assert {"appear", "ga", "order", "stop"} <= kinds


def test_jsonl_lines_are_json_dumps_of_hand_made_events():
    from gathersim.engine import Event, Trace, Verdict
    shared = Point(0.1 + 0.2, 1e-7)
    odd = [Point(-0.0, 0.0), Point(0.0, -0.0), Point(5e-324, -5e-324),
           Point(1e16, -1e16), Point(1, 1.0), Point(1.0, 1),
           Point(math.inf, -math.inf), Point(math.nan, 2), shared]
    tags = ['"', "\\", "\n", "é", "☃", "", 'a"b\\c\nd é☃']
    # GA lines format each distinct agents and tags tuple once: equal
    # tuples that are distinct objects, and tags that need escapes, each
    # repeated over several lines.
    escaped = ['a"b\\c\nd é☃', "☃", '"']
    team_gas = [Event(1.5 + k, "ga", tuple(range(3)), (shared,) * 3,
                      tuple(escaped if k % 2 else escaped[::-1]))
                for k in range(4)]
    team_gas.append(Event(6, "ga", tuple([0, 1, 2]), (shared,) * 3,
                          tuple(list(escaped))))
    team_gas.append(Event(6, "ga", (0, 1), (shared,) * 2, ("☃", "☃")))
    assert team_gas[0].agents is not team_gas[1].agents
    assert team_gas[1].tags == team_gas[3].tags == team_gas[4].tags
    assert team_gas[1].tags is not team_gas[3].tags
    events = [
        Event(0, "appear", (0,), (Point(0, 0),)),
        Event(0.0, "appear", (1,), (Point(0.0, -0.0),)),
        Event(1, "ga", tuple(range(len(odd))), tuple(odd),
              tuple(tags[k % len(tags)] for k in range(len(odd)))),
        Event(1.0, "ga", (0, 1), (shared, shared), ("", "")),
        Event(-0.0, "ga", (2,), (Point(-0.0, -0.0),), ("☃",)),
        Event(1.0, "ga", (3, 4), (Point(0.0, 0.0), Point(-0.0, 0.0)),
              tuple(tags[:2])),
        Event(2, "order", (1, 2), issuer=0, target=Point(3, -4)),
        Event(0.1 + 0.2, "order", (), issuer=5, target=shared),
        *team_gas,
        Event(5e-324, "stop", (1,), (Point(1e-7, 1),)),
        Event(1e16, "horizon"),
        Event(7, "horizon")]
    points = (Point(1.5, -0.0), Point(1, 2), shared)
    for verdict in (Verdict("gathered", 3.0, point=Point(-0.0, 1)),
                    Verdict("gathered", 3, point=shared),
                    Verdict("split", 4.0, groups=points),
                    Verdict("split", 4.0),
                    Verdict("timeout", 1e16),
                    Verdict("timeout", 9),
                    Verdict("timeout", -0.0)):
        for evs in (events, []):
            _assert_lines_are_json_dumps(Trace(evs, (), (), verdict))
    with pytest.raises(ValueError, match="unknown event kind"):
        Trace([Event(0.0, "wave")], (), (),
              Verdict("timeout", 1.0)).jsonl_lines()


def test_signed_zero_start_is_written_as_the_run_moved_it():
    """A waiting agent that starts at (-0.0, 0.0) is at (0.0, 0.0) after
    its first advance (-0.0 + 0.0 is 0.0), and its GA line says so, while
    its appearance line keeps -0.0."""
    class Waiter(Program):
        def on_appear(self, ctx):
            ctx.issue(Wait(5.0))

    cfg = InitialConfiguration(0.5, (Point(-0.0, 0.0), Point(0.3, 0.0)),
                               (0.0, 2.0))
    made = iter([Waiter(), Still()])
    trace = run(cfg, lambda: next(made), horizon=10.0)
    lines = trace.jsonl_lines()
    assert lines[0] == ('{"t": 0.0, "kind": "appear", "agent": 0, '
                        '"position": [-0.0, 0.0]}')
    (ga,) = [line for line in lines if '"kind": "ga"' in line]
    assert ga == ('{"t": 2.0, "kind": "ga", "agents": [0, 1], '
                  '"positions": [[0.0, 0.0], [0.3, 0.0]], "tags": ["", ""]}')


def test_deterministic_rerun():
    cfg = InitialConfiguration(
        0.5,
        (Point(0, 0), Point(1.7, 0.3), Point(-0.4, 1.1)),
        (0.0, 0.4, 1.3))

    class Wander(Program):
        def __init__(self):
            self.k = 0

        def on_appear(self, ctx):
            ctx.issue(Go(Vec2(1.0, 0.0), 0.7))

        def on_idle(self, ctx):
            self.k += 1
            ang = 2.1 * self.k
            ctx.issue(Go(Vec2(math.cos(ang), math.sin(ang)), 0.5))

    a = run(cfg, Wander, horizon=20.0)
    b = run(cfg, Wander, horizon=20.0)
    assert a.jsonl_lines() == b.jsonl_lines()


# The model is invariant under translation and time shift: each moves a
# run's configuration and maps its verdict time and point back.
_SHIFTS = {
    "time": (lambda cfg: cfg.time_shifted(1e3), 1e3, Vec2(0.0, 0.0)),
    "late-time": (lambda cfg: cfg.time_shifted(1e6), 1e6, Vec2(0.0, 0.0)),
    "plane": (lambda cfg: cfg.translated(Vec2(1e3, -1e3)), 0.0,
              Vec2(1e3, -1e3)),
    "far-plane": (lambda cfg: cfg.translated(Vec2(1e5, -1e5)), 0.0,
                  Vec2(1e5, -1e5)),
}


def _shifted_gather_n(seed, shift):
    """gather-n runs of good_config(seed, 4) and of its shifted copy."""
    move, _, _ = _SHIFTS[shift]
    cfg = good_config(seed, 4)
    return (run(cfg, gather_n_program(4)),
            run(move(cfg), gather_n_program(4)))


@pytest.mark.parametrize("shift", sorted(_SHIFTS))
@pytest.mark.parametrize("seed", range(6))
def test_shifted_run_keeps_its_verdict(seed, shift):
    _, dt, dp = _SHIFTS[shift]
    base, moved = _shifted_gather_n(seed, shift)
    assert base.verdict.kind == moved.verdict.kind == "gathered"
    assert abs(moved.verdict.time - dt - base.verdict.time) <= TIME_TOL
    assert (moved.verdict.point + -dp).dist(base.verdict.point) <= POS_TOL


def test_shifted_run_keeps_its_ga_sequence():
    for shift in sorted(_SHIFTS):
        for seed in range(6):
            base, moved = _shifted_gather_n(seed, shift)
            assert [ev.agents for ev in moved.ga_events()] \
                == [ev.agents for ev in base.ga_events()]


_FAR_RUNS = """
from gathersim.algorithms import gather_n_program
from gathersim.engine import run
from gathersim.generate import good_config
from gathersim.geometry import Vec2
for seed in (4006, 4007):
    cfg = good_config(seed, 4).translated(Vec2(1e7, -1e7))
    print(run(cfg, gather_n_program(4), horizon=3000.0).verdict.kind)
"""


def test_far_translated_runs_gather():
    # Translated by (1e7, -1e7), these two runs once froze simulated time
    # in an endless burst of GAs at one instant: a pair parted by rounding
    # at the eps circle met again at every later event.  A subprocess with
    # a timeout turns such a livelock into a failure.
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _FAR_RUNS],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["gathered", "gathered"]
