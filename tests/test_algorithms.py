"""Star sweep geometry and the three gathering programs."""

import math
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import pair
from gathersim.algorithms import (GatherProgram, StarWalk, _dedicated_walk,
                                  _largest_ref, _star_legs, dedicated_program,
                                  gather_a_program, gather_n_program,
                                  ray_direction, star_phase_params,
                                  star_time_through_phase)
from gathersim.checks import check_all
from gathersim.config import (Feasibility, FeasibilityClass,
                              InitialConfiguration, classify, pair_margin,
                              vector_sequence)
from gathersim.engine import AgentRef, Go, Wait, run
from gathersim.generate import boundary_pair, good_config
from gathersim.geometry import TIME_TOL, Point, Vec2, lex_less


def test_star_params_phase_one():
    alpha, k = star_phase_params(1)
    assert abs(alpha - math.pi / 3.0) < 1e-12
    assert k == 6


def test_star_params_phase_two():
    alpha, k = star_phase_params(2)
    assert abs(alpha - 0.2506557) < 1e-6
    assert k == 26


@pytest.mark.parametrize("x", range(1, 51))
def test_star_endpoint_spacing(x):
    # Chord between consecutive ray tips is exactly 1/x by construction.
    alpha, k = star_phase_params(x)
    assert abs(2.0 * x * math.sin(alpha / 2.0) - 1.0 / x) < 1e-9
    assert k * alpha >= 2.0 * math.pi - 1e-12


@pytest.mark.parametrize("x", [1, 2, 3, 7])
def test_star_circle_coverage(x):
    """Every point of the radius-x circle is within 1/x of some ray tip."""
    alpha, k = star_phase_params(x)
    tips = [Point(x * math.sin(i * alpha), x * math.cos(i * alpha))
            for i in range(k)]
    for j in range(720):
        theta = j * math.pi / 360.0
        p = Point(x * math.sin(theta), x * math.cos(theta))
        assert min(p.dist(t) for t in tips) <= 1.0 / x + 1e-9


def test_ray_direction_north_and_clockwise():
    d0 = ray_direction(0.0)
    assert abs(d0.dx) < 1e-12 and abs(d0.dy - 1.0) < 1e-12
    d90 = ray_direction(math.pi / 2.0)
    assert abs(d90.dx - 1.0) < 1e-12 and abs(d90.dy) < 1e-12


def test_star_walk_stage_shape():
    w = StarWalk(3)
    legs = [w.next_instruction() for _ in range(3)]
    assert isinstance(legs[0], Go) and legs[0].distance == 3
    assert isinstance(legs[1], Go) and legs[1].distance == 3
    assert isinstance(legs[2], Wait) and legs[2].duration == 3
    out, back = legs[0].direction, legs[1].direction
    assert abs(out.dx + back.dx) < 1e-12
    assert abs(out.dy + back.dy) < 1e-12


def test_star_walk_stream_advances_phases():
    w = StarWalk()
    _, k1 = star_phase_params(1)
    for _ in range(3 * k1):
        w.next_instruction()
    assert w.phase == 2 and w._next == 0
    nxt = w.next_instruction()
    assert isinstance(nxt, Go) and nxt.distance == 2


@pytest.mark.parametrize("x", range(1, 7))
def test_star_legs_table_matches_stage_loop(x):
    # The reference: stage by stage from 1, each ray at (stage - 1) * alpha.
    alpha, k = star_phase_params(x)
    want = []
    for stage in range(1, k + 1):
        ray = ray_direction((stage - 1) * alpha)
        want += [Go(ray, float(x)), Go(-ray, float(x)), Wait(float(x))]
    assert list(_star_legs(x)) == want
    walk = StarWalk(x)
    assert [walk.next_instruction() for _ in range(3 * k)] == want
    assert (walk.phase, walk._next) == (x + 1, 0)


def test_star_time_through_phase():
    # Phase x lasts 3 * x * k(x); cumulative sums.
    assert star_time_through_phase(1) == 18.0
    _, k2 = star_phase_params(2)
    assert star_time_through_phase(2) == 18.0 + 6.0 * k2


def test_dedicated_walk_earlier_to_later():
    # The later agent sits lex-smaller: the walk still runs earlier to
    # later, and the wait is the time gap.
    cfg = pair(0.5, (1, 0), 0.0, (0, 0), 1.0)
    assert _dedicated_walk(cfg) == (Vec2(-1, 0), 1.0)


def test_dedicated_walk_time_tie_takes_lex_largest():
    # Equal times: both orientations of every pair qualify.
    cfg = InitialConfiguration(
        2.0, (Point(0, 0), Point(1, 0), Point(0.5, 1)), (0.0, 0.0, 0.0))
    assert _dedicated_walk(cfg) == (Vec2(1, 0), 0.0)


def test_dedicated_walk_restricted_pair():
    # Only the pair (1,2) qualifies; agent 1 starts first.
    cfg = InitialConfiguration(
        0.5,
        (Point(0, 0), Point(10, 0), Point(10, 0.6)),
        (0.0, 1.0, 2.0))
    assert pair_margin(cfg, 0, 1) < 0 and pair_margin(cfg, 0, 2) < 0
    assert pair_margin(cfg, 1, 2) > 0
    assert _dedicated_walk(cfg) == (Vec2(0, 0.6), 1.0)


def test_dedicated_walk_none():
    cfg = pair(0.5, (0, 0), 0.0, (10, 0), 1.0)
    assert _dedicated_walk(cfg) is None


def test_dedicated_walk_qualifies_what_classify_calls_gatherable():
    # Pairs whose margin lies within float rounding of -TIME_TOL or
    # +TIME_TOL: the walk finds no qualifying pair exactly when classify
    # calls the pair UNGATHERABLE.
    rng = random.Random(14)
    for _ in range(2000):
        eps = rng.uniform(0.1, 2.0)
        d = rng.uniform(eps + 0.5, 20.0)
        a = rng.uniform(0.0, 2.0 * math.pi)
        p = Point(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
        q = Point(p.x + d * math.cos(a), p.y + d * math.sin(a))
        gap = rng.choice((-TIME_TOL, TIME_TOL)) \
            * (1.0 + rng.uniform(-1e-6, 1e-6))
        t = rng.uniform(0.0, 10.0)
        times = (t, t + p.dist(q) - eps + gap)
        if rng.random() < 0.5:
            times = times[::-1]
        cfg = InitialConfiguration(eps, (p, q), times)
        ungatherable = classify(cfg).kind is Feasibility.UNGATHERABLE
        assert (_dedicated_walk(cfg) is None) == ungatherable, cfg


def _classify_reference(cfg):
    """Reference: classify as it was, with its own margin tests over every
    pair."""
    first_strict = None
    first_equal = None
    n = cfg.n
    for i in range(n):
        for j in range(i + 1, n):
            m = pair_margin(cfg, i, j)
            if m > TIME_TOL:
                if first_strict is None:
                    first_strict = (i, j)
            elif m >= -TIME_TOL:
                if first_equal is None:
                    first_equal = (i, j)
    if first_strict is not None:
        return FeasibilityClass(Feasibility.GOOD, first_strict)
    if first_equal is not None:
        return FeasibilityClass(Feasibility.BAD_GATHERABLE, first_equal)
    return FeasibilityClass(Feasibility.UNGATHERABLE, None)


def _dedicated_walk_reference(cfg):
    """Reference: _dedicated_walk as it was, with its own margin test over
    the ordered pairs; None where it raised for want of a qualifying
    pair."""
    best = None
    for i in range(cfg.n):
        for j in range(cfg.n):
            if i == j or cfg.times[j] < cfg.times[i] - TIME_TOL:
                continue
            if pair_margin(cfg, i, j) < -TIME_TOL:
                continue
            delta = abs(cfg.times[i] - cfg.times[j])
            u = Vec2(cfg.starts[j].x - cfg.starts[i].x,
                     cfg.starts[j].y - cfg.starts[i].y)
            key = (u.dx, u.dy, delta)
            if best is None or key > best[0]:
                best = (key, u, delta)
    if best is None:
        return None
    return best[1], best[2]


# Zeros of both signs and repeated values make equal walk vectors.
_coords = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) \
    | st.floats(-20.0, 20.0)


@st.composite
def _edge_configs(draw):
    """2 to 6 agents whose pairs sit at the edges of the pair rule: each
    later agent starts at a margin within rounding of -TIME_TOL or
    +TIME_TOL of an earlier one, within TIME_TOL of its start time, or at
    any time; or a boundary_pair, whose margin is exactly zero."""
    if draw(st.integers(0, 4)) == 0:
        return boundary_pair(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 6))
    eps = draw(st.floats(0.1, 2.0))
    starts = draw(st.lists(st.builds(Point, _coords, _coords),
                           min_size=n, max_size=n, unique=True))
    times = [draw(st.floats(0.0, 10.0))]
    for k in range(1, n):
        p = draw(st.integers(0, k - 1))
        edge = draw(st.sampled_from(["margin", "tie", "free"]))
        if edge == "margin":
            gap = draw(st.sampled_from([-TIME_TOL, TIME_TOL])) \
                * (1.0 + draw(st.floats(-1e-6, 1e-6)))
            dt = starts[p].dist(starts[k]) - eps + gap
            times.append(times[p] + draw(st.sampled_from([dt, -dt])))
        elif edge == "tie":
            times.append(times[p] + draw(st.sampled_from(
                [0.0, -TIME_TOL, TIME_TOL]) | st.floats(-TIME_TOL, TIME_TOL)))
        else:
            times.append(draw(st.floats(0.0, 30.0)))
    shift = min(min(times), 0.0)
    return InitialConfiguration(eps, tuple(starts),
                                tuple(t - shift for t in times))


# The walks 3 -> 0 and 1 -> 2 tie at (0.0, 1.0) and (-0.0, 1.0); the
# first in ordered-pair order, 1 -> 2, was walked.
@example(InitialConfiguration(
    1.0, (Point(0.0, 0.0), Point(0.0, 5.0), Point(-0.0, 6.0),
          Point(-0.0, -1.0)), (0.0, 0.0, 0.0, 0.0)))
@given(_edge_configs())
@settings(max_examples=1000)
def test_one_pair_rule_gives_what_the_two_copies_gave(cfg):
    # classify and _dedicated_walk read config.qualifying_pairs; each
    # returns what its own copy of the rule returned, bit for bit: the
    # class, the witness, the walk vector with the signs of its zeros, and
    # the wait.
    assert classify(cfg) == _classify_reference(cfg)
    assert repr(_dedicated_walk(cfg)) == repr(_dedicated_walk_reference(cfg))


def test_dedicated_walk_is_in_sequence():
    cfg = InitialConfiguration(
        0.4, (Point(0, 0), Point(1, 1), Point(-2, 0.5)), (0.0, 4.0, 1.0))
    v, _ = _dedicated_walk(cfg)
    assert v in vector_sequence(cfg)


def test_dedicated_gathers_at_largest_start():
    cfg = pair(0.5, (0, 0), 0.0, (1, 0), 1.0)
    trace = run(cfg, dedicated_program(cfg, cfg.epsilon))
    assert trace.verdict.kind == "gathered"
    assert trace.verdict.point.dist(Point(1, 0)) < 1e-6
    check_all(cfg, trace)


def test_dedicated_close_pair_meets_by_return():
    # d <= eps: the two out-and-backs alone force a meeting.
    cfg = pair(0.5, (0, 0), 0.0, (0.3, 0), 0.8)
    trace = run(cfg, dedicated_program(cfg, cfg.epsilon))
    assert trace.verdict.kind == "gathered"
    v = Vec2(0.3, 0.0)
    latest = max(cfg.times) + 2.0 * v.norm
    assert trace.ga_events()[0].time <= latest + 1e-9


def test_dedicated_first_ga_within_first_out_and_back():
    for seed in range(5):
        eps = 0.5
        d = 1.0 + 0.3 * seed
        cfg = pair(eps, (0, 0), 0.0, (d, 0), d - eps + 0.4)
        trace = run(cfg, dedicated_program(cfg, eps))
        assert trace.verdict.kind == "gathered"
        bound = max(cfg.times) + 2.0 * d
        assert trace.ga_events()[0].time <= bound + 1e-9


def test_gather_n_two_agents_roles():
    cfg = pair(0.5, (0, 0), 0.0, (1, 0), 1.0)
    trace = run(cfg, gather_n_program(2))
    assert trace.verdict.kind == "gathered"
    tags = Counter(trace.final_tags)
    assert tags["explorer"] == 1 and tags["token"] == 1
    assert trace.verdict.point.dist(Point(1, 0)) < 1e-6
    check_all(cfg, trace)


def test_gather_n_three_agents():
    cfg = InitialConfiguration(
        0.5,
        (Point(0, 0), Point(1, 0), Point(0.4, 0.9)),
        (0.0, 1.0, 0.3))
    trace = run(cfg, gather_n_program(3))
    assert trace.verdict.kind == "gathered"
    tags = Counter(trace.final_tags)
    assert tags["explorer"] == 1
    assert tags["cruiser"] == 0
    assert tags["token"] >= 1
    check_all(cfg, trace)


def test_gather_n_rejects_small_n():
    with pytest.raises(ValueError):
        gather_n_program(1)


def test_gather_a_single_assumption_equals_gather_n():
    cfg = pair(0.5, (0, 0), 0.0, (1, 0), 1.0)
    a = run(cfg, gather_n_program(2))
    b = run(cfg, gather_a_program((2,)))
    assert a.jsonl_lines() == b.jsonl_lines()


def test_gather_a_pair_under_23():
    cfg = pair(0.5, (0, 0), 0.0, (1, 0), 1.0)
    trace = run(cfg, gather_a_program((2, 3)))
    assert trace.verdict.kind == "gathered"
    check_all(cfg, trace)


def test_gather_a_late_third_agent_joins():
    # Two agents gather under assumption 2, then the distant third shows
    # up, the assumption advances, and everyone regroups.
    cfg = InitialConfiguration(
        0.5,
        (Point(0, 0), Point(0.8, 0), Point(4.0, 0.5)),
        (0.0, 0.6, 0.0))
    # The latecomer's sweep reaches the pair around t=537 and the regroup
    # finishes near t=700, past the default horizon.
    trace = run(cfg, gather_a_program((2, 3)), horizon=1500.0)
    assert trace.verdict.kind == "gathered"
    ga_sizes = [len(ev.agents) for ev in trace.events if ev.kind == "ga"]
    assert 2 in ga_sizes and 3 in ga_sizes
    check_all(cfg, trace)


def test_gather_a_rejects_bad_sets():
    with pytest.raises(ValueError):
        gather_a_program(())
    with pytest.raises(ValueError):
        gather_a_program((1, 3))


def test_factories_validate_sizes_through_assumption_set():
    # Any order and repeats are accepted; AssumptionSet's messages name
    # what is wrong with the sizes.
    assert gather_a_program((5, 2, 3, 2, 5))().assumptions == (2, 3, 5)
    assert gather_n_program(4)().assumptions == (4,)
    with pytest.raises(ValueError, match="^assumption set must be "
                       "non-empty$"):
        gather_a_program(())
    for make, sizes in ((gather_a_program, (3, 1)), (gather_n_program, 1)):
        with pytest.raises(ValueError,
                           match="^all elements must exceed 1$"):
            make(sizes)


def test_factories_reject_sizes_that_are_not_integers():
    # A size is rejected, not truncated: [2.9, 3.2] would read as (2, 3).
    for make, sizes in ((gather_a_program, [2.9, 3.2]),
                        (gather_a_program, (2, 3.0)), (gather_n_program, 3.0)):
        with pytest.raises(ValueError, match="^elements must be integers$"):
            make(sizes)
    assert gather_a_program([3, 2, 3])().assumptions == (2, 3)


def test_programs_translation_invariant():
    cfg = pair(0.5, (0, 0), 0.0, (1, 0), 1.0)
    moved = InitialConfiguration(
        cfg.epsilon,
        tuple(Point(p.x + 12.5, p.y - 3.25) for p in cfg.starts),
        cfg.times)
    a = run(cfg, gather_n_program(2))
    b = run(moved, gather_n_program(2))
    assert a.verdict.kind == b.verdict.kind == "gathered"
    assert abs(a.verdict.time - b.verdict.time) < 1e-6
    assert a.verdict.point.dist(
        Point(b.verdict.point.x - 12.5, b.verdict.point.y + 3.25)) < 1e-6


def test_programs_time_shift_invariant():
    cfg = pair(0.5, (0, 0), 0.0, (1, 0), 1.0)
    shifted = InitialConfiguration(
        cfg.epsilon, cfg.starts, tuple(t + 5.5 for t in cfg.times))
    a = run(cfg, gather_n_program(2))
    b = run(shifted, gather_n_program(2))
    assert a.verdict.kind == b.verdict.kind == "gathered"
    assert abs((b.verdict.time - 5.5) - a.verdict.time) < 1e-6


# -- Reference: the explorer as it was before its finale shortcut --

def _ref_largest_ref(ctx, refs):
    """Ref whose known initial position is lexicographically largest."""
    best_ref = None
    best = None
    for r in refs:
        p = ctx.knowledge[r]
        if best is None or lex_less(best, p):
            best = p
            best_ref = r
    return best_ref


def _ref_largest_initial(ctx, refs) -> Point:
    return ctx.knowledge[_ref_largest_ref(ctx, refs)]


def _ref_gather_point(ctx) -> Point:
    return _ref_largest_initial(ctx, ctx.knowledge.keys())


class _ReferenceGather(GatherProgram):
    """GatherProgram whose explorer reads every view it is given, works
    out every largest start anew from its tokens and compares through
    lex_less."""

    def _gather_target(self, ctx) -> Point:
        return _ref_gather_point(ctx)

    def _cruiser_ga(self, ctx, view, others) -> None:
        super()._cruiser_ga(ctx, view, others)
        if ctx.tag == "explorer":  # promoted: keep the tokens it made
            self.tokens = {p.ref for p in view.participants
                           if p.tag == "cruiser" and p.ref != ctx.self_ref}

    def on_ga(self, ctx, view) -> None:
        if ctx.tag == "cruiser":
            self._cruiser_ga(ctx, view, view.others())
        elif ctx.tag == "explorer":
            self._ref_explorer_ga(ctx, view, view.others())

    def _ref_explorer_ga(self, ctx, view, others) -> None:
        pre_tokens = [p for p in others if p.tag == "token"]
        pre_shadows = [p for p in others if p.tag == "shadow"]
        cruisers = [p for p in others if p.tag == "cruiser"]
        self.seen |= {p.ref for p in pre_tokens if p.adjacent}
        self.seen |= {p.ref for p in pre_shadows if p.adjacent}
        if pre_tokens:
            self.seen |= {p.ref for p in cruisers if p.adjacent}
        elif len(cruisers) >= 2:
            winner = _ref_largest_ref(ctx, (p.ref for p in cruisers))
            self.seen |= {p.ref for p in cruisers
                          if p.ref != winner and p.adjacent}

        if self._advance_assumption(ctx):
            if self.mode != "star":
                self._resume_star(ctx)
            return

        if self.mode in ("finale", "finale_goto"):
            ctx.send_order(_ref_gather_point(ctx))
            return
        if self.mode != "star":
            return

        if len(self.seen) >= self.assumption - 1:
            ctx.send_order(_ref_gather_point(ctx))
            self._queue_finale_phase(ctx)
            return
        if pre_tokens and self.tokens:
            own_best = _ref_largest_initial(ctx, self.tokens)
            met_best = _ref_largest_initial(ctx, (p.ref for p in pre_tokens))
            if lex_less(own_best, met_best):
                ctx.tag = "shadow"
                ctx.clear_plan()


class _CountedGather(GatherProgram):
    """GatherProgram that counts in shortcuts, by candidate-set size, the
    explorer GAs it answers without calling _explorer_ga."""

    def __init__(self, assumptions, shortcuts: Counter):
        super().__init__(assumptions)
        self.shortcuts = shortcuts
        self.read = False

    def on_ga(self, ctx, view) -> None:
        explorer = ctx.tag == "explorer"
        self.read = False
        super().on_ga(ctx, view)
        if explorer and not self.read:
            self.shortcuts[len(self.assumptions)] += 1

    def _explorer_ga(self, ctx, others) -> None:
        self.read = True
        super()._explorer_ga(ctx, others)


def _shortcut_cases():
    for n in range(2, 9):
        for seed in range(6):
            yield (n,), good_config(seed, n)
    for a in ((2, 3), (2, 3, 5), (3, 5)):
        for n in a + (a[-1] + 1,):
            for seed in range(4):
                yield a, good_config(100 + seed, n)


def test_finale_shortcut_keeps_every_trace():
    shortcuts = Counter()
    cases = list(_shortcut_cases())
    assert len(cases) == 82
    for a, cfg in cases:
        want = run(cfg, lambda: _ReferenceGather(a), horizon=3000.0)
        got = run(cfg, lambda: _CountedGather(a, shortcuts), horizon=3000.0)
        assert got.jsonl_lines() == want.jsonl_lines(), (a, cfg)
    # Explorers took the shortcut under gather-n and, at their last
    # candidate, under gather-a: the traces above compare both paths.
    assert shortcuts[1] > 0
    assert shortcuts[2] + shortcuts[3] > 0


def test_largest_ref_matches_lex_less():
    rng = random.Random(5)
    for _ in range(300):
        refs = [AgentRef(k) for k in range(rng.randint(1, 8))]
        coords = [-1.0, -0.0, 0.0, 0.5, 2.0]
        ctx = SimpleNamespace(knowledge={
            r: Point(rng.choice(coords), rng.choice(coords)) for r in refs})
        rng.shuffle(refs)
        assert _largest_ref(ctx, refs) is _ref_largest_ref(ctx, refs)
    assert _largest_ref(ctx, []) is None


_IMPORTS = """
import sys
import gathersim
import gathersim.algorithms
import gathersim.generate
print("gathersim.checks" in sys.modules)
"""


def test_importing_the_programs_does_not_load_the_checker():
    # algorithms imports assumption, which imports checks only when it
    # builds a counterexample: the checker is compiled into no import of
    # the package, the generators or the programs.
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORTS],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
