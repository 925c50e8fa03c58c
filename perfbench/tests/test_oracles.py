"""The oracles accept hand-computed cases and reject doctored ones.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json

import pytest

import oracles as o
import run
from corpus import Op
from gathersim import algorithms, checks, engine, render
from gathersim.config import InitialConfiguration
from gathersim.geometry import Point

# Agent 0 stands at the origin; agent 1 starts at (3, 0) and walks left at
# unit speed to (0.5, 0), so with eps = 1 they first meet at t = 2.
STANDS = [(0.0, 0.0, 0.0), (4.0, 0.0, 0.0)]
WALKS = [(0.0, 3.0, 0.0), (2.5, 0.5, 0.0), (4.0, 0.5, 0.0)]
GA_AT_2 = [{"t": 2.0, "kind": "ga", "agents": [0, 1]}]


def rejects(fn, *args):
    with pytest.raises(o.OracleFailure):
        fn(*args)


def test_pair_class_by_hand():
    # d = 3, eps = 1: the pair condition |dt| >= 2 decides.
    starts = [(0.0, 0.0), (3.0, 0.0)]
    assert o.pair_class(1.0, starts, [0.0, 2.5]) == o.GOOD
    assert o.pair_class(1.0, starts, [0.0, 2.0]) == o.BAD
    assert o.pair_class(1.0, starts, [0.0, 1.0]) == o.UNGATHERABLE
    o.check_class(1.0, starts, [0.0, 2.0], o.BAD)
    rejects(o.check_class, 1.0, starts, [0.0, 2.0], o.GOOD)


def test_speeds():
    o.check_speeds([WALKS, STANDS])
    rejects(o.check_speeds, [[(0.0, 0.0, 0.0), (1.0, 1.5, 0.0)]])


def test_legs_merge_straight_runs_only():
    pts = [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 2.0, 0.0),
           (3.0, 2.0, 0.0), (3.0, 2.0, 0.0), (4.0, 2.0, 1.0)]
    assert o.legs(pts) == [(0.0, 0.0, 0.0), (2.0, 2.0, 0.0),
                           (3.0, 2.0, 0.0), (4.0, 2.0, 1.0)]


def test_closest_and_first_approach_by_hand():
    # Agent 0 walks (0,0) -> (2,0); agent 1 stands at (1,1).
    a = [(0.0, 0.0, 0.0), (2.0, 2.0, 0.0)]
    b = [(0.0, 1.0, 1.0), (2.0, 1.0, 1.0)]
    assert o.closest_approach(a, b) == pytest.approx(1.0)
    # (1 - t)^2 + 1 = 1.2^2 first at t = 1 - sqrt(0.44).
    assert o.first_within(a, b, 1.2) == pytest.approx(1.0 - 0.44 ** 0.5)
    assert o.first_within(a, b, 0.9) is None
    assert o.first_within(a, b, 1.5) == 0.0


def test_no_meet():
    starts, times = [(0.0, 0.0), (3.0, 0.0)], [0.0, 1.0]
    far = [(1.0, 3.0, 0.0), (4.0, 3.0, 0.0)]
    o.check_no_meet(starts, times, 1.0, [STANDS, far])
    # Within eps.
    rejects(o.check_no_meet, starts, times, 1.0, [STANDS, [
        (1.0, 3.0, 0.0), (3.5, 0.5, 0.0), (4.0, 0.5, 0.0)]])
    # Never within eps, but closer than d - |dt| = 2.
    rejects(o.check_no_meet, starts, times, 1.0, [STANDS, [
        (1.0, 3.0, 0.0), (2.5, 1.5, 0.0), (4.0, 1.5, 0.0)]])


def test_first_meetings():
    o.check_first_meetings(1.0, [STANDS, WALKS], GA_AT_2)
    rejects(o.check_first_meetings, 1.0, [STANDS, WALKS], [])
    rejects(o.check_first_meetings, 1.0, [STANDS, WALKS],
            [{"t": 3.0, "kind": "ga", "agents": [0, 1]}])


def test_gathered_at():
    verdict = {"kind": "verdict", "verdict": "gathered"}
    ends = [[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)], [(0.0, 1.0, 0.0)]]
    o.check_gathered_at(verdict, ends, (1.0, 0.0))
    rejects(o.check_gathered_at, verdict, ends, (0.0, 0.0))
    rejects(o.check_gathered_at, {"verdict": "timeout"}, ends, (1.0, 0.0))


def test_split():
    verdict = {"kind": "verdict", "verdict": "split", "groups": 2}
    ends = [[(0.0, 0.0, 0.0)], [(0.0, 0.0, 0.0)], [(0.0, 5.0, 0.0)],
            [(0.0, 5.0, 0.0)]]
    clusters = ((0, 1), (2, 3))
    o.check_split(verdict, ends, clusters, 1.0)
    rejects(o.check_split, {**verdict, "groups": 3}, ends, clusters, 1.0)
    moved = ends[:3] + [[(0.0, 4.0, 0.0)]]
    rejects(o.check_split, verdict, moved, clusters, 1.0)
    rejects(o.check_split, verdict, ends, clusters, 6.0)


def test_outputs():
    lines = ['{"t": 0.0, "kind": "appear", "agent": 0}',
             '{"kind": "verdict", "verdict": "timeout", "time": 1.0}']
    events, verdict = o.parse_jsonl(lines)
    assert verdict["verdict"] == "timeout" and len(events) == 1
    rejects(o.parse_jsonl, lines[::-1])
    rejects(o.parse_jsonl, [lines[0], lines[1][:-1]])
    svg = '<svg xmlns="http://www.w3.org/2000/svg"><rect/></svg>'
    o.check_svg(svg)
    rejects(o.check_svg, svg[:-3])
    rejects(o.check_svg, "<html/>")


def _real_run():
    """A GOOD pair through the dedicated program, as one operation."""
    cfg = InitialConfiguration(0.5, (Point(0.0, 0.0), Point(1.0, 0.0)),
                               (0.0, 1.0))
    op = Op("pair", cfg, algorithms.dedicated_program(cfg, cfg.epsilon),
            None, "GOOD", "gather")
    trace = engine.run(cfg, op.factory)
    checks.check_all(cfg, trace)
    return op, trace, trace.jsonl_lines(), render.render_svg(cfg, trace)


def test_judge_accepts_a_real_run_and_rejects_doctored_outputs():
    op, trace, lines, svg = _real_run()
    assert run._judge(op, trace, None, lines, svg) is None
    no_ga = [s for s in lines if json.loads(s).get("kind") != "ga"]
    assert "without a GA" in run._judge(op, trace, None, no_ga, svg)
    assert run._judge(op, trace, "bad", lines, svg).startswith("check_all")
    op.klass = "UNGATHERABLE"
    assert "pair condition" in run._judge(op, trace, None, lines, svg)
