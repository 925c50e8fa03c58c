"""End-to-end acceptance suite.

Seven numbered criteria, one test each.  Every test prints a single
PASS or FAIL line outside the capture so the tally is readable straight
from plain pytest output.
"""

import itertools
import math
from collections import Counter

from gathersim.algorithms import (dedicated_program, gather_a_program,
                                  gather_n_program, star_phase_params,
                                  star_time_through_phase)
from gathersim.assumption import (AssumptionSet, build_dependent_counterexample,
                                  is_independent)
from gathersim.config import Feasibility, InitialConfiguration
from gathersim.engine import Program, run
from gathersim.generate import (boundary_pair, config_of_class, good_config,
                                good_pair, ungatherable_config)
from gathersim.geometry import Point
from test_assumption import brute_force_dependent_element


def _report(capsys, num: int, body) -> None:
    try:
        detail = body()
    except BaseException as exc:
        with capsys.disabled():
            print(f"\n[criterion {num}] FAIL  {exc}")
        raise
    with capsys.disabled():
        print(f"\n[criterion {num}] PASS  {detail}")


def _dedicated_horizon(cfg) -> float:
    return 20.0 * (cfg.diameter() + cfg.max_start_time() + 1.0)


def _gather_n_horizon(cfg) -> float:
    x = max(3, math.ceil(cfg.diameter() + cfg.max_start_time()) + 1)
    return cfg.max_start_time() + star_time_through_phase(x) + 100.0 * cfg.n


def test_criterion_1_dedicated_characterization(capsys):
    """Gatherable iff some pair satisfies |dt| >= d - eps, witnessed by a
    dedicated pair algorithm that gathers exactly the gatherable runs."""
    def body():
        kinds = (Feasibility.GOOD, Feasibility.BAD_GATHERABLE,
                 Feasibility.UNGATHERABLE)
        cases = [(s, kinds[s % 3]) for s in range(200)]
        cases += [(1000 + s, Feasibility.BAD_GATHERABLE) for s in range(20)]
        bad = 0
        for seed, kind in cases:
            cfg = config_of_class(seed, kind, n=2)
            trace = run(cfg, dedicated_program(cfg, cfg.epsilon),
                        horizon=_dedicated_horizon(cfg))
            if kind is Feasibility.UNGATHERABLE:
                if trace.ga_events():
                    bad += 1
            else:
                ok = trace.verdict.kind == "gathered"
                if ok:
                    g = trace.verdict.point
                    ok = all(t.end_point.dist(g) <= 1e-6
                             for t in trace.trajectories)
                if not ok:
                    bad += 1
        assert bad == 0, f"{bad} misbehaving runs"
        return f"{len(cases)} two-agent runs match their feasibility class"
    _report(capsys, 1, body)


def test_criterion_2_gather_n_universality(capsys):
    """Knowing the team size suffices on every good configuration, and the
    role bookkeeping ends with one explorer, no cruisers, some token."""
    def body():
        total = 0
        for n in range(2, 7):
            for i in range(100):
                cfg = good_config(1000 * n + i, n)
                trace = run(cfg, gather_n_program(n),
                            horizon=_gather_n_horizon(cfg))
                assert trace.verdict.kind == "gathered", (n, i)
                tags = Counter(trace.final_tags)
                assert tags["explorer"] == 1, (n, i, tags)
                assert tags["cruiser"] == 0, (n, i, tags)
                assert tags["token"] >= 1, (n, i, tags)
                total += 1
        return f"{total} good runs gathered with clean end-state roles"
    _report(capsys, 2, body)


def test_criterion_3_first_ga_phase_bound(capsys):
    """On a good pair the first meeting happens no later than the later
    agent finishes sweep phase max(ceil(dt), ceil(1/z))."""
    def body():
        worst = 0.0
        for seed in range(100):
            cfg = good_pair(3000 + seed)
            d = cfg.starts[0].dist(cfg.starts[1])
            delta = abs(cfg.times[0] - cfg.times[1])
            z = delta - (d - cfg.epsilon)
            assert z > 0.0
            phase = max(math.ceil(delta), math.ceil(1.0 / z))
            bound = max(cfg.times) + star_time_through_phase(phase)
            trace = run(cfg, gather_n_program(2), horizon=bound + 50.0)
            gas = trace.ga_events()
            assert gas, seed
            first = gas[0].time
            assert first <= bound + 1e-9, (seed, first, bound)
            worst = max(worst, first / bound)
        return f"100 good pairs met in time; worst first-GA/bound = {worst:.3f}"
    _report(capsys, 3, body)


def test_criterion_4_star_geometry(capsys):
    """Consecutive sweep ray tips are exactly 1/x apart and the stages
    cover the full circle."""
    def body():
        for x in range(1, 51):
            alpha, k = star_phase_params(x)
            assert abs(2.0 * x * math.sin(alpha / 2.0) - 1.0 / x) <= 1e-9, x
            assert k * alpha >= 2.0 * math.pi, x
        return "phases 1..50: tip spacing 1/x within 1e-9, full coverage"
    _report(capsys, 4, body)


def test_criterion_5_ungatherable_non_approach(capsys):
    """When every pair is strictly out of reach no meeting ever happens and
    all trajectories are translates of one another."""
    def body():
        for seed in range(50):
            n = 2 + seed % 3
            cfg = ungatherable_config(5000 + seed, n)
            trace = run(cfg, gather_n_program(n),
                        horizon=_dedicated_horizon(cfg))
            assert not trace.ga_events(), seed
            # Pointwise translation check on the common local time span.
            spans = [trace.trajectories[i].end_time - cfg.times[i]
                     for i in range(n)]
            u_max = min(spans)
            for i, j in itertools.combinations(range(n), 2):
                for frac in (0.0, 0.17, 0.4, 0.63, 0.85, 1.0):
                    u = frac * u_max
                    pi = trace.trajectories[i].position_at(cfg.times[i] + u)
                    pj = trace.trajectories[j].position_at(cfg.times[j] + u)
                    dx = (pi.x - cfg.starts[i].x) - (pj.x - cfg.starts[j].x)
                    dy = (pi.y - cfg.starts[i].y) - (pj.y - cfg.starts[j].y)
                    assert math.hypot(dx, dy) <= 1e-6, (seed, i, j, frac)
        return "50 out-of-reach runs: zero GAs, trajectories are translates"
    _report(capsys, 5, body)


def test_criterion_6_assumption_sets(capsys):
    """Independence decides universality: the checker matches brute force,
    an independent set gathers, a dependent set splits a crafted run."""
    def body():
        for size in range(1, 5):
            for elems in itertools.combinations(range(2, 13), size):
                got = is_independent(AssumptionSet(elems))
                want = brute_force_dependent_element(elems) is None
                assert got == want, elems

        for n in (2, 3):
            for seed in range(10):
                cfg = good_config(7000 + 100 * n + seed, n)
                trace = run(cfg, gather_a_program((2, 3)), horizon=2000.0)
                assert trace.verdict.kind == "gathered", (n, seed)

        cx = build_dependent_counterexample(AssumptionSet((2, 4)), 0.5)
        trace = run(cx.config, gather_a_program((2, 4)))
        assert trace.verdict.kind == "split"
        assert len(trace.verdict.groups) == 2
        cluster_of = {i: ci for ci, c in enumerate(cx.clusters) for i in c}
        for ev in trace.ga_events():
            assert len({cluster_of[i] for i in ev.agents}) == 1
        return ("561 sets match brute force; {2,3} gathers sizes 2-3; "
                "{2,4} splits into 2 groups with no cross-cluster GA")
    _report(capsys, 6, body)


class _ObservationProbe(Program):
    """Records everything the agent-facing surface exposes.

    The recorded stream must be identical across translated reruns, which
    rules out any leak of absolute coordinates, and the context must not
    reveal the visibility radius or orderable identities.
    """

    def __init__(self, log):
        self.log = log

    def _scan(self, ctx):
        for attr in ("epsilon", "eps", "visibility", "radius"):
            assert not hasattr(ctx, attr), f"context leaks {attr}"
        try:
            sorted(ctx.knowledge.keys())
        except TypeError:
            pass
        else:
            if len(ctx.knowledge) > 1:
                raise AssertionError("identities are orderable")

    def on_appear(self, ctx):
        self._scan(ctx)
        self.log.append(("appear", round(ctx.now, 9),
                         round(ctx.position.x, 9), round(ctx.position.y, 9)))

    def on_ga(self, ctx, view):
        self._scan(ctx)
        obs = tuple(sorted((round(p.position.x, 9), round(p.position.y, 9),
                            p.tag) for p in view.others()))
        self.log.append(("ga", round(view.time, 9), obs))


def test_criterion_7_determinism_and_anonymity(capsys):
    """Reruns are bit-identical and programs can only see relative state."""
    def body():
        cfg = good_config(4242, 3)
        a = run(cfg, gather_n_program(3))
        b = run(cfg, gather_n_program(3))
        assert a.jsonl_lines() == b.jsonl_lines()

        moved = InitialConfiguration(
            cfg.epsilon,
            tuple(Point(p.x + 1234.5, p.y - 987.25) for p in cfg.starts),
            cfg.times)
        log1, log2 = [], []
        run(cfg, lambda: _ObservationProbe(log1), horizon=40.0)
        run(moved, lambda: _ObservationProbe(log2), horizon=40.0)
        assert log1, "probe observed nothing"
        assert log1[0][1:] == (0.0, 0.0, 0.0)
        assert log1 == log2, "observations changed under translation"
        return ("reruns bit-identical; probe saw only relative state, "
                f"{len(log1)} observations invariant under translation")
    _report(capsys, 7, body)
