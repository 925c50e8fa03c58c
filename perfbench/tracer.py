"""Per-layer tracing from outside the package.

A Tracer replaces public functions of gathersim's modules with wrappers
that count calls and add up the host time spent inside them, and puts the
originals back on uninstall.  Nothing in gathersim changes.  Time in a
layer is counted once even when its functions call each other: only the
outermost call into a layer is timed (and counted, for ``*.calls``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from gathersim import (algorithms, assumption, checks, config, engine,
                       generate, geometry, render)

_clock = time.perf_counter

# Every metric metrics() reports, zero when its layer did no work.
METRICS = (
    "generate.calls", "generate.busy_s", "config.classify_calls",
    "config.classify_busy_s", "assumption.busy_s",
    "engine.run_calls", "engine.busy_s", "engine.self_s", "engine.events",
    "engine.ga_events", "engine.order_events", "engine.sim_time",
    "engine.ga_member_pairs",
    "geometry.crossing_solves", "geometry.crossing_busy_s",
    "geometry.crossing_hit_ratio",
    "trajectory.move_to_calls", "trajectory.busy_s", "trajectory.segments",
    "trajectory.turn_ratio",
    "algorithms.callbacks", "algorithms.busy_s",
    "checks.busy_s", "checks.ga_events_busy_s", "checks.speeds_busy_s",
    "checks.position_at_calls",
    "engine.jsonl_busy_s", "engine.jsonl_kb", "render.svg_busy_s",
    "render.svg_kb",
)


class Tracer:
    def __init__(self):
        self.values: defaultdict[str, float] = defaultdict(float)
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_everywhere(self, module, name: str, wrap) -> None:
        """Replace module.name, and every gathersim module's import of it."""
        original = getattr(module, name)
        wrapped = wrap(original)
        for modname, mod in list(sys.modules.items()):
            if (modname == "gathersim" or modname.startswith("gathersim.")) \
                    and mod.__dict__.get(name) is original:
                self._set(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- wrappers --------------------------------------------------------------

    def timed(self, layer: str, calls: str | None = None, after=None):
        """Wrapper factory: time the outermost call of layer into
        ``<layer>`` and count it in ``calls``; after(result) may record
        more."""
        values, depth = self.values, self._depth

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if depth[layer]:
                    return fn(*args, **kwargs)
                depth[layer] += 1
                t0 = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    values[layer] += _clock() - t0
                    depth[layer] -= 1
                if calls:
                    values[calls] += 1
                if after:
                    after(result)
                return result
            return wrapper
        return wrap

    def counted(self, calls: str):
        values = self.values

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                values[calls] += 1
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    # -- layers ----------------------------------------------------------------

    def install_setup(self) -> None:
        """Layers the corpus build goes through: generate, config,
        assumption."""
        for name in ("good_pair", "good_config", "ungatherable_config",
                     "boundary_pair", "config_of_class"):
            self._patch_everywhere(generate, name,
                                   self.timed("generate.busy_s",
                                              "generate.calls"))
        self._patch_everywhere(config, "classify",
                               self.timed("config.classify_busy_s",
                                          "config.classify_calls"))
        for name in ("independence", "is_independent",
                     "build_dependent_counterexample"):
            self._patch_everywhere(assumption, name,
                                   self.timed("assumption.busy_s"))

    def install_run(self) -> None:
        """Layers an operation goes through: engine and what it calls,
        checks, JSONL and SVG."""
        v = self.values
        self._set(engine, "run",
                  self.timed("engine.busy_s", "engine.run_calls")(engine.run))

        def hit(result):
            if result is not None:
                v["geometry.crossing_hits"] += 1
        # Wrapped at the names the engine imports, so only the engine's
        # solves are counted.
        for name in ("solve_crossing_in", "solve_crossing_out"):
            self._set(engine, name,
                      self.timed("geometry.crossing_busy_s",
                                 "geometry.crossing_solves", hit)(
                          getattr(engine, name)))
        builder = geometry.TrajectoryBuilder
        self._set(builder, "move_to",
                  self.timed("trajectory.busy_s", "trajectory.move_to_calls")(
                      builder.move_to))
        self._set(builder, "build",
                  self.timed("trajectory.busy_s")(builder.build))
        self._set(geometry.Trajectory, "position_at",
                  self.counted("checks.position_at_calls")(
                      geometry.Trajectory.position_at))
        self._set(checks, "check_all",
                  self.timed("checks.busy_s")(checks.check_all))
        self._set(checks, "check_ga_events",
                  self.timed("checks.ga_events_busy_s")(
                      checks.check_ga_events))
        self._set(checks, "check_speeds",
                  self.timed("checks.speeds_busy_s")(checks.check_speeds))

        def jsonl_size(lines):
            v["engine.jsonl_kb"] += sum(len(s) + 1 for s in lines) / 1024.0
        self._set(engine.Trace, "jsonl_lines",
                  self.timed("engine.jsonl_busy_s", after=jsonl_size)(
                      engine.Trace.jsonl_lines))

        def svg_size(text):
            v["render.svg_kb"] += len(text.encode()) / 1024.0
        self._set(render, "render_svg",
                  self.timed("render.svg_busy_s", after=svg_size)(
                      render.render_svg))

    def program_factory(self, factory):
        """Factory whose programs time their callbacks."""
        values = self.values

        def make():
            return _TimedProgram(factory(), values)
        return make

    # -- results ---------------------------------------------------------------

    def record_trace(self, trace) -> None:
        """Counts read from a finished run's trace."""
        v = self.values
        v["engine.events"] += len(trace.events)
        for ev in trace.events:
            if ev.kind == "ga":
                v["engine.ga_events"] += 1
                m = len(ev.agents)
                v["engine.ga_member_pairs"] += m * (m - 1)
            elif ev.kind == "order":
                v["engine.order_events"] += 1
        v["engine.sim_time"] += trace.verdict.time
        for traj in trace.trajectories:
            prev = None
            for seg in traj.segments:
                vel = seg.velocity
                if prev is not None and (abs(vel.dx - prev.dx) > 1e-9
                                         or abs(vel.dy - prev.dy) > 1e-9):
                    v["trajectory.turns"] += 1
                prev = vel
            v["trajectory.segments"] += len(traj.segments)

    def metrics(self) -> dict[str, float]:
        v = dict.fromkeys(METRICS, 0.0)
        v.update(self.values)
        hits = v.pop("geometry.crossing_hits", 0.0)
        turns = v.pop("trajectory.turns", 0.0)
        if v["geometry.crossing_solves"]:
            v["geometry.crossing_hit_ratio"] = \
                hits / v["geometry.crossing_solves"]
        if v["trajectory.segments"]:
            v["trajectory.turn_ratio"] = turns / v["trajectory.segments"]
        v["engine.self_s"] = (v["engine.busy_s"]
                              - v["geometry.crossing_busy_s"]
                              - v["trajectory.busy_s"]
                              - v["algorithms.busy_s"])
        return v


class _TimedProgram(engine.Program):
    """Delegates the four callbacks to a program and times them."""

    def __init__(self, inner, values):
        self._inner = inner
        self._values = values

    def _call(self, fn, *args):
        t0 = _clock()
        try:
            return fn(*args)
        finally:
            self._values["algorithms.busy_s"] += _clock() - t0
            self._values["algorithms.callbacks"] += 1

    def on_appear(self, ctx):
        return self._call(self._inner.on_appear, ctx)

    def on_ga(self, ctx, view):
        return self._call(self._inner.on_ga, ctx, view)

    def on_order(self, ctx, target, issuer):
        return self._call(self._inner.on_order, ctx, target, issuer)

    def on_idle(self, ctx):
        return self._call(self._inner.on_idle, ctx)
