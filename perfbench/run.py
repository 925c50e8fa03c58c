"""Benchmark for gathersim: one workload, one seed, one process.

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; it imports gathersim from src/.  An
operation takes one configuration through what
``gathersim simulate --trace --svg`` does plus the check ``sweep`` adds:
engine.run, checks.check_all, Trace.jsonl_lines and render.render_svg.
The run repeats whole rounds of its workload's corpus until --seconds
have passed, checks every operation against the oracles in oracles.py
outside the timed region, and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; set-up time
is the median over several fresh interpreters.  --trace 1 runs one round
untraced and one traced, and reports the per-layer metrics of the traced
round.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import oracles as o
from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Fresh interpreters timed for setup_s in an untraced run.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60.0

_clock = time.perf_counter


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("large-n", "no-meet", "sweep-mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _load_gathersim():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "gathersim", "__init__.py")):
        raise SystemExit(f"error: no gathersim sources under {SRC}; "
                         "run from the root of a gathersim checkout")
    sys.path.insert(0, SRC)


def _probe_setup(args) -> float:
    """Host seconds from starting an interpreter until its corpus is built."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    t0 = _clock()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = _clock() - t0
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe failed (exit {code})")
    return elapsed


def _paths(trace):
    """Each agent's recorded path as (time, x, y) breakpoints."""
    out = []
    for traj in trace.trajectories:
        seg0 = traj.segments[0]
        pts = [(seg0.start_time, seg0.start_point.x, seg0.start_point.y)]
        pts += [(s.end_time, s.end_point.x, s.end_point.y)
                for s in traj.segments]
        out.append(pts)
    return out


def _judge(op, trace, violation, lines, svg) -> str | None:
    """Why the operation failed, or None when every oracle accepts it."""
    try:
        if violation:
            raise o.OracleFailure(f"check_all: {violation}")
        cfg = op.cfg
        starts = [(p.x, p.y) for p in cfg.starts]
        eps = cfg.epsilon
        o.check_class(eps, starts, cfg.times, op.klass)
        events, verdict = o.parse_jsonl(lines)
        o.check_svg(svg)
        paths = _paths(trace)
        o.check_speeds(paths)
        legs = [o.legs(p) for p in paths]
        if op.expect == "gather":
            # Tuples compare lexicographically.
            o.check_gathered_at(verdict, paths, max(starts))
        elif op.expect == "split":
            o.check_split(verdict, paths, op.clusters, eps)
        else:
            if verdict.get("verdict") != "timeout" \
                    or any(e["kind"] == "ga" for e in events):
                raise o.OracleFailure(
                    "ungatherable run did not time out without GAs")
            o.check_no_meet(starts, cfg.times, eps, legs)
        if o.pair_class(eps, starts, cfg.times) == o.GOOD:
            o.check_first_meetings(eps, legs,
                                   [e for e in events if e["kind"] == "ga"])
    except o.OracleFailure as exc:
        return str(exc)
    return None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, str] = {}
        self.known: dict[str, str] = {}

    def add(self, op, reason: str | None) -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        (self.known if op.known_fault else self.unexpected)[op.label] = reason


def _run_round(ops, tally: Tally, speed: HostSpeed,
               tracer=None) -> list[float]:
    """One pass over the corpus; host seconds of each operation."""
    from gathersim import checks, engine, render
    times = []
    for op in ops:
        factory = tracer.program_factory(op.factory) if tracer else op.factory
        t0 = _clock()
        trace = engine.run(op.cfg, factory, op.horizon)
        violation = None
        try:
            checks.check_all(op.cfg, trace)
        except checks.CheckFailure as exc:
            violation = str(exc)
        lines = trace.jsonl_lines()
        svg = render.render_svg(op.cfg, trace)
        times.append(_clock() - t0)
        tally.add(op, _judge(op, trace, violation, lines, svg))
        if tracer:
            tracer.record_trace(trace)
        speed.after_op(times[-1])
    return times


def _spec_units(section: str) -> dict[str, str]:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def _untraced(args, build_corpus, tally: Tally):
    """End-to-end metrics from rounds repeated for args.seconds."""
    speed = HostSpeed()
    speed.sample()
    setup = []
    for _ in range(SETUP_PROBES):
        setup.append(_probe_setup(args))
        speed.sample()
    ops = build_corpus(args.workload, args.seed)
    rounds: list[list[float]] = []
    start = _clock()
    while not rounds or _clock() - start < args.seconds:
        rounds.append(_run_round(ops, tally, speed))
    # Each operation's median over the rounds, then the median operation:
    # with few distinct operations a median over all samples would jump
    # between the two operations either side of the middle.
    p50 = statistics.median(statistics.median(t) for t in zip(*rounds))
    total = math.fsum(map(math.fsum, rounds))
    factor = speed.factor()
    print(f"host seconds: set-up {statistics.median(setup):.6g}, "
          f"median operation {p50:.6g}; host speed factor {factor:.4g} "
          f"from {len(speed.samples)} calibration samples")
    return ops, len(rounds), {
        "setup_s": statistics.median(setup) * factor,
        "run_s_p50": p50 * factor,
        "runs_per_s": len(ops) * len(rounds) / (total * factor),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(args, build_corpus, tally: Tally):
    """Per-layer metrics of one traced round, after one untraced round."""
    from tracer import Tracer
    tracer = Tracer()
    tracer.install_setup()
    try:
        ops = build_corpus(args.workload, args.seed)
    finally:
        tracer.uninstall()
    plain_speed, traced_speed = HostSpeed(), HostSpeed()
    plain_speed.sample()
    plain = _run_round(ops, tally, plain_speed)
    traced_speed.sample()
    tracer.install_run()
    try:
        traced = _run_round(ops, tally, traced_speed, tracer)
    finally:
        tracer.uninstall()
    factor = traced_speed.factor()
    seconds = {m for m, unit in _spec_units("per_layer").items()
               if unit == "s"}
    values = {name: value * factor if name in seconds else value
              for name, value in tracer.metrics().items()}
    values["bench.trace_overhead_ratio"] = (math.fsum(traced) * factor) \
        / (math.fsum(plain) * plain_speed.factor())
    return ops, 2, values


def main(argv=None) -> int:
    args = _parse_args(argv)
    _load_gathersim()
    from corpus import build_corpus

    if args.setup_probe:
        build_corpus(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    tally = Tally()
    measure = _traced if args.trace else _untraced
    ops, rounds, values = measure(args, build_corpus, tally)
    units = _spec_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"error: no value for metrics {missing}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations a round, {rounds} rounds, "
          f"{tally.attempted} attempted, {tally.failed} failed")
    for label, reason in sorted(tally.known.items()):
        print(f"  known fault  {label}: {reason}")
    for label, reason in sorted(tally.unexpected.items()):
        print(f"  FAILED       {label}: {reason}")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
