"""Command-line front end.

Subcommands: classify, simulate, check-independence, counterexample, sweep.
Exit codes are a stable contract:

  classify            0 ungatherable, 1 boundary-gatherable, 2 good
  simulate            0 gathered, 1 split, 2 timeout, 4 trace fails the
                      audit (checks.check_all; the trace and SVG files are
                      written, no verdict is printed)
  check-independence  0 independent, 1 dependent
  counterexample      0 written
  sweep               0 clean, 1 invariant violations seen
  any command         3 on input or file errors
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

from .algorithms import (dedicated_program, gather_a_program,
                         gather_n_program)
from .assumption import (AssumptionSet, build_dependent_counterexample,
                         independence)
from .checks import CheckFailure, check_all
from .config import Feasibility, InitialConfiguration, classify
from .engine import ProgramFactory, Simulation
from .generate import config_of_class
from .render import write_svg

ERR = 3
AUDIT_FAILED = 4


def _load_config(path: str) -> InitialConfiguration:
    try:
        return InitialConfiguration.load(path)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        lines = exc.doc.splitlines()
        context = lines[exc.lineno - 1] if 0 < exc.lineno <= len(lines) \
            else ""
        msg = (f"error: {path}:{exc.lineno}:{exc.colno}: {exc.msg}\n"
               f"  {context}")
        raise SystemExit(msg)
    except ValueError as exc:  # also a file that is not UTF-8
        raise SystemExit(f"error: {path}: {exc}")


@contextmanager
def _writing(path: str):
    """Turn an OSError raised while writing path into an input error."""
    try:
        yield
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc.strerror}")


def _assumption_set(text: str) -> AssumptionSet:
    try:
        return AssumptionSet.parse(text)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _program_factory(algorithm: str, cfg: InitialConfiguration,
                     assumption_set: str | None):
    if algorithm == "dedicated":
        return dedicated_program(cfg, cfg.epsilon)
    if algorithm == "gather-n":
        return gather_n_program(cfg.n)
    if algorithm == "gather-a":
        if not assumption_set:
            raise SystemExit(
                "error: --algorithm gather-a requires --assumption-set")
        return gather_a_program(_assumption_set(assumption_set).elements)
    raise SystemExit(f"error: unknown algorithm {algorithm!r}")


def _simulation(cfg: InitialConfiguration, factory: ProgramFactory,
                horizon: float | None) -> Simulation:
    try:
        return Simulation(cfg, factory, horizon)
    except ValueError as exc:
        if horizon is None:
            raise SystemExit("error: the default horizon of this "
                             "configuration is not finite; give one with "
                             "--horizon")
        raise SystemExit(f"error: {exc}")


def cmd_classify(args) -> int:
    cfg = _load_config(args.config)
    result = classify(cfg)
    if result.kind is Feasibility.UNGATHERABLE:
        print("UNGATHERABLE")
        return 0
    i, j = result.witness
    if result.kind is Feasibility.BAD_GATHERABLE:
        print(f"BAD (witness {i},{j})")
        return 1
    print(f"GOOD (witness {i},{j})")
    return 2


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    factory = _program_factory(args.algorithm, cfg, args.assumption_set)
    trace = _simulation(cfg, factory, args.horizon).run()
    if args.trace:
        with _writing(args.trace):
            trace.write_jsonl(args.trace)
    if args.svg:
        with _writing(args.svg):
            write_svg(cfg, trace, args.svg)
    try:
        check_all(cfg, trace)
    except CheckFailure as exc:
        print(f"error: trace fails the audit: {exc}", file=sys.stderr)
        return AUDIT_FAILED
    v = trace.verdict
    if v.kind == "gathered":
        print(f"GATHERED at ({v.point.x:g},{v.point.y:g}) t={v.time:g}")
        return 0
    if v.kind == "split":
        print(f"SPLIT {len(v.groups)} groups")
        return 1
    print(f"TIMEOUT at t={v.time:g}")
    return 2


def cmd_check_independence(args) -> int:
    independent, cert = independence(_assumption_set(args.set))
    if independent:
        print("INDEPENDENT")
        return 0
    print(f"DEPENDENT: {cert.format()}")
    return 1


def cmd_counterexample(args) -> int:
    a = _assumption_set(args.set)
    if not (args.epsilon > 0.0 and math.isfinite(args.epsilon)):
        raise SystemExit("error: --epsilon must be finite and positive")
    try:
        ce = build_dependent_counterexample(a, args.epsilon)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    with _writing(args.out):
        ce.config.save(args.out)
    sizes = ",".join(str(len(c)) for c in ce.clusters)
    print(f"DEPENDENT: {ce.certificate.format()}")
    print(f"wrote {ce.config.n} agents in clusters of {sizes} to {args.out}")
    return 0


_CLASS_NAMES = {
    "good": Feasibility.GOOD,
    "bad": Feasibility.BAD_GATHERABLE,
    "ungatherable": Feasibility.UNGATHERABLE,
}


def _sweep_one(task: tuple) -> dict:
    idx, seed, class_name, n, algorithm, assumption_set, horizon = task
    kind = _CLASS_NAMES[class_name]
    cfg = config_of_class(seed, kind, n)
    factory = _program_factory(algorithm, cfg, assumption_set)
    trace = _simulation(cfg, factory, horizon).run()
    violation = ""
    try:
        check_all(cfg, trace)
    except CheckFailure as exc:
        violation = str(exc)
    return {
        "idx": idx,
        "verdict": trace.verdict.kind,
        "time": trace.verdict.time,
        "ga_events": len(trace.ga_events()),
        "violation": violation,
    }


def cmd_sweep(args) -> int:
    if args.count < 1:
        raise SystemExit("error: --count must be at least 1")
    if args.jobs < 1:
        raise SystemExit("error: --jobs must be at least 1")
    if args.n < 2:
        raise SystemExit("error: --n must be at least 2")
    if args.cls == "bad" and args.n != 2:
        raise SystemExit("error: boundary configurations are pairs; "
                         "use --n 2 with --class bad")
    if args.algorithm == "gather-a" and not args.assumption_set:
        raise SystemExit(
            "error: --algorithm gather-a requires --assumption-set")
    tasks = [(i, args.seed * 1_000_003 + i, args.cls, args.n,
              args.algorithm, args.assumption_set, args.horizon)
             for i in range(args.count)]
    # The pool starts all its workers at once, so never ask for idle ones.
    jobs = min(args.jobs, args.count)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_one, tasks))
    else:
        results = [_sweep_one(t) for t in tasks]

    gathered = [r for r in results if r["verdict"] == "gathered"]
    violations = [r for r in results if r["violation"]]
    total_ga = sum(r["ga_events"] for r in results)
    for r in results:
        line = (f"  #{r['idx']:<4d} {r['verdict']:<9s} "
                f"t={r['time']:.6f} ga={r['ga_events']}")
        if r["violation"]:
            line += f"  VIOLATION: {r['violation']}"
        print(line)
    rate = len(gathered) / len(results)
    print(f"class={args.cls} n={args.n} count={args.count} "
          f"seed={args.seed} algorithm={args.algorithm}")
    print(f"gather rate {rate:.2f} ({len(gathered)}/{len(results)})")
    if gathered:
        print(f"max gathering time {max(r['time'] for r in gathered):.6f}")
    print(f"total GA events {total_ga}")
    print(f"invariant violations {len(violations)}")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gathersim",
        description="Simulate gathering of anonymous agents that appear "
                    "in the plane at different times.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify",
                       help="report the feasibility class of a "
                            "configuration file")
    p.add_argument("config")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", help="run an algorithm on a "
                                        "configuration file")
    p.add_argument("config")
    p.add_argument("--algorithm", required=True,
                   choices=["dedicated", "gather-n", "gather-a"])
    p.add_argument("--assumption-set", default=None, metavar="a,b,c")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--trace", default=None, metavar="out.jsonl")
    p.add_argument("--svg", default=None, metavar="out.svg")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-independence",
                       help="test whether a candidate team-size set has a "
                            "smaller-sum representation")
    p.add_argument("set", metavar="a,b,c")
    p.set_defaults(func=cmd_check_independence)

    p = sub.add_parser("counterexample",
                       help="build a configuration that a dependent "
                            "team-size set fails to gather")
    p.add_argument("--set", required=True, metavar="a,b,c")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("sweep",
                       help="run an algorithm over many seeded random "
                            "configurations and summarize")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--class", dest="cls", required=True,
                   choices=["good", "bad", "ungatherable"],
                   help="feasibility class to generate; bad pairs are "
                        "axis-aligned, so the star sweep's exact axis "
                        "rays can gather them")
    p.add_argument("--algorithm", required=True,
                   choices=["dedicated", "gather-n", "gather-a"])
    p.add_argument("--assumption-set", default=None, metavar="a,b,c")
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return ERR
        raise


if __name__ == "__main__":
    sys.exit(main())
