#!/usr/bin/env python3
"""Simulate the size-aware algorithm on a random good configuration.

Generates a seeded gatherable configuration, runs the team-size-aware
program on it, prints the event log, and writes the JSONL trace and the
SVG picture to --outdir (default: the working directory), creating it if
needed.

Usage:
    python3 scripts/demo_gather.py [--seed 7] [--n 4] [--outdir .]
"""

import argparse
import pathlib

from gathersim.algorithms import gather_n_program
from gathersim.checks import check_all
from gathersim.engine import run
from gathersim.generate import good_config
from gathersim.render import write_svg


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--outdir", default=".")
    args = ap.parse_args()
    # Made before the run, so a bad path fails before the simulation.
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    cfg = good_config(args.seed, args.n)
    print(f"configuration (eps = {cfg.epsilon:.4f}):")
    for i in range(cfg.n):
        p, t = cfg.agent(i)
        print(f"  agent {i}: start ({p.x:+.4f}, {p.y:+.4f})  t = {t:.4f}")

    trace = run(cfg, gather_n_program(args.n))
    check_all(cfg, trace)

    print("\nevents:")
    for ev in trace.events:
        if ev.kind == "ga":
            print(f"  t={ev.time:10.4f}  meeting of agents {ev.agents}")
        elif ev.kind == "stop":
            print(f"  t={ev.time:10.4f}  agent {ev.agents[0]} stopped")
    v = trace.verdict
    print(f"\nverdict: {v.kind} at t = {v.time:.4f}", end="")
    if v.point is not None:
        print(f", gather point ({v.point.x:.4f}, {v.point.y:.4f})")
    else:
        print()

    trace_path = outdir / f"gather_seed{args.seed}_n{args.n}.jsonl"
    svg_path = outdir / f"gather_seed{args.seed}_n{args.n}.svg"
    trace.write_jsonl(trace_path)
    write_svg(cfg, trace, svg_path)
    print(f"wrote {trace_path} and {svg_path}")


if __name__ == "__main__":
    main()
