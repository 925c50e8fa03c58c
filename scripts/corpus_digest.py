#!/usr/bin/env python3
"""Fingerprint the benchmark corpus: one line per workload and seed.

Runs every operation of every workload's corpus (built by
perfbench/corpus.py, which this script only reads, with the gathersim of
this checkout's src, loaded through scripts/srctree.py) the way the
benchmark does: engine.run, checks.check_all, Trace.jsonl_lines and
render.render_svg.  For each workload and seed it prints two lines.  The
first holds the sha256 of all JSONL lines and SVG documents in corpus
order, and the sha256 of the check_all outcomes ("ok" or the failure
message).  The second holds the sha256 of every recorded trajectory: each
breakpoint's time and coordinates as float.hex, so a path moved by less
than the SVG's rounding still changes it.  Two checkouts whose lines are
equal produce the same traces, paths, pictures and check results on the
whole corpus, so a refactor or speed-up can show byte identity with

    python3 scripts/corpus_digest.py --seeds 3 17

run from each checkout and compared line by line.  The output of that
command is committed as scripts/corpus_digest.expected, and CI fails when
a fresh run differs from it; a change that alters traces on purpose
updates the file and says why in CHANGES.md.
"""

import argparse
import hashlib
import sys

import srctree


def digest(tree, workload: str, seed: int) -> tuple[int, str, str, str]:
    engine, render = tree.engine, tree.render
    traces = hashlib.sha256()
    outcomes = hashlib.sha256()
    paths = hashlib.sha256()
    ops = tree.corpus.build_corpus(workload, seed)
    for op in ops:
        trace = engine.run(op.cfg, op.factory, op.horizon)
        outcome = srctree.outcome(tree, op, trace)
        for line in trace.jsonl_lines():
            traces.update(line.encode())
            traces.update(b"\n")
        traces.update(render.render_svg(op.cfg, trace).encode())
        outcomes.update(f"{op.label} {outcome}\n".encode())
        for idx, traj in enumerate(trace.trajectories):
            paths.update(f"{op.label} agent {idx}\n".encode())
            for t, x, y in zip(traj.times, traj.xs, traj.ys):
                paths.update(f"{t.hex()} {x.hex()} {y.hex()}\n".encode())
    return (len(ops), traces.hexdigest(), outcomes.hexdigest(),
            paths.hexdigest())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    tree = srctree.load(str(srctree.ROOT / "src"))
    for workload in srctree.WORKLOADS:
        for seed in args.seeds:
            count, traces, outcomes, paths = digest(tree, workload, seed)
            print(f"{workload} seed {seed}: {count} operations "
                  f"jsonl+svg {traces} check_all {outcomes}", flush=True)
            print(f"{workload} seed {seed}: trajectories {paths}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
