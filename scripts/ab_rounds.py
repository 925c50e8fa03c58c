#!/usr/bin/env python3
"""Time two gathersim source trees against each other in one process.

    python3 scripts/ab_rounds.py OLD_SRC NEW_SRC --workload no-meet --rounds 24

OLD_SRC and NEW_SRC are directories that hold a gathersim package, such
as src of two checkouts.  Each tree is imported in turn (see
scripts/srctree.py), and the workload's corpus is built with it from
perfbench/corpus.py, the way scripts/corpus_digest.py builds it.  Whole
rounds are then timed in alternation, ABBA, so that drift of the host
weighs on both sides alike: an operation is engine.run,
checks.check_all, Trace.jsonl_lines and render.render_svg, as in the
benchmark.  The script prints each side's median round and the median
of the per-round ratios NEW / OLD with their quartiles.  It also prints
each side's median seconds per round in each layer, timed around the
same calls: engine.run, check_all, and the JSONL and SVG writers
together, and each layer's median per-round ratio NEW / OLD with its
quartiles, so a change to one layer shows where its saving sits, and one
smaller than the spread of whole rounds can still be resolved.

Back-to-back processes on a shared host can differ by far more than a
change does; alternating in one process resolves a few percent.  It is a
development aid only: claims of a gain rest on perfbench/run.py.
"""

import argparse
import statistics
import sys
import time

import srctree


LAYERS = ("engine", "check_all", "JSONL+SVG")


def load(src: str, workload: str, seed: int):
    """Import the gathersim of src and build the workload's corpus with
    it; return one function that runs a whole round and returns its
    seconds in each of LAYERS."""
    tree = srctree.load(src)
    checks, engine, render = tree.checks, tree.engine, tree.render
    ops = tree.corpus.build_corpus(workload, seed)
    clock = time.perf_counter

    def round_() -> list[float]:
        spent = [0.0] * len(LAYERS)
        for op in ops:
            t0 = clock()
            trace = engine.run(op.cfg, op.factory, op.horizon)
            t1 = clock()
            try:
                checks.check_all(op.cfg, trace)
            except checks.CheckFailure:
                pass
            t2 = clock()
            trace.jsonl_lines()
            render.render_svg(op.cfg, trace)
            t3 = clock()
            spent[0] += t1 - t0
            spent[1] += t2 - t1
            spent[2] += t3 - t2
        return spent
    return round_


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--workload", required=True,
                    choices=srctree.WORKLOADS)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sides = (load(args.old_src, args.workload, args.seed),
             load(args.new_src, args.workload, args.seed))
    for side in sides:  # a warm-up round each, not timed
        side()
    times: tuple[list[float], list[float]] = ([], [])
    layers: tuple[list[list[float]], list[list[float]]] = ([], [])
    clock = time.perf_counter
    for r in range(args.rounds):
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            t0 = clock()
            layers[k].append(sides[k]())
            times[k].append(clock() - t0)
    old, new = times
    ratios = [b / a for a, b in zip(old, new)]
    q1, med, q3 = quartiles(ratios)
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds each")
    print(f"old median round {statistics.median(old):.4f} s")
    print(f"new median round {statistics.median(new):.4f} s")
    print(f"new/old median ratio {med:.3f} (quartiles {q1:.3f}-{q3:.3f})")
    for name, spent in zip(("old", "new"), layers):
        print(f"{name} median seconds per round: " + ", ".join(
            f"{layer} {statistics.median(col):.4f}"
            for layer, col in zip(LAYERS, zip(*spent))))
    parts = []
    for k, layer in enumerate(LAYERS):
        q1, med, q3 = quartiles([b[k] / a[k] for a, b in zip(*layers)])
        parts.append(f"{layer} {med:.3f} ({q1:.3f}-{q3:.3f})")
    print("new/old median ratio per layer (quartiles): " + ", ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
