#!/usr/bin/env python3
"""Compare the traces of two gathersim source trees, run by run.

    python3 scripts/ab_traces.py OLD_SRC NEW_SRC --seeds 3 17

OLD_SRC and NEW_SRC are directories that hold a gathersim package, such
as src of two checkouts.  Each tree is imported in turn (see
scripts/srctree.py) and builds every workload's corpus from
perfbench/corpus.py; each operation is then run and checked with
checks.check_all under both trees.  For each workload and seed the
script prints one line:

- the number of operations;
- the operations whose verdict kind or group count differs;
- the operations whose GA member sequences differ;
- the operations whose check_all outcome ("ok" or the failure message)
  differs;
- the largest difference of a GA's time, over the operations with equal
  GA member sequences, and of an agent's final position;
- the JSONL lines that differ, and the operations that hold them.

Where a change moves trace bytes on purpose, this shows that it moved
them by float noise only: the exit status is 1 when any verdict, GA
member sequence or check_all outcome differs, else 0.  Run against
itself, a tree prints 0 for every difference.
"""

import argparse
import itertools
import math
import sys

import srctree


def compare(old, new, workload: str, seed: int) -> dict:
    """Run the workload's corpus under both trees; return the counts and
    maxima that main prints."""
    ops_old = old.corpus.build_corpus(workload, seed)
    ops_new = new.corpus.build_corpus(workload, seed)
    if [op.label for op in ops_old] != [op.label for op in ops_new]:
        raise SystemExit(f"{workload} seed {seed}: the trees build "
                         "different corpora")
    diff = dict(operations=len(ops_old), verdicts=0, ga_sequences=0,
                check_all=0, ga_time=0.0, final_position=0.0,
                jsonl_lines=0, jsonl_operations=0)
    for a, b in zip(ops_old, ops_new):
        ta = old.engine.run(a.cfg, a.factory, a.horizon)
        tb = new.engine.run(b.cfg, b.factory, b.horizon)
        va, vb = ta.verdict, tb.verdict
        if (va.kind, len(va.groups)) != (vb.kind, len(vb.groups)):
            diff["verdicts"] += 1
        gas_a, gas_b = ta.ga_events(), tb.ga_events()
        if [ev.agents for ev in gas_a] != [ev.agents for ev in gas_b]:
            diff["ga_sequences"] += 1
        else:
            for ea, eb in zip(gas_a, gas_b):
                diff["ga_time"] = max(diff["ga_time"],
                                      abs(ea.time - eb.time))
        for pa, pb in zip(ta.final_positions, tb.final_positions):
            diff["final_position"] = max(diff["final_position"],
                                         math.dist(pa.coords, pb.coords))
        if srctree.outcome(old, a, ta) != srctree.outcome(new, b, tb):
            diff["check_all"] += 1
        changed = sum(la != lb for la, lb in itertools.zip_longest(
            ta.jsonl_lines(), tb.jsonl_lines()))
        if changed:
            diff["jsonl_lines"] += changed
            diff["jsonl_operations"] += 1
    return diff


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    old = srctree.load(args.old_src)
    new = srctree.load(args.new_src)
    status = 0
    for workload in srctree.WORKLOADS:
        for seed in args.seeds:
            d = compare(old, new, workload, seed)
            print(f"{workload} seed {seed}: {d['operations']} operations, "
                  f"verdicts {d['verdicts']}, "
                  f"GA sequences {d['ga_sequences']}, "
                  f"check_all {d['check_all']}, "
                  f"GA time {d['ga_time']:.3g}, "
                  f"final position {d['final_position']:.3g}, "
                  f"JSONL lines {d['jsonl_lines']} "
                  f"in {d['jsonl_operations']} operations", flush=True)
            if d["verdicts"] or d["ga_sequences"] or d["check_all"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
