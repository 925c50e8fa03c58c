#!/usr/bin/env python3
"""Reproduce the failure mode of a dependent candidate-size set.

For a dependent set such as {2, 4} (4 = 2 + 2), builds the witnessing
configuration out of far-apart clusters whose sizes sum to the dependent
element. Each cluster gathers locally, satisfies a smaller candidate, and
stops hunting, so the team never merges even though the configuration as
a whole is gatherable.

Usage:
    python3 scripts/demo_dependent_split.py [--set 2,4] [--epsilon 0.5]
"""

import argparse

from gathersim.algorithms import gather_a_program
from gathersim.assumption import AssumptionSet, build_dependent_counterexample
from gathersim.checks import check_all
from gathersim.config import classify
from gathersim.engine import run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--set", default="2,4")
    ap.add_argument("--epsilon", type=float, default=0.5)
    args = ap.parse_args()

    a = AssumptionSet.parse(args.set)
    cx = build_dependent_counterexample(a, args.epsilon)
    print(f"dependent set {{{args.set}}}: {cx.certificate.format()}")
    print(f"clusters: {[len(c) for c in cx.clusters]} "
          f"({cx.config.n} agents total)")
    print(f"configuration class: {classify(cx.config).kind.value}")

    trace = run(cx.config, gather_a_program(a.elements))
    check_all(cx.config, trace)
    v = trace.verdict
    print(f"\nverdict: {v.kind} at t = {v.time:.4f}")
    for k, g in enumerate(v.groups):
        print(f"  group {k}: stopped at ({g.x:.4f}, {g.y:.4f})")

    cluster_of = {i: ci for ci, c in enumerate(cx.clusters) for i in c}
    cross = sum(1 for ev in trace.ga_events()
                if len({cluster_of[i] for i in ev.agents}) > 1)
    print(f"cross-cluster meetings: {cross} (the clusters never interact)")


if __name__ == "__main__":
    main()
