"""The workloads: which configurations each one runs, made from the seed.

An Op is one configuration with the program, horizon and outcome the
oracles expect.  build_corpus is the benchmark's set-up: it generates the
configurations, classifies each one and builds the program factories, so
an operation only has to run, check, and write JSONL and SVG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from gathersim import algorithms, assumption, config, generate

# large-n: eight fixed n=16 GOOD configurations.  Their cost per run spans
# 0.3 s to 3 s, so a corpus drawn afresh for every seed would make the
# median of a run measure the draw rather than the host; the seed instead
# relabels the agents, which an anonymous model must not notice.
LARGE_N = 16
LARGE_COUNT = 8
# no-meet: n=8 UNGATHERABLE configurations drawn from the seed; every run
# times out after about 1000 time units, so their costs are alike.
NO_MEET_N = 8
NO_MEET_COUNT = 12
# sweep-mix: short runs first, then the 40 items of
#   gathersim sweep --n 6 --count 40 --seed 1 --class good --algorithm gather-n
# Short runs are a clear majority so that the median run is a short one.
# The BAD pairs are the cheapest runs and the 57 others the dearest; with
# 60 BAD pairs the two ends balance and the median run is the median GOOD
# pair, whose cost over 200 pairs hardly depends on the seed.
DEDICATED_GOOD = 200
DEDICATED_BAD = 60
GATHER_A_PER_SIZE = 8
GATHER_A_SET = (2, 3)
# Criterion 6 of the acceptance suite runs gather-a with this horizon; the
# default horizon times out on about 3% of n=3 GOOD configurations.
GATHER_A_HORIZON = 2000.0
COUNTEREXAMPLE_SET = (2, 4)
SWEEP_N = 6
SWEEP_COUNT = 40
SWEEP_SEED = 1
# Items of that sweep that end in timeout on GOOD inputs because
# engine.default_horizon is too short for the star sweep; all of them
# gather with --horizon 5000.  They are run and counted as failed.
SWEEP_DEFAULT_HORIZON_TIMEOUTS = (1, 16, 25)


@dataclass
class Op:
    label: str
    cfg: config.InitialConfiguration
    factory: Callable
    horizon: Optional[float]
    # Class reported by gathersim.config.classify at set-up.
    klass: str
    # gather | split | no-meet: which outcome oracle applies.
    expect: str
    clusters: tuple = ()
    # The operation is expected to fail because of a known fault.
    known_fault: bool = False


def _seed(seed: int, stream: int, i: int) -> int:
    # The formula gathersim sweep uses, with a stream number per kind.
    return seed * 1_000_003 + stream * 10_007 + i


def _op(label, cfg, factory, expect, horizon=None, **kw) -> Op:
    return Op(label, cfg, factory, horizon, config.classify(cfg).kind.value,
              expect, **kw)


def _relabelled(cfg, rng: random.Random):
    order = list(range(cfg.n))
    rng.shuffle(order)
    return config.InitialConfiguration(cfg.epsilon,
                                       tuple(cfg.starts[k] for k in order),
                                       tuple(cfg.times[k] for k in order))


def _large_n(seed: int) -> list[Op]:
    ops = []
    for i in range(LARGE_COUNT):
        base = generate.good_config(i, LARGE_N)
        cfg = _relabelled(base, random.Random(_seed(seed, 0, i)))
        ops.append(_op(f"large-n/{i}", cfg,
                       algorithms.gather_n_program(LARGE_N), "gather"))
    return ops


def _no_meet(seed: int) -> list[Op]:
    return [_op(f"no-meet/{i}",
                generate.ungatherable_config(_seed(seed, 1, i), NO_MEET_N),
                algorithms.gather_n_program(NO_MEET_N), "no-meet")
            for i in range(NO_MEET_COUNT)]


def _sweep_mix(seed: int) -> list[Op]:
    ops = []
    for label, make, stream, count in (
            ("good", generate.good_pair, 2, DEDICATED_GOOD),
            ("bad", generate.boundary_pair, 3, DEDICATED_BAD)):
        for i in range(count):
            cfg = make(_seed(seed, stream, i))
            ops.append(_op(f"dedicated-{label}/{i}", cfg,
                           algorithms.dedicated_program(cfg, cfg.epsilon),
                           "gather"))
    for n in GATHER_A_SET:
        for i in range(GATHER_A_PER_SIZE):
            cfg = generate.good_config(_seed(seed, 4, 100 * n + i), n)
            ops.append(_op(f"gather-a-n{n}/{i}", cfg,
                           algorithms.gather_a_program(GATHER_A_SET),
                           "gather", GATHER_A_HORIZON))
    eps = random.Random(_seed(seed, 5, 0)).uniform(*generate.EPS_RANGE)
    ce = assumption.build_dependent_counterexample(
        assumption.AssumptionSet(COUNTEREXAMPLE_SET), eps)
    ops.append(_op("counterexample", ce.config,
                   algorithms.gather_a_program(COUNTEREXAMPLE_SET), "split",
                   clusters=ce.clusters))
    for i in range(SWEEP_COUNT):
        cfg = generate.config_of_class(SWEEP_SEED * 1_000_003 + i,
                                       config.Feasibility.GOOD, SWEEP_N)
        ops.append(_op(f"sweep/{i}", cfg,
                       algorithms.gather_n_program(SWEEP_N), "gather",
                       known_fault=i in SWEEP_DEFAULT_HORIZON_TIMEOUTS))
    return ops


def build_corpus(workload: str, seed: int) -> list[Op]:
    return {"large-n": _large_n, "no-meet": _no_meet,
            "sweep-mix": _sweep_mix}[workload](seed)
