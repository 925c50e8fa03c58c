"""Behaviour contract: the JSONL traces of a fixed corpus are pinned.

A change that is meant only to restructure or speed up the engine must
leave these traces byte-identical.  A change that alters behaviour on
purpose updates GOLDEN_SHA256 and explains the difference in CHANGES.md.
"""

import hashlib

from gathersim.algorithms import (dedicated_program, gather_a_program,
                                  gather_n_program)
from gathersim.assumption import AssumptionSet, build_dependent_counterexample
from gathersim.engine import run
from gathersim.generate import good_config, good_pair, ungatherable_config

GOLDEN_SHA256 = ("b30755a20219e9cd154a3f2211d8a5a3"
                 "ae3ef0492fe1594a809a4cbaed13c976")


def _corpus_traces():
    for i in range(4):
        cfg = good_config(i, 8)
        yield run(cfg, gather_n_program(cfg.n))
    for i in range(8):
        cfg = good_pair(i)
        yield run(cfg, dedicated_program(cfg, cfg.epsilon))
    a = AssumptionSet((2, 4))
    cx = build_dependent_counterexample(a, 0.5)
    yield run(cx.config, gather_a_program(a.elements))


# Two n=8 UNGATHERABLE runs that reach the horizon without a meeting, so
# every engine step is event search and trajectory recording.
TIMEOUT_SHA256 = ("b6457e555de8972561ef92669ad790ba"
                  "acffa29500dcef299c7041fb18568928")


def jsonl_digest(traces) -> str:
    h = hashlib.sha256()
    for trace in traces:
        for line in trace.jsonl_lines():
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def test_golden_trace_corpus():
    assert jsonl_digest(_corpus_traces()) == GOLDEN_SHA256


def test_golden_trace_timeout():
    traces = [run(ungatherable_config(i, 8), gather_n_program(8))
              for i in range(2)]
    assert [tr.verdict.kind for tr in traces] == ["timeout", "timeout"]
    assert jsonl_digest(traces) == TIMEOUT_SHA256
