"""Independence of assumption sets and the dependent-set counterexample."""

import itertools
import math
import random
from types import SimpleNamespace

import pytest

from gathersim import engine
from gathersim.assumption import (AssumptionSet, build_dependent_counterexample,
                                  independence)
from gathersim.config import classify
from gathersim.engine import run


def brute_force_dependent_element(elements):
    """Return the smallest element writable as a positive combination of
    strictly smaller elements, or None.

    Exhaustive search over coefficient vectors; fine for the small sets
    used in tests.
    """
    s = sorted(elements)
    for i, target in enumerate(s):
        smaller = s[:i]
        if not smaller:
            continue
        bounds = [range(0, target // p + 1) for p in smaller]
        for coeffs in itertools.product(*bounds):
            if sum(coeffs) == 0:
                continue
            if sum(c * p for c, p in zip(coeffs, smaller)) == target:
                return target
    return None


def test_parse_and_validation():
    assert AssumptionSet.parse("2,3,7").elements == (2, 3, 7)
    with pytest.raises(ValueError):
        AssumptionSet.parse("3,2")
    with pytest.raises(ValueError):
        AssumptionSet.parse("2,2,3")
    with pytest.raises(ValueError):
        AssumptionSet.parse("1,3")
    with pytest.raises(ValueError):
        AssumptionSet.parse("")


def test_known_dependent_pair():
    ok, cert = independence(AssumptionSet((2, 4)))
    assert not ok
    assert cert.element == 4
    assert cert.format() == "4 = 2·2"


def test_known_independent_sets():
    for elems in ((3, 4, 5), (7,), (2,), (5, 7, 9, 11)):
        ok, cert = independence(AssumptionSet(elems))
        assert ok and cert is None


def test_two_three_seven_dependent():
    ok, cert = independence(AssumptionSet((2, 3, 7)))
    assert not ok
    assert cert.element == 7
    assert cert.total() == 7
    assert all(p in (2, 3) for p, _ in cert.parts)


def test_prefix_with_two_and_three_always_dependent():
    # Any set containing 2 and 3 plus anything >= 4 is dependent:
    # every integer >= 2 is a sum of 2s and 3s.
    for extra in (4, 5, 9, 13):
        ok, _ = independence(AssumptionSet((2, 3, extra)))
        assert not ok


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_independence_matches_brute_force(size):
    for elems in itertools.combinations(range(2, 13), size):
        a = AssumptionSet(elems)
        ok, cert = independence(a)
        expect = brute_force_dependent_element(elems)
        assert ok == (expect is None), elems
        if cert is not None:
            assert cert.element == expect


def test_independence_matches_brute_force_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        elems = tuple(sorted(rng.sample(range(2, 61), n)))
        a = AssumptionSet(elems)
        ok, cert = independence(a)
        expect = brute_force_dependent_element(elems)
        assert ok == (expect is None), elems
        if cert is not None:
            # The scan reports the smallest dependent element.
            assert cert.element == expect


def test_certificate_is_valid_combination():
    rng = random.Random(11)
    seen = 0
    while seen < 25:
        n = rng.randint(2, 5)
        elems = tuple(sorted(rng.sample(range(2, 41), n)))
        ok, cert = independence(AssumptionSet(elems))
        if ok:
            continue
        seen += 1
        assert cert.total() == cert.element
        assert all(count >= 1 for _, count in cert.parts)
        assert all(p < cert.element and p in elems for p, _ in cert.parts)


def test_counterexample_two_four():
    cx = build_dependent_counterexample(AssumptionSet((2, 4)), 0.5)
    assert [len(c) for c in cx.clusters] == [2, 2]
    assert cx.config.n == 4
    fc = classify(cx.config)
    assert fc.kind.name == "GOOD"


def test_counterexample_two_three_seven():
    cx = build_dependent_counterexample(AssumptionSet((2, 3, 7)), 0.5)
    assert cx.certificate.element == 7
    assert sum(len(c) for c in cx.clusters) == 7
    sizes = sorted(len(c) for c in cx.clusters)
    assert all(s in (2, 3) for s in sizes)


def test_counterexample_splits_under_its_set():
    from gathersim.algorithms import gather_a_program
    cx = build_dependent_counterexample(AssumptionSet((2, 4)), 0.5)
    trace = run(cx.config, gather_a_program((2, 4)))
    assert trace.verdict.kind == "split"
    # No agent from one cluster ever meets one from another.
    members = {}
    for ci, cluster in enumerate(cx.clusters):
        for idx in cluster:
            members[idx] = ci
    for ev in trace.events:
        if ev.kind == "ga":
            assert len({members[i] for i in ev.agents}) == 1


def test_counterexample_rejects_independent_set():
    with pytest.raises(ValueError):
        build_dependent_counterexample(AssumptionSet((3, 4, 5)), 0.5)


@pytest.mark.parametrize("eps, cause", [(10.0, "too large"),
                                        (1e-9, "too small")])
def test_counterexample_rejects_an_epsilon_it_cannot_serve(eps, cause):
    # At eps 10 a cluster's standalone run times out at its default
    # horizon; at 1e-9 its eps/2 spacing falls within the engine's
    # tolerances, and the cluster is not robustly gatherable.
    with pytest.raises(ValueError, match=cause) as info:
        build_dependent_counterexample(AssumptionSet((2, 4)), eps)
    assert f"epsilon {eps!r}" in str(info.value)


@pytest.mark.parametrize("eps", [0.0, -0.5, math.nan, math.inf])
def test_counterexample_takes_epsilon_as_a_configuration_does(eps):
    with pytest.raises(ValueError,
                       match="^epsilon must be finite and positive$"):
        build_dependent_counterexample(AssumptionSet((2, 4)), eps)


def test_counterexample_cluster_that_splits_is_a_bug(monkeypatch):
    split = SimpleNamespace(verdict=engine.Verdict("split", 1.0))
    monkeypatch.setattr(engine, "run", lambda cfg, factory: split)
    with pytest.raises(RuntimeError, match="verdict split"):
        build_dependent_counterexample(AssumptionSet((2, 4)), 0.5)
