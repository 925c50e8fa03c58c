"""Candidate team-size sets: independence test and splitting counterexample.

A set A of integers > 1 is dependent when some element equals a sum of
strictly smaller elements of A, repetitions allowed.  For a dependent set
the assumption-driven gathering algorithm can be fooled: a configuration of
a_k agents arranged as far-apart clusters whose sizes are the summands makes
every cluster gather on its own and stop hunting, so the run ends split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .config import Feasibility, InitialConfiguration, classify
from .geometry import POS_TOL, Point, Vec2


@dataclass(frozen=True)
class Certificate:
    """Witness of dependence: element == sum(count * part for ...)."""
    element: int
    parts: tuple[tuple[int, int], ...]  # (part, count), parts ascending

    def format(self) -> str:
        terms = " + ".join(f"{c}·{p}" for p, c in self.parts)
        return f"{self.element} = {terms}"


@dataclass(frozen=True)
class AssumptionSet:
    elements: tuple[int, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("assumption set must be non-empty")
        if not all(isinstance(x, int) for x in self.elements):
            raise ValueError("elements must be integers")
        if list(self.elements) != sorted(set(self.elements)):
            raise ValueError("elements must be strictly increasing")
        if self.elements[0] <= 1:
            raise ValueError("all elements must exceed 1")

    @staticmethod
    def parse(text: str) -> "AssumptionSet":
        """Strict parse: elements must already be increasing and unique."""
        try:
            vals = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse assumption set {text!r}") from exc
        return AssumptionSet(vals)


def independence(a: AssumptionSet) -> tuple[bool, Optional[Certificate]]:
    """Independence flag plus a dependence certificate when one exists.

    For each element, a coin-style reachability table over the strictly
    smaller elements decides representability; the first representable
    element (scanning upward) yields the certificate, reconstructed by
    always stepping down with the smallest usable part.
    """
    elems = a.elements
    for k, target in enumerate(elems):
        coins = elems[:k]
        if not coins:
            continue
        reachable = [False] * (target + 1)
        reachable[0] = True
        for c in coins:
            for v in range(c, target + 1):
                if reachable[v - c]:
                    reachable[v] = True
        if reachable[target]:
            counts: dict[int, int] = {}
            v = target
            while v > 0:
                step = next(c for c in coins
                            if v >= c and reachable[v - c])
                counts[step] = counts.get(step, 0) + 1
                v -= step
            parts = tuple(sorted(counts.items()))
            return False, Certificate(target, parts)
    return True, None


def is_independent(a: AssumptionSet) -> bool:
    return independence(a)[0]


def canonical_good_cluster(m: int, eps: float,
                           anchor: Point) -> tuple[list[Point], list[float]]:
    """m agents on a horizontal line spaced eps/2 apart, all starting at 0.

    Adjacent agents begin within eps of each other, so the cluster is in the
    robustly gatherable class for any m >= 2.
    """
    pts = [Point(anchor.x + i * (eps / 2.0), anchor.y) for i in range(m)]
    return pts, [0.0] * m


@dataclass(frozen=True)
class Counterexample:
    config: InitialConfiguration
    clusters: tuple[tuple[int, ...], ...]  # agent indices per cluster
    certificate: Certificate


def build_dependent_counterexample(a: AssumptionSet,
                                   eps: float) -> Counterexample:
    """Configuration of certificate.element agents that splits under A.

    The certificate summands become independent clusters of that many
    agents.  Every cluster is simulated standalone to measure the disc its
    trajectories stay inside; clusters are then laid out on a line with
    discs separated by at least 2 eps, so no cross-cluster meeting can ever
    fire and each cluster plays out exactly its standalone run.

    Raises ValueError for an eps the construction cannot serve: one that
    InitialConfiguration rejects, one so small that the eps/2 spacing of a
    cluster falls within the engine's tolerances, so the cluster is not
    robustly gatherable, or one so large that a cluster's standalone run
    times out.  A cluster that splits, or whose run fails checks.check_all,
    raises RuntimeError: that is a bug.
    """
    # Local imports: algorithms would be an import cycle, and importing
    # gathersim should not load the checker.
    from .algorithms import gather_a_program
    from .checks import CheckFailure, check_all
    from .engine import run

    independent, cert = independence(a)
    if independent:
        raise ValueError(f"assumption set {a.elements} is independent; "
                         "no splitting configuration exists")

    sizes: list[int] = []
    for part, count in cert.parts:
        sizes.extend([part] * count)

    margin = 10.0 * POS_TOL
    radii: list[float] = []
    for m in sizes:
        pts, times = canonical_good_cluster(m, eps, Point(0.0, 0.0))
        sub = InitialConfiguration(eps, tuple(pts), tuple(times))
        if classify(sub).kind != Feasibility.GOOD:
            raise ValueError(
                f"epsilon {eps!r} is too small: a cluster of {m} agents "
                f"spaced eps/2 apart is not robustly gatherable")
        trace = run(sub, gather_a_program(a.elements))
        if trace.verdict.kind == "timeout":
            raise ValueError(
                f"epsilon {eps!r} is too large: a cluster of {m} agents "
                "spaced eps/2 apart did not gather by its default horizon "
                "(verdict timeout)")
        if trace.verdict.kind != "gathered":
            raise RuntimeError(
                f"standalone cluster of {m} agents failed to gather "
                f"(verdict {trace.verdict.kind}); this indicates a bug")
        try:
            check_all(sub, trace)
        except CheckFailure as exc:
            raise RuntimeError(
                f"standalone run of a cluster of {m} agents fails the "
                f"audit: {exc}; this indicates a bug") from exc
        r = 0.0
        for traj in trace.trajectories:
            for x, y in zip(traj.xs, traj.ys):
                r = max(r, math.hypot(x, y))
        radii.append(r)

    starts: list[Point] = []
    times_all: list[float] = []
    clusters: list[tuple[int, ...]] = []
    offset = 0.0
    for ci, m in enumerate(sizes):
        if ci > 0:
            offset += radii[ci - 1] + 2.0 * eps + margin + radii[ci]
        pts, times = canonical_good_cluster(m, eps, Point(offset, 0.0))
        base = len(starts)
        clusters.append(tuple(range(base, base + m)))
        starts.extend(pts)
        times_all.extend(times)

    cfg = InitialConfiguration(eps, tuple(starts), tuple(times_all))
    if classify(cfg).kind != Feasibility.GOOD:
        raise RuntimeError("constructed counterexample is not robustly "
                           "gatherable; this indicates a bug")
    return Counterexample(cfg, tuple(clusters), cert)
