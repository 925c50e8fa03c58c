"""Initial configurations and their feasibility classification.

A configuration lists n >= 2 agents, each with a distinct starting point and
a starting time, plus the proximity radius epsilon.  A configuration admits
gathering exactly when some pair (i, j) satisfies

    |t_i - t_j| >= dist(p_i, p_j) - epsilon.

Strict inequality for some pair puts the configuration in the robust GOOD
class; equality (within TIME_TOL) for the best pair makes it BAD_GATHERABLE,
gatherable but with no timing slack; strict failure for all pairs makes it
UNGATHERABLE, where no algorithm run by anonymous agents can ever bring two
agents within epsilon.  That holds for agents that all run one program and
cannot tell themselves apart: until their first meeting each then walks the
same solo path, shifted by its start, so agents i and j stay at least
dist(p_i, p_j) - |t_i - t_j| apart.  Agents that can tell themselves apart
(engine.AgentRef hashes to the agent's index) may meet.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Optional

from .geometry import Point, Vec2, TIME_TOL, is_finite_point


class Feasibility(enum.Enum):
    GOOD = "GOOD"
    BAD_GATHERABLE = "BAD_GATHERABLE"
    UNGATHERABLE = "UNGATHERABLE"


@dataclass(frozen=True)
class FeasibilityClass:
    kind: Feasibility
    # Lexicographically first qualifying index pair (i, j), i < j, for the
    # two gatherable classes; None when ungatherable.
    witness: Optional[tuple[int, int]]


@dataclass(frozen=True)
class InitialConfiguration:
    epsilon: float
    starts: tuple[Point, ...]
    times: tuple[float, ...]

    def __post_init__(self):
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be finite and positive")
        n = len(self.starts)
        if n < 2:
            raise ValueError("a configuration needs at least two agents")
        if len(self.times) != n:
            raise ValueError("starts and times must have equal length")
        for p in self.starts:
            if not is_finite_point(p):
                raise ValueError("start points must be finite")
        for t in self.times:
            if not (t >= 0.0 and math.isfinite(t)):
                raise ValueError("start times must be finite and >= 0")
        for i in range(n):
            for j in range(i + 1, n):
                if self.starts[i] == self.starts[j]:
                    raise ValueError(
                        f"agents {i} and {j} share a starting point")

    @property
    def n(self) -> int:
        return len(self.starts)

    def agent(self, i: int) -> tuple[Point, float]:
        return self.starts[i], self.times[i]

    def diameter(self) -> float:
        n = self.n
        return max(self.starts[i].dist(self.starts[j])
                   for i in range(n) for j in range(i + 1, n))

    def max_start_time(self) -> float:
        return max(self.times)

    def translated(self, v: Vec2) -> "InitialConfiguration":
        return InitialConfiguration(self.epsilon,
                                    tuple(p + v for p in self.starts),
                                    self.times)

    def time_shifted(self, dt: float) -> "InitialConfiguration":
        return InitialConfiguration(self.epsilon, self.starts,
                                    tuple(t + dt for t in self.times))

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "agents": [{"x": p.x, "y": p.y, "t": t}
                       for p, t in zip(self.starts, self.times)],
        }

    @staticmethod
    def from_dict(data: dict) -> "InitialConfiguration":
        if not isinstance(data, dict):
            raise ValueError("configuration must be a JSON object")
        try:
            eps = _number(data["epsilon"])
            agents = data["agents"]
            starts = tuple(Point(_number(a["x"]), _number(a["y"]))
                           for a in agents)
            times = tuple(_number(a["t"]) for a in agents)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed configuration: {exc}") from exc
        return InitialConfiguration(eps, starts, times)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path) -> "InitialConfiguration":
        with open(path, "r", encoding="utf-8") as fh:
            return InitialConfiguration.from_dict(json.load(fh))


def _number(value) -> float:
    """A JSON number as a float.  bool is a subclass of int, and neither
    it nor a string is a number here."""
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def pair_margin(cfg: InitialConfiguration, i: int, j: int) -> float:
    """Slack |t_i - t_j| - (dist(p_i, p_j) - eps); >= 0 means gatherable pair."""
    d = cfg.starts[i].dist(cfg.starts[j])
    return abs(cfg.times[i] - cfg.times[j]) - (d - cfg.epsilon)


def qualifying_pairs(cfg: InitialConfiguration):
    """(i, j, margin) for each pair i < j, in lex order, whose pair_margin
    is at least -TIME_TOL: the pairs that admit gathering, margins within
    TIME_TOL of zero counting as equality."""
    n = cfg.n
    for i in range(n):
        for j in range(i + 1, n):
            m = pair_margin(cfg, i, j)
            if m >= -TIME_TOL:
                yield i, j, m


def classify(cfg: InitialConfiguration) -> FeasibilityClass:
    """Feasibility class plus the lexicographically first qualifying pair:
    GOOD at the first margin above TIME_TOL, else BAD_GATHERABLE at the
    first pair within TIME_TOL of zero, so boundary configurations land in
    BAD_GATHERABLE deterministically."""
    first = None
    for i, j, m in qualifying_pairs(cfg):
        if m > TIME_TOL:
            return FeasibilityClass(Feasibility.GOOD, (i, j))
        if first is None:
            first = (i, j)
    if first is None:
        return FeasibilityClass(Feasibility.UNGATHERABLE, None)
    return FeasibilityClass(Feasibility.BAD_GATHERABLE, first)


def vector_sequence(cfg: InitialConfiguration) -> list[Vec2]:
    """All n(n-1) ordered-pair difference vectors, ascending in lex order.

    The sequence is closed under negation and is shared by every agent: it
    depends only on relative positions, so agents with translated views of
    the configuration compute the same list.
    """
    vecs = []
    n = cfg.n
    for i in range(n):
        for j in range(n):
            if i != j:
                vecs.append(cfg.starts[j] - cfg.starts[i])
    vecs.sort(key=lambda v: v.coords)
    return vecs
