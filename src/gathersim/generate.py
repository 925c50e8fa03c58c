"""Seeded generators for initial configurations of each feasibility class.

All generators are deterministic functions of their seed, so test suites and
sweeps can reproduce any configuration from its (seed, parameters) pair.
Exact-boundary instances use dyadic coordinates (multiples of 1/256) laid
out axis-aligned, which keeps every distance and time difference exact in
binary floating point and pins the pair margin to literal zero.
"""

from __future__ import annotations

import math
import random
from typing import Union

from .config import Feasibility, InitialConfiguration, classify
from .geometry import Point

DEFAULT_SPREAD = 2.5
DEFAULT_TMAX = 2.0
# good_pair and ungatherable_config draw epsilon uniformly from this
# range, as their first draw.
EPS_RANGE = (0.4, 1.0)
# good_pair draws its qualifying margin from this range.
MARGIN_RANGE = (0.25, 1.5)
# ungatherable_config: every pair misses by more than this margin, and
# agents appear within [0, UNGATHERABLE_TMAX].
UNGATHERABLE_MARGIN = 0.25
UNGATHERABLE_TMAX = 1.0

Seed = Union[int, random.Random]


def _rng(seed: Seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def good_pair(seed: Seed, *,
              spread: float = DEFAULT_SPREAD) -> InitialConfiguration:
    """Two agents with a qualifying margin drawn from MARGIN_RANGE.

    The margin z = |dt| - (dist - eps) is sampled directly, then a distance
    and appearance order are drawn around it, so the class is robustly good
    regardless of rounding.
    """
    rng = _rng(seed)
    eps = rng.uniform(*EPS_RANGE)
    d = rng.uniform(0.2, spread)
    z = rng.uniform(*MARGIN_RANGE)
    delta = max(0.0, d - eps) + z
    theta = rng.uniform(0.0, 2.0 * math.pi)
    base = Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    other = Point(base.x + d * math.cos(theta), base.y + d * math.sin(theta))
    t0 = rng.uniform(0.0, 1.0)
    if rng.random() < 0.5:
        starts, times = (base, other), (t0, t0 + delta)
    else:
        starts, times = (other, base), (t0 + delta, t0)
    cfg = InitialConfiguration(eps, starts, times)
    assert classify(cfg).kind == Feasibility.GOOD
    return cfg


def good_config(seed: Seed, n: int) -> InitialConfiguration:
    """n >= 2 agents containing at least one strictly qualifying pair.

    A qualifying pair is constructed first, at most 2 apart; the remaining
    agents land uniformly in the surrounding square of side DEFAULT_SPREAD
    and appear within [0, DEFAULT_TMAX].  Extra agents can only add
    qualifying pairs, never remove one.
    """
    if n < 2:
        raise ValueError("a configuration needs at least two agents")
    rng = _rng(seed)
    pair = good_pair(rng, spread=2.0)
    starts = list(pair.starts)
    times = list(pair.times)
    cx = sum(p.x for p in starts) / 2.0
    cy = sum(p.y for p in starts) / 2.0
    half = DEFAULT_SPREAD / 2.0
    while len(starts) < n:
        p = Point(cx + rng.uniform(-half, half),
                  cy + rng.uniform(-half, half))
        if any(p.dist(q) < 1e-3 for q in starts):
            continue
        starts.append(p)
        times.append(rng.uniform(0.0, DEFAULT_TMAX))
    cfg = InitialConfiguration(pair.epsilon, tuple(starts), tuple(times))
    assert classify(cfg).kind == Feasibility.GOOD
    return cfg


def ungatherable_config(seed: Seed, n: int = 2) -> InitialConfiguration:
    """n agents with every pair strictly beyond reach.

    Each pairwise distance exceeds eps + |dt| by at least
    UNGATHERABLE_MARGIN, which is guaranteed by spacing the agents on a
    circle whose worst-case chord is eps + UNGATHERABLE_TMAX +
    UNGATHERABLE_MARGIN.
    """
    if n < 2:
        raise ValueError("a configuration needs at least two agents")
    rng = _rng(seed)
    eps = rng.uniform(*EPS_RANGE)
    need = eps + UNGATHERABLE_TMAX + UNGATHERABLE_MARGIN
    if n == 2:
        d = need + rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        base = Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        starts = (base, Point(base.x + d * math.cos(theta),
                              base.y + d * math.sin(theta)))
    else:
        # worst adjacent angular gap after jitter is 0.6 * 2pi/n
        radius = need / (2.0 * math.sin(0.6 * math.pi / n)) + 0.01
        pts = []
        for i in range(n):
            ang = (i + rng.uniform(-0.2, 0.2)) * 2.0 * math.pi / n
            pts.append(Point(radius * math.cos(ang),
                             radius * math.sin(ang)))
        starts = tuple(pts)
    times = tuple(rng.uniform(0.0, UNGATHERABLE_TMAX) for _ in range(n))
    cfg = InitialConfiguration(eps, starts, times)
    assert classify(cfg).kind == Feasibility.UNGATHERABLE
    return cfg


def boundary_pair(seed: Seed) -> InitialConfiguration:
    """Two agents whose single pair margin is exactly zero.

    eps, the time gap, and all coordinates are multiples of 1/256 and the
    pair is axis-aligned, so dist - eps == |dt| holds without rounding.
    """
    rng = _rng(seed)
    eps = rng.randint(64, 256) / 256.0
    delta = rng.randint(32, 512) / 256.0
    d = delta + eps
    ax = rng.randint(-512, 512) / 256.0
    ay = rng.randint(-512, 512) / 256.0
    horizontal = rng.random() < 0.5
    if horizontal:
        b = Point(ax + d, ay)
    else:
        b = Point(ax, ay + d)
    a = Point(ax, ay)
    t0 = rng.randint(0, 256) / 256.0
    if rng.random() < 0.5:
        starts, times = (a, b), (t0, t0 + delta)
    else:
        starts, times = (b, a), (t0 + delta, t0)
    cfg = InitialConfiguration(eps, starts, times)
    assert classify(cfg).kind == Feasibility.BAD_GATHERABLE
    return cfg


def config_of_class(seed: Seed, kind: Feasibility,
                    n: int = 2) -> InitialConfiguration:
    if kind is Feasibility.GOOD:
        return good_config(seed, n)
    if kind is Feasibility.UNGATHERABLE:
        return ungatherable_config(seed, n)
    if n != 2:
        raise ValueError("exact-boundary generator only supports pairs")
    return boundary_pair(seed)
