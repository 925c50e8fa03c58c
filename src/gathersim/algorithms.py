"""Gathering algorithms executed by the simulation engine.

Three program families are provided:

* dedicated_program: all agents know the full initial configuration (up to
  translation) and exploit one qualifying pair of agents whose start-time
  difference absorbs the distance between them.
* gather_n_program: agents know only the team size n.  Agents sweep growing
  star patterns around their origins, freeze as position markers when they
  meet, and a single surviving sweeper eventually collects everyone.
* gather_a_program: agents know only a set A of pairwise "independent"
  candidate team sizes, and run the n-style algorithm under the smallest
  assumption, upgrading whenever they learn the team must be bigger.

All decisions are taken on frame-relative data: lexicographic comparison of
relative initial positions replaces any global identity.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

from .assumption import AssumptionSet
from .config import InitialConfiguration, qualifying_pairs, vector_sequence
from .engine import AgentContext, GAView, Go, GotoStop, Program, Wait
from .geometry import POS_TOL, TIME_TOL, Point, Vec2, lex_less


# -- star sweep ---------------------------------------------------------------

def star_phase_params(x: int) -> tuple[float, int]:
    """Ray angle alpha and ray count k for sweep phase x >= 1.

    alpha satisfies sin(alpha / 2) = 1 / (2 x^2), which puts consecutive ray
    endpoints on the radius-x circle exactly 1/x apart; k = ceil(2 pi / alpha)
    rays close the full turn.
    """
    if x < 1:
        raise ValueError("phase index starts at 1")
    alpha = 2.0 * math.asin(1.0 / (2.0 * x * x))
    k = math.ceil(2.0 * math.pi / alpha)
    return alpha, k


def star_phase_duration(x: int) -> float:
    """Wall time of phase x: k stages, each out x, back x, wait x."""
    _, k = star_phase_params(x)
    return 3.0 * x * k


def star_time_through_phase(x: int) -> float:
    """Local time at which an uninterrupted sweep finishes phase x."""
    return sum(star_phase_duration(y) for y in range(1, x + 1))


def ray_direction(angle_cw_from_north: float) -> Vec2:
    return Vec2(math.sin(angle_cw_from_north), math.cos(angle_cw_from_north))


# A table's size grows as x^2, so only the recent phases are kept.
@functools.lru_cache(maxsize=16)
def _star_legs(x: int) -> tuple:
    """The 3k instructions of sweep phase x, in order.

    Stage s = 0 .. k - 1 walks out x along ray_direction(s * alpha), back
    x along the opposite direction, and waits x.  Instructions are
    immutable, so every agent and every replay issues the same objects.
    """
    alpha, k = star_phase_params(x)
    d = float(x)
    wait = Wait(d)
    legs = []
    for s in range(k):
        ray = ray_direction(s * alpha)
        legs += (Go(ray, d), Go(-ray, d), wait)
    return tuple(legs)


class StarWalk:
    """Cursor over the infinite leg stream of the star sweep: phase after
    phase, each phase's _star_legs in order."""

    __slots__ = ("phase", "last_issued_phase", "_legs", "_next")

    def __init__(self, phase: int = 1):
        self.jump_to_phase(phase)
        self.last_issued_phase = 0

    def jump_to_phase(self, phase: int) -> None:
        self.phase = phase
        self._legs = _star_legs(phase)
        self._next = 0

    @property
    def stage(self) -> int:
        """The stage, from 1, of the next instruction."""
        return self._next // 3 + 1

    def next_instruction(self):
        instr = self._legs[self._next]
        self.last_issued_phase = self.phase
        self._next += 1
        if self._next == len(self._legs):
            self.jump_to_phase(self.phase + 1)
        return instr


# -- shared helpers -----------------------------------------------------------

def _largest_ref(ctx: AgentContext, refs):
    """Ref whose known initial position is lexicographically largest.

    Compares x, then y, as lex_less does, without building coordinate
    tuples; the first of equal maxima wins.  None when refs is empty.
    """
    know = ctx.knowledge
    best_ref = None
    bx = by = 0.0
    for r in refs:
        p = know[r]
        x = p.x
        if best_ref is None or (bx < x if bx != x else by < p.y):
            best_ref, bx, by = r, x, p.y
    return best_ref


def _largest_initial(ctx: AgentContext, refs) -> Point:
    return ctx.knowledge[_largest_ref(ctx, refs)]


def _gather_point(ctx: AgentContext) -> Point:
    return _largest_initial(ctx, ctx.knowledge.keys())


def _go_to_leg(ctx: AgentContext, target: Point) -> Optional[Go]:
    """Leg from the current position to target (own frame); None if there."""
    pos = ctx.position
    dx, dy = target.x - pos.x, target.y - pos.y
    d = math.hypot(dx, dy)
    if d <= POS_TOL:
        return None
    return Go(Vec2(dx / d, dy / d), d)


# -- dedicated algorithm ------------------------------------------------------

class DedicatedProgram(Program):
    """Configuration-aware gathering.

    Every agent waits out the qualifying pair's start-time gap, then walks
    out and back along the earlier-to-later vector of that pair.  The wait
    makes the rendezvous work for gaps of any size: the agent that really
    is the earlier one arrives at the other start while its partner is
    still holding its own wait (or has fallen at most eps behind).  Whoever
    is the largest participant of its first meeting keeps travelling along
    all pairwise difference vectors to find and inform the others; all
    agents finally walk to the largest initial position and stop.  The tag
    is the role: beginner until the first walk ends, then active or passive.
    """

    def __init__(self, v: Vec2, delay: float, vseq: list[Vec2], n: int):
        self.v = v
        self.delay = delay
        self.vseq = vseq
        self.n = n
        self.elected: Optional[str] = None
        self.cycle_index = 0
        self.final_round: Optional[list[Vec2]] = None
        self.finishing = False

    def _knows_all(self, ctx) -> bool:
        return len(ctx.knowledge) >= self.n

    def _issue_out_and_back(self, ctx, w: Vec2) -> None:
        u = w.normalized()
        ctx.issue(Go(u, w.norm))
        ctx.issue(Go(-u, w.norm))

    def on_appear(self, ctx) -> None:
        ctx.tag = "beginner"
        if self.delay > 0.0:
            ctx.issue(Wait(self.delay))
        self._issue_out_and_back(ctx, self.v)

    def on_ga(self, ctx, view: GAView) -> None:
        if ctx.tag == "beginner":
            if self.elected is None:
                winner = _largest_ref(ctx, (p.ref for p in view.participants))
                self.elected = "active" if winner == ctx.self_ref \
                    else "passive"
            return
        if self.finishing:
            return
        if ctx.tag == "passive":
            if self._knows_all(ctx):
                self.finishing = True
                ctx.clear_plan()
                ctx.issue(GotoStop(_gather_point(ctx)))
        # Active agents keep to their route; completeness is rechecked when
        # the current out-and-back ends.

    def on_idle(self, ctx) -> None:
        if self.finishing:
            return
        if ctx.tag == "beginner":
            ctx.tag = self.elected or "passive"
            if ctx.tag == "passive":
                if self._knows_all(ctx):
                    self.finishing = True
                    ctx.issue(GotoStop(_gather_point(ctx)))
                return
        if ctx.tag == "active":
            if self.final_round is None and self._knows_all(ctx):
                self.final_round = list(self.vseq)
            if self.final_round is not None:
                if self.final_round:
                    self._issue_out_and_back(ctx, self.final_round.pop(0))
                else:
                    self.finishing = True
                    ctx.issue(GotoStop(_gather_point(ctx)))
                return
            w = self.vseq[self.cycle_index % len(self.vseq)]
            self.cycle_index += 1
            self._issue_out_and_back(ctx, w)


def _dedicated_walk(cfg: InitialConfiguration) -> Optional[tuple[Vec2, float]]:
    """Beginner walk vector and pre-walk wait for the best qualifying pair
    of config.qualifying_pairs, or None when no pair qualifies.

    Candidates are the qualifying pairs oriented from the earlier start to
    the later one (both ways on a time tie); the lexicographically largest
    such vector wins, longest wait breaking ties, then the smaller ordered
    pair, so the order in which pairs are tried cannot pick the sign of a
    zero coordinate.  An immediate walk along the unoriented largest
    qualifying vector misses the rendezvous window whenever the time gap
    exceeds distance + eps, so the orientation and the wait both matter.
    """
    ts, ps = cfg.times, cfg.starts
    best = None
    for i, j, _ in qualifying_pairs(cfg):
        for a, b in ((i, j), (j, i)):
            if ts[b] < ts[a] - TIME_TOL:
                continue
            delta = abs(ts[a] - ts[b])
            u = Vec2(ps[b].x - ps[a].x, ps[b].y - ps[a].y)
            key = (u.dx, u.dy, delta, -a, -b)
            if best is None or key > best[0]:
                best = (key, u, delta)
    return None if best is None else best[1:]


def dedicated_program(cfg_known: InitialConfiguration, eps: float):
    """Program factory for agents that know the configuration shape.

    eps enters only through the choice of the qualifying pair.  When no
    pair qualifies (an ungatherable configuration) the largest difference
    vector is walked immediately instead; no meeting can occur then under
    any program, so the run degenerates to a finite walk and silence.
    """
    if eps != cfg_known.epsilon:
        cfg_known = InitialConfiguration(eps, cfg_known.starts,
                                         cfg_known.times)
    vseq = vector_sequence(cfg_known)
    v, delay = _dedicated_walk(cfg_known) or (vseq[-1], 0.0)
    n = cfg_known.n
    return lambda: DedicatedProgram(v, delay, vseq, n)


# -- unknown-count gathering --------------------------------------------------

class GatherProgram(Program):
    """Gathering under a sorted tuple of candidate team sizes.

    With a single candidate n this is the known-size algorithm: sweepers
    (cruisers) freeze into position markers (tokens) when two of them meet,
    a surviving sweeper (explorer) counts frozen agents it encounters, and
    once it has seen n - 1 it re-runs its current sweep phase ordering
    everyone to the largest initial position, then walks there itself.
    The tag is the role (cruiser, explorer, token or shadow), which every
    other member of a GA sees.

    With several candidates the explorer starts from the smallest one and,
    whenever its knowledge proves the team is bigger than its assumption,
    moves to the next candidate and resumes sweeping from the next phase.
    Gathered groups then wait instead of stopping, since a latecomer may
    reopen the hunt.
    """

    def __init__(self, assumptions: Sequence[int]):
        self.assumptions = tuple(assumptions)
        self.final_stop = len(self.assumptions) == 1
        self.ai = 0
        self.star = StarWalk()
        self.mode = "star"  # explorer: star | finale | finale_goto | settled
        # An explorer's largest known start among the tokens it made at
        # its promotion.  Knowledge entries never change, so neither does
        # this.
        self.own_best: Optional[Point] = None
        self.seen: set = set()
        # _gather_point of knowledge while it holds _target_size refs.
        self._target: Optional[Point] = None
        self._target_size = 0
        self.orders: list[Point] = []
        self.executing_order = False

    @property
    def assumption(self) -> int:
        return self.assumptions[self.ai]

    # -- helpers

    def _gather_target(self, ctx) -> Point:
        """_gather_point(ctx), worked out again only when knowledge grew:
        knowledge only gains refs, so its size tells whether it changed."""
        known = len(ctx.knowledge)
        if known != self._target_size:
            self._target = _gather_point(ctx)
            self._target_size = known
        return self._target

    def _go_home(self, ctx) -> None:
        """Drop the plan and head back to the origin."""
        ctx.clear_plan()
        home = _go_to_leg(ctx, Point(0.0, 0.0))
        if home is not None:
            ctx.issue(home)

    def _queue_finale_phase(self, ctx) -> None:
        """Return home, then redo every stage of the last executed phase."""
        self._go_home(ctx)
        for instr in _star_legs(max(self.star.last_issued_phase, 1)):
            ctx.issue(instr)
        self.mode = "finale"

    def _resume_star(self, ctx) -> None:
        self._go_home(ctx)
        self.star.jump_to_phase(max(self.star.last_issued_phase, 0) + 1)
        self.mode = "star"

    def _head_to(self, ctx, target: Point) -> bool:
        """Move to target, stopping there if final; False if nothing to do."""
        if self.final_stop:
            ctx.issue(GotoStop(target))
            return True
        leg = _go_to_leg(ctx, target)
        if leg is not None:
            ctx.issue(leg)
        return leg is not None

    def _start_next_order(self, ctx) -> None:
        while self.orders:
            if self._head_to(ctx, self.orders.pop(0)):
                self.executing_order = True
                return
        self.executing_order = False

    # -- callbacks

    def on_appear(self, ctx) -> None:
        ctx.tag = "cruiser"
        ctx.issue(self.star.next_instruction())

    def on_ga(self, ctx, view: GAView) -> None:
        """Cruisers and explorers in star mode read the view.

        An explorer past its finale at its last candidate size reads
        none: what a view feeds it, the seen set, is read only in star
        mode, and only an assumption upgrade, impossible at the last
        candidate, brings star mode back.  It repeats its order, or in
        settled mode does nothing.  Tokens and shadows only gossip, and
        never read their view; they move on explicit orders.
        """
        tag = ctx.tag
        if tag == "cruiser":
            self._cruiser_ga(ctx, view, view.others())
        elif tag == "explorer":
            if self.mode == "star" or self.ai + 1 < len(self.assumptions):
                self._explorer_ga(ctx, view.others())
            elif self.mode != "settled":
                ctx.send_order(self._gather_target(ctx))

    def _cruiser_ga(self, ctx, view, others) -> None:
        if any(p.tag == "token" for p in others):
            ctx.tag = "shadow"
            ctx.clear_plan()
            return
        cruisers = [p for p in view.participants if p.tag == "cruiser"]
        if len(cruisers) <= 1:
            return  # nobody to pair up with; ignore
        winner = _largest_ref(ctx, (p.ref for p in cruisers))
        if winner == ctx.self_ref:
            ctx.tag = "explorer"
            self.own_best = _largest_initial(
                ctx, (p.ref for p in cruisers if p.ref != ctx.self_ref))
            # Only directly visible agents are "seen": the finale re-runs
            # the current sweep phase, which revisits exactly the places
            # where direct meetings happened.  Chain-connected agents must
            # be met in person during a later, wider phase.
            self.seen = {p.ref for p in cruisers
                         if p.ref != ctx.self_ref and p.adjacent}
            self.seen |= {p.ref for p in others
                          if p.tag in ("token", "shadow") and p.adjacent}
            self._advance_assumption(ctx)
            # Star execution continues through the promotion.
        else:
            ctx.tag = "token"
            ctx.clear_plan()

    def _advance_assumption(self, ctx) -> bool:
        known = len(ctx.knowledge)
        advanced = False
        while known > self.assumption and self.ai + 1 < len(self.assumptions):
            self.ai += 1
            advanced = True
        return advanced

    def _explorer_ga(self, ctx, others) -> None:
        pre_tokens = []
        cruisers = []
        seen = self.seen
        for p in others:
            tag = p.tag
            if tag == "cruiser":
                cruisers.append(p)
                continue
            if tag == "token":
                pre_tokens.append(p)
            elif tag != "shadow":
                continue
            # Direct sightings only; see _cruiser_ga for why.
            if p.adjacent:
                seen.add(p.ref)
        if pre_tokens:
            # Public rule: every cruiser in this GA freezes into a shadow.
            seen.update(p.ref for p in cruisers if p.adjacent)
        elif len(cruisers) >= 2:
            winner = _largest_ref(ctx, (p.ref for p in cruisers))
            seen.update(p.ref for p in cruisers
                        if p.ref != winner and p.adjacent)

        if self._advance_assumption(ctx):
            if self.mode != "star":
                self._resume_star(ctx)
            return

        if self.mode in ("finale", "finale_goto"):
            ctx.send_order(self._gather_target(ctx))
            return
        if self.mode != "star":
            return  # settled group; only an upgrade wakes us

        if len(seen) >= self.assumption - 1:
            ctx.send_order(self._gather_target(ctx))
            self._queue_finale_phase(ctx)
            return
        if pre_tokens:
            met_best = _largest_initial(ctx, (p.ref for p in pre_tokens))
            if lex_less(self.own_best, met_best):
                ctx.tag = "shadow"
                ctx.clear_plan()

    def on_order(self, ctx, target: Point, issuer) -> None:
        if ctx.tag not in ("token", "shadow"):
            return
        self.orders.append(target)
        if not self.executing_order:
            self._start_next_order(ctx)

    def on_idle(self, ctx) -> None:
        role = ctx.tag
        if role in ("cruiser", "explorer") and self.mode == "star":
            ctx.issue(self.star.next_instruction())
            return
        if role == "explorer" and self.mode == "finale":
            self._head_to(ctx, self._gather_target(ctx))
            self.mode = "finale_goto"
            return
        if role == "explorer" and self.mode == "finale_goto":
            self.mode = "settled"
            return
        if role in ("token", "shadow"):
            self.executing_order = False
            self._start_next_order(ctx)


def gather_n_program(n: int):
    """Program factory for agents that know only the team size n."""
    return gather_a_program((n,))


def gather_a_program(assumptions: Sequence[int]):
    """Program factory for agents that know a candidate-size set, given
    in any order, repeats allowed; assumption.AssumptionSet rejects an
    empty set and sizes below 2."""
    a = AssumptionSet(tuple(sorted(set(int(x) for x in assumptions))))
    return lambda: GatherProgram(a.elements)
