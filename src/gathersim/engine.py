"""Event-driven simulation of agents that interact on epsilon-proximity.

Agents appear at their starting times, move at speed 0 or 1 along straight
instructions, and trigger a gathering event (GA) whenever two of them come
within distance epsilon after having been farther apart (or when one appears
that close).  A pair that met parts only beyond epsilon + SEPARATION_TOL,
so rounding at the epsilon circle never makes it meet again.  A GA is
instantaneous: participants exchange knowledge and may change course.
Participants of one GA are the whole connected component of the
proximity graph that contains a newly formed edge, so chains of agents
within epsilon of each other gossip together even when the endpoints of the
chain are more than epsilon apart.  ProximityGraph owns that graph and
this rule, and searches a GA's groups from the new edges only, so a GA
costs its groups; Simulation runs motion, knowledge and programs.

Programs see only relative data: their own clock, their own dead-reckoned
position, and other agents' positions relative to themselves.  Absolute
coordinates, epsilon, and any ordering of engine identities never cross the
program boundary.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import operator
from collections import deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, Optional, Sequence

from .config import InitialConfiguration, pair_margin
from .geometry import (BOUND_SLACK, CLOSING_SPEED, POS_TOL, PROX_TOL,
                       SEPARATION_TOL, SPEED_TOL, TIME_TOL, Point, Trajectory,
                       TrajectoryBuilder, Vec2, solve_crossing_in,
                       solve_crossing_out)

# A program may emit at most this many zero-duration instructions in a row.
MAX_INSTANT_INSTRUCTIONS = 1000

# Slack of the pair certificates over the scan window: larger than the
# TIME_TOL by which the crossing solvers accept a root past their window.
_CERT_MARGIN = 2 * TIME_TOL

# Margin of a sure pair (see Simulation.run) over the pair
# distance eps + BOUND_SLACK of the cannot-cross test.  A leg matches the
# run's path when its local start, its duration and each coordinate of its
# start's displacement lie within _LEG_SLACK of the path's; the drift this
# allows between two agents' paths stays below _PATH_SLACK.
_PATH_SLACK = POS_TOL
_LEG_SLACK = _PATH_SLACK / 16


@dataclass(frozen=True, slots=True)
class AgentRef:
    """Opaque agent identity: supports equality and hashing, never ordering.

    Its hash is the agent's engine index, so a program can still tell
    agents apart, and order them, by hash(): anonymity holds only for
    programs that do not.  A symmetric run (see Simulation) checks every
    leg rather than trust that none does.
    """
    _token: int

    def __lt__(self, other):
        raise TypeError("agent identities are unordered")

    __le__ = __lt__
    __gt__ = __lt__
    __ge__ = __lt__

    def __hash__(self):
        return self._token

    def __repr__(self):
        return f"AgentRef(#{self._token})"


class InvalidInstruction(ValueError):
    """An instruction that breaks the model, raised when it is made."""


# An instruction validates itself when made, so the engine begins one
# without a test.  Each test is written so that NaN fails it.
@dataclass(frozen=True, slots=True)
class Go:
    """Walk distance (inf allowed) at unit speed along direction, within
    SPEED_TOL of unit length."""
    direction: Vec2
    distance: float

    def __post_init__(self):
        if not self.distance >= 0.0:
            raise InvalidInstruction(f"distance is negative or NaN: {self!r}")
        if not abs(self.direction.norm - 1.0) <= SPEED_TOL:
            raise InvalidInstruction(
                f"direction is not a unit vector: {self!r}")


@dataclass(frozen=True, slots=True)
class Wait:
    """Rest for duration, not negative (inf allowed)."""
    duration: float

    def __post_init__(self):
        if not self.duration >= 0.0:
            raise InvalidInstruction(f"wait is negative or NaN: {self!r}")


@dataclass(frozen=True, slots=True)
class GotoStop:
    """Walk straight to a finite target, then stop."""
    target: Point  # in the issuing agent's own frame

    def __post_init__(self):
        if not (math.isfinite(self.target.x)
                and math.isfinite(self.target.y)):
            raise InvalidInstruction(f"target is not finite: {self!r}")


Instruction = Go | Wait | GotoStop


class Participant(NamedTuple):
    ref: AgentRef
    position: Point  # current, in the observing agent's frame
    tag: str
    # Within epsilon + PROX_TOL of the observer at the GA: direct
    # visibility, not an edge (a band pair keeps its edge farther out).
    # Participants beyond that range are known only through gossip.
    adjacent: bool


class GAView:
    """What one participant sees of a GA: a snapshot of the GA's start.

    time is the observer's local clock.  participants lists every member,
    the observer included at self_index, with the tag it held before any
    callback of this GA and its position relative to the observer's
    origin at the GA instant.  The list, and the observer's adjacency
    row, are built from the snapshot on the first read of participants,
    self_index or others(); a view that is never read costs nothing, and
    one read later, even after the agents moved or changed tags, shows
    the same GA-start state.  Views are made by the engine.
    """

    __slots__ = ("time", "_snap", "_k", "_participants", "_self_index")

    def __init__(self, time: float, snapshot: tuple, k: int):
        # snapshot is _views' (refs, tags, coords, lim) of the group, and
        # k the observer's place in it.
        self.time = time
        self._snap = snapshot
        self._k = k
        self._participants: Optional[tuple[Participant, ...]] = None
        self._self_index = -1

    @property
    def participants(self) -> tuple[Participant, ...]:
        if self._participants is None:
            self._build()
        return self._participants

    @property
    def self_index(self) -> int:
        if self._participants is None:
            self._build()
        return self._self_index

    def others(self) -> tuple[Participant, ...]:
        parts = self.participants
        k = self._self_index
        return parts[:k] + parts[k + 1:]

    def _build(self) -> None:
        # Members ordered by current position, then by starting point, both
        # relative to the observer's origin; ties keep group order.  A
        # member is adjacent when its distance from the observer is within
        # lim; hypot ignores signs, so the row is the same whichever end
        # of a pair it is measured from.
        refs, tags, coords, lim = self._snap
        k = self._k
        ax, ay, cx, cy = coords[k]
        keys = [(x - cx, y - cy, ox - cx, oy - cy)
                for x, y, ox, oy in coords]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        hypot = math.hypot
        # What Participant(...) does, without the frame of its __new__.
        make = tuple.__new__
        parts = []
        for b in order:
            x, y, _, _ = coords[b]
            key = keys[b]
            parts.append(make(Participant, (
                refs[b], Point(key[0], key[1]), tags[b],
                hypot(x - ax, y - ay) <= lim)))
        self._participants = tuple(parts)
        self._self_index = order.index(k)


class Program:
    """Behavior of one agent.  Subclasses override the callbacks they need.

    The engine calls on_appear once at the agent's starting time, on_ga at
    every gathering event the agent participates in, on_order when another
    participant of the current GA directs it somewhere, and on_idle at
    each instant of the agent's own events: its appearance, the end of
    its motion, or a GA it is in, when after them the agent is not
    stopped, has no motion and has an empty queue.  A program that issues
    nothing waits in place until its next own event; events of other
    agents do not poll it.
    """

    def on_appear(self, ctx: "AgentContext") -> None:
        pass

    def on_ga(self, ctx: "AgentContext", view: GAView) -> None:
        """view is a snapshot of the GA's start, built on its first read;
        a program that does not read it pays nothing for it."""

    def on_order(self, ctx: "AgentContext", target: Point,
                 issuer: AgentRef) -> None:
        pass

    def on_idle(self, ctx: "AgentContext") -> None:
        pass


@dataclass
class Event:
    time: float
    kind: str  # appear | ga | order | stop | horizon
    agents: tuple[int, ...] = ()
    positions: tuple[Point, ...] = ()
    tags: tuple[str, ...] = ()
    issuer: Optional[int] = None
    target: Optional[Point] = None


@dataclass
class Verdict:
    kind: str  # gathered | split | timeout
    time: float
    point: Optional[Point] = None
    groups: tuple[Point, ...] = ()


@dataclass
class Trace:
    events: list[Event]
    final_tags: tuple[str, ...]
    trajectories: tuple[Trajectory, ...]
    verdict: Verdict

    @property
    def final_positions(self) -> tuple[Point, ...]:
        """Where each agent's trajectory ends."""
        return tuple([traj.end_point for traj in self.trajectories])

    def jsonl_lines(self) -> list[str]:
        """One line per event, then the verdict line: each is byte for
        byte json.dumps of the object README documents for its kind.

        Lines are written from one fixed template per kind.  A trace
        repeats its times, its coordinates and the Points of agents that
        stayed put, so each distinct finite non-zero float is formatted
        once, and each distinct Point object once.  GAs of one team
        repeat its index tuple and its role tuples, so each distinct
        agents tuple and tags tuple of a GA line is formatted once too.
        """
        dumps = json.dumps
        float_repr = float.__repr__
        floats: dict[float, str] = {}
        points: dict[int, str] = {}
        # Keyed by value: equal tuples of ints, or of strs, read the same.
        ga_agents: dict[tuple, str] = {}
        ga_tags: dict[tuple, str] = {}

        def num(v) -> str:
            # json.dumps writes a finite float as its repr.  An equal key
            # would merge -0.0 with 0.0 and 1 with 1.0, so signed zeros,
            # non-finite floats and ints go through json.dumps itself.
            if type(v) is float and v and v - v == 0.0:
                text = floats.get(v)
                if text is None:
                    text = floats[v] = float_repr(v)
                return text
            return dumps(v)

        def point(p: Point) -> str:
            # Keyed by identity: Points compare equal across signed zeros.
            # The text is never empty, so a caller may test a get with or.
            text = points.get(id(p))
            if text is None:
                text = points[id(p)] = f"[{num(p.x)}, {num(p.y)}]"
            return text

        ints = int.__repr__
        string = encode_basestring_ascii
        lines = []
        for ev in self.events:
            kind = ev.kind
            head = '{"t": ' + num(ev.time) + ', "kind": "' + kind + '", '
            if kind == "ga":
                agents = ga_agents.get(ev.agents)
                if agents is None:
                    agents = ga_agents[ev.agents] = ", ".join(
                        map(ints, ev.agents))
                tags = ga_tags.get(ev.tags)
                if tags is None:
                    tags = ga_tags[ev.tags] = ", ".join(map(string, ev.tags))
                lines.append(
                    head + '"agents": [' + agents + '], "positions": ['
                    + ", ".join([points.get(id(p)) or point(p)
                                 for p in ev.positions])
                    + '], "tags": [' + tags + "]}")
            elif kind == "order":
                lines.append(
                    head + '"issuer": ' + ints(ev.issuer)
                    + ', "recipients": [' + ", ".join(map(ints, ev.agents))
                    + '], "target": ' + point(ev.target) + "}")
            elif kind == "appear" or kind == "stop":
                lines.append(head + '"agent": ' + ints(ev.agents[0])
                             + ', "position": ' + point(ev.positions[0])
                             + "}")
            elif kind == "horizon":
                lines.append(head[:-2] + "}")  # head without its ", "
            else:
                raise ValueError(f"unknown event kind {kind}")
        v = self.verdict
        head = '{"kind": "verdict", "verdict": "'
        if v.kind == "gathered":
            lines.append(head + 'gathered", "point": ' + point(v.point)
                         + "}")
        elif v.kind == "split":
            lines.append(head + 'split", "groups": ' + ints(len(v.groups))
                         + ', "points": ['
                         + ", ".join(map(point, v.groups)) + "]}")
        else:
            lines.append(head + 'timeout", "time": ' + num(v.time) + "}")
        return lines

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")

    def ga_events(self) -> list[Event]:
        return [ev for ev in self.events if ev.kind == "ga"]


Pair = tuple[int, int]  # agent indices, smaller first


def connected_components(nbr, starts) -> list[tuple[int, ...]]:
    """The connected components that hold a vertex of starts.

    nbr[v] lists the neighbours of vertex v; every edge is listed at both
    ends.  Only the components of starts are searched.  Components are
    sorted internally and ordered by their smallest member.
    """
    seen: set[int] = set()
    comps = []
    for start in starts:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        stack = [start]
        while stack:
            for v in nbr[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        comp.sort()
        comps.append(tuple(comp))
    # Disjoint sorted tuples compare by their smallest members.
    comps.sort()
    return comps


def default_horizon(cfg: InitialConfiguration) -> float:
    eps_floor = min(cfg.epsilon, 1.0)
    return 50.0 * (cfg.diameter() + cfg.max_start_time() + cfg.n) \
        + 100.0 / eps_floor


@dataclass(slots=True)
class _Motion:
    """A leg: from (x0, y0) at t0, at velocity (vx, vy), until t_end at
    (x_end, y_end)."""
    t0: float
    x0: float
    y0: float
    t_end: float
    x_end: float
    y_end: float
    vx: float
    vy: float
    stop_on_arrival: bool

    def at(self, t: float) -> tuple[float, float]:
        """The place at time t: the leg's end from t_end - TIME_TOL on,
        else x0 + vx (t - t0), rounded once; the start itself while
        t - t0 is not above 0, so that signed zeros are kept."""
        if t >= self.t_end - TIME_TOL:
            return self.x_end, self.y_end
        dt = t - self.t0
        if dt > 0.0:
            return self.x0 + self.vx * dt, self.y0 + self.vy * dt
        return self.x0, self.y0


_index = operator.attrgetter("idx")


class _Agent:
    __slots__ = ("idx", "ref", "origin", "start_time", "stopped",
                 "tag", "knowledge", "program", "queue", "motion", "x", "y",
                 "point", "builder", "ctx", "leg")

    def __init__(self, idx: int, ref: AgentRef, origin: Point,
                 start_time: float, program: Program):
        self.idx = idx
        self.ref = ref
        self.origin = origin
        self.start_time = start_time
        self.stopped = False
        self.tag = ""
        # Each known agent's start point in this agent's frame, whose
        # origin is its own start point; itself included, at (0, 0).
        self.knowledge: dict[AgentRef, Point] = {}
        self.program = program
        self.queue: deque[Instruction] = deque()
        # The current leg: motion, or none while the agent stands still.
        self.motion: Optional[_Motion] = None
        self.x = origin.x
        self.y = origin.y
        # The last Point made of (x, y); see here().
        self.point = origin
        self.builder: Optional[TrajectoryBuilder] = None
        self.ctx: Optional[AgentContext] = None
        # The index of the agent's next leg on a symmetric run's path.
        self.leg = 0

    def here(self) -> Point:
        """The current position as a Point, the same object while the agent
        stays put.  The cached Point is reused only while it holds the very
        float objects x and y hold: an equality test would take -0.0 for
        0.0, and the trace writes them apart."""
        p = self.point
        if p.x is not self.x or p.y is not self.y:
            p = self.point = Point(self.x, self.y)
        return p


class AgentContext:
    """Program-facing handle.  Exposes only frame-relative state."""

    __slots__ = ("_sim", "_agent")

    def __init__(self, sim: "Simulation", agent: _Agent):
        self._sim = sim
        self._agent = agent

    @property
    def self_ref(self) -> AgentRef:
        return self._agent.ref

    @property
    def now(self) -> float:
        return self._sim._now - self._agent.start_time

    @property
    def position(self) -> Point:
        ag = self._agent
        m = ag.motion
        x, y = (ag.x, ag.y) if m is None else m.at(self._sim._now)
        o = ag.origin
        return Point(x - o.x, y - o.y)

    @property
    def tag(self) -> str:
        return self._agent.tag

    @tag.setter
    def tag(self, value: str) -> None:
        self._agent.tag = value

    @property
    def knowledge(self) -> dict[AgentRef, Point]:
        """Each known agent's start point in this agent's frame, by ref.

        Holds this agent from its appearance on and grows at every GA;
        refs are in the order they were learnt.
        """
        return self._agent.knowledge

    def issue(self, instr: Instruction) -> None:
        if self._agent.stopped:
            raise InvalidInstruction("agent has stopped")
        self._agent.queue.append(instr)

    def clear_plan(self) -> None:
        self._agent.queue.clear()
        self._sim._drop_motion(self._agent)

    def stop(self) -> None:
        self._sim._request_stop(self._agent)

    def send_order(self, target: Point) -> None:
        """Order every other awake member of the running GA to target, a
        point in this agent's own frame.  Works only inside on_ga; a call
        from any other callback raises RuntimeError."""
        orders = self._sim._pending_orders
        if orders is None:
            raise RuntimeError("orders can only be sent during a GA")
        orders.append((self._agent, target))


ProgramFactory = Callable[[], Program]


class ProximityGraph:
    """The proximity graph of a run, and the meeting rule on it.

    Adjacency is a band.  A pair joins at the root of its approach to
    epsilon, or within epsilon + PROX_TOL at an appearance or a GA; it
    separates only when its distance exceeds epsilon + SEPARATION_TOL.
    A joining pair forms a new edge, and every component that holds a new
    edge has a GA.  agents is the run's agent list; the engine adds to
    changed every agent whose leg changed, or that appeared, since the
    last scan.  The graph keeps no state of a symmetric run: while one
    lasts, Simulation.run calls no scan (see there), and its leg ends and
    leg starts add no agent to changed (see Simulation._end_symmetry).
    """

    def __init__(self, agents: list[_Agent], eps: float, horizon: float):
        self.agents = agents
        self.eps = eps
        self.horizon = horizon
        self.changed: set[int] = set()
        # _nbr[i]: the agents adjacent to agent i, joined and not yet
        # separated; the one adjacency structure of the run.
        self._nbr: list[set[int]] = [set() for _ in agents]
        # Kinetic pair certificates by key lo * n + hi (see next_events);
        # heap entries (cert, key) pop as (cert, (lo, hi)) would.
        n = self._n = len(agents)
        self._cert: list[float] = [math.inf] * (n * n)
        self._cert_queue: list[tuple[float, int]] = []

    def next_events(self, live: list[_Agent], now: float, t_bound: float
                    ) -> tuple[float, list[tuple[float, Pair]]]:
        """Every pair's next crossing in [now, t_bound]: into epsilon for
        a pair apart, out of epsilon + SEPARATION_TOL for an adjacent one.

        Returns the earliest crossing time (t_bound when there is none) and
        the crossings as (time, pair), in no particular order; the pair's
        adjacency tells an approach from a separation (see apply).

        live holds the appeared agents.  Each pair (lo, hi) holds a kinetic
        certificate (Basch, Guibas & Hershberger, "Data structures for
        mobile data", SODA 1997): _cert[lo * n + hi] is the earliest time
        at which it can cross under its two agents' current motions, or
        inf when it cannot before one of them ends.  A pair is solved
        afresh from now for one of two reasons:
        - an agent of it is in changed: every change of a leg installs a
          new motion or drops one, so such an agent never ends a scan
          interval on the motion it began it with; or
        - its certificate is due: its heap entry (cert, key) has
          cert <= t_bound + _CERT_MARGIN.
        Any other pair has no crossing in this window and is not visited.
        Pairs are solved in rows, each once: a changed agent, in index
        order, with the live agents but itself and the changed ones before
        it, or the lower agent of another due pair with the other.
        r and v are taken from the row agent's side; negating all four
        keeps the solvers' results, which use only |r|^2, |v|^2 and r.v.
        A pair is solved with no end to its span, so a root inside the
        window gives the same float as a solve over the window alone.  A
        later root up to E, the end of the pair's first motion, becomes
        the certificate.  A root past E is no crossing of these motions,
        but a solve from a later instant, from positions rounded
        otherwise, can move it to E or before (a grazing approach moves it
        most), only if it puts the pair across the circle it crosses at
        E.  So such a pair that stands within BOUND_SLACK of that circle
        at E is certified at E, and the scan whose window ends there
        solves it again; any other gets cert inf, as no rounding moves a
        pair that far.  A pair with a crossing in the window is
        certified, and queued, at now, and ga_groups does the same at the
        GA instant for a pair its edge catch joins, so the next scan
        solves each again: a flip of adjacency always comes with a due
        certificate.

        An apart pair farther than lim apart gets cert inf and no solve,
        by conservative advancement (Mirtich, PhD thesis, Berkeley 1996):
        lim is epsilon + BOUND_SLACK + CLOSING_SPEED times the pair's span
        up to E, and its agents close at most CLOSING_SPEED, so over that
        span it stays beyond epsilon + BOUND_SLACK, where the solver finds
        no root (see BOUND_SLACK in geometry), from positions rounded
        either way.
        """
        changed = self.changed
        n = self._n
        cert = self._cert
        queue = self._cert_queue
        due = t_bound + _CERT_MARGIN
        keys = set()
        while queue and queue[0][0] <= due:
            t, key = heapq.heappop(queue)
            if cert[key] == t:  # else a later solve replaced this entry
                keys.add(key)
        agents = self.agents
        rows = []
        if changed and len(live) > 1:
            for i in sorted(changed) if len(changed) > 1 else changed:
                rows.append((agents[i], live))
        for key in keys:
            lo, hi = divmod(key, n)
            if lo not in changed and hi not in changed:
                rows.append((agents[lo], (agents[hi],)))
        if not rows:  # a due pair with a changed end is in its row
            changed.clear()
            return t_bound, []
        eps = self.eps
        window = t_bound - now
        # The least span: the window and more than the solvers' TIME_TOL.
        stretch = window + _CERT_MARGIN
        reach = eps + BOUND_SLACK
        closing = CLOSING_SPEED
        horizon = self.horizon
        nbr = self._nbr
        sep = eps + SEPARATION_TOL
        # The squared distances at E within BOUND_SLACK of epsilon, from
        # outside, and of sep, from inside (see above).
        reach2 = reach * reach
        inside2 = (sep - BOUND_SLACK) ** 2
        time_tol = TIME_TOL
        solve_in = solve_crossing_in
        solve_out = solve_crossing_out
        push = heapq.heappush
        inf = math.inf
        t_event = t_bound
        hits = []
        for a, partners in rows:
            i = a.idx
            ax = a.x
            ay = a.y
            m = a.motion
            if m is None:
                avx = avy = 0.0
                cap = horizon
            else:
                avx, avy, cap = m.vx, m.vy, min(m.t_end, horizon)
            near = nbr[i]
            row = i * n
            for b in partners:
                j = b.idx
                if j <= i and j in changed:
                    continue  # itself, or a changed agent's earlier row
                key = row + j if i < j else j * n + i
                m = b.motion
                end = cap if m is None or m.t_end >= cap else m.t_end
                span = end - now
                if span < stretch:
                    span = stretch
                if m is None:
                    vx = 0.0 - avx
                    vy = 0.0 - avy
                else:
                    vx = m.vx - avx
                    vy = m.vy - avy
                rx = b.x - ax
                ry = b.y - ay
                adjacent = j in near
                if adjacent:
                    s = solve_out(rx, ry, vx, vy, sep, inf)
                else:
                    lim = reach + closing * span
                    if rx * rx + ry * ry > lim * lim:
                        cert[key] = inf
                        continue
                    s = solve_in(rx, ry, vx, vy, eps, inf)
                if s is None:
                    cert[key] = inf
                    continue
                if s > window + time_tol:
                    t = now + s
                    if t > end:  # past E (see above)
                        px = rx + vx * span
                        py = ry + vy * span
                        d2 = px * px + py * py
                        if (d2 < inside2) if adjacent else (d2 > reach2):
                            cert[key] = inf
                            continue
                        t = end
                    cert[key] = t
                    push(queue, (t, key))
                    continue
                cert[key] = now
                push(queue, (now, key))
                if s > window:
                    s = window
                t = now + s
                hits.append((t, (i, j) if i < j else (j, i)))
                if t < t_event:
                    t_event = t
        changed.clear()
        return t_event, hits

    def touching(self, agent: _Agent, live: list[_Agent]) -> list[Pair]:
        """The pairs of an agent appearing now with the live agents within
        epsilon of it, up to PROX_TOL; it has no edge yet."""
        i = agent.idx
        lim = self.eps + PROX_TOL
        return [(min(i, o.idx), max(i, o.idx)) for o in live
                if o is not agent
                and math.hypot(agent.x - o.x, agent.y - o.y) <= lim]

    def apply(self, t: float, hits: list[tuple[float, Pair]]
              ) -> set[Pair]:
        """Apply the crossings of hits at the instant t; return the
        approaching pairs.  A hit pair that is adjacent separates and
        loses its edge; any other approaches.  Its adjacency is the one
        the scan solved it with: nothing joins or parts a pair between the
        scan and its instant."""
        nbr = self._nbr
        approaches = set()
        for ht, pair in hits:
            if ht > t + TIME_TOL:
                continue
            i, j = pair
            if j in nbr[i]:
                nbr[i].remove(j)
                nbr[j].remove(i)
            else:
                approaches.add(pair)
        return approaches

    def ga_groups(self, t: float, new_edges: set[Pair]):
        """Add new_edges at the GA instant t; yield each component that
        holds one, by smallest member.  Components without one had their
        GA earlier and stay silent.  Both ends of an edge lie in one
        component, so searching from one end of each finds every group.
        Every member pair within epsilon, up to PROX_TOL, becomes an edge,
        and is certified and queued at t, so the next scan solves it for
        its separation.  Only pairs without an edge are measured, when the
        group is asked for, after the GAs before it.  There is no epsilon
        matrix: a GAView measures its own observer's row when it is read.
        """
        nbr = self._nbr
        for i, j in new_edges:
            nbr[i].add(j)
            nbr[j].add(i)
        lim = self.eps + PROX_TOL
        hypot = math.hypot
        agents = self.agents
        for group in connected_components(nbr, [i for i, _ in new_edges]):
            for x, i in enumerate(group):
                nbr_i = nbr[i]
                a = agents[i]
                xi = a.x
                yi = a.y
                for j in group[x + 1:]:
                    if j not in nbr_i:
                        b = agents[j]
                        if hypot(xi - b.x, yi - b.y) <= lim:
                            nbr_i.add(j)
                            nbr[j].add(i)
                            key = i * self._n + j
                            self._cert[key] = t
                            heapq.heappush(self._cert_queue, (t, key))
            yield group


class Simulation:
    """One run of cfg under a program factory.

    A run starts symmetric when every pair is sure (see run), which only
    an UNGATHERABLE configuration with margin can be.  Until its first
    meeting, every agent of an anonymous run walks one solo path, shifted
    by its origin and start time (the paper's impossibility argument).  The
    run keeps that path, leg by leg, as the first agent to begin each leg
    walked it, and checks every other leg against it in _follow_path:
    every leg begins in _poll, which passes it there, so a program that
    tells agents apart only ends the symmetric run early.  The run stops
    being symmetric for good at its first GA, stop, dropped motion (a
    clear_plan that halts a moving agent), leg that ends early, or idle
    agent, or at a leg that does not match the path.

    Each step of an instant is written once.  _arrive is the one leg end
    and records the leg whole; _poll is the one idle poll and the one
    place a leg begins; _drop_motion halts an agent that a program clears
    or stops.  run takes a lone leg end through _arrive and _poll alone,
    and any other instant through _process_instant.

    A moving agent's place is a closed form of its leg, _Motion.at, so
    it does not depend on the instants the clock stopped at.  _sync puts
    every moving agent there; a run that is not symmetric syncs at every
    instant.  While a run is symmetric only an agent's own events need
    its position, so an instant touches only the agents whose legs end
    or begin in it, and _sync runs only at the end of symmetry or of the
    run; a program's AgentContext.position computes its own agent's
    place.  An appearance reads none: no pair can meet while the run is
    symmetric (see run).
    """

    def __init__(self, cfg: InitialConfiguration,
                 program_factory: ProgramFactory,
                 horizon: Optional[float] = None):
        self.eps = cfg.epsilon
        self.horizon = default_horizon(cfg) if horizon is None else horizon
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError("horizon must be finite and positive, "
                             f"got {self.horizon}")
        self.agents = []
        for i in range(cfg.n):
            start, t0 = cfg.agent(i)
            ag = _Agent(i, AgentRef(i), start, t0, program_factory())
            ag.ctx = AgentContext(self, ag)
            self.agents.append(ag)
        self._now = min(cfg.times)
        # Appeared agents in index order, and the rest by starting time.
        self._live: list[_Agent] = []
        self._arrivals = deque(sorted(self.agents,
                                      key=lambda ag: (ag.start_time, ag.idx)))
        # (t_end, seq, agent, motion) of every motion set; an entry whose
        # motion is no longer its agent's is dropped when it comes up.
        self._ends: list[tuple[float, int, _Agent, _Motion]] = []
        self._seq = itertools.count()
        self._prox = ProximityGraph(self.agents, self.eps, self.horizon)
        # The symmetric run's path: (local start, vx, vy, duration, dx, dy)
        # of each leg, (dx, dy) its start's displacement from the origin;
        # None when the run is not symmetric.
        self._path: Optional[list[tuple]] = None
        # -pair_margin is d_ij - |t_i - t_j| - eps.
        times = cfg.times
        reach = BOUND_SLACK + _PATH_SLACK
        if all(-pair_margin(cfg, i, j) - SPEED_TOL * abs(times[i] - times[j])
               > reach for i, j in itertools.combinations(range(cfg.n), 2)):
            self._path = []
        self.events: list[Event] = []
        # The (issuer, target in its frame) orders of the GA whose on_ga
        # callbacks are running; None outside them.
        self._pending_orders: Optional[list[tuple[_Agent, Point]]] = None

    # -- program-facing hooks ------------------------------------------------

    def _request_stop(self, agent: _Agent) -> None:
        if agent.stopped:
            return
        if self._path is not None:
            self._end_symmetry()
        agent.stopped = True
        agent.queue.clear()
        self._drop_motion(agent)
        self.events.append(Event(self._now, "stop", (agent.idx,),
                                 (agent.here(),)))

    # -- motion --------------------------------------------------------------

    def _record_leg(self, agent: _Agent) -> None:
        """Record the agent's leg whole, up to now: the leg's start
        (t0, x0, y0) when the builder's last record is older, then the
        agent's place now, which ends the leg, or the rest of an agent
        without one.

        Records are keyed on the clock: beginning a leg records nothing,
        and a leg that begins and ends within one instant gets no record.
        """
        builder = agent.builder
        m = agent.motion
        if m is not None and m.t0 > builder.last_time:
            builder.move_to(m.t0, m.x0, m.y0)
        if self._now > builder.last_time:
            builder.move_to(self._now, agent.x, agent.y)

    def _drop_motion(self, agent: _Agent) -> None:
        """Halt the agent where it is now, if it moves, and record its
        leg.  A dropped motion leaves the path, so it ends a symmetric
        run first, which syncs the agent to where it is."""
        if agent.motion is None:
            return
        if self._path is not None:
            self._end_symmetry()
        self._record_leg(agent)
        agent.motion = None
        self._prox.changed.add(agent.idx)

    def _arrive(self, agent: _Agent) -> None:
        """End the agent's leg, due now, and stop the agent if the leg is
        a GotoStop's: the one leg end of the run.  A leg that ends early,
        within TIME_TOL, went faster than its path and ends a symmetric
        run.  The agent is put at the leg's end, where a sync puts it
        from t_end - TIME_TOL on: a symmetric run has not synced it, and
        rounding can keep now just short of that.  The leg is recorded
        whole, and the agent joins the changed ones once the run is not
        symmetric (see _end_symmetry)."""
        m = agent.motion
        if m.t_end > self._now and self._path is not None:
            self._end_symmetry()
        agent.x = m.x_end
        agent.y = m.y_end
        self._record_leg(agent)
        agent.motion = None
        if self._path is None:
            self._prox.changed.add(agent.idx)
        if m.stop_on_arrival:
            self._request_stop(agent)

    def _follow_path(self, agent: _Agent, motion: _Motion) -> None:
        """Check a new leg of a symmetric run against the path: the same
        vx and vy floats, and local start, duration and displacement from
        the origin within _LEG_SLACK.  The first agent to begin a leg
        adds it to the path."""
        now = self._now
        o = agent.origin
        tau = now - agent.start_time
        dur = motion.t_end - now
        dx = agent.x - o.x
        dy = agent.y - o.y
        k = agent.leg
        agent.leg = k + 1
        path = self._path
        if k == len(path):
            path.append((tau, motion.vx, motion.vy, dur, dx, dy))
            return
        p_tau, vx, vy, p_dur, p_dx, p_dy = path[k]
        slack = _LEG_SLACK
        # Written so that NaN fails each test.
        if not (motion.vx == vx and motion.vy == vy
                and abs(tau - p_tau) <= slack and abs(dur - p_dur) <= slack
                and abs(dx - p_dx) <= slack and abs(dy - p_dy) <= slack):
            self._end_symmetry()

    def _end_symmetry(self) -> None:
        """The run stops being symmetric: every agent is synced to now,
        and from now on the agents move at every instant and the scan
        solves every row.  No leg end or leg start of the symmetric run
        made its agent join the changed ones; the bound in run covers
        every matched leg, but not the rest of an agent without a motion,
        so the live agents without one join them now."""
        self._sync()
        self._path = None
        self._prox.changed.update([ag.idx for ag in self._live
                                   if ag.motion is None])

    def _sync(self) -> None:
        """Put every moving live agent where its leg has it now (see
        _Motion.at).  The place depends on the leg and the clock alone,
        so x and y are the same floats whether an agent is synced at
        every instant or once after many."""
        now = self._now
        for ag in self._live:
            m = ag.motion
            if m is not None:
                ag.x, ag.y = m.at(now)

    def _poll(self, agent: _Agent) -> None:
        """The idle poll of an agent at an instant of its own events, and
        the one place a leg begins.  An agent that is stopped or moves is
        left alone.  Any other is asked for work by on_idle when its
        queue is empty, then begins its queue: it skips the instructions
        that last no time, and raises InvalidInstruction at the one past
        MAX_INSTANT_INSTRUCTIONS of them in a row, and turns the first Go,
        Wait or GotoStop that lasts into its motion, whose end it pushes
        onto the motion-end heap.  A GotoStop already at its target stops
        the agent instead.

        A symmetric run checks the new leg in _follow_path, and the agent
        joins the changed ones only once the symmetry has ended: while it
        holds, run's soundness bound keeps every pair of matched legs
        apart, so no scan needs the leg.  An agent left idle rests until
        an event of its own, which the path does not say, so it ends a
        symmetric run.
        """
        if agent.stopped or agent.motion is not None:
            return
        queue = agent.queue
        if not queue:
            agent.program.on_idle(agent.ctx)
        now = self._now
        x = agent.x
        y = agent.y
        skipped = 0
        while queue and not agent.stopped:
            instr = queue.popleft()
            kind = type(instr)
            motion = None
            if kind is Go:
                dist = instr.distance
                if dist > POS_TOL:
                    dx, dy = instr.direction.dx, instr.direction.dy
                    motion = _Motion(now, x, y, now + dist, x + dx * dist,
                                     y + dy * dist, dx, dy, False)
            elif kind is Wait:
                if instr.duration > TIME_TOL:
                    motion = _Motion(now, x, y, now + instr.duration, x, y,
                                     0.0, 0.0, False)
            elif kind is GotoStop:
                tx = agent.origin.x + instr.target.x
                ty = agent.origin.y + instr.target.y
                dx = tx - x
                dy = ty - y
                d = math.hypot(dx, dy)
                if d <= POS_TOL:
                    self._request_stop(agent)
                    return
                motion = _Motion(now, x, y, now + d, tx, ty, dx / d, dy / d,
                                 True)
            else:
                raise InvalidInstruction(f"unknown instruction {instr!r}")
            if motion is None:  # it lasts no time
                skipped += 1
                if skipped > MAX_INSTANT_INSTRUCTIONS:
                    raise InvalidInstruction(
                        "too many zero-duration instructions")
                continue
            agent.motion = motion
            heapq.heappush(self._ends,
                           (motion.t_end, next(self._seq), agent, motion))
            if self._path is not None:
                self._follow_path(agent, motion)
                if self._path is not None:
                    return
            self._prox.changed.add(agent.idx)
            return
        if self._path is not None:
            self._end_symmetry()

    # -- knowledge -----------------------------------------------------------

    def _gossip(self, members: list[_Agent]) -> None:
        """Give every member the union of the group's knowledge.

        members are the group's agents in group order.  A ref a member
        lacks is copied from its first holder in group order, as held
        before this GA, and shifted by the offset between the two
        members' origins.  Each member receives the refs it lacks
        in the order of that first holding: holders in group order, each
        holder's refs in insertion order.  When every member already knows
        every agent of the run there is nothing to copy.
        """
        n = len(self.agents)
        if all(len(ag.knowledge) == n for ag in members):
            return
        first_holder: dict[AgentRef, tuple[_Agent, Point]] = {}
        for send in members:
            for ref, p in send.knowledge.items():
                if ref not in first_holder:
                    first_holder[ref] = (send, p)
        for recv in members:
            known = recv.knowledge
            for ref, (send, p) in first_holder.items():
                if ref not in known:
                    known[ref] = Point(p.x + (send.origin.x - recv.origin.x),
                                       p.y + (send.origin.y - recv.origin.y))

    def _views(self, members: list[_Agent]) -> dict[int, GAView]:
        """The GA view of every member not stopped, by agent index.

        members are the group's agents in group order.  All views share
        one snapshot of their refs, tags, positions and origins, taken
        now, and of the adjacency limit; each view sorts it and measures
        its observer's adjacency row on first read.
        """
        snap = ([ag.ref for ag in members], [ag.tag for ag in members],
                [(ag.x, ag.y, ag.origin.x, ag.origin.y)
                 for ag in members], self.eps + PROX_TOL)
        # A stopped member gets no view: on_ga is never called for it.
        return {ag.idx: GAView(self._now - ag.start_time, snap, k)
                for k, ag in enumerate(members) if not ag.stopped}

    # -- main loop -----------------------------------------------------------

    def run(self) -> Trace:
        """Run the instants of the run in time order, to its end or its
        horizon.  Each pass scans the pairs up to the next appearance or
        leg end, or the horizon, sets the clock to the earliest instant
        with work, and runs it.  An instant whose only work is one leg
        end, the most common one, is _arrive and _poll of its agent; any
        other runs _process_instant.  In a symmetric run nearly every
        instant is a lone leg end.

        While the run is symmetric (see Simulation), every pair is sure,
        and run calls no scan: the next instant is the due one, with no
        hit, and no certificate is due, as none was ever made.  One
        certificate that lasts the run stands in for one solved at every
        leg.  No position is read, and none is current: a live agent's x
        and y hold only at its own events and after _sync.  Pair (i, j)
        is sure when d_ij - (1 + SPEED_TOL) |t_i - t_j| >
        epsilon + BOUND_SLACK + _PATH_SLACK, d_ij the distance of their
        origins.  The soundness bound: every live agent walks a leg, and
        every leg so far matched the path and ended on time, so each
        agent's own path is continuous and moves at most 1 + SPEED_TOL.
        Of a pair, take the agent a that has begun the current leg k of
        the other, b.  Their legs k have one velocity; shifted by the
        origins, their starts lie within 2 sqrt(2) _LEG_SLACK, their
        local starts and durations differ by at most 2 _LEG_SLACK, and a
        scan solves up to 3 TIME_TOL past a leg's end (the stretched span
        and a root snapped onto it).  A position jumps to its leg's end up
        to TIME_TOL early (see _Motion.at).  So at every instant of a
        solved span, b is within 2 sqrt(2) _LEG_SLACK + (1 + SPEED_TOL)
        (2 _LEG_SLACK + 4 TIME_TOL) of where a was, shifted, at a time
        |t_i - t_j| + 4 _LEG_SLACK + 4 TIME_TOL from now at most, and the
        pair stays farther apart than d_ij - 2 sqrt(2) _LEG_SLACK -
        (1 + SPEED_TOL) (|t_i - t_j| + 6 _LEG_SLACK + 8 TIME_TOL), which
        exceeds epsilon + BOUND_SLACK: Simulation evaluates the sure test
        from config.pair_margin, within 2e-8 of its exact value in the
        domain below, and the drift and that rounding stay below
        _PATH_SLACK.  Neither the cannot-cross test nor the solver would
        then give the pair a certificate other than inf.  A skipped pair
        keeps that inf, its starting one, so the scan's hits, and every
        trace, are the full scan's.  The bound covers an appearance too:
        the later agent j stands at its origin, and the earlier one i has
        moved at most (1 + SPEED_TOL) |t_i - t_j| from its own, so the
        pair is farther apart than epsilon + BOUND_SLACK, beyond the
        epsilon + PROX_TOL of Simulation's touching test, and the
        appearance makes no edge.  The domain is the one BOUND_SLACK
        states: coordinates up to 1e7, and pairs whose distance R at a
        solve has R^2 < 2e6 epsilon.
        """
        horizon = self.horizon
        arrivals = self._arrivals
        ends = self._ends
        prox = self._prox
        while True:
            while ends and ends[0][2].motion is not ends[0][3]:
                heapq.heappop(ends)
            # After an instant's idle pass an agent that is not stopped and
            # has no motion has an empty queue, so with no appearance and
            # no motion left nothing can happen any more.
            if not arrivals and not ends:
                return self._finish(timed_out=False)
            # Due: the earliest pending appearance or end of a motion.
            t_due = ends[0][0] if ends else math.inf
            if arrivals and arrivals[0].start_time < t_due:
                t_due = arrivals[0].start_time

            # min(t_due, horizon), then max with now, by comparisons: the
            # builtins cost more, at every instant.
            t_bound = horizon if horizon < t_due else t_due
            if self._now > t_bound:
                t_bound = self._now
            if self._path is not None:
                prox.changed.clear()  # as a scan does
                t_event, pair_hits = t_bound, []
            else:
                t_event, pair_hits = prox.next_events(
                    self._live, self._now, t_bound)

            # t_event is the earliest hit when there is one, so an instant
            # at the horizon has work exactly when it has a hit or when
            # something falls due at it.
            if t_event > horizon + TIME_TOL or (
                    t_event >= horizon - TIME_TOL and not pair_hits
                    and t_due > t_event + TIME_TOL):
                return self._finish(timed_out=True)

            # A run that is not symmetric syncs every agent at every
            # instant; no record is made here, as a leg is recorded when it
            # ends.
            self._now = t_event
            if self._path is None:
                self._sync()
            # A lone leg end: no hit, one entry of the motion-end heap due
            # within TIME_TOL, which the loop's top found live, and no
            # appearance.  The heap's second-smallest entry is ends[1] or
            # ends[2].
            lim = t_event + TIME_TOL
            size = len(ends)
            if (not pair_hits and size and ends[0][0] <= lim
                    and (size < 2 or ends[1][0] > lim)
                    and (size < 3 or ends[2][0] > lim)
                    and not (arrivals and arrivals[0].start_time <= lim)):
                ag = heapq.heappop(ends)[2]
                self._arrive(ag)
                self._poll(ag)
            else:
                self._process_instant(pair_hits)

    def _process_instant(self, pair_hits: list) -> None:
        """Run the instant now, given the scan's hits: appearances, then
        GAs, then leg ends, then the idle polls of every agent they
        concern, in index order."""
        t = self._now
        lim = t + TIME_TOL
        prox = self._prox
        live = self._live
        # The agents this instant concerns: the appeared ones, the GA
        # members and the ones whose motion ends.
        woken = set()

        # Appearances first: they may create proximity immediately.
        arrivals = self._arrivals
        appeared_now = []
        if arrivals and arrivals[0].start_time <= lim:
            while arrivals and arrivals[0].start_time <= lim:
                appeared_now.append(arrivals.popleft())
            if len(appeared_now) > 1:
                appeared_now.sort(key=_index)
            for ag in appeared_now:
                ag.builder = TrajectoryBuilder(t, ag.origin)
                ag.knowledge[ag.ref] = Point(0.0, 0.0)
                self.events.append(Event(t, "appear", (ag.idx,),
                                         (ag.origin,)))
                prox.changed.add(ag.idx)
                woken.add(ag.idx)
            live.extend(appeared_now)
            live.sort(key=_index)
            for ag in appeared_now:
                ag.program.on_appear(ag.ctx)
        # No edge can be new without a hit or an appearance, nor while
        # every pair is sure (see run).
        if (pair_hits or appeared_now) and self._path is None:
            new_edges = prox.apply(t, pair_hits) if pair_hits else set()
            for ag in appeared_now:
                new_edges.update(prox.touching(ag, live))
            if new_edges:
                self._run_gas(new_edges, woken)

        # A GA callback may clear or stop a motion but never starts one:
        # only the idle pass below does.
        ends = self._ends
        if ends and ends[0][0] <= lim:
            arrived = []
            while ends and ends[0][0] <= lim:
                _, _, ag, m = heapq.heappop(ends)
                if ag.motion is m:
                    arrived.append(ag)
            if len(arrived) > 1:
                arrived.sort(key=_index)
            for ag in arrived:
                self._arrive(ag)
                woken.add(ag.idx)

        # Only a callback of this instant fills a queue or clears a plan,
        # so every other agent either moves, is stopped, or has an empty
        # queue and already issued nothing at an earlier poll.
        agents = self.agents
        for i in sorted(woken) if len(woken) > 1 else woken:
            self._poll(agents[i])

    def _run_gas(self, new_edges: set[Pair], woken: set[int]) -> None:
        """Run the GA of every component that holds a new edge, and add
        its members to woken."""
        t = self._now
        agents = self.agents
        for group in self._prox.ga_groups(t, new_edges):
            woken.update(group)
            members = [agents[i] for i in group]
            self._gossip(members)
            # Decisions are simultaneous: every view shows pre-GA states,
            # so a callback's tag change is invisible to its peers.
            views = self._views(members)
            orders = self._pending_orders = []
            for ag in members:
                if not ag.stopped:
                    ag.program.on_ga(ag.ctx, views[ag.idx])
            self._pending_orders = None
            self.events.append(Event(
                t, "ga", group, tuple([ag.here() for ag in members]),
                tuple([ag.tag for ag in members])))
            for issuer, target in orders:
                tx = issuer.origin.x + target.x
                ty = issuer.origin.y + target.y
                recipients = [ag for ag in members
                              if ag is not issuer and not ag.stopped]
                self.events.append(Event(
                    t, "order", tuple([ag.idx for ag in recipients]),
                    issuer=issuer.idx, target=Point(tx, ty)))
                for ag in recipients:
                    rel = Point(tx - ag.origin.x, ty - ag.origin.y)
                    ag.program.on_order(ag.ctx, rel, issuer.ref)

    def _finish(self, timed_out: bool) -> Trace:
        if timed_out:
            self._now = self.horizon
            self.events.append(Event(self.horizon, "horizon"))
        # Synced, not ended: a symmetric run stays symmetric to its end.
        self._sync()
        final_positions = []
        trajectories = []
        end = max(self._now, max(ag.start_time for ag in self.agents))
        for ag in self.agents:
            if ag.builder is None:  # the agent never appeared
                ag.builder = TrajectoryBuilder(ag.start_time, ag.origin)
            else:
                self._record_leg(ag)
            last = ag.here()
            # Pad with a final rest so every trajectory covers the same
            # closing time regardless of when its agent stopped.
            if end > ag.builder.last_time:
                ag.builder.move_to(end, last.x, last.y)
            trajectories.append(ag.builder.build())
            final_positions.append(last)
        if timed_out:
            verdict = Verdict("timeout", self.horizon)
        else:
            groups = cluster_points(final_positions)
            if len(groups) == 1:
                verdict = Verdict("gathered", self._now,
                                  point=final_positions[0])
            else:
                reps = sorted((final_positions[g[0]] for g in groups),
                              key=lambda p: p.coords)
                verdict = Verdict("split", self._now, groups=tuple(reps))
        for ag in self.agents:
            # No callback follows.  Cutting the agent -> context ->
            # simulation cycle lets reference counting free the run's
            # state now instead of at the next cyclic garbage collection.
            ag.ctx = None
        return Trace(self.events, tuple(ag.tag for ag in self.agents),
                     tuple(trajectories), verdict)


def cluster_points(points: Sequence[Point]) -> list[tuple[int, ...]]:
    """Groups of points chained together by gaps of at most POS_TOL."""
    n = len(points)
    nbr = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if points[i].dist(points[j]) <= POS_TOL:
                nbr[i].append(j)
                nbr[j].append(i)
    return connected_components(nbr, range(n))


def run(cfg: InitialConfiguration, program_factory: ProgramFactory,
        horizon: Optional[float] = None) -> Trace:
    """Simulate cfg under the given per-agent program factory."""
    return Simulation(cfg, program_factory, horizon).run()
