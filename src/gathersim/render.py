"""Plain-SVG rendering of a simulation trace.

Produces a standalone .svg with one polyline per agent (hue spread around
the color wheel), appearance markers, a dashed eps-radius circle at every
meeting, and a cross at the gather point when the run gathered.  Math
coordinates are mapped with y flipped so north in the plane is up on
screen.
"""

from __future__ import annotations

from .config import InitialConfiguration
from .engine import Trace
from .geometry import POS_TOL

_PAD_FRAC = 0.08
_TARGET_W = 900.0


def _hue(idx: int, n: int) -> str:
    h = int(360.0 * idx / max(n, 1))
    return f"hsl({h},70%,42%)"


def _points(xs: list[float], ys: list[float]) -> str:
    """The text of " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys)),
    made by one % format: "%.2f" writes a float as f"{v:.2f}" does."""
    flat = [0.0] * (2 * len(xs))
    flat[::2] = xs
    flat[1::2] = ys
    return ("%.2f,%.2f " * len(xs))[:-1] % tuple(flat)


def render_svg(cfg: InitialConfiguration, trace: Trace) -> str:
    xs: list[float] = []
    ys: list[float] = []
    for traj in trace.trajectories:
        xs.extend(traj.xs)
        ys.extend(traj.ys)
    for p in cfg.starts:
        xs.append(p.x)
        ys.append(p.y)
    eps = cfg.epsilon
    min_x, max_x = min(xs) - eps, max(xs) + eps
    min_y, max_y = min(ys) - eps, max(ys) + eps
    span = max(max_x - min_x, max_y - min_y, POS_TOL)
    pad = span * _PAD_FRAC
    min_x -= pad
    min_y -= pad
    max_x += pad
    max_y += pad
    scale = _TARGET_W / (max_x - min_x)
    width = _TARGET_W
    height = (max_y - min_y) * scale

    def sx(x: float) -> float:
        return (x - min_x) * scale

    def sy(y: float) -> float:
        return (max_y - y) * scale

    n = cfg.n
    parts: list[str] = []
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{width:.0f}" height="{height:.0f}" '
                 f'viewBox="0 0 {width:.2f} {height:.2f}">')
    parts.append('<rect width="100%" height="100%" fill="white"/>')

    for ev in trace.ga_events():
        px = sum(p.x for p in ev.positions) / len(ev.positions)
        py = sum(p.y for p in ev.positions) / len(ev.positions)
        parts.append(f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" '
                     f'r="{eps * scale:.2f}" fill="none" '
                     f'stroke="#999" stroke-dasharray="4 3" '
                     f'stroke-width="1"/>')

    for idx, traj in enumerate(trace.trajectories):
        pts = _points([(x - min_x) * scale for x in traj.xs],
                      [(max_y - y) * scale for y in traj.ys])
        color = _hue(idx, n)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5" '
                     f'stroke-opacity="0.85"/>')
        s = cfg.starts[idx]
        parts.append(f'<circle cx="{sx(s.x):.2f}" cy="{sy(s.y):.2f}" '
                     f'r="4" fill="{color}"/>')
        parts.append(f'<text x="{sx(s.x) + 6:.2f}" y="{sy(s.y) - 6:.2f}" '
                     f'font-size="11" fill="{color}">'
                     f'{idx} (t={cfg.times[idx]:g})</text>')

    v = trace.verdict
    if v.kind == "gathered" and v.point is not None:
        gx, gy = sx(v.point.x), sy(v.point.y)
        parts.append(f'<path d="M {gx - 7:.2f} {gy:.2f} H {gx + 7:.2f} '
                     f'M {gx:.2f} {gy - 7:.2f} V {gy + 7:.2f}" '
                     f'stroke="black" stroke-width="2"/>')
    parts.append(f'<text x="8" y="{height - 8:.2f}" font-size="12" '
                 f'fill="#333">{v.kind} at t={v.time:.3f}, '
                 f'eps={eps:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(cfg: InitialConfiguration, trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(cfg, trace))
