"""Event-driven simulation of gathering for agents appearing over time.

Agents are anonymous unit-speed points in the plane, each activating at its
own appearance time.  Two agents exchange everything they know whenever
they come within the meeting distance eps.  The package provides the
feasibility classifier for initial configurations, a continuous-time
engine with an exact closest-approach event queue, and the gathering
algorithms for known pair data, known team size, and candidate team-size
sets, plus generators, trace checkers, and an SVG renderer.
"""

from .assumption import (AssumptionSet, Certificate,
                         build_dependent_counterexample, independence,
                         is_independent)
from .config import (Feasibility, FeasibilityClass, InitialConfiguration,
                     classify, pair_margin, vector_sequence)
from .engine import GAView, Program, Simulation, Trace, Verdict, run
from .geometry import POS_TOL, TIME_TOL, Point, Trajectory, Vec2
from .algorithms import (dedicated_program, gather_a_program,
                         gather_n_program, star_phase_params)

__version__ = "0.1.0"

__all__ = [
    "AssumptionSet",
    "Certificate",
    "Feasibility",
    "FeasibilityClass",
    "GAView",
    "InitialConfiguration",
    "POS_TOL",
    "Point",
    "Program",
    "Simulation",
    "TIME_TOL",
    "Trace",
    "Trajectory",
    "Vec2",
    "Verdict",
    "build_dependent_counterexample",
    "classify",
    "dedicated_program",
    "gather_a_program",
    "gather_n_program",
    "independence",
    "is_independent",
    "pair_margin",
    "run",
    "star_phase_params",
    "vector_sequence",
]
