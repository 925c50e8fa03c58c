import os

from hypothesis import settings

from gathersim.config import InitialConfiguration
from gathersim.geometry import Point

# HYPOTHESIS_PROFILE=ci draws every property test's examples from a fixed
# sequence, so a CI failure reproduces on rerun.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pair(eps, a, ta, b, tb):
    """Two-agent configuration from bare coordinate tuples."""
    return InitialConfiguration(eps, (Point(*a), Point(*b)), (ta, tb))
