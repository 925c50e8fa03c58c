"""SVG rendering: the polyline text of a trajectory."""

from hypothesis import given
from hypothesis import strategies as st

from gathersim.render import _points

# Values whose two-decimal text is easy to get wrong: signed zeros, values
# that round to 0.00 from either side, halfway cases that binary floats
# put just above or below the half, and magnitudes near 1e7.
_edge = st.sampled_from([
    0.0, -0.0, 0.001, -0.001, 0.004999, -0.004999, 0.005, -0.005, 0.015,
    0.125, -0.125, 0.375, 2.675, 1.005, 899.995, 1e7, -1e7, 9999999.995,
    1e7 + 0.125, -1e7 - 0.005, 12345678.9])
_values = _edge | st.floats(allow_nan=False, allow_infinity=False) \
    | st.floats(-1e8, 1e8)


@given(st.lists(st.tuples(_values, _values), max_size=40))
def test_polyline_text_is_the_per_point_join(points):
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    assert _points(xs, ys) == " ".join(f"{x:.2f},{y:.2f}"
                                       for x, y in points)
