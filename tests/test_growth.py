"""Growth-rate gates: each command's traced peak memory grows at its stated rate.

The slopes are fitted by `growth.peak_slope` on warm runs. `show` on a type
of N curves holds its O(N) sparse rows, read off the type's shape table,
and one row of text at a time, so its peak is O(N): the show gates below
read slopes of 1.00 (table) and 0.99 (JSON). A `show` that kept every row
text would hold O(N^2) (slope 1.9).
`matrix` on T types holds O(T) sparse verdict rows and one row of text at
a time (slope 0.92 for N = 50...200 at m <= 6); one that kept every row
text would hold O(T^2) (slope 1.97). `compare` reads two profiles off the
parsed types, so its peak does not grow with N (slope -0.01).
"""

from growth import peak_slope

_SHOW_LADDER = (500, 1000, 2000, 4000)


def test_show_cycle_peak_grows_linearly():
    """The table writer, on I(N)."""
    slope = peak_slope(lambda n: ["show", f"I({n})"], _SHOW_LADDER)
    assert slope <= 1.15, slope


def test_show_istar_json_peak_grows_linearly():
    """The JSON writer, on IStar(N)."""
    slope = peak_slope(lambda n: ["show", f"IStar({n})", "--format", "json"], _SHOW_LADDER)
    assert slope <= 1.15, slope


def test_matrix_peak_grows_linearly_with_the_types():
    """The table writer of `matrix`, on catalog_types(N, 6)."""
    slope = peak_slope(lambda n: ["matrix", "--max-n", str(n), "--max-m", "6"], (50, 100, 200))
    assert slope <= 1.15, slope


def test_compare_peak_does_not_grow_with_the_cycle():
    slope = peak_slope(lambda n: ["compare", f"I({n})", "II"], (10**3, 10**4, 10**5))
    assert abs(slope) <= 0.1, slope
