"""Growth-rate gates: each command's traced peak memory grows at its stated rate.

The slopes are fitted by `growth.peak_slope` on warm runs. `show` on a type
of N curves holds its O(N) records and sparse rows and one row of text at a
time, so its peak is O(N). Both show gates below read a slope of 1.06,
not 1.00: the ints up to 256 are shared, larger ones are objects of their
own, so the peak per curve rises from about 500 to 570 bytes along the
ladder. A `show` that kept every row text would hold O(N^2) (slope 1.9).
`compare` reads two profiles off the parsed types, so its peak does not
grow with N (slope -0.01).
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


def test_compare_peak_does_not_grow_with_the_cycle():
    slope = peak_slope(lambda n: ["compare", f"I({n})", "II"], (10**3, 10**4, 10**5))
    assert abs(slope) <= 0.1, slope
