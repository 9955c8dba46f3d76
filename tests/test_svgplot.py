"""The SVG plotter: polyline runs, polar clipping and the shared document frame."""

import math
import re

import pytest

from wdmlink.svgplot import line_plot_svg, polar_plot_svg

NAN = math.nan


def line(series):
    return line_plot_svg(series, xlabel="x", ylabel="y", title="t")


def x_tick_labels(svg):
    """The x-axis tick labels, left to right (they sit 18 px below the plot frame)."""
    return re.findall(r'<text x="[^"]*" y="462.0" font-size="12"[^>]*>([^<]*)</text>', svg)


def polylines(svg):
    """The point lists of every polyline, in document order."""
    return re.findall(r'<polyline [^>]*points="([^"]*)"/>', svg)


class TestLinePlot:
    @pytest.mark.parametrize(
        "x, y",
        [
            ([0, 1, 2, 3, 4], [0.0, 1.0, NAN, 3.0, 4.0]),
            ([0, 1, NAN, 3, 4], [0.0, 1.0, 2.0, 3.0, 4.0]),
        ],
    )
    def test_nan_splits_a_series_into_two_polylines(self, x, y):
        runs = polylines(line([("a", x, y)]))
        assert [len(run.split()) for run in runs] == [2, 2]

    @pytest.mark.parametrize("y", [[1.0, NAN, 2.0, NAN, 3.0], [NAN] * 5])
    def test_run_of_fewer_than_two_finite_points_draws_nothing(self, y):
        svg = line([("a", [0, 1, 2, 3, 4], y)])
        assert polylines(svg) == []
        # the series still has its legend entry
        assert ">a</text>" in svg

    @pytest.mark.parametrize("x", [1e16, -1e16, 1e17, 2.0**53])
    def test_one_point_where_x_plus_one_rounds_to_x_gets_ticks(self, x):
        # a one-point sweep at such a grid value: widening its empty x range
        # by 1 left it empty, and the tick step's log10(0) raised
        assert x + 1.0 == x
        svg = line([("a", [x], [2.0])])
        assert float(x_tick_labels(svg)[0]) == x and ">2</text>" in svg

    @pytest.mark.parametrize(
        "x, labels",
        [
            # six ticks 0.2 apart, which 6 significant digits print as
            # 123456 three times and 123457 three times
            ([123456.0, 123457.0],
             ["123456", "123456.2", "123456.4", "123456.6", "123456.8", "123457"]),
            # five ticks 2 apart, all 1e+16 at 6 digits
            ([1e16], [f"{1e16 + 2 * k:.17g}" for k in range(5)]),
        ],
    )
    def test_adjacent_tick_labels_differ(self, x, labels):
        assert x_tick_labels(line([("a", x, [2.0] * len(x))])) == labels

    def test_narrow_range_far_from_zero_ends(self):
        # a tick step of 0.2 is below half an ulp at 2**52: the tick loop
        # stops at the first tick instead of adding 0.2 forever
        svg = line([("a", [2.0**52, 2.0**52 + 1.0], [1.0, 2.0])])
        assert svg.count(">4.5036e+15</text>") == 1 and len(polylines(svg)) == 1

    def test_one_point_keeps_its_unit_range(self):
        svg = line([("a", [5.0], [2.0])])
        for label in ("5", "5.2", "6", "2", "3"):
            assert f">{label}</text>" in svg


class TestPolarPlot:
    # centre (330, 260), unit circle of radius 200, zero degrees up

    def test_radius_above_one_is_clipped_to_the_unit_circle(self):
        clipped = polylines(polar_plot_svg([("a", [0.0, 90.0], [2.0, 5.0])], title="t"))
        unit = polylines(polar_plot_svg([("a", [0.0, 90.0], [1.0, 1.0])], title="t"))
        assert clipped == unit == ["330.00,60.00 530.00,260.00"]

    def test_non_finite_samples_are_dropped_without_a_break(self):
        svg = polar_plot_svg(
            [("a", [0.0, 45.0, NAN, 90.0], [1.0, math.inf, 1.0, 1.0])], title="t"
        )
        assert polylines(svg) == ["330.00,60.00 530.00,260.00"]

    def test_one_finite_sample_draws_nothing(self):
        svg = polar_plot_svg([("a", [0.0, 90.0], [1.0, NAN])], title="t")
        assert polylines(svg) == []


def test_both_plots_share_the_document_frame():
    line_svg = line([("a", [0, 1], [0.0, 1.0])])
    polar_svg = polar_plot_svg([("a", [0.0, 90.0], [1.0, 0.5])], title="t")
    head = line_svg.split("\n")[:2]
    assert head[0].startswith("<svg ")
    assert head[1].startswith("<rect ") and 'fill="white"' in head[1]
    assert polar_svg.split("\n")[:2] == head
    for svg in (line_svg, polar_svg):
        assert svg.endswith("</svg>\n")
        assert svg.count("<svg") == svg.count("</svg>") == 1


def test_equal_inputs_give_equal_bytes():
    series = [("a", [0.0, 0.5, 1.0], [0.1, NAN, 0.3]), ("b", [0.0, 0.5, 1.0], [1.0, 2.0, 3.0])]
    assert line(series) == line([(label, list(x), list(y)) for label, x, y in series])
    polar = [("m", [0.0, 30.0, 60.0], [0.2, 0.9, 1.4])]
    assert polar_plot_svg(polar, title="t") == polar_plot_svg(list(polar), title="t")
