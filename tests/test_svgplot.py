"""The SVG plotter: polyline runs, polar clipping and the shared document frame."""

import math
import re

import pytest

from wdmlink.svgplot import line_plot_svg, polar_plot_svg

NAN = math.nan


def line(series):
    return line_plot_svg(series, xlabel="x", ylabel="y", title="t")


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
