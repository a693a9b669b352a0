"""The three panel writers' bytes against csv.writer writing whole rows.

``write_panel``, ``write_indices`` and ``cli._write_plot`` format their own
rows. Each test builds a reference file here with
``csv.writer(handle, lineterminator="\\n")`` over whole rows, with each
writer's number formatting (``repr(v)`` for the panel and the indices,
``repr(float(v))`` for the plot data), and the writer's file must match it
byte for byte. Names carry every character the csv module quotes or might
quote, and years and values come as ``int`` subclasses and float
subclasses as well as plain numbers.

The pins use the standard library only, so the file can be run on any
supported Python without pytest: ``python tests/test_writer_parity.py``.
The property at the end runs when hypothesis is installed.
"""

import csv
import enum
import itertools
import sys
import tempfile
from pathlib import Path

from pubtfp.accounting import (
    INDEX_COLUMNS,
    PANEL_COLUMNS,
    PanelObservation,
    TfpIndexSeries,
    write_indices,
    write_panel,
)
from pubtfp.cli import PLOT_COLUMNS, _write_plot

NAMES = (
    "plain",
    "a,b",
    'say "hi"',
    '"',
    "two\nlines",
    "carriage\rreturn",
    "crlf\r\n",
    " leading space",
    "trailing space ",
    "Suomi–Åland ü 日本",
    "tab\there",
    "semi;colon",
    "colon:inside",
)


class LabelledYear(int):
    """A year whose str() is not int's, and whose format() is neither."""

    def __str__(self) -> str:
        return f"y{int(self)}"

    def __format__(self, spec: str) -> str:
        return f"formatted {int(self)}"


class Year(enum.IntEnum):
    # before Python 3.11, str() of a member gives 'Year.A' while format() gives '1995'
    A = 1995
    B = 1996


class Level(float):
    """A float subclass with its own repr, as numpy.float64 has."""

    def __repr__(self) -> str:
        return f"Level({float.__repr__(self)})"


YEARS = (
    (1995, 1996, 1997),
    (LabelledYear(1995), LabelledYear(1996)),
    (Year.A, Year.B),
)


def write_reference(path: Path, header, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def assert_same_bytes(write, items, header, reference_rows) -> None:
    with tempfile.TemporaryDirectory() as directory:
        actual, expected = Path(directory, "actual.csv"), Path(directory, "expected.csv")
        write(items, actual)
        write_reference(expected, header, reference_rows)
        assert actual.read_bytes() == expected.read_bytes()


def check_panel(observations) -> None:
    ordered = sorted(observations, key=lambda o: (o.country, o.industry, o.year))
    rows = [
        [
            o.year,
            o.country,
            o.industry,
            *(repr(getattr(o, name)) for name in PANEL_COLUMNS[3:]),
        ]
        for o in ordered
    ]
    assert_same_bytes(write_panel, observations, PANEL_COLUMNS, rows)


def check_indices(series) -> None:
    ordered = sorted(series, key=lambda s: (s.country, s.industry))
    rows = [
        [year, s.country, s.industry, repr(value)]
        for s in ordered
        for year, value in zip(s.years, s.values)
    ]
    assert_same_bytes(write_indices, series, INDEX_COLUMNS, rows)


def check_plot(series) -> None:
    ordered = sorted(series, key=lambda s: f"{s.country}:{s.industry}")
    rows = [
        [year, f"{s.country}:{s.industry}", repr(float(value))]
        for s in ordered
        for year, value in zip(s.years, s.values)
    ]
    assert_same_bytes(_write_plot, series, PLOT_COLUMNS, rows)


def observations_for(country: str, industry: str, years, start: float = 1.0):
    return [
        PanelObservation(
            year,
            country,
            industry,
            start * (1.0 + 0.1 * step),
            1.0 + step / 7.0,
            12.5 / (step + 3.0),
            3.0e-5 * (step + 1),
            0.3 + step / 1000.0,
            0.7 - step / 1000.0,
        )
        for step, year in enumerate(years)
    ]


def test_write_panel_matches_the_csv_module():
    observations = []
    for (country, industry), years in zip(itertools.product(NAMES, NAMES), itertools.cycle(YEARS)):
        observations += observations_for(country, industry, years, start=len(observations) + 0.5)
    check_panel(observations)


def test_write_panel_writes_renormalized_and_extreme_values_as_stored():
    rows = [
        PanelObservation(2000, "FI", "x,y", 5e-324, 5e-324, 1.7976931348623157e308, 1, 0.25, 0.7),
        PanelObservation(2001, "FI", "x,y", 1e16, 3, "2.5", 0.1, 1, 0),
        PanelObservation(LabelledYear(2002), "FI", "x,y", 1 / 3, 2 / 3, 1e-7, 1e22, 0.0, 1.0),
    ]
    check_panel(rows)


def index_series(country: str, industry: str, years, values) -> TfpIndexSeries:
    return TfpIndexSeries(
        country=country, industry=industry, base_year=years[0], years=years, values=values
    )


def all_series():
    value_kinds = (
        (100.0, 101.25, 0.1 + 0.2),
        (100, 97, 250),
        (Level(100.0), Level(99.5), Level(1e-300)),
        (100.0, Level(103.0), 7),
    )
    series = []
    names = [("", name) for name in NAMES] + list(zip(NAMES, reversed(NAMES)))
    for (country, industry), years, values in zip(
        names, itertools.cycle(YEARS), itertools.cycle(value_kinds)
    ):
        series.append(index_series(country, industry, years, values[: len(years)]))
    return series


def test_write_indices_matches_the_csv_module():
    check_indices(all_series())


def test_write_plot_matches_the_csv_module():
    check_plot(all_series())


def test_indices_keep_repr_and_plot_writes_floats():
    one = index_series("FI", "a,b", (1995, 1996, 1997), (100, Level(99.5), 1e-05))
    with tempfile.TemporaryDirectory() as directory:
        indices, plot = Path(directory, "indices.csv"), Path(directory, "plot.csv")
        write_indices([one], indices)
        _write_plot([one], plot)
        assert indices.read_text(encoding="utf-8").splitlines()[1:] == [
            '1995,FI,"a,b",100',
            '1996,FI,"a,b",Level(99.5)',
            '1997,FI,"a,b",1e-05',
        ]
        assert plot.read_text(encoding="utf-8").splitlines()[1:] == [
            '1995,"FI:a,b",100.0',
            '1996,"FI:a,b",99.5',
            '1997,"FI:a,b",1e-05',
        ]


def test_a_name_with_a_line_break_is_quoted():
    one = index_series("FI", "a\nb", (1995,), (100.0,))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "indices.csv")
        write_indices([one], path)
        assert path.read_bytes() == b'year,country,industry,tfp_index\n1995,FI,"a\nb",100.0\n'


def test_empty_input_writes_only_the_header():
    check_panel([])
    check_indices([])
    check_plot([])


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the pins above need only the standard library
    given = None

if given is not None:
    names = st.text(min_size=1, max_size=12)
    positive = st.floats(min_value=1e-300, max_value=1e300)
    shares = st.floats(min_value=0.01, max_value=1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(names, names, st.lists(positive, min_size=1, max_size=4), shares),
            min_size=1,
            max_size=5,
            unique_by=lambda entry: entry[:2],
        )
    )
    def test_random_names_and_floats_match_the_csv_module(entries):
        observations, series = [], []
        for country, industry, values, share in entries:
            years = tuple(range(2000, 2000 + len(values)))
            observations += [
                PanelObservation(year, country, industry, v, 2.0, v, v, share, 1.0 - share)
                for year, v in zip(years, values)
            ]
            series.append(index_series(country, industry, years, (100.0, *values[1:])))
        check_panel(observations)
        check_indices(series)
        check_plot(series)


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} checks passed on Python {sys.version.split()[0]}")
