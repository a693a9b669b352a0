import logging
import math
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubtfp.accounting import (
    INDEX_COLUMNS,
    PANEL_COLUMNS,
    PanelObservation,
    SimulationSpec,
    TfpIndexSeries,
    build_index,
    build_indices,
    deflate,
    ingest_panel,
    simulate_sna_panel,
    tornqvist_tfp_growth,
    write_indices,
    write_panel,
)
from pubtfp.errors import (
    InvalidParameterError,
    MissingBaseYearError,
    PanelSchemaError,
    SeriesError,
)
from pubtfp.technology import Ces, CobbDouglas


def obs(year, va=1.0, deflator=1.0, k=1.0, labor=1.0, labor_share=0.6,
        capital_share=0.4, country="AA", industry="edu"):
    return PanelObservation(
        year=year, country=country, industry=industry, va_nominal=va,
        va_deflator=deflator, capital_services=k, labor_input=labor,
        labor_share=labor_share, capital_share=capital_share,
    )


class TestDeflate:
    def test_divides_by_the_deflator(self):
        assert deflate(110.0, 1.1) == pytest.approx(100.0, rel=1e-12)
        assert deflate(100.0, 1.0) == 100.0
        assert deflate(250.0, 1.25) == 200.0

    @pytest.mark.parametrize("deflator", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_deflators(self, deflator):
        with pytest.raises(InvalidParameterError):
            deflate(100.0, deflator)


class TestPanelObservation:
    def test_real_value_added_and_key(self):
        row = obs(2001, va=121.0, deflator=1.1, country="FI", industry="health")
        assert row.real_value_added == pytest.approx(110.0, rel=1e-12)
        assert row.key == ("FI", "health")

    def test_rounded_shares_are_renormalized_with_a_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="pubtfp.accounting"):
            row = obs(2001, labor_share=0.7, capital_share=0.31)
        assert "renormalizing" in caplog.text
        assert row.labor_share == pytest.approx(0.7 / 1.01, rel=1e-12)
        assert row.capital_share == pytest.approx(0.31 / 1.01, rel=1e-12)
        assert row.labor_share + row.capital_share == pytest.approx(1.0, rel=1e-12)

    def test_shares_within_tolerance_are_kept_as_given(self, caplog):
        with caplog.at_level(logging.WARNING, logger="pubtfp.accounting"):
            row = obs(2001, labor_share=0.6, capital_share=0.4 + 5e-7)
        assert caplog.text == ""
        assert row.capital_share == 0.4 + 5e-7

    def test_single_factor_shares_are_legal(self):
        row = obs(2001, labor_share=1.0, capital_share=0.0)
        assert row.capital_share == 0.0

    @pytest.mark.parametrize("labor_share,capital_share", [(-0.1, 1.1), (1.2, 0.0), (0.0, 0.0)])
    def test_out_of_range_shares_rejected(self, labor_share, capital_share):
        with pytest.raises(InvalidParameterError):
            obs(2001, labor_share=labor_share, capital_share=capital_share)

    def test_field_validation(self):
        with pytest.raises(InvalidParameterError):
            obs("2001")
        with pytest.raises(InvalidParameterError):
            obs(True)
        with pytest.raises(InvalidParameterError):
            obs(2001, country="")
        with pytest.raises(InvalidParameterError):
            obs(2001, va=0.0)
        with pytest.raises(InvalidParameterError):
            obs(2001, deflator=-1.0)


    def test_panel_columns_are_the_fields_in_order(self):
        assert PANEL_COLUMNS == (
            "year", "country", "industry", "va_nominal", "va_deflator", "capital_services",
            "labor_input", "labor_share", "capital_share",
        )
        assert PANEL_COLUMNS == tuple(f.name for f in fields(PanelObservation))

class TestTornqvistGrowth:
    def test_no_growth_means_zero(self):
        assert tornqvist_tfp_growth(obs(2000), obs(2001)) == 0.0

    def test_balanced_input_growth_collapses_the_shares(self):
        # ln(1.02) - ln(1.01), whatever the shares
        grown = obs(2001, va=1.02, k=1.01, labor=1.01)
        assert tornqvist_tfp_growth(obs(2000), grown) == pytest.approx(
            0.009852296443011638, rel=1e-12
        )
        lopsided = obs(2001, va=1.02, k=1.01, labor=1.01, labor_share=0.9, capital_share=0.1)
        assert tornqvist_tfp_growth(
            obs(2000, labor_share=0.9, capital_share=0.1), lopsided
        ) == pytest.approx(0.009852296443011638, rel=1e-12)

    def test_weighted_input_growth(self):
        # ln(1.03) - 0.4 ln(1.04) - 0.6 ln(1.01)
        grown = obs(2001, va=1.03, k=1.04, labor=1.01)
        assert tornqvist_tfp_growth(obs(2000), grown) == pytest.approx(
            0.00790031846833104, rel=1e-12
        )

    def test_uses_two_period_average_shares(self):
        prev = obs(2000, labor_share=0.5, capital_share=0.5)
        curr = obs(2001, va=1.0, k=2.0, labor=1.0, labor_share=0.7, capital_share=0.3)
        expected = -0.5 * (0.5 + 0.3) * math.log(2.0)
        assert tornqvist_tfp_growth(prev, curr) == pytest.approx(expected, rel=1e-12)

    def test_deflators_enter_through_real_value_added(self):
        curr = obs(2001, va=1.05, deflator=1.05)
        assert tornqvist_tfp_growth(obs(2000), curr) == pytest.approx(0.0, abs=1e-15)

    def test_series_and_order_guards(self):
        with pytest.raises(SeriesError):
            tornqvist_tfp_growth(obs(2000), obs(2001, country="BB"))
        with pytest.raises(SeriesError):
            tornqvist_tfp_growth(obs(2001), obs(2001))
        with pytest.raises(SeriesError):
            tornqvist_tfp_growth(obs(2002), obs(2001))


class TestBuildIndex:
    def test_flat_series_is_all_hundreds(self):
        series = build_index([obs(1995), obs(1996), obs(1997)], 1995)
        assert series.values == (100.0, 100.0, 100.0)
        assert series.years == (1995, 1996, 1997)
        assert series.base_year == 1995

    def test_two_percent_decline(self):
        series = build_index([obs(1995), obs(1996, va=0.98)], 1995)
        assert series.values[0] == 100.0
        assert series.values[1] == pytest.approx(98.0, rel=1e-12)

    def test_base_year_in_the_middle(self):
        series = build_index([obs(1995, va=1.0), obs(1996, va=1.1), obs(1997, va=1.21)], 1996)
        assert series.value_at(1996) == 100.0
        assert series.value_at(1995) == pytest.approx(100.0 / 1.1, rel=1e-12)
        assert series.value_at(1997) == pytest.approx(110.0, rel=1e-12)

    def test_accepts_unsorted_input(self):
        series = build_index([obs(1997), obs(1995), obs(1996)], 1995)
        assert series.years == (1995, 1996, 1997)

    def test_series_integrity_guards(self):
        with pytest.raises(SeriesError, match="empty"):
            build_index([], 1995)
        with pytest.raises(SeriesError, match="duplicate"):
            build_index([obs(1995), obs(1995)], 1995)
        with pytest.raises(SeriesError, match="gap"):
            build_index([obs(1995), obs(1997)], 1995)
        with pytest.raises(SeriesError, match="multiple series"):
            build_index([obs(1995), obs(1996, country="BB")], 1995)
        with pytest.raises(MissingBaseYearError):
            build_index([obs(1995), obs(1996)], 1990)


class TestTfpIndexSeries:
    series = TfpIndexSeries(
        country="AA", industry="edu", base_year=1995,
        years=(1995, 1996, 1997), values=(100.0, 98.0, 96.04),
    )

    def test_points_and_value_at(self):
        assert self.series.points == ((1995, 100.0), (1996, 98.0), (1997, 96.04))
        assert self.series.value_at(1997) == 96.04
        with pytest.raises(SeriesError):
            self.series.value_at(1990)

    def test_rebasing_preserves_the_trajectory(self):
        moved = self.series.rebased(1996)
        assert moved.base_year == 1996
        assert moved.value_at(1996) == 100.0
        for year in self.series.years:
            ratio_old = self.series.value_at(year) / self.series.value_at(1995)
            ratio_new = moved.value_at(year) / moved.value_at(1995)
            assert ratio_new == pytest.approx(ratio_old, rel=1e-12)

    def test_constructor_guards(self):
        with pytest.raises(SeriesError):
            TfpIndexSeries("AA", "edu", 1995, (1995, 1996), (100.0,))
        with pytest.raises(SeriesError):
            TfpIndexSeries("AA", "edu", 1995, (1995, 1996), (100.0, -1.0))
        with pytest.raises(MissingBaseYearError):
            TfpIndexSeries("AA", "edu", 1990, (1995, 1996), (100.0, 98.0))
        with pytest.raises(SeriesError, match="100 exactly"):
            TfpIndexSeries("AA", "edu", 1995, (1995, 1996), (100.0001, 98.0))

    @pytest.mark.parametrize(
        "values",
        [(Fraction(100), Fraction(201, 2)), (Decimal(100), Decimal("100.5")), (100.0, "100.5")],
    )
    def test_values_must_be_int_or_float(self, values):
        # write_indices prints each value with repr(), which only int and float keep numeric
        with pytest.raises(SeriesError, match="index values must be int or float, got "):
            TfpIndexSeries("FI", "public", 1995, (1995, 1996), values)


class TestBuildIndices:
    def test_groups_by_country_and_industry(self):
        rows = [
            obs(1995), obs(1996, va=0.98),
            obs(1995, country="BB"), obs(1996, va=1.02, country="BB"),
            obs(1995, industry="health"), obs(1996, industry="health"),
        ]
        indices = build_indices(rows, 1995)
        assert sorted(indices) == [("AA", "edu"), ("AA", "health"), ("BB", "edu")]
        assert indices[("AA", "edu")].value_at(1996) == pytest.approx(98.0, rel=1e-12)
        assert indices[("BB", "edu")].value_at(1996) == pytest.approx(102.0, rel=1e-12)
        assert indices[("AA", "health")].value_at(1996) == 100.0

    def test_every_failing_series_is_named_in_key_order(self):
        rows = [
            obs(1995, country="UK"), obs(1997, country="UK"),  # a gap
            obs(1995), obs(1996),
            obs(1996, country="FI"), obs(1997, country="FI"),  # no base year
        ]
        with pytest.raises(SeriesError) as info:
            build_indices(rows, 1995)
        assert type(info.value) is SeriesError
        assert str(info.value) == (
            "2 series failed: base year 1995 is outside the series range 1996..1997 in "
            "('FI', 'edu'); gap in series ('UK', 'edu'): year 1995 is followed by 1997"
        )

    def test_one_failing_series_keeps_its_error(self):
        with pytest.raises(MissingBaseYearError) as info:
            build_indices([obs(1995), obs(1996), obs(1996, country="FI")], 1995)
        assert str(info.value) == (
            "base year 1995 is outside the series range 1996..1996 in ('FI', 'edu')"
        )


class TestPanelCsv:
    def test_round_trip(self, tmp_path):
        rows = [obs(1996, va=0.98), obs(1995), obs(1995, country="BB", va=3.5)]
        path = tmp_path / "panel.csv"
        write_panel(rows, path)
        back = ingest_panel(path)
        assert back == sorted(rows, key=lambda o: (o.country, o.industry, o.year))

    def test_header_first_line(self, tmp_path):
        path = tmp_path / "panel.csv"
        write_panel([obs(1995)], path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == ",".join(PANEL_COLUMNS)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("year,country,industry\n1995,AA,edu\n", encoding="utf-8")
        with pytest.raises(PanelSchemaError, match="missing columns"):
            ingest_panel(path)

    def test_problems_are_reported_together_with_line_numbers(self, tmp_path):
        header = ",".join(PANEL_COLUMNS)
        good = "1995,AA,edu,1.0,1.0,1.0,1.0,0.6,0.4"
        bad_number = "1996,AA,edu,abc,1.0,1.0,1.0,0.6,0.4"
        bad_share = "1997,AA,edu,1.0,1.0,1.0,1.0,1.6,0.4"
        path = tmp_path / "panel.csv"
        path.write_text("\n".join([header, good, bad_number, bad_share, ""]), encoding="utf-8")
        with pytest.raises(PanelSchemaError) as excinfo:
            ingest_panel(path)
        message = str(excinfo.value)
        assert "2 bad row(s)" in message
        assert "row 3" in message and "row 4" in message

    def test_duplicate_keys_rejected(self, tmp_path):
        header = ",".join(PANEL_COLUMNS)
        row = "1995,AA,edu,1.0,1.0,1.0,1.0,0.6,0.4"
        path = tmp_path / "panel.csv"
        path.write_text("\n".join([header, row, row, ""]), encoding="utf-8")
        with pytest.raises(PanelSchemaError, match="duplicate"):
            ingest_panel(path)

    def test_extra_columns_are_ignored(self, tmp_path):
        header = ",".join(PANEL_COLUMNS) + ",note"
        row = "1995,AA,edu,1.0,1.0,1.0,1.0,0.6,0.4,keep me"
        path = tmp_path / "panel.csv"
        path.write_text("\n".join([header, row, ""]), encoding="utf-8")
        assert len(ingest_panel(path)) == 1

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        header = ",".join(PANEL_COLUMNS)
        row = "1995,AA,edu,1.0,1.0,1.0,1.0,0.6,0.4"
        path = tmp_path / "panel.csv"
        path.write_text("\n".join([header, row, ""]), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert ingest_panel(path) == [obs(1995)]

    HEADER = ",".join(PANEL_COLUMNS)
    GOOD_ROW = "1995,AA,edu,1.0,1.0,1.0,1.0,0.6,0.4"

    @pytest.mark.parametrize(
        "header, lines, problems",
        [
            (HEADER, ["1995,AA,edu,,1.0,1.0,1.0,0.6,0.4"], ["row 2: empty or missing fields"]),
            (HEADER, ["1995,AA,edu,1.0,1.0"], ["row 2: empty or missing fields"]),
            (
                HEADER,
                ["1995.0,AA,edu,1.0,1.0,1.0,1.0,0.6,0.4"],
                ["row 2: year '1995.0' is not an integer"],
            ),
            (
                HEADER,
                ["1995,AA,edu,1.0,1.0,abc,1.0,0.6,0.4"],
                ["row 2: capital_services 'abc' is not a number"],
            ),
            (
                HEADER,
                ["1995,AA,edu,1.0,1.0,1.0,-2,0.6,0.4"],
                ["row 2: labor_input must be strictly positive, got -2.0"],
            ),
            (
                HEADER,
                ["1995,AA,edu,1.0,1.0,1.0,1.0,0.6,1.5"],
                ["row 2: capital_share must lie in [0, 1], got 1.5"],
            ),
            (
                HEADER,
                ["1995,AA,edu,1.0,1.0,1.0,1.0,0,0.0"],
                ["row 2: factor shares cannot both be zero"],
            ),
            (HEADER, [GOOD_ROW, GOOD_ROW], ["row 3: duplicate of row 2 for (1995, 'AA', 'edu')"]),
            (
                # the blank record is skipped without being counted
                HEADER,
                [GOOD_ROW, "", "1996,AA,edu,nan,1.0,1.0,1.0,0.6,0.4", "1997,AA,edu,1.0"],
                [
                    "row 3: va_nominal must be strictly positive, got nan",
                    "row 4: empty or missing fields",
                ],
            ),
            (
                # a repeated column is read from its last position
                HEADER + ",year",
                ["1995,AA,edu,1.0,1.0,1.0,1.0,0.6,0.4,19x5", "19x5,AA,edu,1.0,1.0,1.0,1.0,0.6,0.4,1996"],
                ["row 2: year '19x5' is not an integer"],
            ),
            (
                "\ufeffnote," + HEADER,
                ["x,1995,AA,edu,1.0,1.0,1.0,1.0,0.6,0.4", "y,1996,AA,edu,1.0,0.0,1.0,1.0,0.6,0.4"],
                ["row 3: va_deflator must be strictly positive, got 0.0"],
            ),
        ],
        ids=[
            "empty-cell", "short-row", "year", "not-a-number", "non-positive", "share-range",
            "zero-shares", "duplicate", "blank-line", "repeated-column", "bom-extra-column",
        ],
    )
    def test_exact_row_problem_texts(self, tmp_path, header, lines, problems):
        path = tmp_path / "panel.csv"
        path.write_text("\n".join([header, *lines, ""]), encoding="utf-8")
        with pytest.raises(PanelSchemaError) as excinfo:
            ingest_panel(path)
        assert str(excinfo.value) == (
            f"panel {path} has {len(problems)} bad row(s):\n" + "\n".join(problems)
        )

    def test_renormalization_warns_once_per_row(self, tmp_path, caplog):
        path = tmp_path / "panel.csv"
        rows = [
            "1995,AA,edu,1.0,1.0,1.0,1.0,0.7,0.31",
            "1996,AA,edu,1.0,1.0,1.0,1.0,0.6,0.4",
            "1997,AA,edu,1.0,1.0,1.0,1.0,0.61,0.4",
        ]
        path.write_text("\n".join([",".join(PANEL_COLUMNS), *rows, ""]), encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="pubtfp.accounting"):
            ingest_panel(path)
        assert [r.getMessage() for r in caplog.records] == [
            "factor shares for AA/edu/1995 sum to 1.010000000; renormalizing to 1",
            "factor shares for AA/edu/1997 sum to 1.010000000; renormalizing to 1",
        ]

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(",".join(PANEL_COLUMNS) + "\n", encoding="utf-8")
        with pytest.raises(PanelSchemaError, match="no data rows"):
            ingest_panel(path)

    def test_write_indices_format(self, tmp_path):
        series = TfpIndexSeries(
            country="AA", industry="edu", base_year=1995,
            years=(1995, 1996), values=(100.0, 98.0),
        )
        path = tmp_path / "index.csv"
        write_indices([series], path)
        assert path.read_text(encoding="utf-8") == (
            ",".join(INDEX_COLUMNS) + "\n"
            "1995,AA,edu,100.0\n"
            "1996,AA,edu,98.0\n"
        )


class TestSimulationSpec:
    def make(self, **overrides):
        base = dict(
            technology=CobbDouglas(alpha_capital=0.3, alpha_labor=0.7),
            levels=(1.0, 1.01),
            capital=(1.0, 1.0),
            labor=(1.0, 1.0),
            capital_price=(1.0, 1.0),
            wage=(1.0, 1.0),
            start_year=1995,
            convention="sna-cost",
        )
        base.update(overrides)
        return SimulationSpec(**base)

    def test_years_counts_the_path_length(self):
        assert self.make().years == 2
        assert self.make().country == "SIM"
        assert self.make().industry == "public"

    def test_validation(self):
        gross = CobbDouglas(alpha_capital=0.3, alpha_labor=0.4, alpha_intermediates=0.3)
        with pytest.raises(InvalidParameterError, match="value-added"):
            self.make(technology=gross)
        with pytest.raises(InvalidParameterError, match="convention"):
            self.make(convention="hedonic")
        with pytest.raises(InvalidParameterError, match="length"):
            self.make(capital=(1.0, 1.0, 1.0))
        with pytest.raises(InvalidParameterError, match="positive"):
            self.make(wage=(1.0, 0.0))
        with pytest.raises(InvalidParameterError, match="2 years"):
            self.make(
                levels=(1.0,), capital=(1.0,), labor=(1.0,),
                capital_price=(1.0,), wage=(1.0,),
            )
        with pytest.raises(InvalidParameterError, match="start_year"):
            self.make(start_year="1995")


class TestSimulatedPanels:
    def spec(self, convention, levels=(1.0, 1.01, 1.0201)):
        n = len(levels)
        return SimulationSpec(
            technology=CobbDouglas(alpha_capital=0.3, alpha_labor=0.7),
            levels=levels,
            capital=(1.0,) * n,
            labor=(1.0,) * n,
            capital_price=(1.0,) * n,
            wage=(1.0,) * n,
            start_year=1995,
            convention=convention,
        )

    def test_cost_convention_rows(self):
        rows = simulate_sna_panel(self.spec("sna-cost"))
        assert [r.year for r in rows] == [1995, 1996, 1997]
        assert all(r.va_nominal == 2.0 for r in rows)
        assert [r.va_deflator for r in rows] == [1.0, 1.01, 1.0201]
        assert all(r.labor_share == 0.5 and r.capital_share == 0.5 for r in rows)

    def test_cost_convention_index_declines_at_the_progress_rate(self):
        rows = simulate_sna_panel(self.spec("sna-cost"))
        series = build_index(rows, 1995)
        assert series.value_at(1996) == pytest.approx(100.0 / 1.01, rel=1e-12)
        assert series.value_at(1997) == pytest.approx(100.0 / 1.0201, rel=1e-12)

    def test_market_convention_shares_are_output_elasticities(self):
        rows = simulate_sna_panel(self.spec("market"))
        assert all(r.va_deflator == 1.0 for r in rows)
        for r in rows:
            assert r.capital_share == pytest.approx(0.3, rel=1e-12)
            assert r.labor_share == pytest.approx(0.7, rel=1e-12)

    def test_market_convention_recovers_the_true_path(self):
        levels = (1.0, 1.07, 0.95, 1.3)
        spec = SimulationSpec(
            technology=CobbDouglas(alpha_capital=0.3, alpha_labor=0.7),
            levels=levels,
            capital=(1.0, 1.4, 0.9, 2.0),
            labor=(1.0, 1.1, 1.2, 1.5),
            capital_price=(1.0,) * 4,
            wage=(1.0,) * 4,
            start_year=1995,
            convention="market",
        )
        series = build_index(simulate_sna_panel(spec), 1995)
        for year, level in zip((1995, 1996, 1997, 1998), levels):
            assert series.value_at(year) == pytest.approx(100.0 * level, rel=1e-10)

    def test_flat_technology_means_flat_indices_under_both_conventions(self):
        flat = (1.0, 1.0, 1.0)
        for convention in ("sna-cost", "market"):
            series = build_index(simulate_sna_panel(self.spec(convention, levels=flat)), 1995)
            assert series.values == (100.0, 100.0, 100.0)

    def test_works_for_other_value_added_families(self):
        spec = SimulationSpec(
            technology=Ces(capital_weight=0.4, substitution=-1.0),
            levels=(1.0, 1.05),
            capital=(1.0, 1.0),
            labor=(1.0, 1.0),
            capital_price=(1.0, 1.0),
            wage=(1.0, 1.0),
            start_year=1995,
            convention="market",
        )
        series = build_index(simulate_sna_panel(spec), 1995)
        assert series.value_at(1996) == pytest.approx(105.0, rel=1e-10)


POSITIVE = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def series_rows(draw):
    """2..12 consecutive rows of one series; shares may need renormalizing."""
    start = draw(st.integers(1980, 2000))
    rows = []
    for year in range(start, start + draw(st.integers(2, 12))):
        labor_share = draw(st.floats(min_value=0.01, max_value=1.0))
        capital_share = draw(
            st.one_of(st.just(1.0 - labor_share), st.floats(min_value=0.0, max_value=1.0))
        )
        rows.append(
            obs(
                year, va=draw(POSITIVE), deflator=draw(POSITIVE), k=draw(POSITIVE),
                labor=draw(POSITIVE), labor_share=labor_share, capital_share=capital_share,
            )
        )
    return rows


class TestOneTornqvistFormula:
    """build_index cumulates exactly tornqvist_tfp_growth, which is the textbook formula."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_index_is_the_cumulated_pairwise_growth(self, data):
        rows = data.draw(series_rows())
        base_year = data.draw(st.sampled_from([row.year for row in rows]))
        log_levels = [0.0]
        for earlier, later in zip(rows, rows[1:]):
            log_levels.append(log_levels[-1] + tornqvist_tfp_growth(earlier, later))
        base_log = log_levels[base_year - rows[0].year]
        expected = tuple(100.0 * math.exp(level - base_log) for level in log_levels)
        series = build_index(data.draw(st.permutations(rows)), base_year)
        assert series.values == expected
        assert series.years == tuple(row.year for row in rows)

    @settings(max_examples=200, deadline=None)
    @given(rows=series_rows())
    def test_pairwise_growth_is_the_two_period_mean_share_formula(self, rows):
        previous, current = rows[:2]
        expected = (
            (math.log(current.va_nominal / current.va_deflator)
             - math.log(previous.va_nominal / previous.va_deflator))
            - 0.5 * (previous.capital_share + current.capital_share)
            * (math.log(current.capital_services) - math.log(previous.capital_services))
            - 0.5 * (previous.labor_share + current.labor_share)
            * (math.log(current.labor_input) - math.log(previous.labor_input))
        )
        assert tornqvist_tfp_growth(previous, current) == expected
