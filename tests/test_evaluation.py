from __future__ import annotations

import random
from decimal import Decimal, localcontext

import pytest

from attestrep.evaluation import (
    CsvParseError,
    EmptyInput,
    InvariantViolation,
    aggregate,
    ingest_csv,
    load_fixture,
    render_text,
)
from oracles import spreadsheet_aggregate

HEADER = "provider,paper_id,status,cost_usd,runtime_minutes,department,language\n"


def _fraction_to_decimal(value) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 28
        return (Decimal(value.numerator) / Decimal(value.denominator)).quantize(Decimal("0.0001"))


class TestIngest:
    def test_single_row(self) -> None:
        records = ingest_csv(
            (HEADER + "Google,10.1287/mnsc.2022.4628,Success,3.02,120,Accounting,Stata 18\n").encode()
        )
        assert len(records) == 1
        record = records[0]
        assert record.provider == "Google"
        assert record.cost_usd == Decimal("3.02")
        assert record.runtime_minutes == Decimal("120")
        assert record.language == "Stata 18"
        assert record.row == 2

    def test_success_without_cost_rejected(self) -> None:
        with pytest.raises(InvariantViolation) as excinfo:
            ingest_csv((HEADER + "Google,10.1/x,Success,,120,Econ,R\n").encode())
        assert excinfo.value.field == "cost_usd"
        assert excinfo.value.row == 2

    def test_fail_row_may_omit_everything(self) -> None:
        records = ingest_csv((HEADER + "Azure,10.1/x,Fail,,,,\n").encode())
        assert records[0].cost_usd is None
        assert records[0].runtime_minutes is None

    def test_empty_after_header(self) -> None:
        assert ingest_csv(HEADER.encode()) == []

    def test_bad_header(self) -> None:
        with pytest.raises(CsvParseError):
            ingest_csv(b"who,what\n")

    def test_empty_input(self) -> None:
        with pytest.raises(CsvParseError):
            ingest_csv(b"")

    def test_wrong_field_count(self) -> None:
        with pytest.raises(CsvParseError) as excinfo:
            ingest_csv((HEADER + "Google,10.1/x,Success,3.02\n").encode())
        assert excinfo.value.row == 2

    def test_unknown_provider(self) -> None:
        with pytest.raises(InvariantViolation):
            ingest_csv((HEADER + "AWS,10.1/x,Success,1.00,10,Econ,R\n").encode())

    def test_bad_status(self) -> None:
        with pytest.raises(InvariantViolation):
            ingest_csv((HEADER + "Google,10.1/x,Maybe,1.00,10,Econ,R\n").encode())

    def test_negative_cost(self) -> None:
        with pytest.raises(InvariantViolation):
            ingest_csv((HEADER + "Google,10.1/x,Success,-1.00,10,Econ,R\n").encode())


class TestFixtureAggregates:
    def test_cost_ranges_match_published_extremes(self) -> None:
        report = aggregate(ingest_csv(load_fixture()))
        assert report.providers["Google"].cost_min == Decimal("0.27")
        assert report.providers["Google"].cost_max == Decimal("7.69")
        assert report.providers["Azure"].cost_min == Decimal("0.22")
        assert report.providers["Azure"].cost_max == Decimal("3.21")

    def test_counts(self) -> None:
        report = aggregate(ingest_csv(load_fixture()))
        assert report.providers["Google"].success_count == 15
        assert report.providers["Azure"].success_count == 10
        assert report.providers["Google"].fail_count == 5
        assert report.providers["Azure"].fail_count == 4

    def test_all_statistics_match_independent_oracle(self) -> None:
        data = load_fixture()
        report = aggregate(ingest_csv(data))
        oracle = spreadsheet_aggregate(data)
        for name, stats in report.providers.items():
            expected = oracle["providers"][name]
            assert stats.success_count == expected["success_count"]
            assert stats.fail_count == expected["fail_count"]
            assert stats.success_rate == _fraction_to_decimal(expected["success_rate"])
            assert stats.cost_min == expected["cost_min"]
            assert stats.cost_max == expected["cost_max"]
            assert stats.cost_mean == _fraction_to_decimal(expected["cost_mean"])
            assert stats.runtime_mean_hours == _fraction_to_decimal(expected["runtime_mean_hours"])
        assert report.runtime_mean_hours == _fraction_to_decimal(oracle["overall_runtime_mean_hours"])

    def test_overhead_carried_as_metadata(self) -> None:
        report = aggregate(ingest_csv(load_fixture()))
        assert report.to_dict()["overhead_pct_range"] == [7, 12]

    def test_annotations_present_and_distinct_from_computed(self) -> None:
        report = aggregate(ingest_csv(load_fixture()))
        annotations = report.to_dict()["annotations"]
        assert annotations["reported_full_pilot_cost_mean_usd"] == {"Google": "1.80", "Azure": "1.35"}
        assert annotations["reported_full_pilot_success_rate"] == {"Google": "0.68", "Azure": "0.95"}
        # batch statistics are computed, not copied from the reported values
        assert str(report.providers["Google"].cost_mean) != "1.80"


class TestAggregateProperties:
    def test_permutation_invariance(self) -> None:
        records = ingest_csv(load_fixture())
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        assert aggregate(records) == aggregate(shuffled)

    def test_dropping_fail_rows_keeps_cost_stats(self) -> None:
        records = ingest_csv(load_fixture())
        report = aggregate(records)
        no_fails = [record for record in records if record.succeeded]
        trimmed = aggregate(no_fails)
        for provider in report.providers:
            assert trimmed.providers[provider].cost_mean == report.providers[provider].cost_mean
            assert trimmed.providers[provider].cost_min == report.providers[provider].cost_min
            assert trimmed.providers[provider].cost_max == report.providers[provider].cost_max
            assert trimmed.providers[provider].fail_count == 0

    def test_dropping_success_row_keeps_fail_count(self) -> None:
        records = ingest_csv(load_fixture())
        report = aggregate(records)
        victim = next(record for record in records if record.succeeded)
        fewer = aggregate([record for record in records if record is not victim])
        for provider in report.providers:
            assert fewer.providers[provider].fail_count == report.providers[provider].fail_count

    def test_determinism(self) -> None:
        records = ingest_csv(load_fixture())
        assert aggregate(records) == aggregate(records)

    def test_empty_rejected(self) -> None:
        with pytest.raises(EmptyInput):
            aggregate([])

    def test_provider_with_only_failures_reports_no_cost_stats(self) -> None:
        records = ingest_csv(
            (
                HEADER
                + "Google,10.1/a,Fail,,,,\n"
                + "Azure,10.1/b,Success,1.50,30,Econ,R\n"
            ).encode()
        )
        report = aggregate(records)
        google = report.providers["Google"]
        assert google.success_count == 0 and google.fail_count == 1
        assert google.cost_mean is None and google.cost_min is None
        assert report.providers["Azure"].cost_mean == Decimal("1.5000")
        assert "-" in render_text(report)


def test_runtime_spread_labeled_both_ways() -> None:
    report = aggregate(ingest_csv(load_fixture()))
    assert report.runtime_std_hours > report.runtime_sem_hours > 0
    text = render_text(report)
    assert "sample std" in text
    assert "std error of mean" in text


def test_render_text_shows_ranges() -> None:
    text = render_text(aggregate(ingest_csv(load_fixture())))
    assert "$0.27" in text and "$7.69" in text
    assert "$0.22" in text and "$3.21" in text


def test_report_to_dict_is_json_clean() -> None:
    import json

    payload = aggregate(ingest_csv(load_fixture())).to_dict()
    assert json.loads(json.dumps(payload))["providers"]["Google"]["cost_min"] == "0.27"
