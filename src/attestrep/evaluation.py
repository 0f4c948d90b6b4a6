"""Ingest pilot trial records and compute descriptive statistics.

Input is a CSV of per-package execution trials on confidential-VM
providers: who ran it, whether it finished, what it cost, how long it took.
The aggregate report gives per-provider success rates and cost/runtime
statistics in exact decimal arithmetic, so identical input bytes always
produce identical figures.

The bundled ``fixtures/mnsc_vol70_batch1.csv`` transcribes the first
published batch of trials. Headline figures reported for the *full* pilot
(mean cost, first-run success rates, isolation overhead) are carried as
annotations next to the computed batch statistics, never mixed into them.
"""

from __future__ import annotations

import csv
import importlib.resources
import io
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext

from attestrep import AttestrepError

PROVIDERS = ("Azure", "Google")
FIXTURE_NAME = "mnsc_vol70_batch1.csv"

_COLUMNS = ("provider", "paper_id", "status", "cost_usd", "runtime_minutes", "department", "language")
_PLACES4 = Decimal("0.0001")

# Figures quoted by the full pilot study this batch belongs to; displayed
# beside computed values for comparison, never substituted for them.
REPORTED_FULL_PILOT = {
    "cost_mean_usd": {"Google": Decimal("1.80"), "Azure": Decimal("1.35")},
    "first_run_success_rate": {"Google": Decimal("0.68"), "Azure": Decimal("0.95")},
    "isolation_overhead_pct_range": (7, 12),
}


class EvaluationError(AttestrepError):
    """Base class for trial-data ingestion and aggregation failures."""


class CsvParseError(EvaluationError):
    def __init__(self, row: int, reason: str) -> None:
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class InvariantViolation(EvaluationError):
    def __init__(self, row: int, field_name: str, reason: str) -> None:
        super().__init__(f"row {row}, field {field_name}: {reason}")
        self.row = row
        self.field = field_name


class EmptyInput(EvaluationError):
    def __init__(self) -> None:
        super().__init__("no records to aggregate")


@dataclass(frozen=True)
class EvaluationRecord:
    """One trial: a single package executed once on one provider."""

    provider: str
    paper_id: str
    status: str
    cost_usd: Decimal | None
    runtime_minutes: Decimal | None
    department: str
    language: str
    row: int = 0

    @property
    def succeeded(self) -> bool:
        return self.status == "Success"


@dataclass(frozen=True)
class ProviderStats:
    success_count: int
    fail_count: int
    success_rate: Decimal
    cost_mean: Decimal | None
    cost_min: Decimal | None
    cost_max: Decimal | None
    runtime_mean_hours: Decimal | None

    def to_dict(self) -> dict:
        def text(value: Decimal | None) -> str | None:
            return None if value is None else str(value)

        return {
            "success_count": self.success_count,
            "fail_count": self.fail_count,
            "success_rate": str(self.success_rate),
            "cost_mean": text(self.cost_mean),
            "cost_min": text(self.cost_min),
            "cost_max": text(self.cost_max),
            "runtime_mean_hours": text(self.runtime_mean_hours),
        }


@dataclass(frozen=True)
class AggregateReport:
    providers: dict[str, ProviderStats]
    runtime_mean_hours: Decimal | None
    runtime_std_hours: Decimal | None
    runtime_sem_hours: Decimal | None

    def to_dict(self) -> dict:
        """The computed statistics, then the full pilot's reported figures, which the report only carries."""
        def text(value: Decimal | None) -> str | None:
            return None if value is None else str(value)

        return {
            "providers": {name: stats.to_dict() for name, stats in sorted(self.providers.items())},
            "runtime_mean_hours": text(self.runtime_mean_hours),
            "runtime_std_hours": text(self.runtime_std_hours),
            "runtime_sem_hours": text(self.runtime_sem_hours),
            "overhead_pct_range": list(REPORTED_FULL_PILOT["isolation_overhead_pct_range"]),
            "annotations": {
                "reported_full_pilot_cost_mean_usd": {
                    name: str(value) for name, value in REPORTED_FULL_PILOT["cost_mean_usd"].items()
                },
                "reported_full_pilot_success_rate": {
                    name: str(value) for name, value in REPORTED_FULL_PILOT["first_run_success_rate"].items()
                },
                "note": "reported values cover the full pilot; computed statistics cover this batch only",
            },
        }


def load_fixture() -> bytes:
    """The bundled first-batch trial CSV."""
    return importlib.resources.files("attestrep.fixtures").joinpath(FIXTURE_NAME).read_bytes()


def _parse_decimal(raw: str, row: int, field_name: str) -> Decimal | None:
    text = raw.strip()
    if text == "":
        return None
    try:
        value = Decimal(text)
    except InvalidOperation as exc:
        raise InvariantViolation(row, field_name, f"not a decimal: {text!r}") from exc
    if value < 0:
        raise InvariantViolation(row, field_name, "must be non-negative")
    return value


def ingest_csv(data: bytes) -> list[EvaluationRecord]:
    """Parse and validate trial rows; row numbers count from the header as 1."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvParseError(0, f"not UTF-8: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError(0, "empty input, header row required") from None
    if tuple(h.strip() for h in header) != _COLUMNS:
        raise CsvParseError(1, f"header must be exactly {','.join(_COLUMNS)}")

    records: list[EvaluationRecord] = []
    for row_num, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != len(_COLUMNS):
            raise CsvParseError(row_num, f"expected {len(_COLUMNS)} fields, got {len(cells)}")
        provider, paper_id, status, cost_raw, runtime_raw, department, language = (
            cell.strip() for cell in cells
        )
        if provider not in PROVIDERS:
            raise InvariantViolation(row_num, "provider", f"unknown provider {provider!r}")
        if status not in ("Success", "Fail"):
            raise InvariantViolation(row_num, "status", f"must be Success or Fail, got {status!r}")
        if not paper_id:
            raise InvariantViolation(row_num, "paper_id", "must be non-empty")
        cost = _parse_decimal(cost_raw, row_num, "cost_usd")
        runtime = _parse_decimal(runtime_raw, row_num, "runtime_minutes")
        if status == "Success" and cost is None:
            raise InvariantViolation(row_num, "cost_usd", "Success rows must carry a cost")
        records.append(
            EvaluationRecord(
                provider=provider,
                paper_id=paper_id,
                status=status,
                cost_usd=cost,
                runtime_minutes=runtime,
                department=department,
                language=language,
                row=row_num,
            )
        )
    return records


def _mean(values: list[Decimal]) -> Decimal:
    return (sum(values, Decimal(0)) / Decimal(len(values))).quantize(_PLACES4)


def aggregate(records: list[EvaluationRecord]) -> AggregateReport:
    """Per-provider and overall statistics over a nonempty record list.

    Rows lacking a runtime are excluded from runtime statistics but still
    count toward cost statistics; Fail rows never affect cost statistics.
    """
    if not records:
        raise EmptyInput()

    providers: dict[str, ProviderStats] = {}
    all_runtime_hours: list[Decimal] = []
    for provider in sorted({record.provider for record in records}):
        mine = [record for record in records if record.provider == provider]
        successes = [record for record in mine if record.succeeded]
        fails = [record for record in mine if not record.succeeded]
        costs = [record.cost_usd for record in successes if record.cost_usd is not None]
        runtimes = [
            (record.runtime_minutes / Decimal(60))
            for record in successes
            if record.runtime_minutes is not None
        ]
        all_runtime_hours.extend(runtimes)
        providers[provider] = ProviderStats(
            success_count=len(successes),
            fail_count=len(fails),
            success_rate=(Decimal(len(successes)) / Decimal(len(mine))).quantize(_PLACES4),
            cost_mean=_mean(costs) if costs else None,
            cost_min=min(costs) if costs else None,
            cost_max=max(costs) if costs else None,
            runtime_mean_hours=_mean(runtimes) if runtimes else None,
        )

    if not all_runtime_hours:
        return AggregateReport(
            providers=providers,
            runtime_mean_hours=None,
            runtime_std_hours=None,
            runtime_sem_hours=None,
        )
    n = len(all_runtime_hours)
    mean_hours = sum(all_runtime_hours, Decimal(0)) / Decimal(n)
    if n > 1:
        with localcontext() as ctx:
            ctx.prec = 28
            variance = sum(((x - mean_hours) ** 2 for x in all_runtime_hours), Decimal(0)) / Decimal(n - 1)
            std = variance.sqrt()
            sem = std / Decimal(n).sqrt()
    else:
        std = sem = Decimal(0)

    return AggregateReport(
        providers=providers,
        runtime_mean_hours=mean_hours.quantize(_PLACES4),
        runtime_std_hours=std.quantize(_PLACES4),
        runtime_sem_hours=sem.quantize(_PLACES4),
    )


def render_text(report: AggregateReport) -> str:
    """Aligned-text rendering of an aggregate report."""

    def cell(value: Decimal | None, prefix: str = "") -> str:
        return "-" if value is None else f"{prefix}{value}"

    lines = ["provider  success  fail  rate    cost min/mean/max      runtime mean (h)"]
    for name, stats in sorted(report.providers.items()):
        lines.append(
            f"{name:<8}  {stats.success_count:>7}  {stats.fail_count:>4}  {stats.success_rate}"
            f"  {cell(stats.cost_min, '$')} / {cell(stats.cost_mean, '$')} / {cell(stats.cost_max, '$')}"
            f"  {cell(stats.runtime_mean_hours)}"
        )
    lines.append("")
    lines.append(
        f"overall runtime: mean {cell(report.runtime_mean_hours)} h,"
        f" sample std {cell(report.runtime_std_hours)} h,"
        f" std error of mean {cell(report.runtime_sem_hours)} h"
    )
    low, high = REPORTED_FULL_PILOT["isolation_overhead_pct_range"]
    lines.append(f"isolation overhead (reported, not computed): {low}-{high}%")
    lines.append(
        "reported full-pilot means: "
        + ", ".join(f"{k} ${v}" for k, v in sorted(REPORTED_FULL_PILOT["cost_mean_usd"].items()))
        + " | reported success rates: "
        + ", ".join(f"{k} {v}" for k, v in sorted(REPORTED_FULL_PILOT["first_run_success_rate"].items()))
    )
    return "\n".join(lines)
