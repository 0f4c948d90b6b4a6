"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines. Every test enforces its own wall-clock budget.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from contextlib import contextmanager
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from attestrep.archive import pack_tree
from attestrep.attestation import AttestationProvider, ProviderConfig
from attestrep.bundle import build_bundle, serialize_bundle
from attestrep.canonical import canonical_json_bytes
from attestrep.cli import main
from attestrep.economics import (
    AdoptionParams,
    ComplianceParams,
    Regime,
    StringencyParams,
    adoption,
    complies,
    min_sanction,
    stringency_optimum,
)
from attestrep.evaluation import aggregate, ingest_csv, load_fixture
from attestrep.package_model import PackageDigest, digest_package
from attestrep.portal.audit import audit_check
from attestrep.portal.core import Portal
from attestrep.portal.core import STATE_PROVED
from attestrep.runner import ExecutionRecord
from attestrep.verifier import DIGEST_MISMATCH, verify_bundle
from conftest import NOW, PROVIDER_SEED, make_package, run_package
from oracles import naive_tree_digest, spreadsheet_aggregate


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def test_criterion_1_adoption_calibration(capsys) -> None:
    with budget(1.0):
        code = main(["econ", "adopt", "--c-a", "1.57", "--c-j", "79", "--alpha", "0.08", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        tee_cost = Decimal(payload["tee_cost_per_submission"])
        ratio = Decimal(payload["ratio"])
        assert abs(tee_cost - Decimal("0.1256")) <= Decimal("0.0001")
        assert Decimal("600") <= ratio <= Decimal("660")
        assert payload["adopts"] is True
    print(f"\ncriterion 1 PASS: tee cost/submission {tee_cost}, ratio {ratio}")


def test_criterion_2_corollary_bound() -> None:
    with budget(1.0):
        bound = adoption(AdoptionParams("1.57", "79", "0.08")).alpha_bound
        assert Decimal("50") <= bound <= Decimal("51")
        rng = random.Random(0xA1FA)
        for _ in range(1000):
            alpha = rng.uniform(1e-9, 1.0)
            assert adoption(AdoptionParams("1.57", "79", repr(alpha))).adopts
    print(f"criterion 2 PASS: alpha bound {bound}, 1000 random acceptance rates all adopt")


def test_criterion_3_compliance_properties() -> None:
    rng = random.Random(0xC0111)
    with budget(5.0):
        for _ in range(10_000):
            B = rng.uniform(1e-3, 1e6)
            S = rng.uniform(1e-3, 1e6)
            p = rng.random()
            pi = rng.random()
            eps = rng.random()

            # (a) perfect attestation detection deters under any positive sanction
            zero_eps = ComplianceParams(B, S, p, pi, 0.0)
            assert complies(zero_eps, Regime.TEE)

            # (b) threshold consistency in both regimes
            params = ComplianceParams(B, S, p, pi, eps)
            for regime in (Regime.MANUAL, Regime.TEE):
                d = params.detection(regime)
                assert complies(params, regime) == (S >= min_sanction(B, d))

            # (c) monotonicity in sanction, scrutiny, and catch probability
            if complies(params, Regime.MANUAL):
                bigger_s = ComplianceParams(B, S * (1 + rng.random()), p, pi, eps)
                bigger_p = ComplianceParams(B, S, min(1.0, p + rng.random()), pi, eps)
                bigger_pi = ComplianceParams(B, S, p, min(1.0, pi + rng.random()), eps)
                assert complies(bigger_s, Regime.MANUAL)
                assert complies(bigger_p, Regime.MANUAL)
                assert complies(bigger_pi, Regime.MANUAL)
    print("criterion 3 PASS: 10000 random parameter draws, 0 violations")


def test_criterion_4_trial_table_aggregates() -> None:
    with budget(1.0):
        data = load_fixture()
        report = aggregate(ingest_csv(data))
        assert report.providers["Google"].cost_min == Decimal("0.27")
        assert report.providers["Google"].cost_max == Decimal("7.69")
        assert report.providers["Azure"].cost_min == Decimal("0.22")
        assert report.providers["Azure"].cost_max == Decimal("3.21")

        oracle = spreadsheet_aggregate(data)

        def as_decimal(fraction) -> Decimal:
            with localcontext() as ctx:
                ctx.prec = 28
                return (Decimal(fraction.numerator) / Decimal(fraction.denominator)).quantize(
                    Decimal("0.0001")
                )

        for name, stats in report.providers.items():
            expected = oracle["providers"][name]
            assert stats.success_count == expected["success_count"]
            assert stats.fail_count == expected["fail_count"]
            assert stats.success_rate == as_decimal(expected["success_rate"])
            assert stats.cost_min == expected["cost_min"]
            assert stats.cost_max == expected["cost_max"]
            assert stats.cost_mean == as_decimal(expected["cost_mean"])
            assert stats.runtime_mean_hours == as_decimal(expected["runtime_mean_hours"])
        assert report.runtime_mean_hours == as_decimal(oracle["overall_runtime_mean_hours"])
    print("criterion 4 PASS: cost ranges [0.27, 7.69] / [0.22, 3.21], all statistics equal the oracle")


def test_criterion_5_tamper_evidence(tmp_path: Path) -> None:
    package = make_package(tmp_path / "answer42")
    provider = AttestationProvider(ProviderConfig(root_secret_seed=PROVIDER_SEED), now=NOW - 3600)
    record = run_package(package, tmp_path / "work")
    data = serialize_bundle(build_bundle(record, provider, now=NOW))
    roots = [provider.root_public_key]
    assert verify_bundle(data, roots, now=NOW).accepted

    rng = random.Random(0x7A3B)
    mutations = 2000
    with budget(30.0):
        accepted = 0
        for _ in range(mutations):
            corrupted = bytearray(data)
            pos = rng.randrange(len(corrupted))
            new = rng.randrange(256)
            while new == corrupted[pos]:
                new = rng.randrange(256)
            corrupted[pos] = new
            if verify_bundle(bytes(corrupted), roots, now=NOW).accepted:
                accepted += 1
        assert accepted == 0
    assert verify_bundle(data, roots, now=NOW).accepted
    print(f"criterion 5 PASS: {mutations} single-byte mutations, 0 accepted; original still accepts")


def test_criterion_6_millisecond_verification(tmp_path: Path) -> None:
    # 100 MB package tree; the bundle only carries digests, so verification
    # time must not depend on the size.
    big = tmp_path / "big"
    big.mkdir()
    rng = random.Random(0xB16)
    chunk = rng.randbytes(1 << 20)
    for i in range(4):
        (big / f"data{i}.bin").write_bytes(chunk * 25)  # 4 x 25 MiB
    package_digest = digest_package(big)
    assert package_digest.total_bytes == 100 * (1 << 20)

    provider = AttestationProvider(ProviderConfig(root_secret_seed=PROVIDER_SEED), now=NOW - 3600)
    record = ExecutionRecord(
        package_digest=package_digest,
        output_digest=PackageDigest(value=b"\x07" * 32, file_count=1, total_bytes=64),
        exit_status=0,
        wall_seconds=12.5,
        stdout_log_digest=b"\x08" * 32,
        stderr_log_digest=b"\x09" * 32,
        started_at=NOW - 100,
        finished_at=NOW - 80,
        nonce=b"\x0a" * 32,
    )
    data = serialize_bundle(build_bundle(record, provider, now=NOW))
    roots = [provider.root_public_key]

    timings = []
    for _ in range(100):
        start = time.perf_counter()
        verdict = verify_bundle(data, roots, now=NOW)
        timings.append(time.perf_counter() - start)
        assert verdict.accepted
    median = statistics.median(timings)
    assert median < 0.010, f"median verify time {median * 1000:.2f} ms"
    print(f"criterion 6 PASS: median verify {median * 1000:.2f} ms over 100 runs on a 100 MB package")


def test_criterion_7_end_to_end_workflow(tmp_path: Path, capsys) -> None:
    with budget(5.0):
        package = make_package(tmp_path / "answer42")
        archive_path = tmp_path / "answer42.tar"
        assert main(["pack", str(package), "-o", str(archive_path)]) == 0
        capsys.readouterr()

        portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED)
        submission = portal.submit(archive_path.read_bytes(), author_id="acceptance")
        done = portal.process(submission.submission_id)
        assert done.state == STATE_PROVED

        result = portal.public_verify(done.token)
        assert result.verdict.accepted

        blob_path = portal.blobs.path(done.archive_blob)
        corrupted = bytearray(blob_path.read_bytes())
        corrupted[random.Random(7).randrange(len(corrupted))] ^= 0x55
        blob_path.write_bytes(bytes(corrupted))

        rejected = portal.public_verify(done.token)
        assert not rejected.verdict.accepted
        assert rejected.verdict.reason == DIGEST_MISMATCH
    print("criterion 7 PASS: pack->submit->process->verify accepts; corrupted archive rejects")


def test_criterion_8_digest_oracle_equivalence(tmp_path: Path) -> None:
    rng = random.Random(0x0D15E)
    with budget(10.0):
        for i in range(100):
            tree = tmp_path / f"tree{i}"
            tree.mkdir()
            for j in range(rng.randint(1, 20)):
                depth = rng.randint(0, 3)
                parts = [f"d{rng.randint(0, 3)}" for _ in range(depth)] + [f"f{j}.bin"]
                target = tree.joinpath(*parts)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(rng.randbytes(rng.randint(0, 4096)))
            assert digest_package(tree).value.hex() == naive_tree_digest(str(tree))
    print("criterion 8 PASS: 100 random trees, digest equals the independent oracle")


def test_criterion_9_audit_chain(tmp_path: Path) -> None:
    with budget(10.0):
        portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED)
        tokens: list[str] = []
        operations = 0
        rng = random.Random(0xAD17)

        for i in range(45):
            package = make_package(tmp_path / f"pkg{i}", extra_files={"data.txt": f"{i}\n"})
            submission = portal.submit(pack_tree(package), author_id=f"author-{i % 7}")
            operations += 1
            done = portal.process(submission.submission_id)
            operations += 1
            if done.state == STATE_PROVED:
                tokens.append(done.token)
        while operations < 500:
            portal.public_verify(rng.choice(tokens))
            operations += 1

        assert operations == 500
        check = portal.audit_check()
        assert check.ok
        entries = portal.audit_entries()
        assert len(entries) >= 500

        log_bytes = portal.audit_log.path.read_bytes()
        lines = log_bytes.splitlines(keepends=True)
        scratch = tmp_path / "audit-mutated.log"
        for seq in rng.sample(range(len(lines)), 20):
            obj = json.loads(lines[seq])
            obj["event"]["at"] = (obj["event"].get("at") or 0) + 1
            mutated = lines[:]
            mutated[seq] = canonical_json_bytes(obj) + b"\n"
            scratch.write_bytes(b"".join(mutated))
            verdict = audit_check(scratch)
            assert not verdict.ok
            assert verdict.broken_at == seq
    print(f"criterion 9 PASS: 500 operations, {len(entries)} chained entries, 20 mutations localized")


def test_criterion_10_stringency_model() -> None:
    with budget(1.0):
        manual = stringency_optimum(StringencyParams(cost_scale=1, cost_exponent=2, benefit_slope=1))
        assert manual.v_star == 0.5
        assert manual.regime == "manual"

        with_tee = stringency_optimum(
            StringencyParams(cost_scale=1, cost_exponent=2, benefit_slope=1),
            tee_cost="0.01",
        )
        assert with_tee.v_star == 1.0
        assert with_tee.regime == "tee"
        assert with_tee.regime_cost == pytest.approx(0.01)
    print("criterion 10 PASS: manual optimum 0.5 exactly; attestation moves it to 1.0")
