from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from attestrep.cli import main
from attestrep.package_model import digest_package
from attestrep.portal import Portal, make_server
from conftest import PROVIDER_SEED, make_package

SEED_HEX = PROVIDER_SEED.hex()
OTHER_SEED_HEX = ("02" * 32)


def _json_out(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


@pytest.fixture
def answer42(tmp_path: Path) -> Path:
    return make_package(tmp_path / "answer42")


def _attest(answer42: Path, tmp_path: Path, capsys, seed_hex: str = SEED_HEX) -> dict:
    bundle_path = tmp_path / "proof.arproof"
    code = main(
        [
            "attest",
            str(answer42),
            "-o",
            str(bundle_path),
            "--provider-seed",
            seed_hex,
            "--work-dir",
            str(tmp_path / "work"),
            "--json",
        ]
    )
    assert code == 0
    payload = _json_out(capsys)
    payload["path"] = bundle_path
    return payload


def test_attest_then_verify_roundtrip(answer42: Path, tmp_path: Path, capsys) -> None:
    attested = _attest(answer42, tmp_path, capsys)
    assert Path(attested["path"]).is_file()

    code = main(["verify", str(attested["path"]), "--root", attested["provider_root"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "Accept" in out


def test_verify_with_wrong_root_exits_1(answer42: Path, tmp_path: Path, capsys) -> None:
    attested = _attest(answer42, tmp_path, capsys)
    from attestrep.attestation import AttestationProvider, ProviderConfig

    other_root = AttestationProvider(
        ProviderConfig(root_secret_seed=bytes.fromhex(OTHER_SEED_HEX))
    ).root_public_key.hex()
    code = main(["verify", str(attested["path"]), "--root", other_root])
    out = capsys.readouterr().out
    assert code == 1
    assert "UntrustedRoot" in out


def test_verify_roots_from_environment(answer42: Path, tmp_path: Path, capsys, monkeypatch) -> None:
    attested = _attest(answer42, tmp_path, capsys)
    monkeypatch.setenv("ATTESTREP_ROOTS", "," + attested["provider_root"] + " ,")
    assert main(["verify", str(attested["path"])]) == 0
    capsys.readouterr()


def test_verify_without_roots_is_usage_error(answer42: Path, tmp_path: Path, capsys, monkeypatch) -> None:
    attested = _attest(answer42, tmp_path, capsys)
    monkeypatch.delenv("ATTESTREP_ROOTS", raising=False)
    assert main(["verify", str(attested["path"])]) == 2


def test_verify_against_archive_dir(answer42: Path, tmp_path: Path, capsys) -> None:
    attested = _attest(answer42, tmp_path, capsys)
    assert (
        main(
            [
                "verify",
                str(attested["path"]),
                "--root",
                attested["provider_root"],
                "--archive-dir",
                str(answer42),
            ]
        )
        == 0
    )
    capsys.readouterr()

    (answer42 / "run.sh").write_text("#!/bin/sh\necho changed\n")
    code = main(
        [
            "verify",
            str(attested["path"]),
            "--root",
            attested["provider_root"],
            "--archive-dir",
            str(answer42),
            "--json",
        ]
    )
    assert code == 1
    assert _json_out(capsys)["reason"] == "DigestMismatch"


def test_verify_against_archive_digest_flag(answer42: Path, tmp_path: Path, capsys) -> None:
    attested = _attest(answer42, tmp_path, capsys)
    digest = digest_package(answer42)
    assert (
        main(
            [
                "verify",
                str(attested["path"]),
                "--root",
                attested["provider_root"],
                "--archive-digest",
                digest.hex,
            ]
        )
        == 0
    )
    capsys.readouterr()


def test_nonce_seed_reproducible(answer42: Path, tmp_path: Path, capsys) -> None:
    from attestrep.bundle import parse_bundle

    for name in ("one", "two"):
        code = main(
            [
                "attest",
                str(answer42),
                "-o",
                str(tmp_path / f"{name}.arproof"),
                "--provider-seed",
                SEED_HEX,
                "--nonce-seed",
                "golden",
                "--work-dir",
                str(tmp_path / f"work-{name}"),
            ]
        )
        assert code == 0
    capsys.readouterr()
    one = parse_bundle((tmp_path / "one.arproof").read_bytes())
    two = parse_bundle((tmp_path / "two.arproof").read_bytes())
    assert one.execution.nonce == two.execution.nonce
    assert one.package_digest == two.package_digest
    assert one.quote.report_data == two.quote.report_data


def test_run_command_json(answer42: Path, tmp_path: Path, capsys) -> None:
    code = main(["run", str(answer42), "--work-dir", str(tmp_path / "work"), "--json"])
    assert code == 0
    record = _json_out(capsys)
    assert record["exit_status"] == 0
    assert len(record["package_digest"]) == 64


def test_run_failing_package_exits_1(tmp_path: Path, capsys) -> None:
    package = make_package(tmp_path / "bad", script="#!/bin/sh\nexit 7\n")
    code = main(["run", str(package), "--work-dir", str(tmp_path / "work"), "--json"])
    assert code == 1
    assert _json_out(capsys)["exit_status"] == 7


def test_pack_and_submit_against_live_portal(answer42: Path, tmp_path: Path, capsys) -> None:
    archive_path = tmp_path / "answer42.tar"
    assert main(["pack", str(answer42), "-o", str(archive_path)]) == 0
    capsys.readouterr()

    portal = Portal(tmp_path / "store", provider_seed=PROVIDER_SEED)
    server = make_server(portal)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        code = main(
            ["submit", str(archive_path), "--portal", f"http://{host}:{port}", "--author", "cli-test"]
        )
        assert code == 0
        submission_id = json.loads(capsys.readouterr().out)["submission_id"]
        assert portal.get_submission(submission_id).state == "Received"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_econ_adopt_reports_calibrated_ratio(capsys) -> None:
    code = main(["econ", "adopt", "--c-a", "1.57", "--c-j", "79", "--alpha", "0.08"])
    assert code == 0
    payload = _json_out(capsys)
    assert abs(float(payload["ratio"]) - 629.0) < 1.0
    assert payload["adopts"] is True


def test_econ_comply(capsys) -> None:
    code = main(["econ", "comply", "--b", "100", "--s", "1", "--p", "0.1", "--pi", "0.5", "--epsilon", "0"])
    assert code == 0
    payload = _json_out(capsys)
    assert payload["tee"]["complies"] is True
    assert payload["manual"]["complies"] is False


def test_econ_stringency(capsys) -> None:
    code = main(["econ", "stringency", "--k", "1", "--m", "2", "--b", "1", "--tee-cost", "0.01"])
    assert code == 0
    payload = _json_out(capsys)
    assert payload["v_star"] == 1.0
    assert payload["regime"] == "tee"


def test_econ_table_text_and_json(capsys) -> None:
    assert main(["econ", "table"]) == 0
    text = capsys.readouterr().out
    assert "$79 per submission" in text
    assert "$1.35–$1.80 per accepted paper" in text

    assert main(["econ", "table", "--json"]) == 0
    payload = _json_out(capsys)
    assert payload["adoption"]["adopts"] is True


def test_report_bundled_fixture(capsys) -> None:
    assert main(["report", "--json"]) == 0
    payload = _json_out(capsys)
    assert payload["providers"]["Google"]["cost_min"] == "0.27"
    assert payload["providers"]["Azure"]["cost_max"] == "3.21"


def test_report_custom_csv(tmp_path: Path, capsys) -> None:
    csv_path = tmp_path / "trials.csv"
    csv_path.write_text(
        "provider,paper_id,status,cost_usd,runtime_minutes,department,language\n"
        "Google,10.1/x,Success,1.00,60,Econ,R\n"
    )
    assert main(["report", "--csv", str(csv_path), "--json"]) == 0
    payload = _json_out(capsys)
    assert payload["providers"]["Google"]["cost_mean"] == "1.0000"


def test_usage_errors_exit_2(tmp_path: Path) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["verify"])
    assert excinfo.value.code == 2

    with pytest.raises(SystemExit) as excinfo:
        main(["nonsense"])
    assert excinfo.value.code == 2

    assert main(["portal", "serve", "--listen", "nope"]) == 2


def test_serve_refuses_a_broken_audit_log(tmp_path: Path, capsys) -> None:
    store = tmp_path / "store"
    Portal(store, provider_seed=PROVIDER_SEED).verify_bundle_bytes(b"junk")
    with (store / "audit.log").open("ab") as fh:
        fh.write(b"not json\n")
    assert main(["portal", "serve", "--store", str(store), "--listen", "127.0.0.1:0"]) == 1
    assert "error: audit log broken at seq 1" in capsys.readouterr().err


def test_domain_error_exits_1(tmp_path: Path, capsys) -> None:
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["run", str(empty)]) == 1
    assert "attestrep.manifest" in capsys.readouterr().err
