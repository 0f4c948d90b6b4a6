from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from attestrep.cli import main
from attestrep.package_model import digest_package
from attestrep.portal.core import Portal
from attestrep.portal.http import make_server
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


@pytest.mark.parametrize(
    "argv",
    [
        ["econ", "stringency", "--k", "1", "--m", "2", "--b", "1", "--tee-cost", "abc"],
        ["econ", "stringency", "--k", "1", "--m", "2", "--b", "1", "--tee-cost", "nan"],
        ["econ", "adopt", "--c-j", "1", "--alpha", "0.1", "--c-a", "abc"],
        ["econ", "adopt", "--c-a", "1", "--alpha", "0.1", "--c-j", "Infinity"],
        ["econ", "table", "--tee-cost-low", "NaN"],
        ["econ", "table", "--storage-high", "sNaN"],
    ],
    ids=["stringency-abc", "stringency-nan", "adopt-abc", "adopt-infinity", "table-nan", "table-snan"],
)
def test_econ_decimal_options_refuse_non_finite_text(argv: list[str], capsys) -> None:
    # the option at fault is the last one given
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {argv[-2]}: expected a finite decimal number, got {argv[-1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "option", "text"),
    [
        (["econ", "comply", "--s", "1"], "--b", "nan"),
        (["econ", "comply", "--b", "1"], "--s", "inf"),
        (["econ", "comply", "--b", "1", "--s", "1"], "--p", "-inf"),
        (["econ", "comply", "--b", "1", "--s", "1"], "--pi", "NaN"),
        (["econ", "comply", "--b", "1", "--s", "1"], "--epsilon", "abc"),
        (["econ", "stringency", "--m", "2", "--b", "1"], "--k", "nan"),
        (["econ", "stringency", "--k", "1", "--b", "1"], "--m", "infinity"),
        (["econ", "stringency", "--k", "1", "--m", "2"], "--b", "-Infinity"),
    ],
    ids=["comply-b-nan", "comply-s-inf", "comply-p--inf", "comply-pi-nan", "comply-epsilon-abc", "stringency-k-nan",
         "stringency-m-infinity", "stringency-b--infinity"],
)
def test_econ_float_options_refuse_non_finite_text(argv: list[str], option: str, text: str, capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, f"{option}={text}"])  # "=": argparse takes a bare "-inf" for an option
    assert excinfo.value.code == 2
    assert f"argument {option}: expected a finite number, got {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "attest"])
@pytest.mark.parametrize("seconds", ["nan", "-1", "-inf", "soon"])
def test_max_seconds_is_refused_before_anything_runs(command: str, seconds: str, answer42: Path, tmp_path: Path,
                                                     capsys) -> None:
    work = tmp_path / "work"
    argv = [command, str(answer42), "--work-dir", str(work), f"--max-seconds={seconds}"]
    if command == "attest":
        argv += ["-o", str(tmp_path / "p.arproof")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument --max-seconds: expected a number of seconds >= 0, got {seconds!r}" in capsys.readouterr().err
    assert not work.exists() and not (tmp_path / "p.arproof").exists()


_EVERY_COMMAND = "{pack,run,attest,verify,submit,portal,econ,report}"


@pytest.mark.parametrize(("argv", "code"), [(["--help"], 0), (["-h", "verify"], 0), ([], 2), (["bogus"], 2)],
                         ids=["help", "help-before-a-command", "no-command", "unknown-command"])
def test_help_and_usage_errors_list_every_command(argv: list[str], code: int, capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == code
    captured = capsys.readouterr()
    assert f"usage: attestrep [-h] {_EVERY_COMMAND}" in (captured.out if code == 0 else captured.err)


@pytest.mark.parametrize("command", [["verify"], ["econ"], ["econ", "comply"], ["portal", "serve"]])
def test_a_command_has_its_own_help(command: list[str], capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: attestrep {' '.join(command)} [-h]")


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


@pytest.mark.parametrize(
    "argv",
    [
        lambda d, pkg: ["verify", str(d / "missing.arproof"), "--root", "00" * 32],
        lambda d, pkg: ["submit", str(d / "missing.tar"), "--portal", "http://127.0.0.1:9"],
        lambda d, pkg: ["report", "--csv", str(d / "missing.csv")],
        lambda d, pkg: ["attest", str(pkg), "-o", str(d / "no-dir" / "p.arproof"), "--work-dir", str(d / "work")],
    ],
    ids=["verify-missing-bundle", "submit-missing-archive", "report-missing-csv", "attest-into-missing-dir"],
)
def test_unreadable_or_unwritable_file_is_an_error(argv, answer42: Path, tmp_path: Path, capsys) -> None:
    assert main(argv(tmp_path, answer42)) == 1
    assert capsys.readouterr().err.startswith("error: ")


# what only the author, the portal or the operator commands need
READER_NEVER_LOADS = (
    "attestrep.runner",
    "attestrep.portal",
    "attestrep.archive",
    "attestrep.economics",
    "attestrep.evaluation",
    "subprocess",
    "tarfile",
    "urllib.request",
    "http.server",
)
# without --archive-dir no tree is digested, and a Wire structure is not a dataclass
BUNDLE_READER_NEVER_LOADS = (*READER_NEVER_LOADS, "attestrep.package_model", "dataclasses", "inspect")
_VERIFY_IN_FRESH_PROCESS = """
import json, sys
from attestrep.cli import main
code = main(sys.argv[1:])
loaded = [name for name in json.loads(sys.stdin.read()) if name in sys.modules]
print(json.dumps({"code": code, "loaded": loaded}))
"""


@pytest.mark.parametrize("archive_dir", [False, True], ids=["bundle-only", "archive-dir"])
def test_verify_loads_only_the_reader(archive_dir: bool, answer42: Path, tmp_path: Path, capsys) -> None:
    attested = _attest(answer42, tmp_path, capsys)
    argv = ["verify", str(attested["path"]), "--root", attested["provider_root"]]
    if archive_dir:
        argv += ["--archive-dir", str(answer42)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFY_IN_FRESH_PROCESS, *argv],
        input=json.dumps(READER_NEVER_LOADS if archive_dir else BUNDLE_READER_NEVER_LOADS),
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"code": 0, "loaded": []}
