from __future__ import annotations

import os
import statistics
import subprocess
import time
from pathlib import Path

import pytest

from attestrep import runner
from attestrep.package_model import UnreadableFile, digest_package, load_manifest
from attestrep.runner import (
    EntrypointMissing,
    NoDeclaredOutputsMatched,
    OutputLimitExceeded,
    TimeLimitExceeded,
    execute,
)
from conftest import make_package, run_package


def test_answer42_run(answer42: Path, tmp_path: Path) -> None:
    record = run_package(answer42, tmp_path / "work")
    assert record.exit_status == 0
    assert record.finished_at >= record.started_at
    assert abs(record.wall_seconds - (record.finished_at - record.started_at)) <= 2.0

    # output digest equals the digest of a tree holding exactly results/answer.txt
    expected_tree = tmp_path / "expected"
    (expected_tree / "results").mkdir(parents=True)
    (expected_tree / "results" / "answer.txt").write_text("42\n")
    assert record.output_digest == digest_package(expected_tree)


def test_digest_is_of_the_copy_that_runs(tmp_path: Path, monkeypatch) -> None:
    import attestrep.runner as runner

    package = make_package(tmp_path / "pkg")
    copytree = runner.shutil.copytree

    def copy_after_a_late_write(src, dst, **kwargs):
        (Path(src) / "late.txt").write_text("written while the run was prepared\n")
        return copytree(src, dst, **kwargs)

    monkeypatch.setattr(runner.shutil, "copytree", copy_after_a_late_write)
    record = execute(package, load_manifest(package), work_dir=tmp_path / "work")
    assert (tmp_path / "work" / "tree" / "late.txt").is_file()
    assert record.package_digest == digest_package(package)  # late.txt included


def test_special_file_stops_the_copy(tmp_path: Path) -> None:
    package = make_package(tmp_path / "pkg")
    os.mkfifo(package / "pipe")
    with pytest.raises(UnreadableFile):
        execute(package, load_manifest(package), work_dir=tmp_path / "work")


def test_nonzero_exit_recorded(tmp_path: Path) -> None:
    package = make_package(tmp_path / "pkg", script="#!/bin/sh\nexit 3\n")
    record = run_package(package, tmp_path / "work")
    assert record.exit_status == 3


def test_time_limit(tmp_path: Path) -> None:
    package = make_package(tmp_path / "pkg", script="#!/bin/sh\nsleep 10\n")
    with pytest.raises(TimeLimitExceeded):
        execute(package, load_manifest(package), max_seconds=0.3, work_dir=tmp_path / "work")


def _leaves_a_late_writer(marker: Path, then: str) -> str:
    """A run.sh whose background subshell writes ``marker`` a second after it starts."""
    return f"#!/bin/sh\n(sleep 1; echo late > '{marker}') &\n{then}\n"


def test_time_limit_kills_the_whole_group(tmp_path: Path) -> None:
    marker = tmp_path / "marker"
    package = make_package(tmp_path / "pkg", script=_leaves_a_late_writer(marker, "sleep 10"))
    with pytest.raises(TimeLimitExceeded):
        execute(package, load_manifest(package), tmp_path / "work", max_seconds=0.3)
    time.sleep(1.5)
    assert not marker.exists()


def test_clean_exit_kills_what_it_left_running(tmp_path: Path) -> None:
    marker = tmp_path / "marker"
    script = _leaves_a_late_writer(marker, "mkdir -p results\necho 42 > results/answer.txt")
    package = make_package(tmp_path / "pkg", script=script)
    assert execute(package, load_manifest(package), tmp_path / "work").exit_status == 0
    time.sleep(1.5)
    assert not marker.exists()


def test_interrupted_wait_kills_the_group(tmp_path: Path, monkeypatch) -> None:
    # the run has its own session, so a Ctrl-C at the terminal reaches only the caller
    marker = tmp_path / "marker"
    package = make_package(tmp_path / "pkg", script=_leaves_a_late_writer(marker, "sleep 10"))

    def interrupted(proc, max_seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "_wait_for_exit", interrupted)
    with pytest.raises(KeyboardInterrupt):
        execute(package, load_manifest(package), tmp_path / "work")
    time.sleep(1.5)
    assert not marker.exists()


def test_the_exit_is_noticed_as_it_happens(tmp_path: Path, monkeypatch) -> None:
    # Popen.wait(timeout) notices an exit only at its next poll, up to 50 ms late
    timeouts = []
    wait = subprocess.Popen.wait

    def recorded(self, timeout=None):
        timeouts.append(timeout)
        return wait(self, timeout)

    monkeypatch.setattr(subprocess.Popen, "wait", recorded)
    script = "#!/bin/sh\nsleep 0.03\nmkdir -p results\necho 42 > results/answer.txt\n"
    package = make_package(tmp_path / "pkg", script=script)
    walls = [execute(package, load_manifest(package), tmp_path / f"work{i}").wall_seconds for i in range(5)]
    assert timeouts and set(timeouts) == {None}  # only the reaps, after the exit was seen
    assert 0.03 <= statistics.median(walls) < 0.03 + 0.05


def test_time_limit_is_kept_by_the_exit_wait(tmp_path: Path) -> None:
    package = make_package(tmp_path / "pkg", script="#!/bin/sh\nsleep 10\n")
    for limit in (0.2, 0.0, -1.0):
        start = time.monotonic()
        with pytest.raises(TimeLimitExceeded):
            execute(package, load_manifest(package), tmp_path / "work", max_seconds=limit)
        assert time.monotonic() - start < 5


def test_entrypoint_missing(tmp_path: Path) -> None:
    package = make_package(tmp_path / "pkg")
    (package / "run.sh").unlink()
    with pytest.raises(EntrypointMissing):
        execute(package, load_manifest(package), work_dir=tmp_path / "work")


def test_no_declared_outputs_matched(tmp_path: Path) -> None:
    package = make_package(tmp_path / "pkg", script="#!/bin/sh\ntrue\n")
    with pytest.raises(NoDeclaredOutputsMatched):
        execute(package, load_manifest(package), work_dir=tmp_path / "work")


def test_failed_run_skips_output_check(tmp_path: Path) -> None:
    package = make_package(tmp_path / "pkg", script="#!/bin/sh\nexit 1\n")
    record = run_package(package, tmp_path / "work")
    assert record.exit_status == 1
    assert record.output_digest.file_count == 0


def test_output_limit(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    package = make_package(
        tmp_path / "pkg",
        script="#!/bin/sh\nmkdir -p results\nhead -c 4096 /dev/zero > results/big.bin\n",
    )
    monkeypatch.setattr(runner, "MAX_OUTPUT_BYTES", 100)
    with pytest.raises(OutputLimitExceeded):
        execute(package, load_manifest(package), work_dir=tmp_path / "work")


def test_glob_output_patterns(tmp_path: Path) -> None:
    package = make_package(
        tmp_path / "pkg",
        script="#!/bin/sh\necho a > a.csv\necho b > b.csv\necho junk > junk.tmp\n",
        outputs=("*.csv",),
    )
    record = run_package(package, tmp_path / "work")
    assert record.output_digest.file_count == 2


@pytest.mark.parametrize(
    ("links", "pattern"),
    [
        ("ln -s {outside} cfg", "cfg/secret.txt"),
        ("ln -s {outside} cfg", "cfg/*.txt"),
        ("mkdir -p results && ln -s {outside} results/sub", "results/*/*.txt"),
        ("ln -s {outside_parent} results", "results/outside/"),
    ],
    ids=["path", "glob", "glob-through-linked-dir", "directory-under-linked-dir"],
)
def test_outputs_are_never_matched_through_a_link(tmp_path: Path, links: str, pattern: str) -> None:
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "secret.txt").write_text("secret\n")
    script = "#!/bin/sh\n" + links.format(outside=outside, outside_parent=tmp_path) + "\necho ok > ok.txt\n"
    package = make_package(tmp_path / "pkg", script=script, outputs=(pattern, "ok.txt"))
    work = tmp_path / "work"
    record = run_package(package, work)
    assert record.output_digest.file_count == 1
    assert sorted(p.relative_to(work / "outputs").as_posix() for p in (work / "outputs").rglob("*")
                  if p.is_file()) == ["ok.txt"]


def test_links_inside_a_matched_directory_are_skipped(tmp_path: Path) -> None:
    outside = tmp_path / "outside.txt"
    outside.write_text("secret\n")
    script = ("#!/bin/sh\nmkdir -p results\necho 42 > results/answer.txt\n"
              f"ln -s {outside} results/leak.txt\nln -s .. results/up\n")
    work = tmp_path / "work"
    record = run_package(make_package(tmp_path / "pkg", script=script), work)
    assert record.output_digest.file_count == 1
    assert [p.name for p in (work / "outputs" / "results").iterdir()] == ["answer.txt"]


def test_original_root_untouched(answer42: Path, tmp_path: Path) -> None:
    before = digest_package(answer42)
    run_package(answer42, tmp_path / "work")
    assert digest_package(answer42) == before
    assert not (answer42 / "results").exists()


def test_deterministic_package_has_stable_output_digest(answer42: Path, tmp_path: Path) -> None:
    first = run_package(answer42, tmp_path / "w1")
    second = run_package(answer42, tmp_path / "w2")
    assert first.output_digest == second.output_digest
    assert first.package_digest == second.package_digest
    assert first.nonce != second.nonce


def test_environment_is_scrubbed(tmp_path: Path) -> None:
    package = make_package(
        tmp_path / "pkg",
        script="#!/bin/sh\nmkdir -p results\nenv | cut -d= -f1 | sort > results/vars.txt\n",
    )
    os.environ["ATTESTREP_TEST_CANARY"] = "leak"
    try:
        work = tmp_path / "work"
        run_package(package, work)
        names = (work / "outputs" / "results" / "vars.txt").read_text().split()
    finally:
        del os.environ["ATTESTREP_TEST_CANARY"]
    assert "ATTESTREP_TEST_CANARY" not in names
    assert "PATH" in names
    # PWD/OLDPWD may be injected by the shell itself; nothing else may leak
    assert set(names) <= {"PATH", "HOME", "LANG", "PWD", "OLDPWD", "SHLVL", "_"}


def test_logs_written_beside_sandbox(answer42: Path, tmp_path: Path) -> None:
    work = tmp_path / "work"
    record = run_package(answer42, work)
    assert (work / "build.log").is_file()
    assert (work / "run.stdout.log").is_file()
    assert (work / "run.stderr.log").is_file()
    import hashlib

    assert record.stdout_log_digest == hashlib.sha256((work / "run.stdout.log").read_bytes()).digest()


def test_nonce_override(answer42: Path, tmp_path: Path) -> None:
    nonce = bytes(range(32))
    record = run_package(answer42, tmp_path / "work", nonce=nonce)
    assert record.nonce == nonce


def test_nonce_freshness_over_1000_runs(tmp_path: Path) -> None:
    package = make_package(tmp_path / "pkg", script="#!/bin/sh\necho x > out.txt\n", outputs=("out.txt",))
    manifest = load_manifest(package)
    nonces = {
        execute(package, manifest, work_dir=tmp_path / "runs" / str(i)).nonce
        for i in range(1000)
    }
    assert len(nonces) == 1000
