"""Execute a package entrypoint in an isolated working copy and record the run.

The original tree is never touched: the entrypoint runs inside a fresh copy
with a scrubbed environment (PATH/HOME/LANG allowlist) as the leader of
its own process group, stdout and stderr stream to log files beside the
copy, and declared outputs are digested while they are snapshotted after
the run. The snapshot streams every file through one chunk-sized buffer
(``package_model.stream_sha256``), so its memory does not grow with the
outputs' size. The whole group is killed once the wait for the entrypoint
ends, whether it exited, ran out of time or was interrupted, so no process
it left in the background writes to the outputs during or after the snapshot.
The wait watches the entrypoint's pidfd, so its exit is seen as it happens
and ``wall_seconds`` is the entrypoint's own run time, not that plus a
polling interval.
Copy-on-run substitutes for VM/container isolation at desk scale; the data
flow and proof binding are the same. A run's ``ExecutionRecord`` is the
``attestrep.bundle.ExecutionSummary`` a proof carries plus the two digests.

Sandbox layout under ``work_dir``::

    tree/            fresh copy of the package, the process working directory
    outputs/         post-run snapshot of matched declared outputs
    build.log        sandbox preparation record
    run.stdout.log   captured stdout
    run.stderr.log   captured stderr
"""

from __future__ import annotations

import contextlib
import logging
import os
import select
import shutil
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

from attestrep import AttestrepError
from attestrep.bundle import ExecutionSummary, PackageDigest
from attestrep.package_model import (
    CHUNK,
    PackageManifest,
    UnreadableFile,
    digest_entries,
    digest_package,
    file_sha256,
    stream_sha256,
)

logger = logging.getLogger(__name__)

ENV_ALLOWLIST = ("PATH", "HOME", "LANG")
# what one run's matched outputs may total; read at each snapshot
MAX_OUTPUT_BYTES = 1 << 30


class RunnerError(AttestrepError):
    """Base class for execution failures."""


class EntrypointMissing(RunnerError):
    def __init__(self, path: str, reason: str = "not found") -> None:
        super().__init__(f"entrypoint {path}: {reason}")
        self.path = path


class TimeLimitExceeded(RunnerError):
    def __init__(self, max_seconds: float) -> None:
        super().__init__(f"run exceeded {max_seconds} s")
        self.max_seconds = max_seconds


class OutputLimitExceeded(RunnerError):
    def __init__(self, total_bytes: int, max_bytes: int) -> None:
        super().__init__(f"outputs total {total_bytes} bytes, limit {max_bytes}")


class NoDeclaredOutputsMatched(RunnerError):
    """The run exited 0 but produced none of its declared outputs.

    Usually the dependency or packaging failure mode: the script ran but
    did not do what the manifest promised.
    """

    def __init__(self, declared: tuple[str, ...]) -> None:
        super().__init__(f"no files matched declared outputs {list(declared)}")


class ExecutionRecord(ExecutionSummary):
    """Immutable record of one sandboxed run: its summary and the two tree digests."""

    package_digest: PackageDigest
    output_digest: PackageDigest

    def summary(self) -> ExecutionSummary:
        """The record without its two tree digests."""
        return ExecutionSummary(**{name: getattr(self, name) for name in ExecutionSummary.FIELDS})


def _resolve_command(entrypoint: Path) -> list[str]:
    if not entrypoint.is_file():
        raise EntrypointMissing(str(entrypoint))
    if os.access(entrypoint, os.X_OK):
        return [str(entrypoint)]
    suffix = entrypoint.suffix.lower()
    if suffix == ".sh":
        return ["/bin/sh", str(entrypoint)]
    if suffix == ".py":
        return [sys.executable, str(entrypoint)]
    raise EntrypointMissing(str(entrypoint), "not executable and no interpreter for suffix")


def _through_link(tree: Path, path: Path) -> bool:
    """Whether ``path`` or any directory between ``tree`` and it is a symlink."""
    parts = path.relative_to(tree).parts
    return any(tree.joinpath(*parts[:end]).is_symlink() for end in range(1, len(parts) + 1))


def _collect_outputs(tree: Path, patterns: tuple[str, ...]) -> list[str]:
    """Relative paths of regular files matching the declared output globs.

    Symlinks are never followed or matched: a match counts only if neither
    it nor any directory between ``tree`` and it is a link. The run may have
    created links, and they must not leak content from outside the sandbox.
    """
    matched: set[str] = set()
    for pattern in patterns:
        target = tree / pattern.rstrip("/")
        if target.is_dir() and not _through_link(tree, target):
            # os.walk descends into no link, so below ``target`` only the file itself can be one
            for dirpath, _, filenames in os.walk(target):
                for name in filenames:
                    full = Path(dirpath) / name
                    if full.is_file() and not full.is_symlink():
                        matched.add(full.relative_to(tree).as_posix())
        else:
            for hit in tree.glob(pattern):
                if hit.is_file() and not _through_link(tree, hit):
                    matched.add(hit.relative_to(tree).as_posix())
    return sorted(matched)


def _snapshot_outputs(tree: Path, rel_paths: list[str], snapshot: Path, buffer: bytearray) -> PackageDigest:
    """Copy the matched outputs into ``snapshot``, hashing each chunk on the way; their digest."""
    entries = []
    total = 0
    for rel in rel_paths:
        dst = snapshot / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        with (tree / rel).open("rb", buffering=0) as src, dst.open("wb") as out:
            content_hash, size = stream_sha256(src, buffer, out, limit=MAX_OUTPUT_BYTES - total)
        total += size
        if total > MAX_OUTPUT_BYTES:
            raise OutputLimitExceeded(total, MAX_OUTPUT_BYTES)
        entries.append((rel, content_hash, size))
    return digest_entries(entries)


def _copy_regular(src: str, dst: str) -> None:
    # a FIFO or a device would block or never end the read
    if not stat.S_ISREG(os.stat(src).st_mode):
        raise UnreadableFile(src, "not a regular file or directory")
    shutil.copy2(src, dst)


def _wait_for_exit(proc: subprocess.Popen, max_seconds: float) -> int:
    """``proc``'s exit status, taken as it exits; ``subprocess.TimeoutExpired`` after ``max_seconds``.

    ``Popen.wait(timeout)`` polls with sleeps that double up to 50 ms, which
    would reach the run's ``wall_seconds``; the child's pidfd becomes readable
    the moment it exits.
    """
    try:
        pidfd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):  # no pidfd on this system: Popen's polling wait
        return proc.wait(timeout=max_seconds)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        deadline = time.monotonic() + max_seconds
        # poll takes at most 2**31 - 1 ms, so a long limit is waited for a day at a time
        while not poller.poll(min(max(deadline - time.monotonic(), 0.0), 86_400.0) * 1000):
            if time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(proc.args, max_seconds)
    finally:
        os.close(pidfd)
    return proc.wait()


def execute(
    root: str | Path,
    manifest: PackageManifest,
    work_dir: str | Path,
    max_seconds: float = 3600.0,
    nonce: bytes | None = None,
) -> ExecutionRecord:
    """Run ``manifest.entrypoint`` in a fresh copy of ``root`` for at most ``max_seconds``.

    ``work_dir`` receives the sandbox and log files and is kept for the
    caller. ``nonce`` overrides the per-run random nonce; only tests and
    the benchmark pass it.
    """
    if nonce is None:
        nonce = os.urandom(32)
    if len(nonce) != 32:
        raise ValueError("nonce must be 32 bytes")

    # absolute: the child runs in the sandbox, so a relative entrypoint path would miss it
    work = Path(work_dir).absolute()
    work.mkdir(parents=True, exist_ok=True)
    tree = work / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    # links stay links so the digest refuses them; anything else that is not a regular file stops the copy
    try:
        shutil.copytree(root, tree, symlinks=True, copy_function=_copy_regular)
    except OSError as exc:
        raise UnreadableFile(str(root), str(exc)) from exc
    # the digest is of the copy that runs, so a change to ``root`` during the copy is attested
    package_digest = digest_package(tree)
    logger.debug("sandbox prepared at %s", work)

    entrypoint = tree / manifest.entrypoint
    command = _resolve_command(entrypoint)

    build_log = work / "build.log"
    build_log.write_text(
        f"package_digest {package_digest.hex}\n"
        f"files {package_digest.file_count} bytes {package_digest.total_bytes}\n"
        f"entrypoint {manifest.entrypoint}\n"
        f"command {' '.join(command)}\n",
        encoding="utf-8",
    )

    env = {name: os.environ[name] for name in ENV_ALLOWLIST if name in os.environ}
    stdout_log = work / "run.stdout.log"
    stderr_log = work / "run.stderr.log"

    started_at = int(time.time())
    started_clock = time.monotonic()
    with stdout_log.open("wb") as out_fh, stderr_log.open("wb") as err_fh:
        proc = subprocess.Popen(command, cwd=tree, env=env, stdout=out_fh, stderr=err_fh, start_new_session=True)
        try:
            exit_status = _wait_for_exit(proc, max_seconds)
        except subprocess.TimeoutExpired:
            raise TimeLimitExceeded(max_seconds) from None
        finally:
            # on every way out (exit, timeout, an interrupt): nothing the entrypoint
            # left running may change the outputs that are about to be read
            with contextlib.suppress(ProcessLookupError):  # nothing of the group is left
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    finished_at = int(time.time())
    wall_seconds = round(time.monotonic() - started_clock, 3)

    matched = _collect_outputs(tree, manifest.declared_outputs)
    if exit_status == 0 and not matched:
        raise NoDeclaredOutputsMatched(manifest.declared_outputs)

    snapshot = work / "outputs"
    if snapshot.exists():
        shutil.rmtree(snapshot)
    snapshot.mkdir()
    buffer = bytearray(CHUNK)  # the snapshot's and the two logs' reads share it
    output_digest = _snapshot_outputs(tree, matched, snapshot, buffer)

    return ExecutionRecord(
        package_digest=package_digest,
        output_digest=output_digest,
        exit_status=exit_status,
        wall_seconds=wall_seconds,
        stdout_log_digest=file_sha256(stdout_log, buffer)[0],
        stderr_log_digest=file_sha256(stderr_log, buffer)[0],
        started_at=started_at,
        finished_at=finished_at,
        nonce=nonce,
    )

