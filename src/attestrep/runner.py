"""Execute a package entrypoint in an isolated working copy and record the run.

The original tree is never touched: the entrypoint runs inside a fresh copy
with a scrubbed environment (PATH/HOME/LANG allowlist), stdout and stderr
stream to log files beside the copy, and declared outputs are digested
while they are snapshotted after the run. Copy-on-run substitutes for
VM/container isolation at desk scale; the data flow and proof binding are
the same.

Sandbox layout under ``work_dir``::

    tree/            fresh copy of the package, the process working directory
    outputs/         post-run snapshot of matched declared outputs
    build.log        sandbox preparation record
    run.stdout.log   captured stdout
    run.stderr.log   captured stderr
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, fields
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from attestrep.canonical import Wire, wire
from attestrep.package_model import (
    PackageDigest,
    PackageManifest,
    UnreadableFile,
    digest_entries,
    digest_package,
    file_sha256,
)

logger = logging.getLogger(__name__)

ENV_ALLOWLIST = ("PATH", "HOME", "LANG")

_GIB = Decimal(1 << 30)
_CENTS4 = Decimal("0.0001")
_CHUNK = 1 << 20


class RunnerError(Exception):
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


@dataclass(frozen=True)
class ExecutionLimits:
    max_seconds: float = 3600.0
    max_output_bytes: int = 1 << 30


@dataclass(frozen=True)
class ExecutionSummary(Wire):
    """What a run states about itself inside a proof bundle."""

    exit_status: int
    wall_seconds: float = wire(minimum=0)
    started_at: int = wire(minimum=0)
    finished_at: int = wire(minimum=0)
    stdout_log_digest: bytes = wire(hex_size=32)
    stderr_log_digest: bytes = wire(hex_size=32)
    nonce: bytes = wire(hex_size=32)


@dataclass(frozen=True)
class ExecutionRecord(ExecutionSummary):
    """Immutable record of one sandboxed run: its summary and the two tree digests."""

    package_digest: PackageDigest
    output_digest: PackageDigest

    def __post_init__(self) -> None:
        if self.finished_at < self.started_at:
            raise ValueError("finished_at before started_at")
        if self.wall_seconds < 0:
            raise ValueError("wall_seconds negative")
        if len(self.nonce) != 32:
            raise ValueError("nonce must be 32 bytes")
        if len(self.stdout_log_digest) != 32 or len(self.stderr_log_digest) != 32:
            raise ValueError("log digests must be 32 bytes")

    def summary(self) -> ExecutionSummary:
        """The record without its two tree digests."""
        return ExecutionSummary(**{f.name: getattr(self, f.name) for f in fields(ExecutionSummary)})


@dataclass(frozen=True)
class CostRates:
    hourly_rate_usd: Decimal
    storage_usd_per_gib: Decimal = Decimal("0")

    def __post_init__(self) -> None:
        if self.hourly_rate_usd <= 0:
            raise ValueError("hourly_rate_usd must be positive")
        if self.storage_usd_per_gib < 0:
            raise ValueError("storage_usd_per_gib must be non-negative")


@dataclass(frozen=True)
class CostEstimate:
    hourly_rate_usd: Decimal
    compute_cost_usd: Decimal
    storage_cost_usd: Decimal

    @property
    def total_usd(self) -> Decimal:
        return self.compute_cost_usd + self.storage_cost_usd


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


def _collect_outputs(tree: Path, patterns: tuple[str, ...]) -> list[str]:
    """Relative paths of regular files matching the declared output globs.

    Symlinks are never followed or matched; the run may have created them
    and they must not leak content from outside the sandbox.
    """
    matched: set[str] = set()
    for pattern in patterns:
        target = tree / pattern.rstrip("/")
        if target.is_dir() and not target.is_symlink():
            for dirpath, dirnames, filenames in os.walk(target, followlinks=False):
                dirnames[:] = [d for d in dirnames if not (Path(dirpath) / d).is_symlink()]
                for name in filenames:
                    full = Path(dirpath) / name
                    if full.is_file() and not full.is_symlink():
                        matched.add(full.relative_to(tree).as_posix())
        else:
            for hit in tree.glob(pattern):
                if hit.is_file() and not hit.is_symlink():
                    matched.add(hit.relative_to(tree).as_posix())
    return sorted(matched)


def _snapshot_outputs(tree: Path, rel_paths: list[str], snapshot: Path, max_bytes: int) -> PackageDigest:
    """Copy the matched outputs into ``snapshot``, hashing each chunk on the way; their digest."""
    entries = []
    total = 0
    for rel in rel_paths:
        dst = snapshot / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        hasher = hashlib.sha256()
        start = total
        with (tree / rel).open("rb") as src, dst.open("wb") as out:
            while chunk := src.read(_CHUNK):
                total += len(chunk)
                if total > max_bytes:
                    raise OutputLimitExceeded(total, max_bytes)
                hasher.update(chunk)
                out.write(chunk)
        entries.append((rel, hasher.digest(), total - start))
    return digest_entries(entries)


def _copy_regular(src: str, dst: str) -> None:
    # a FIFO or a device would block or never end the read
    if not stat.S_ISREG(os.stat(src).st_mode):
        raise UnreadableFile(src, "not a regular file or directory")
    shutil.copy2(src, dst)


def execute(
    root: str | Path,
    manifest: PackageManifest,
    limits: ExecutionLimits = ExecutionLimits(),
    work_dir: str | Path | None = None,
    nonce: bytes | None = None,
) -> ExecutionRecord:
    """Run ``manifest.entrypoint`` in a fresh copy of ``root``.

    ``work_dir`` receives the sandbox and log files and is kept for the
    caller (a temporary directory is created when omitted). ``nonce``
    overrides the per-run random nonce; only tests and the reproducible
    CLI path should pass it.
    """
    if nonce is None:
        nonce = os.urandom(32)
    if len(nonce) != 32:
        raise ValueError("nonce must be 32 bytes")

    # absolute: the child runs in the sandbox, so a relative entrypoint path would miss it
    work = Path(work_dir).absolute() if work_dir is not None else Path(tempfile.mkdtemp(prefix="attestrep-run-"))
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
        proc = subprocess.Popen(command, cwd=tree, env=env, stdout=out_fh, stderr=err_fh)
        try:
            exit_status = proc.wait(timeout=limits.max_seconds)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise TimeLimitExceeded(limits.max_seconds) from None
    finished_at = int(time.time())
    wall_seconds = round(time.monotonic() - started_clock, 3)

    matched = _collect_outputs(tree, manifest.declared_outputs)
    if exit_status == 0 and not matched:
        raise NoDeclaredOutputsMatched(manifest.declared_outputs)

    snapshot = work / "outputs"
    if snapshot.exists():
        shutil.rmtree(snapshot)
    snapshot.mkdir()
    output_digest = _snapshot_outputs(tree, matched, snapshot, limits.max_output_bytes)

    return ExecutionRecord(
        package_digest=package_digest,
        output_digest=output_digest,
        exit_status=exit_status,
        wall_seconds=wall_seconds,
        stdout_log_digest=file_sha256(stdout_log)[0],
        stderr_log_digest=file_sha256(stderr_log)[0],
        started_at=started_at,
        finished_at=finished_at,
        nonce=nonce,
    )


def estimate_cost(record: ExecutionRecord, rates: CostRates) -> CostEstimate:
    """Dollar cost of a run: VM time plus storage, exact to 4 decimal places.

    Stored bytes are the package plus the output snapshot, the two trees
    the portal archives.
    """
    wall = Decimal(str(record.wall_seconds))
    compute = (rates.hourly_rate_usd * wall / Decimal(3600)).quantize(_CENTS4, rounding=ROUND_HALF_UP)
    stored_bytes = Decimal(record.package_digest.total_bytes + record.output_digest.total_bytes)
    storage = (rates.storage_usd_per_gib * stored_bytes / _GIB).quantize(_CENTS4, rounding=ROUND_HALF_UP)
    return CostEstimate(
        hourly_rate_usd=rates.hourly_rate_usd,
        compute_cost_usd=compute,
        storage_cost_usd=storage,
    )
