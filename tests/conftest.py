from __future__ import annotations

from pathlib import Path

import pytest

from attestrep.attestation import AttestationProvider, ProviderConfig
from attestrep.bundle import ProofBundle, build_bundle, serialize_bundle
from attestrep.package_model import load_manifest
from attestrep.runner import ExecutionRecord, execute

# chain anchor and verification instant used across suites
T0 = 1_700_000_000
NOW = T0 + 3600

PROVIDER_SEED = b"\x01" * 32
OTHER_SEED = b"\x02" * 32

# a store written when each submission also had a record file, submissions/<id>.json (see its README)
LEGACY_STORE = Path(__file__).parent / "fixtures" / "legacy_store"


def make_package(
    root: Path,
    script: str = "#!/bin/sh\nmkdir -p results\necho 42 > results/answer.txt\n",
    outputs: tuple[str, ...] = ("results/",),
    extra_files: dict[str, str] | None = None,
) -> Path:
    """Write a runnable package with a manifest into ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    lines = ["entrypoint = run.sh"]
    lines += [f"output = {out}" for out in outputs]
    lines += ["env = sh@posix", "meta.title = answer42"]
    (root / "attestrep.manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "run.sh").write_text(script, encoding="utf-8")
    for rel, content in (extra_files or {}).items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")
    return root


@pytest.fixture
def answer42(tmp_path: Path) -> Path:
    return make_package(tmp_path / "answer42")


@pytest.fixture
def provider() -> AttestationProvider:
    return AttestationProvider(ProviderConfig(root_secret_seed=PROVIDER_SEED), now=T0)


@pytest.fixture
def other_provider() -> AttestationProvider:
    return AttestationProvider(ProviderConfig(root_secret_seed=OTHER_SEED), now=T0)


def run_package(root: Path, work_dir: Path, nonce: bytes | None = None) -> ExecutionRecord:
    return execute(root, load_manifest(root), work_dir=work_dir, nonce=nonce)


@pytest.fixture
def valid_bundle(answer42: Path, tmp_path: Path, provider: AttestationProvider) -> ProofBundle:
    record = run_package(answer42, tmp_path / "work")
    return build_bundle(record, provider, now=NOW)


@pytest.fixture
def valid_bundle_bytes(valid_bundle: ProofBundle) -> bytes:
    return serialize_bundle(valid_bundle)
