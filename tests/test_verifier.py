from __future__ import annotations

import json
import random
from pathlib import Path

from attestrep.bundle import parse_bundle, serialize_bundle
from attestrep.canonical import canonical_json_bytes, sha256
from attestrep.package_model import digest_package
from attestrep.verifier import (
    BUNDLE_ID_MISMATCH,
    CHAIN_SIGNATURE_INVALID,
    DIGEST_MISMATCH,
    ENDORSEMENT_NOT_YET_VALID,
    EXPIRED_ENDORSEMENT,
    NONZERO_EXIT,
    PARSE_ERROR,
    QUOTE_SIGNATURE_INVALID,
    REPORT_DATA_MISMATCH,
    UNTRUSTED_ROOT,
    VERSION_UNSUPPORTED,
    verify_against_archive,
    verify_bundle,
)
from conftest import NOW


def _reserialized(data: bytes, mutate) -> bytes:
    """Edit the canonical JSON with ``mutate(obj)`` and re-serialize."""
    obj = json.loads(data)
    mutate(obj)
    return canonical_json_bytes(obj)


def _rehash(obj: dict) -> None:
    """Recompute bundle_id after an edit, keeping the bundle canonical."""
    body = {key: value for key, value in obj.items() if key != "bundle_id"}
    obj["bundle_id"] = sha256(canonical_json_bytes(body)).hex()


def test_valid_bundle_accepts(valid_bundle_bytes, provider) -> None:
    verdict = verify_bundle(valid_bundle_bytes, [provider.root_public_key], now=NOW)
    assert verdict.accepted and verdict.reason is None
    assert bool(verdict)


def test_hex_trust_roots_accepted(valid_bundle_bytes, provider) -> None:
    verdict = verify_bundle(valid_bundle_bytes, [provider.root_public_key.hex()], now=NOW)
    assert verdict.accepted


def test_untrusted_root(valid_bundle_bytes, other_provider) -> None:
    verdict = verify_bundle(valid_bundle_bytes, [other_provider.root_public_key], now=NOW)
    assert not verdict.accepted
    assert verdict.reason == UNTRUSTED_ROOT


def test_swapped_output_digest_breaks_binding(valid_bundle_bytes, provider) -> None:
    # replace output_digest with another well-formed digest and re-serialize
    def mutate(obj: dict) -> None:
        obj["output_digest"]["value"] = sha256(b"some other tree").hex()
        _rehash(obj)

    verdict = verify_bundle(_reserialized(valid_bundle_bytes, mutate), [provider.root_public_key], now=NOW)
    assert verdict.reason == REPORT_DATA_MISMATCH


def test_swapped_package_digest_breaks_binding(valid_bundle_bytes, provider) -> None:
    def mutate(obj: dict) -> None:
        obj["package_digest"]["value"] = sha256(b"imposter").hex()
        _rehash(obj)

    verdict = verify_bundle(_reserialized(valid_bundle_bytes, mutate), [provider.root_public_key], now=NOW)
    assert verdict.reason == REPORT_DATA_MISMATCH


def test_parse_failure_reasons(provider) -> None:
    assert verify_bundle(b"not json", [provider.root_public_key], now=NOW).reason == PARSE_ERROR


def test_version_unsupported_reason(valid_bundle_bytes, provider) -> None:
    data = _reserialized(valid_bundle_bytes, lambda obj: obj.update(format_version=9))
    assert verify_bundle(data, [provider.root_public_key], now=NOW).reason == VERSION_UNSUPPORTED


def test_validity_window(valid_bundle_bytes, provider) -> None:
    endorsement = provider.export_chain().attestation_endorsement
    before = verify_bundle(valid_bundle_bytes, [provider.root_public_key], now=endorsement.not_before - 1)
    assert before.reason == ENDORSEMENT_NOT_YET_VALID
    after = verify_bundle(valid_bundle_bytes, [provider.root_public_key], now=endorsement.not_after + 1)
    assert after.reason == EXPIRED_ENDORSEMENT
    at_edges = verify_bundle(valid_bundle_bytes, [provider.root_public_key], now=endorsement.not_before)
    assert at_edges.accepted


def test_flipped_endorsement_signature(valid_bundle_bytes, provider) -> None:
    def mutate(obj: dict) -> None:
        signature = bytearray(bytes.fromhex(obj["chain"]["attestation_endorsement"]["signature"]))
        signature[3] ^= 0x40
        obj["chain"]["attestation_endorsement"]["signature"] = bytes(signature).hex()
        _rehash(obj)

    verdict = verify_bundle(_reserialized(valid_bundle_bytes, mutate), [provider.root_public_key], now=NOW)
    assert verdict.reason == CHAIN_SIGNATURE_INVALID


def test_flipped_quote_signature(valid_bundle_bytes, provider) -> None:
    def mutate(obj: dict) -> None:
        signature = bytearray(bytes.fromhex(obj["quote"]["signature"]))
        signature[10] ^= 0x02
        obj["quote"]["signature"] = bytes(signature).hex()
        _rehash(obj)

    verdict = verify_bundle(_reserialized(valid_bundle_bytes, mutate), [provider.root_public_key], now=NOW)
    assert verdict.reason == QUOTE_SIGNATURE_INVALID


def test_bundle_id_mismatch(valid_bundle_bytes, provider) -> None:
    def mutate(obj: dict) -> None:
        flipped = bytearray(bytes.fromhex(obj["bundle_id"]))
        flipped[0] ^= 0x01
        obj["bundle_id"] = bytes(flipped).hex()

    verdict = verify_bundle(_reserialized(valid_bundle_bytes, mutate), [provider.root_public_key], now=NOW)
    assert verdict.reason == BUNDLE_ID_MISMATCH


def test_nonzero_exit_rejected(valid_bundle_bytes, provider) -> None:
    def mutate(obj: dict) -> None:
        obj["execution"]["exit_status"] = 1
        _rehash(obj)

    verdict = verify_bundle(_reserialized(valid_bundle_bytes, mutate), [provider.root_public_key], now=NOW)
    assert verdict.reason == NONZERO_EXIT


def test_wall_seconds_edit_caught_by_bundle_id(valid_bundle_bytes, provider) -> None:
    data = _reserialized(valid_bundle_bytes, lambda obj: obj["execution"].update(wall_seconds=999.0))
    verdict = verify_bundle(data, [provider.root_public_key], now=NOW)
    assert verdict.reason == BUNDLE_ID_MISMATCH


def test_mutation_suite_never_accepts(valid_bundle_bytes, provider) -> None:
    rng = random.Random(0x5EED)
    roots = [provider.root_public_key]
    for _ in range(500):
        data = bytearray(valid_bundle_bytes)
        pos = rng.randrange(len(data))
        old = data[pos]
        new = rng.randrange(256)
        while new == old:
            new = rng.randrange(256)
        data[pos] = new
        verdict = verify_bundle(bytes(data), roots, now=NOW)
        assert not verdict.accepted, f"accepted mutation at byte {pos}: {old} -> {new}"


def test_completeness_fresh_bundles_accept(answer42: Path, tmp_path: Path, provider) -> None:
    from attestrep.bundle import build_bundle
    from conftest import run_package

    for i in range(3):
        record = run_package(answer42, tmp_path / f"w{i}")
        data = serialize_bundle(build_bundle(record, provider, now=NOW))
        assert verify_bundle(data, [provider.root_public_key], now=NOW).accepted


class TestVerifyAgainstArchive:
    def test_matching_digest_accepts(self, valid_bundle) -> None:
        assert verify_against_archive(valid_bundle, valid_bundle.package_digest.value).accepted

    def test_recomputed_from_disk_accepts(self, valid_bundle, answer42: Path) -> None:
        fresh = digest_package(answer42)
        assert verify_against_archive(valid_bundle, fresh.value).accepted

    def test_modified_package_rejects(self, valid_bundle, answer42: Path) -> None:
        (answer42 / "run.sh").write_text("#!/bin/sh\necho tampered\n")
        verdict = verify_against_archive(valid_bundle, digest_package(answer42).value)
        assert verdict.reason == DIGEST_MISMATCH
