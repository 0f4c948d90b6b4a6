"""The verifier's chain-signature memo saves Ed25519 checks and never changes a verdict.

Every bundle one provider issues carries the same endorsement chain, so the
root self-signature and the endorsement signature are checked once per
process; the quote and every check against ``roots`` and ``now`` run on
every call. Public keys are loaded once each, and a loaded key still checks
every signature it is given.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from attestrep import attestation, verifier
from attestrep.attestation import (
    KEY_MEMO_SIZE,
    AttestationEndorsement,
    AttestationProvider,
    ProviderConfig,
    key_fingerprint,
)
from attestrep.bundle import build_bundle, serialize_bundle
from attestrep.canonical import canonical_json_bytes, sha256
from attestrep.verifier import (
    CHAIN_MEMO_SIZE,
    CHAIN_SIGNATURE_INVALID,
    ENDORSEMENT_NOT_YET_VALID,
    EXPIRED_ENDORSEMENT,
    QUOTE_SIGNATURE_INVALID,
    UNTRUSTED_ROOT,
    verify_bundle,
)
from conftest import NOW, OTHER_SEED, PROVIDER_SEED, T0
from test_bundle import golden_record

_MEMOS = (verifier._root_statement_valid, verifier._endorsement_valid)


def _clear() -> None:
    for memo in _MEMOS + (attestation._public_key,):
        memo.cache_clear()


def _provider(seed: bytes = PROVIDER_SEED) -> AttestationProvider:
    return AttestationProvider(ProviderConfig(root_secret_seed=seed), now=T0)


def _bundle_bytes(provider: AttestationProvider, nonce: int = 0x55) -> bytes:
    record = golden_record().replace(nonce=nonce.to_bytes(32, "big"))
    return serialize_bundle(build_bundle(record, provider, now=NOW))


def _edited(data: bytes, mutate) -> bytes:
    """``data`` with ``mutate(obj)`` applied and bundle_id recomputed, still canonical."""
    obj = json.loads(data)
    mutate(obj)
    obj["bundle_id"] = sha256(canonical_json_bytes({k: v for k, v in obj.items() if k != "bundle_id"})).hex()
    return canonical_json_bytes(obj)


def _flip_signature(*path: str):
    def mutate(obj: dict) -> None:
        for key in path:
            obj = obj[key]
        signature = bytearray(bytes.fromhex(obj["signature"]))
        signature[7] ^= 0x10
        obj["signature"] = bytes(signature).hex()

    return mutate


PROVIDER = _provider()
OTHER = _provider(OTHER_SEED)
ROOTS = [PROVIDER.root_public_key]
VALID = _bundle_bytes(PROVIDER)
OTHER_VALID = _bundle_bytes(OTHER)


def _warm() -> None:
    assert verify_bundle(VALID, ROOTS, now=NOW).accepted


def test_one_provider_costs_two_chain_checks_in_all(monkeypatch) -> None:
    k = 12
    bundles = [_bundle_bytes(PROVIDER, nonce) for nonce in range(k)]
    calls = []
    real = attestation._verify_ed25519

    def counted(*args) -> bool:
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(attestation, "_verify_ed25519", counted)
    _clear()
    assert all(verify_bundle(data, ROOTS, now=NOW).accepted for data in bundles)
    assert len(calls) == k + 2  # every quote, and the root statement and the endorsement once


def test_quote_is_checked_on_every_call() -> None:
    _warm()
    forged = _edited(VALID, _flip_signature("quote"))
    for _ in range(3):
        assert verify_bundle(forged, ROOTS, now=NOW).reason == QUOTE_SIGNATURE_INVALID


def test_a_loaded_key_still_refuses_a_flipped_quote_signature() -> None:
    _clear()
    forged = _edited(VALID, _flip_signature("quote"))
    for _ in range(3):
        assert verify_bundle(VALID, ROOTS, now=NOW).accepted
        assert verify_bundle(forged, ROOTS, now=NOW).reason == QUOTE_SIGNATURE_INVALID
    keys = attestation._public_key.cache_info()
    assert keys.currsize == 2 and keys.hits >= 5  # the key was loaded once and used for the forged quotes too


def _endorsing(key: bytes):
    """An edit that has PROVIDER's root endorse ``key`` and names it as the quote's signing key."""
    def mutate(obj: dict) -> None:
        endorsement = AttestationEndorsement.from_dict(obj["chain"]["attestation_endorsement"])
        endorsement = endorsement.replace(attestation_public_key=key)
        signature = Ed25519PrivateKey.from_private_bytes(PROVIDER_SEED).sign(endorsement.canonical_body())
        obj["chain"]["attestation_endorsement"] = endorsement.replace(signature=signature).to_dict()
        obj["quote"]["signing_key_id"] = key_fingerprint(key).hex()

    return mutate


@pytest.mark.parametrize("key", [b"\xff" * 32, b"\x00" * 32, b"\x02" + b"\x00" * 31], ids=["ff", "zero", "small"])
def test_a_32_byte_key_that_is_no_point_is_a_reject(key: bytes) -> None:
    data = _edited(VALID, _endorsing(key))
    _clear()
    for _ in range(2):  # cold, then with whatever the first call kept
        assert verify_bundle(data, ROOTS, now=NOW).reason == QUOTE_SIGNATURE_INVALID


@pytest.mark.parametrize(
    ("roots", "now", "reason"),
    [
        ([OTHER.root_public_key], NOW, UNTRUSTED_ROOT),
        (ROOTS, PROVIDER.export_chain().attestation_endorsement.not_after + 1, EXPIRED_ENDORSEMENT),
        (ROOTS, PROVIDER.export_chain().attestation_endorsement.not_before - 1, ENDORSEMENT_NOT_YET_VALID),
    ],
    ids=["roots-exclude-the-chain", "past-not-after", "before-not-before"],
)
def test_memoized_chain_still_meets_roots_and_clock(roots, now: int, reason: str) -> None:
    _warm()
    assert verify_bundle(VALID, roots, now=now).reason == reason
    assert verify_bundle(VALID, ROOTS, now=NOW).accepted


def _resigned_by_other_root(obj: dict) -> None:
    endorsement = AttestationEndorsement.from_dict(obj["chain"]["attestation_endorsement"])
    signature = Ed25519PrivateKey.from_private_bytes(OTHER_SEED).sign(endorsement.canonical_body())
    obj["chain"]["attestation_endorsement"]["signature"] = signature.hex()


def _root_statement_of_other(obj: dict) -> None:
    obj["chain"]["root_statement"] = OTHER.export_chain().root_statement.to_dict()


@pytest.mark.parametrize(
    ("mutate", "roots"),
    [
        (_flip_signature("chain", "root_statement"), ROOTS),
        (_flip_signature("chain", "attestation_endorsement"), ROOTS),
        (_resigned_by_other_root, ROOTS),
        # the endorsement passed under PROVIDER's root, not under this trusted, validly self-signed one
        (_root_statement_of_other, ROOTS + [OTHER.root_public_key]),
    ],
    ids=["root-signature-flipped", "endorsement-signature-flipped", "resigned-by-other-root", "other-root-statement"],
)
def test_memoized_chain_still_rejects_a_changed_chain(mutate, roots) -> None:
    _warm()
    assert verify_bundle(OTHER_VALID, [OTHER.root_public_key], now=NOW).accepted
    verdict = verify_bundle(_edited(VALID, mutate), roots, now=NOW)
    assert verdict.reason == CHAIN_SIGNATURE_INVALID


@settings(max_examples=300, deadline=None)
@given(position=st.integers(min_value=0, max_value=len(VALID) - 1), value=st.integers(min_value=0, max_value=255))
def test_warm_memo_gives_the_cold_verdict(position: int, value: int) -> None:
    mutated = bytearray(VALID)
    mutated[position] = value
    _warm()
    warm = verify_bundle(bytes(mutated), ROOTS, now=NOW)
    _clear()
    cold = verify_bundle(bytes(mutated), ROOTS, now=NOW)
    assert warm == cold


def test_memo_stays_within_its_bound() -> None:
    _clear()
    for i in range(CHAIN_MEMO_SIZE + 8):
        provider = _provider(i.to_bytes(32, "big"))
        assert verify_bundle(_bundle_bytes(provider), [provider.root_public_key], now=NOW).accepted
    for memo in _MEMOS:
        info = memo.cache_info()
        assert info.maxsize == CHAIN_MEMO_SIZE and info.currsize == CHAIN_MEMO_SIZE
    keys = attestation._public_key.cache_info()  # a root and an attestation key per provider
    assert keys.maxsize == KEY_MEMO_SIZE and keys.currsize == KEY_MEMO_SIZE


def test_threads_get_the_serial_verdicts() -> None:
    corpus = [
        VALID,
        OTHER_VALID,
        _bundle_bytes(PROVIDER, 1),
        _edited(VALID, _flip_signature("quote")),
        _edited(VALID, _flip_signature("chain", "root_statement")),
        _edited(VALID, _flip_signature("chain", "attestation_endorsement")),
        _edited(VALID, _resigned_by_other_root),
        _edited(VALID, lambda obj: obj["execution"].update(exit_status=3)),
        VALID[:-1],
    ]
    roots = ROOTS + [OTHER.root_public_key]
    cases = [(data, now) for data in corpus for now in (NOW, T0 - 1)] * 8
    _clear()
    serial = [verify_bundle(data, roots, now=now) for data, now in cases]
    assert sum(verdict.accepted for verdict in serial) == 3 * 8
    _clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo's lookups and fills too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda case: verify_bundle(case[0], roots, now=case[1]), cases, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
