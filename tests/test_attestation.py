from __future__ import annotations

import random

import pytest

from attestrep.attestation import (
    AttestationProvider,
    AttestationQuote,
    BadMeasurementLength,
    BadReportDataLength,
    BadSeedLength,
    ProviderConfig,
    key_fingerprint,
)

# golden values captured from the first correct run and frozen
ZERO_SEED_ROOT_PUB = "3b6a27bcceb6a42d62a3a8d02a6f0d73653215771de243a63ac048a18b59da29"
ZERO_SEED_ATTEST_PUB = "da0ae10c50ebc25711273b21fe541089658f24223a3e4a454b920079b61691f4"
ZERO_SEED_KEY_ID = "4c57fae718c74e65e017fd77f4e5d39da818a56dcf8ff8b12efbd482a8e9ca65"
GOLDEN_QUOTE_SIG = (
    "9a811560d81a5c89a917b4157b678e41af302c05238a7b1652ef9caf7707416"
    "54f1dc0cca37ce0ccb1a2e656bce8a757fa34f47760724a1fa2f9623347fe2508"
)


def _zero_provider() -> AttestationProvider:
    return AttestationProvider(ProviderConfig(root_secret_seed=b"\x00" * 32), now=0)


def _verifies(quote: AttestationQuote, key: bytes) -> bool:
    return AttestationQuote.verify_signature(key, quote.signing_key_id, quote.signature, quote.canonical_body())


def test_zero_seed_keys_are_stable() -> None:
    provider = _zero_provider()
    assert provider.root_public_key.hex() == ZERO_SEED_ROOT_PUB
    assert provider.attestation_public_key.hex() == ZERO_SEED_ATTEST_PUB
    assert provider.signing_key_id.hex() == ZERO_SEED_KEY_ID
    assert provider.signing_key_id == key_fingerprint(provider.attestation_public_key)


def test_short_seed_rejected() -> None:
    with pytest.raises(BadSeedLength):
        ProviderConfig(root_secret_seed=b"\x00" * 31)


def test_distinct_seeds_distinct_roots() -> None:
    one = AttestationProvider(ProviderConfig(root_secret_seed=b"\x01" * 32), now=0)
    two = AttestationProvider(ProviderConfig(root_secret_seed=b"\x02" * 32), now=0)
    assert one.root_public_key != two.root_public_key
    assert one.attestation_public_key != two.attestation_public_key


def test_golden_quote_is_byte_identical_across_runs() -> None:
    measurement = b"\x11" * 32
    report_data = b"\x22" * 64
    first = _zero_provider().sign_quote(measurement, report_data, now=1_700_000_000)
    second = _zero_provider().sign_quote(measurement, report_data, now=1_700_000_000)
    assert first == second
    assert first.signature.hex() == GOLDEN_QUOTE_SIG
    assert first.canonical_body() == second.canonical_body()


def test_quote_length_checks() -> None:
    provider = _zero_provider()
    with pytest.raises(BadMeasurementLength):
        provider.sign_quote(b"\x11" * 31, b"\x22" * 64)
    with pytest.raises(BadReportDataLength):
        provider.sign_quote(b"\x11" * 32, b"\x22" * 63)


def test_different_measurements_different_signatures() -> None:
    provider = _zero_provider()
    one = provider.sign_quote(b"\x11" * 32, b"\x22" * 64, now=5)
    two = provider.sign_quote(b"\x12" * 32, b"\x22" * 64, now=5)
    assert one.signature != two.signature
    assert one.canonical_body() != two.canonical_body()


def test_quote_verifies_under_attestation_key_only() -> None:
    provider = _zero_provider()
    other = AttestationProvider(ProviderConfig(root_secret_seed=b"\x03" * 32), now=0)
    quote = provider.sign_quote(b"\x11" * 32, b"\x22" * 64, now=5)
    assert _verifies(quote, provider.attestation_public_key)
    assert not _verifies(quote, other.attestation_public_key)
    assert not _verifies(quote, provider.root_public_key)


def test_quote_mutation_unforgeability() -> None:
    # >= 1000 random single-field mutations, none may verify
    provider = _zero_provider()
    quote = provider.sign_quote(b"\x11" * 32, b"\x22" * 64, now=1_700_000_000)
    pub = provider.attestation_public_key
    rng = random.Random(0xF0509)
    for _ in range(1000):
        field = rng.choice(["measurement", "report_data", "issued_at", "provider_id", "version", "signature"])
        if field in ("measurement", "report_data", "signature"):
            data = bytearray(getattr(quote, field))
            data[rng.randrange(len(data))] ^= rng.randint(1, 255)
            mutated = quote.replace(**{field: bytes(data)})
        elif field == "issued_at":
            mutated = quote.replace(issued_at=quote.issued_at + rng.randint(1, 10_000))
        elif field == "version":
            mutated = quote.replace(version=quote.version + rng.randint(1, 5))
        else:
            mutated = quote.replace(provider_id=quote.provider_id + rng.choice("abc"))
        assert not _verifies(mutated, pub)


class TestEndorsementChain:
    def test_fresh_chain_verifies(self) -> None:
        chain = _zero_provider().export_chain()
        assert chain.root_statement.verify()
        assert chain.attestation_endorsement.verify(chain.root_statement.root_public_key)
        assert chain.attestation_endorsement.not_before < chain.attestation_endorsement.not_after

    def test_flipped_endorsement_signature_fails(self) -> None:
        chain = _zero_provider().export_chain()
        bad_sig = bytearray(chain.attestation_endorsement.signature)
        bad_sig[7] ^= 0x01
        broken = chain.replace(attestation_endorsement=chain.attestation_endorsement.replace(signature=bytes(bad_sig)))
        assert broken.root_statement.verify()
        assert not broken.attestation_endorsement.verify(broken.root_statement.root_public_key)

    def test_chain_does_not_verify_under_other_root(self) -> None:
        ours = _zero_provider().export_chain()
        other = AttestationProvider(ProviderConfig(root_secret_seed=b"\x04" * 32), now=0)
        assert not ours.attestation_endorsement.verify(other.root_public_key)
        assert ours.attestation_endorsement.verify(ours.root_statement.root_public_key)

    def test_validity_window_from_config(self) -> None:
        provider = AttestationProvider(
            ProviderConfig(root_secret_seed=b"\x00" * 32, attestation_validity=100), now=1000
        )
        endorsement = provider.export_chain().attestation_endorsement
        assert endorsement.not_before == 1000
        assert endorsement.not_after == 1100
