"""The lanes the workloads interleave: author, reader (with its CLI) and portal.

Each lane has a ``setup`` (counted in ``setup_s``) and a ``step`` that works
as a closed loop: the caller issues its next operation only after the last
one returned. Steps append their timings to ``samples``, a dict of lists
shared by the lanes; checks that the next operation does not depend on run
untimed or after the loop.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

import inputs
from attestrep import archive, bundle, package_model, runner, verifier
from attestrep.attestation import AttestationProvider, ProviderConfig
from attestrep.portal import audit, core

ROOT = Path(__file__).resolve().parents[1]
T0 = 1_700_000_000  # fixed clock for the reader corpus
FIXED_SEED = b"\x5a" * 32  # provider of the seed-independent forged bundles

ACCEPT = None
EXPECTED_REASON = {
    "valid": ACCEPT,
    "sig-flip": "QuoteSignatureInvalid",
    "untrusted-root": "UntrustedRoot",
    "expired": "ExpiredEndorsement",
    "output-edit": "ReportDataMismatch",
    "non-canonical": "ParseError",
}
FORGED = "forged-summary"
# One reader round: 48 bundles, 30 valid and 3 of each mutation class.
CORPUS_MIX = {"valid": 30, "sig-flip": 3, "untrusted-root": 3, "expired": 3, "output-edit": 3,
              "non-canonical": 3, FORGED: 3}
# The CLI cycles through these; no forged bundle, so the failed share of a run does not
# depend on how many CLI processes fit in it.
CLI_CYCLE = ["valid"] * 5 + ["sig-flip", "valid", "untrusted-root", "valid", "expired", "valid", "output-edit",
                             "valid", "non-canonical"]


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)


def seed_bytes(rng: random.Random) -> bytes:
    return rng.randbytes(32)


_CAL_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_CAL_PUBLIC, _CAL_MESSAGE = _CAL_KEY.public_key(), bytes(range(200))
_CAL_SIGNATURE = _CAL_KEY.sign(_CAL_MESSAGE)
_CAL_DOCUMENT = json.dumps({f"field{i:02d}": {"value": hashlib.sha256(bytes([i])).hexdigest(), "n": i, "ok": i % 2 == 0}
                            for i in range(24)})
REFERENCE_S = 1e-3  # the reader's times are stated for a host on which calibrate() takes 1 ms


def calibrate() -> float:
    """Wall seconds for fixed work of the kinds a verification does, done by the libraries directly.

    Three Ed25519 checks, one JSON parse and four canonical encodings with
    their SHA-256, about 1 ms in all. None of it is attestrep's code, so a
    change to the program does not change this reading; a change in how fast
    the host runs such work does. Co-tenants of a shared host change that by
    up to ~1.8x for seconds to minutes at a time.
    """
    start = time.perf_counter()
    for _ in range(3):
        _CAL_PUBLIC.verify(_CAL_SIGNATURE, _CAL_MESSAGE)
    body = json.loads(_CAL_DOCUMENT)
    for _ in range(4):
        hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).digest()
    return time.perf_counter() - start


class Author:
    """Pack and attest a stream of fresh packages of one shape; one attest per step."""

    def __init__(self, work: Path, rng: random.Random, shape: inputs.Shape, samples: dict[str, list], tracer=None) -> None:
        self.work, self.rng, self.shape, self.samples, self.tracer = work, rng, shape, samples, tracer
        self.outcome = Outcome()
        self._n = 0

    def setup(self) -> None:
        self.provider = AttestationProvider(ProviderConfig(root_secret_seed=seed_bytes(self.rng)))
        self.tree = inputs.Tree(self.work / "pkg", self.shape, self.rng)
        self.tree.next("author-setup")  # creates the files; every step rewrites them in place

    def step(self) -> None:
        i = self._n
        self._n += 1
        name = f"author-{i}"
        pkg = self.tree.next(name)
        nonce = hashlib.sha256(b"nonce" + self.rng.randbytes(8)).digest()
        run_dir = self.work / f"run{i}"
        with _request(self.tracer, name):
            start = time.perf_counter()
            manifest = package_model.load_manifest(pkg.root)
            packed = time.perf_counter()
            tar = archive.pack_tree(pkg.root)
            pack_done = time.perf_counter()
            record = runner.execute(pkg.root, manifest, work_dir=run_dir, nonce=nonce)
            data = bundle.serialize_bundle(bundle.build_bundle(record, self.provider))
            end = time.perf_counter()
        self.samples["attest"].append(((end - start) * 1e3, pkg.total_bytes + pkg.output_bytes))
        self.samples["pack_ms"].append((pack_done - packed) * 1e3)
        self.outcome.attempted += 1
        with _paused(self.tracer):
            problem = self._check(pkg, tar, data, nonce)
        if problem:
            self.outcome.wrong.append(f"{name}: {problem}")
        # run directories go with the work directory after the run, so that deleting
        # thousands of files does not load the file system while other lanes are timed

    def _check(self, pkg: inputs.Package, tar: bytes, data: bytes, nonce: bytes) -> str | None:
        body = json.loads(data)
        pd = body["package_digest"]
        if inputs.tree_digest(pkg.root) != pkg.digest:
            return "generated tree changed"
        if bytes.fromhex(pd["value"]) != pkg.digest or inputs.tar_digest(tar) != pkg.digest:
            return "package digest differs from the naive tree and tar digests"
        if (pd["file_count"], pd["total_bytes"]) != (pkg.files, pkg.total_bytes):
            return "package file count or size"
        od = body["output_digest"]
        if bytes.fromhex(od["value"]) != pkg.output_digest or od["total_bytes"] != pkg.output_bytes:
            return "output digest differs from the expected outputs"
        if body["execution"]["nonce"] != nonce.hex() or body["execution"]["exit_status"] != 0:
            return "execution summary"
        quote = body["quote"]
        if quote["report_data"] != inputs.report_data(pkg.digest, pkg.output_digest, nonce).hex():
            return "report_data"
        if quote["measurement"] != inputs.measurement(pkg.digest).hex():
            return "measurement"
        if body["bundle_id"] != inputs.bundle_id(body):
            return "bundle_id"
        if not verifier.verify_bundle(data, [self.provider.root_public_key], now=int(time.time())).accepted:
            return "verify_bundle rejects the fresh proof"
        return None


@dataclass(frozen=True)
class Item:
    kind: str
    data: bytes
    now: int


class Reader:
    """Verify a corpus of valid and tampered bundles, in process and through the CLI."""

    def __init__(self, work: Path, rng: random.Random, samples: dict[str, list], tracer=None) -> None:
        self.work, self.rng, self.samples, self.tracer = work, rng, samples, tracer
        self.outcome = Outcome()
        self._cli_n = 0
        self._rounds = 0

    def setup(self) -> None:
        trusted = [AttestationProvider(ProviderConfig(root_secret_seed=seed_bytes(self.rng)), now=T0) for _ in range(2)]
        fixed = AttestationProvider(ProviderConfig(root_secret_seed=FIXED_SEED), now=T0)
        untrusted = AttestationProvider(ProviderConfig(root_secret_seed=seed_bytes(self.rng)), now=T0)
        self.roots = [p.root_public_key for p in trusted + [fixed]]
        records = [self._record(f"reader-{i}", self.rng) for i in range(3)]
        forged_base = self._record("forged-base", random.Random(0xF0F0))  # does not depend on the seed
        self.now = T0 + 10_000

        items: list[Item] = []
        j = 0
        for kind, count in CORPUS_MIX.items():
            for _ in range(count):
                j += 1
                source = forged_base if kind == FORGED else records[j % len(records)]
                signer = {FORGED: fixed, "untrusted-root": untrusted}.get(kind, trusted[j % 2])
                data = bundle.serialize_bundle(bundle.build_bundle(source, signer, now=T0 + 100 + j))
                items.append(self._mutate(kind, data))
        self.rng.shuffle(items)
        self.corpus = items
        self.cli_items: list[tuple[Item, Path]] = []
        for n, kind in enumerate(CLI_CYCLE):
            item = next(it for it in items if it.kind == kind and all(it is not c for c, _ in self.cli_items))
            path = self.work / f"cli{n}.arproof"
            path.write_bytes(item.data)
            self.cli_items.append((item, path))
        self._cli_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def _record(self, name: str, rng: random.Random):
        pkg = inputs.Tree(self.work / name, inputs.TINY, rng).next(name)
        return runner.execute(pkg.root, package_model.load_manifest(pkg.root), work_dir=self.work / f"{name}-run",
                              nonce=hashlib.sha256(name.encode()).digest())

    def _mutate(self, kind: str, data: bytes) -> Item:
        body = json.loads(data)
        now = self.now
        if kind == "sig-flip":
            sig = body["quote"]["signature"]
            body["quote"]["signature"] = ("0" if sig[0] != "0" else "1") + sig[1:]
        elif kind == "expired":
            now = body["chain"]["attestation_endorsement"]["not_after"] + 1
        elif kind == "output-edit":
            value = body["output_digest"]["value"]
            body["output_digest"]["value"] = ("0" if value[0] != "0" else "1") + value[1:]
            body["bundle_id"] = inputs.bundle_id(body)
        elif kind == FORGED:
            body["execution"]["wall_seconds"] = body["execution"]["wall_seconds"] + 1000.5
            body["execution"]["stdout_log_digest"] = hashlib.sha256(b"forged stdout").hexdigest()
            body["bundle_id"] = inputs.bundle_id(body)
        out = inputs.canonical(body)
        if kind == "non-canonical":
            out = b"{ " + out[1:]
        return Item(kind, out, now)

    def step(self) -> None:
        """One round: every corpus bundle once, in corpus order, each verified, timed and checked.

        The round's times are scaled to a host on which ``calibrate()`` takes
        ``REFERENCE_S``, by the mean of two readings taken just before and just
        after the round. The round does no I/O, so its own work cannot reach
        either reading; every verification counts.
        """
        verdicts, times = [], []
        n = self._rounds
        self._rounds += 1
        before = calibrate()
        start = time.perf_counter()
        for k, item in enumerate(self.corpus):
            with _request(self.tracer, f"verify-{n}-{k}"):
                t0 = time.perf_counter()
                verdict = verifier.verify_bundle(item.data, self.roots, now=item.now)
                times.append(time.perf_counter() - t0)
            verdicts.append(verdict)
        elapsed = time.perf_counter() - start
        scale = REFERENCE_S / ((before + calibrate()) / 2)
        self.samples["verify_us"].extend(t * scale * 1e6 for t in times)
        self.samples["verify_loop"].append((len(self.corpus), elapsed * scale))
        for item, verdict in zip(self.corpus, verdicts):
            self._judge(item.kind, verdict.accepted, verdict.reason, f"verify {item.kind}")

    def cli_step(self) -> None:
        """One ``attestrep verify`` process, as a journal editor would type it."""
        item, path = self.cli_items[self._cli_n % len(self.cli_items)]
        self._cli_n += 1
        cmd = [sys.executable, "-m", "attestrep.cli", "verify", str(path), "--json", "--now", str(item.now)]
        for root in self.roots:
            cmd += ["--root", root.hex()]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self._cli_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)
        ms = (time.perf_counter() - t0) * 1e3
        self.samples["cli_ms"].append(ms)
        try:
            verdict = json.loads(proc.stdout)
        except ValueError:
            verdict = {}
        accepted = verdict.get("verdict") == "Accept"
        if proc.returncode != (0 if accepted else 1) or "verdict" not in verdict:
            self.outcome.attempted += 1
            self.outcome.wrong.append(f"cli {item.kind}: exit {proc.returncode} {proc.stdout[-200:]!r} {proc.stderr[-200:]!r}")
            return
        self._judge(item.kind, accepted, verdict.get("reason"), f"cli {item.kind}")

    def _judge(self, kind: str, accepted: bool, reason: str | None, what: str) -> None:
        self.outcome.attempted += 1
        if kind == FORGED:
            # The correct verdict is Reject with any reason; today the summary is unauthenticated.
            self.outcome.failed += accepted
        elif accepted != (EXPECTED_REASON[kind] is ACCEPT) or reason != EXPECTED_REASON[kind]:
            self.outcome.wrong.append(f"{what}: accepted={accepted} reason={reason}")


# Portal traffic comes in rounds: a write (submit, then process) of a new tiny package,
# 6 token verifies (one of them naming the large package), 2 proof downloads of tiny
# packages, 1 raw-bundle verify and 1 audit tail read, in an order shuffled per round.
# The shares are assumptions, not measurements; README.md gives the reasons.
ROUND = ["write", "large-verify", "verify", "verify", "verify", "verify", "verify", "proof", "proof", "raw", "audit"]


class PortalLoad:
    """One HTTP client against a portal served from its own process; one round per step."""

    def __init__(self, work: Path, rng: random.Random, samples: dict[str, list], trace: bool) -> None:
        self.work, self.rng, self.samples, self.trace = work, rng, samples, trace
        self.round_trips: dict[str, float] = {}
        self.outcome = Outcome()
        self.spans: list[list] = []
        self._results: list[tuple] = []
        self._n = 0
        self._conn: http.client.HTTPConnection | None = None

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        """Start the server, which builds its store from a seed before it serves.

        The store's packages, up to 32 MiB each, are made and submitted in the
        server's process, so this process never holds them.
        """
        self.store = self.work / "store"
        self.spans_file = self.work / "server-spans.json"
        cmd = [sys.executable, str(Path(__file__).with_name("portal_server.py")), "--store", str(self.store),
               "--seed", str(self.rng.getrandbits(64)), "--trace", "1" if self.trace else "0",
               "--spans", str(self.spans_file)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(self.work.parent / "tmp"))
        self.server = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        line = self.server.stdout.readline()
        if not line:
            self.server.wait(timeout=30)
            raise RuntimeError("portal server did not start")
        ready = json.loads(line)
        self.root_key = bytes.fromhex(ready["root_key"])
        # token, naive digest of the package sent, is large
        self.archived = [(token, bytes.fromhex(digest), large) for token, digest, large in ready["archived"]]
        self.bundles = [bytes.fromhex(b) for b in ready["bundles"]]
        self._max_seq = ready["max_seq"]
        self._known: dict[int, str] = {}
        self._tiny_ids = [i for i, a in enumerate(self.archived) if not a[2]]
        self._large_ids = [i for i, a in enumerate(self.archived) if a[2]]
        self._conn = http.client.HTTPConnection("127.0.0.1", ready["port"], timeout=120)

    # -- timed steps ----------------------------------------------------------

    def step(self) -> None:
        """One round of traffic over a keep-alive connection."""
        start, ops = time.perf_counter(), self._n
        for op, arg in self._round():
            self._op(op, arg)
        self.samples["portal_busy"].append((self._n - ops, time.perf_counter() - start))

    def _round(self) -> list[tuple[str, int]]:
        rng = self.rng
        ops = list(ROUND)
        rng.shuffle(ops)
        plan = []
        for op in ops:
            if op == "large-verify":
                plan.append(("verify", rng.choice(self._large_ids)))
            elif op in ("verify", "proof"):
                plan.append((op, rng.choice(self._tiny_ids)))
            else:
                plan.append((op, rng.randrange(len(self.bundles)) if op == "raw" else -1))
        return plan

    def _call(self, kind: str, method: str, path: str, body: bytes | None = None,
              headers: dict | None = None) -> tuple[int, bytes]:
        rid = f"http-{self._n}"
        self._n += 1
        t0 = time.perf_counter()
        self._conn.request(method, path, body=body, headers={"X-Request-Id": rid, **(headers or {})})
        resp = self._conn.getresponse()
        data = resp.read()
        ms = (time.perf_counter() - t0) * 1e3
        self.samples[kind].append(ms)
        self.round_trips[rid] = ms
        return resp.status, data

    def _op(self, op: str, arg: int) -> None:
        results = self._results
        if op == "write":
            files = inputs.package_files(f"new-{self._n}", inputs.TINY, self.rng)
            tar, digest = inputs.make_tar(files), inputs.naive_digest(files)
            status, data = self._call("submit", "POST", "/v1/submissions", tar, {"X-Author-Id": "bench-author"})
            results.append(("submit", status, data, digest))
            if status == 201:
                sid = json.loads(data)["submission_id"]
                status, data = self._call("process", "POST", f"/v1/submissions/{sid}/process")
                results.append(("process", status, data, digest))
        elif op == "verify":
            body = json.dumps({"token": self.archived[arg][0]}).encode()
            results.append(("verify", *self._call("verify", "POST", "/v1/verify", body), arg))
        elif op == "proof":
            results.append(("proof", *self._call("proof", "GET", f"/v1/proofs/{self.archived[arg][0]}"), arg))
        elif op == "raw":
            results.append(("raw", *self._call("raw", "POST", "/v1/verify", self.bundles[arg]), arg))
        else:
            from_seq = max(0, self._max_seq - 9)
            status, data = self._call("audit", "GET", f"/v1/audit-log?from_seq={from_seq}")
            if status == 200 and (entries := json.loads(data)["entries"]):
                self._max_seq = max(self._max_seq, entries[-1]["seq"])
            results.append(("audit", status, data, from_seq))

    # -- checks and tear-down -------------------------------------------------

    def check(self) -> None:
        for kind, status, data, arg in self._results:
            self.outcome.attempted += 1
            problem = self._problem(kind, status, data, arg)
            if problem:
                self.outcome.wrong.append(f"portal {kind}: {problem}")

    def _problem(self, kind: str, status: int, data: bytes, arg) -> str | None:
        if status != (201 if kind == "submit" else 200):
            return f"HTTP {status} {data[:200]!r}"
        if kind == "process":
            body = json.loads(data)
            if body["state"] != core.STATE_PROVED or bytes.fromhex(body["package_digest"]["value"]) != arg:
                return f"state {body['state']} or package digest differs from the package sent"
        elif kind == "verify":
            body = json.loads(data)
            token, digest, _ = self.archived[arg]
            if body.get("verdict") != "Accept" or body.get("package_digest") != digest.hex() or body.get("token") != token:
                return f"token verify {body}"
        elif kind == "proof":
            token, digest, _ = self.archived[arg]
            proof = json.loads(data)
            if proof["bundle_id"] != token or bytes.fromhex(proof["package_digest"]["value"]) != digest:
                return "served proof names another package"
            if not verifier.verify_bundle(data, [self.root_key], now=int(time.time())).accepted:
                return "served proof is not accepted"
        elif kind == "raw":
            if json.loads(data).get("verdict") != "Accept":
                return "raw bundle verify rejects a valid bundle"
        elif kind == "audit":
            entries = json.loads(data)["entries"]
            if not entries or entries[0]["seq"] != arg:
                return f"tail does not start at seq {arg}"
            if not inputs.audit_chain_ok(entries, self._known):
                return "audit tail hash chain does not recompute"
            for entry in entries:
                self._known[entry["seq"]] = entry["entry_hash"]
        return None

    def stop(self) -> None:
        """Close the client, stop the server and check the whole audit log."""
        if self._conn is not None:
            self._conn.close()
        server = getattr(self, "server", None)
        if server is None:
            return
        try:
            server.stdin.close()
            server.wait(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()
        if server.returncode != 0:
            raise RuntimeError(f"portal server exited with {server.returncode}")
        if self.trace:
            self.spans = json.loads(self.spans_file.read_text())["spans"]
        result = audit.audit_check(self.store / "audit.log")
        if not result.ok:
            self.outcome.wrong.append(f"audit_check broken at {result.broken_at}")


def _request(tracer, request_id: str):
    return tracer.request(request_id) if tracer is not None else nullcontext()


def _paused(tracer):
    return tracer.paused() if tracer is not None else nullcontext()
