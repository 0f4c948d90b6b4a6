"""Build a portal store from a seed and serve it on loopback for the portal lane.

Submits and processes the store's first packages, prints one JSON line
with the port, the root key and what the client needs to check its reads,
then serves until standard input closes. With ``--trace 1`` it records
spans for every request and writes them to ``--spans`` on the way out.

    PYTHONPATH=src python3 benchmarks/portal_server.py --store DIR --seed N --trace 0 --spans FILE
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
from pathlib import Path

from attestrep.portal.core import STATE_PROVED, Portal
from attestrep.portal.http import make_server

import inputs
import tracing

TINY_PACKAGES = 16   # pre-populated, all Proved
LARGE_PACKAGES = 1


def populate(portal: Portal, rng: random.Random) -> dict:
    """Submit and process the store's first packages through the portal's own API."""
    archived, bundles = [], []
    for n, shape in enumerate([inputs.TINY] * TINY_PACKAGES + [inputs.LARGE] * LARGE_PACKAGES):
        files = inputs.package_files(f"pre-{n}", shape, rng)
        digest, tar = inputs.naive_digest(files), inputs.make_tar(files)
        del files
        proved = portal.process(portal.submit(tar, author_id=f"prepop-{n % 7}").submission_id)
        if proved.state != STATE_PROVED:
            raise RuntimeError(f"pre-population failed: {proved.failure_reason}")
        archived.append([proved.token, digest.hex(), shape is inputs.LARGE])
        bundles.append(portal.blobs.get(proved.bundle_blob).hex())
    return {"root_key": portal.provider.root_public_key.hex(), "archived": archived, "bundles": bundles,
            "max_seq": portal.audit_entries()[-1].seq}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    portal = Portal(args.store, provider_seed=rng.randbytes(32))
    ready = populate(portal, rng)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer("s")
        tracer.install(server=True)
    server = make_server(portal, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1], **ready}), flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    thread.join(timeout=30)
    if tracer is not None:
        tracing.write_spans(Path(args.spans), tracer.export())
    return 0


if __name__ == "__main__":
    sys.exit(main())
