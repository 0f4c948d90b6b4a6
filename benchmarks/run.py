"""One benchmark for the author, reader and portal paths of attestrep.

    python3 benchmarks/run.py --workload author-attest --seed 1 --seconds 30 --trace 0

Builds its inputs from ``--seed``, runs the workload as a closed loop,
checks every output, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics from a
separate run with spans around every call into an attestrep layer, and
writes the spans to ``.bench_out/``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

END_TO_END = {
    "setup_s": "s", "peak_rss_mib": "MiB",
    "verify_us_p50": "us", "verify_us_p99": "us", "verify_per_s": "1/s", "cli_verify_ms_p50": "ms",
    "audit_read_ms_p50": "ms",
}
# Measured the same way, but their medians moved between runs of one commit by more than
# any bound allows (README.md gives the figures), so only the traced run reports them,
# unbounded, as traced.<name>.
UNBOUNDED = {
    "attest_ms_p50": "ms", "attest_mib_per_s": "MiB/s", "pack_ms_p50": "ms",
    "submit_ms_p50": "ms", "process_ms_p50": "ms", "public_verify_ms_p50": "ms", "public_verify_ms_p99": "ms",
    "portal_ops_per_s": "1/s",
}


@dataclass(frozen=True)
class Plan:
    """What the caller does per cycle, and which of it counts as the workload's own operations.

    Every workload runs all four lanes, interleaved cycle by cycle until the
    run's time is up, so every end-to-end metric has a value on every
    workload and every lane sees the same stretch of the machine's time. The
    workload's own lanes take the largest share of the time; ``attempted``
    and ``failed`` count only their operations. The caller waits for each reply before it
    sends the next request.
    """

    own: tuple[str, ...]
    cycle: tuple[tuple[str, int], ...]
    author_shape: str


WORKLOADS = {
    "author-attest": Plan(own=("author",), author_shape="AUTHOR",
                          cycle=(("author", 2), ("reader", 32), ("cli", 2), ("portal", 1))),
    "reader-verify": Plan(own=("reader", "cli"), author_shape="MEDIUM",
                          cycle=(("reader", 24), ("cli", 2), ("author", 1), ("portal", 1))),
}


def _p99(values):
    """Linear interpolation between order statistics; with under 100 samples, between the top two."""
    return statistics.quantiles(values, n=100, method="inclusive")[98] if len(values) > 1 else values[0]


def timings(setup_s: float, peak_rss_kib: int, samples: dict[str, list]) -> dict:
    get = samples.__getitem__
    attests, loops, busy = get("attest"), get("verify_loop"), get("portal_busy")
    values = {
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_kib / 1024,
        "attest_ms_p50": statistics.median([ms for ms, _ in attests]),
        "attest_mib_per_s": statistics.median([b / (1 << 20) / (ms / 1e3) for ms, b in attests]),
        "pack_ms_p50": statistics.median(get("pack_ms")),
        "verify_us_p50": statistics.median(get("verify_us")),
        "verify_us_p99": _p99(get("verify_us")),
        "verify_per_s": sum(n for n, _ in loops) / sum(sec for _, sec in loops),
        "cli_verify_ms_p50": statistics.median(get("cli_ms")),
        "submit_ms_p50": statistics.median(get("submit")),
        "process_ms_p50": statistics.median(get("process")),
        "public_verify_ms_p50": statistics.median(get("verify")),
        "public_verify_ms_p99": _p99(get("verify")),
        "audit_read_ms_p50": statistics.median(get("audit")),
        "portal_ops_per_s": sum(ops for ops, _ in busy) / sum(sec for _, sec in busy),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in {**END_TO_END, **UNBOUNDED}.items()}


def cli_import_ms(env: dict, times: int = 3) -> float:
    """Median time to import ``attestrep.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import attestrep.cli; print(time.perf_counter() - t)"
    out = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True, stdout=subprocess.PIPE,
                                timeout=60).stdout) * 1e3 for _ in range(times)]
    return statistics.median(out)


SETUPS = 3  # set-ups per run, each from the same seed; setup_s is their median


def set_up(workload: str, seed: int, work: Path, tracer) -> tuple:
    """Build every lane's inputs, corpus and store and start the portal server."""
    import inputs
    import paths

    plan = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    start = time.perf_counter()
    samples = defaultdict(list)
    author = paths.Author(work / "author", random.Random(rng.random()), getattr(inputs, plan.author_shape), samples,
                          tracer)
    reader = paths.Reader(work / "reader", random.Random(rng.random()), samples, tracer)
    portal = paths.PortalLoad(work / "portal", random.Random(rng.random()), samples, tracer is not None)
    try:
        for path in (author, reader, portal):
            path.work.mkdir(parents=True)
            path.setup()
    except BaseException:
        portal.stop()
        raise
    return author, reader, portal, samples, time.perf_counter() - start


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    import tracing

    plan = WORKLOADS[workload]
    tracer = tracing.Tracer("b") if trace else None

    # Every set-up but the last is stopped at once; their files go with the work directory.
    setup_times = []
    for k in range(SETUPS):
        author, reader, portal, samples, setup_time = set_up(workload, seed, work / f"setup{k}", tracer)
        setup_times.append(setup_time)
        if k < SETUPS - 1:
            portal.stop()
    try:
        if tracer is not None:
            tracer.install()
        steps = {"author": author.step, "reader": reader.step, "cli": reader.cli_step, "portal": portal.step}
        deadline = time.perf_counter() + seconds
        while True:
            for lane, count in plan.cycle:
                for _ in range(count):
                    steps[lane]()
            if time.perf_counter() >= deadline:
                break
        portal.check()
    finally:
        portal.stop()

    measured = timings(statistics.median(setup_times), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, samples)
    metrics = {name: measured[name] for name in END_TO_END}

    # attempted and failed count the workload's own lanes; every lane's checks decide correct.
    lanes = {"author": author, "reader": reader, "cli": reader, "portal": portal}
    own = [path.outcome for path in {lanes[lane] for lane in plan.own}]
    wrong = author.outcome.wrong + reader.outcome.wrong + portal.outcome.wrong
    for problem in wrong[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer is not None:
        spans = tracer.export() + portal.spans
        out_dir = ROOT / ".bench_out"
        tracing.write_spans(out_dir / f"trace-{workload}-seed{seed}.json", spans)
        layers = tracing.layer_metrics(spans, portal.round_trips)
        layers["cli.import_ms"] = (cli_import_ms(dict(os.environ, PYTHONPATH=str(ROOT / "src"))), "ms")
        for name, metric in measured.items():
            layers[f"traced.{name}"] = (metric["value"], metric["unit"])
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}

    return {"correct": not wrong, "attempted": sum(o.attempted for o in own), "failed": sum(o.failed for o in own),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "attestrep" / "__init__.py").is_file():
        print(f"no attestrep sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")
    os.environ["TMPDIR"] = str(work / "tmp")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Exception:  # noqa: BLE001 - any failure means no result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
