"""The traced benchmark wraps attestrep functions where their callers look them up.

Installing its tracer here means a refactor under ``src/`` that drops or
moves one of those names fails this suite, not only the benchmark's own
smoke run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_name_it_wraps() -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.Tracer('t').install(server=True)"],
        cwd=ROOT / "benchmarks",
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
