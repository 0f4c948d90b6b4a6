"""The suite's pytest settings report a failing Hypothesis test as a failure.

``filterwarnings = ["error"]`` turns every warning into an error, including
one that Hypothesis's report hook raises while it reports a failing
``@given`` test. Raised inside the hook, that error would replace the
failure and its falsifying example with an ``INTERNALERROR``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(value):
    assert value != value
'''


def test_a_failing_hypothesis_test_is_reported_as_one_failure(tmp_path: Path) -> None:
    (tmp_path / "test_failing.py").write_text(_FAILING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_failing.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout[-3000:]
    assert "INTERNALERROR" not in proc.stdout
    assert "1 failed" in proc.stdout and "Falsifying example" in proc.stdout
