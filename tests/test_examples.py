"""Examples print the same output on every run of the same tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(example: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_TRIALS="1",
               PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, str(ROOT / "examples" / example)],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return done.stdout


def test_noisy_inquiry_does_not_depend_on_the_string_hash_seed():
    """Python randomises ``str`` hashes per process, so an example that
    seeds its trials from ``hash(label)`` prints a different table under
    each ``PYTHONHASHSEED``."""
    assert _run("noisy_inquiry.py", "1") == _run("noisy_inquiry.py", "2")
