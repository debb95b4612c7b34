"""Every example runs and prints the same output on every run of the same
tree."""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"

#: sha256 of each example's stdout at ``REPRO_TRIALS=1``, run from a copy
#: whose directory is replaced by ``<dir>`` in the output (piconet_formation
#: prints where it wrote its VCD).
EXAMPLE_DIGESTS = {
    "low_power_modes.py":
        "f72632318181ca398d609a7cb22e2f7e2abce6f62daa01174d7557d86398724b",
    "noisy_inquiry.py":
        "3b0e25a149fc8453d3c731a0b2734eef8f2e21f5b6feec3dcd0a751a03ff08ae",
    "packet_throughput.py":
        "aa4e441d328eacbb4e7c7b769349d0c04be62b56d47124c2df5a7ca5520494ca",
    "piconet_formation.py":
        "0a39526670b56758cfccd1925e6d287aa5c2aa93af1297b9b69f2ff0f7fbe166",
    "quickstart.py":
        "410c463cb0e07da7ed1f4579b2c2eb8d5821a1fe6dcaba883020243ee1e12a3f",
}


def _run(script: Path, hash_seed: str = "0") -> str:
    """``script``'s stdout at one trial per point, with no other
    ``REPRO_*`` setting of the calling environment."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_TRIALS="1",
               PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_noisy_inquiry_does_not_depend_on_the_string_hash_seed():
    """Python randomises ``str`` hashes per process, so an example that
    seeds its trials from ``hash(label)`` prints a different table under
    each ``PYTHONHASHSEED``."""
    script = EXAMPLES / "noisy_inquiry.py"
    assert _run(script, "1") == _run(script, "2")


@pytest.mark.parametrize("example", sorted(EXAMPLE_DIGESTS))
def test_example_output_is_pinned(example, tmp_path):
    script = tmp_path / example
    shutil.copy(EXAMPLES / example, script)
    out = _run(script).replace(str(tmp_path), "<dir>")
    assert hashlib.sha256(out.encode()).hexdigest() \
        == EXAMPLE_DIGESTS[example], out
    if example == "piconet_formation.py":
        vcd = "piconet_formation.vcd"
        assert (tmp_path / vcd).read_bytes() == (EXAMPLES / vcd).read_bytes()
