"""Every output that `scripts/output_digest.py` hashes, against the digest
recorded in `tests/data/output_digest.txt`.

The bits of those outputs depend on the numpy build, the BLAS under it and
the CPU, so `tests/data/output_digest_platform.json` records the facts of
the platform the digest was taken on, and on another platform the test
skips, naming the fact that differs.  A change that alters an output on
purpose records the digest again in the same change:

    PYTHONPATH=src python3 tests/test_output_digest.py

rewrites both files on this platform.
"""

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digest.py"
GOLDEN = ROOT / "tests" / "data" / "output_digest.txt"
PLATFORM = ROOT / "tests" / "data" / "output_digest_platform.json"


def platform_facts() -> dict:
    """The facts that fix the digest's bits: numpy, its BLAS and the CPU."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def _digest() -> list[str]:
    proc = subprocess.run([sys.executable, str(SCRIPT)], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_outputs_match_the_recorded_digest():
    recorded, here = json.loads(PLATFORM.read_text()), platform_facts()
    for fact, value in recorded.items():
        if here.get(fact) != value:
            pytest.skip(f"digest recorded with {fact} {value}, this platform has {here.get(fact)}")
    want, got = GOLDEN.read_text().splitlines(), _digest()
    changed = [f"line {k + 1}: recorded {w!r}, now {g!r}"
               for k, (w, g) in enumerate(zip(want, got)) if w != g]
    assert not changed, "\n".join(changed)
    assert len(got) == len(want), f"{len(want)} lines recorded, {len(got)} now"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(_digest()) + "\n")
    PLATFORM.write_text(json.dumps(platform_facts(), indent=1) + "\n")
