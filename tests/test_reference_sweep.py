"""The "same behaviour" gate: the reference sweep's output, digit for digit.

``bench/reference_sweep.json`` is the fixed 6480-row sweep (4 alphas, 6
functions, all 17 ids).  Its CSV and JSON reports must keep the SHA-256
digests below.  A change that moves digits on purpose updates the constants
and names the cause in CHANGES.md.  The digests depend on the numeric
libraries, so the test skips, naming the reason, under any other numpy or
scipy version than the one they were recorded with.
"""

import hashlib
from pathlib import Path

import numpy
import pytest
import scipy

from alphaineq.cli import main

CONFIG = Path(__file__).resolve().parents[1] / "bench" / "reference_sweep.json"

#: The library versions the digests were recorded with.
RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

DIGESTS = {
    "csv": "cc41fbca8555dc56b702c23d873df152bbaf345c6166ca428489b83d8e47f83e",
    "json": "58a9e1ca883128c8c573df9905a3ea111ec813d52f4953d23da8813b6eff78a2",
}


def _version_mismatch() -> str:
    found = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    return ", ".join(
        f"{lib} {found[lib]} (digests recorded with {want})"
        for lib, want in RECORDED_WITH.items()
        if found[lib] != want
    )


@pytest.mark.parametrize("fmt", sorted(DIGESTS))
def test_reference_sweep_digest(fmt, tmp_path):
    mismatch = _version_mismatch()
    if mismatch:
        pytest.skip(f"reference digests are tied to their library versions: {mismatch}")
    out = tmp_path / f"reference.{fmt}"
    # 480 rows have non-finite slack and count as violations, so the exit code is 1
    assert main(["sweep", "--config", str(CONFIG), "--out", str(out), "--format", fmt]) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[fmt]
