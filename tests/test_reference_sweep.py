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
    "csv": "5abf2d1b55fdb79f91ea6083dd725bc72b38d8fafaeaaa774f43ebb36cb4df6c",
    "json": "befa715f33141bb5b576267edad17f750761d6d916f11fccd5b2006b830fd81e",
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
