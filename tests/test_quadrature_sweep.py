"""The byte-identity gate of the rows that integrate numerically.

A sweep of ``holder`` and ``identity`` rows only, on intervals with a > 0
and interior x fractions, so every row goes through the moment
functional's quadrature weights and none through an exact shortcut.  Its
CSV report must keep the SHA-256 digest below, in the manner of
``test_reference_sweep.py``: a change that moves digits on purpose updates
the constant and names the cause in CHANGES.md.  The digest depends on the
numeric library, so the test skips, naming the reason, under any other
numpy version than the one it was recorded with.
"""

import hashlib
import json

import numpy
import pytest

from alphaineq.cli import main

#: The numpy version the digest was recorded with.
RECORDED_WITH = "2.4.6"

CONFIG = {
    "alphas": [0.3, 0.5, 0.7, 0.9, 1.0],
    "functions": ["mono:2", "mono:3", "mono:2.5", "poly:1,0,0.5", "series:(1.5,2);(4,0.25)", "ml:7"],
    "inequalities": ["holder", "identity"],
    "intervals": [[0.25, 1.5], [0.5, 2.0]],
    "x_fractions": [0.125, 0.5, 0.8],
    "pq_pairs": [[2.0, 2.0], [3.0, 1.5], [1.25, 5.0], [4.0, 1.3333333333333333]],
}

DIGEST = "f93a2697310f24b300bb53fd02909ad6925e39aa8171acfac0925e45463c7e81"


def test_quadrature_sweep_digest(tmp_path):
    if numpy.__version__ != RECORDED_WITH:
        pytest.skip(
            f"the quadrature digest is tied to its numpy version: numpy {numpy.__version__} "
            f"(digest recorded with {RECORDED_WITH})"
        )
    config, out = tmp_path / "quadrature.json", tmp_path / "quadrature.csv"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    code = main(["sweep", "--config", str(config), "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    assert text.count("\n") == 1 + 5 * 6 * 2 * (4 + 3)  # header, 4 holder and 3 identity rows per point
    assert "error" not in text
    assert code == 1  # identity residuals at alpha < 1 read as violations
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGEST
