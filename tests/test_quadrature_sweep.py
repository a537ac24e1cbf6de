"""The byte-identity gates of the rows that integrate numerically.

Sweeps of ``holder`` and ``identity`` rows only, on intervals with a > 0
and interior x fractions, so every row goes through the moment
functional's quadrature weights and none through an exact shortcut.  Each
CSV report must keep its SHA-256 digest below, in the manner of
``test_reference_sweep.py``: a change that moves digits on purpose updates
the constant and names the cause in CHANGES.md.  The second config is the
benchmark's ``sweep-quadrature`` workload at seed 1, written out here.
The digests depend on the numeric library, so the tests skip, naming the
reason, under any other numpy version than the one they were recorded with.
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


#: The sweep-quadrature benchmark config at seed 1: three intervals, five x
#: fractions and four (p, q) pairs drawn from the seed, 810 rows.
SEED_1_CONFIG = {
    "alphas": [0.3, 0.5, 0.7, 0.9, 1.0],
    "functions": ["mono:2", "mono:3", "mono:2.5", "poly:1,0,0.5", "series:(1.5,2);(4,0.25)", "ml:7"],
    "inequalities": ["holder", "identity"],
    "intervals": [[0.9273, 2.5226], [1.3342, 2.0608], [0.604, 2.1964]],
    "x_fractions": [0.3207, 0.4508, 0.712, 0.8241, 0.826],
    "pq_pairs": [
        [1.2277, 5.391743522178304],
        [2.0346, 1.9665571235260002],
        [1.796, 2.2562814070351758],
        [3.3765, 1.4207868714496108],
    ],
}

SEED_1_DIGEST = "a568394d301f2eb590cab9580ef8747ee150c97d8db2c8f5cfd3a9693004a544"


def _sweep_csv(tmp_path, config) -> tuple[int, bytes]:
    if numpy.__version__ != RECORDED_WITH:
        pytest.skip(
            f"the quadrature digest is tied to its numpy version: numpy {numpy.__version__} "
            f"(digest recorded with {RECORDED_WITH})"
        )
    config_path, out = tmp_path / "quadrature.json", tmp_path / "quadrature.csv"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["sweep", "--config", str(config_path), "--out", str(out)])
    return code, out.read_bytes()


def test_quadrature_sweep_digest(tmp_path):
    code, data = _sweep_csv(tmp_path, CONFIG)
    assert data.count(b"\n") == 1 + 5 * 6 * 2 * (4 + 3)  # header, 4 holder and 3 identity rows per point
    assert b"error" not in data
    assert code == 1  # identity residuals at alpha < 1 read as violations
    assert hashlib.sha256(data).hexdigest() == DIGEST


def test_benchmark_seed_1_sweep_digest(tmp_path):
    code, data = _sweep_csv(tmp_path, SEED_1_CONFIG)
    assert data.count(b"\n") == 1 + 5 * 6 * 3 * (4 + 5)  # header, 4 holder and 5 identity rows per point
    assert b"error" not in data
    assert code == 1
    assert hashlib.sha256(data).hexdigest() == SEED_1_DIGEST
