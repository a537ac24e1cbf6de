"""Time a cold start: ``import alphaineq.cli`` plus one workload's set-up.

Run in a fresh interpreter by ``run.py``; prints one JSON object with
``import_s`` and ``setup_s`` (import plus set-up), both in seconds.

Usage: python3 bench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import alphaineq.cli  # noqa: E402,F401

T1 = time.perf_counter()

import workloads  # noqa: E402

wl = workloads.make(sys.argv[1], int(sys.argv[2]), ROOT / ".bench_out")
T2 = time.perf_counter()
wl.setup()
T3 = time.perf_counter()
print(json.dumps({"import_s": T1 - T0, "setup_s": (T1 - T0) + (T3 - T2)}))
