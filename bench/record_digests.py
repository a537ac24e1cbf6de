"""Record each workload's output digest per seed into ``bench/digests.json``.

``run.py`` reports whether a run's digest matches the one recorded here: the
"same behaviour" signal for changes that must not alter any output.  The
digest does not gate a run, since some changes alter rows on purpose.
Re-record after such a change, and say so in the change.

Usage (from the repository root):

    python3 bench/record_digests.py --seeds 0-20
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-20", help="inclusive range, e.g. 0-20")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    table = {}
    for name in workloads.WORKLOADS:
        table[name] = {}
        # the reference sweep does not depend on the seed
        for seed in ([seeds[0]] if name == "sweep-reference" else seeds):
            wl = workloads.make(name, seed, out_dir)
            wl.generate()
            wl.setup()
            p = wl.run_pass(None)
            problems = wl.check(p.output).problems
            if problems:
                print(f"{name} seed {seed}: {problems[:3]}", file=sys.stderr)
                return 1
            key = "any" if name == "sweep-reference" else str(seed)
            table[name][key] = p.digest
            print(f"{name} seed {seed}: {p.digest}", flush=True)
    path = ROOT / "bench" / "digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
