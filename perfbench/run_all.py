"""Run every workload once and print every metric by name with its unit.

    python3 perfbench/run_all.py [--seed N] [--seconds S] [--trace]

Also checks that the benchmark is steady for the seed: each workload's
inputs are generated twice and must be byte-identical. With --trace the
per-layer metrics are printed as well, from two traced runs whose call and
record counts must repeat exactly and, when no command failed, match the
analytic counts in workloads.EXPECTED_CALLS. Exits 1 when any check fails,
and so when any item failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("calls/cmd", "records/cmd", "rows")


def input_digest(workload: str, seed: int) -> str:
    workloads.generate(workload, seed, ROOT)
    digest = hashlib.sha256()
    for path in sorted((ROOT / workloads.WORK_DIR / workload).iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    problems = []
    for workload in workloads.GENERATORS:
        first, second = input_digest(workload, args.seed), input_digest(workload, args.seed)
        shutil.rmtree(ROOT / workloads.WORK_DIR / workload)
        if first != second:
            problems.append(f"{workload}: inputs differ between two generations")
        results = [run(workload, args.seed, args.seconds, 0)]
        if args.trace:
            results += [run(workload, args.seed, args.seconds, 1) for _ in range(2)]
            counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] in COUNT_UNITS}
                      for r in results[1:]]
            if counts[0] != counts[1]:
                changed = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
                problems.append(f"{workload}: counts differ between traced runs: {changed}")
            # The analytic counts hold for commands that run to the end; a
            # command that fails is reported below and makes fewer calls.
            for key, want in workloads.EXPECTED_CALLS[workload].items():
                if not results[1]["failed"] and counts[0][key] != want:
                    problems.append(f"{workload}: {key} = {counts[0][key]}, expected {want}")
        for result in results[:2]:
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: {result['failed']} of {result['attempted']} "
                                f"items failed, correct={result['correct']}")
            for key, m in result["metrics"].items():
                print(f"{workload:15s} {key:50s} {m['value']!r} {m['unit']}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
