"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout of the repository: it uses the
sources under src/ next to this directory. It writes the workload's inputs
for the seed, starts a fresh worker process for the timed body, starts more
for set-up samples, checks every output, and prints one line per metric
followed by the result as one JSON line. The full record, with the
environment, goes to .perfbench_out/.

With --trace 0 the metrics are the end-to-end ones: median set-up time,
items per second, CPU milliseconds per item and peak RSS of the worker.
With --trace 1 they are the per-layer ones from a traced run.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 7  # the worker's own set-up plus fresh set-up-only processes
TIME_LIMIT_S = 170


class RunError(Exception):
    pass


def run_worker(manifest: Path, result: Path, extra: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest),
           "--result", str(result), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker did not finish in time")
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def measure(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    manifest = workloads.generate(args.workload, args.seed, ROOT)
    work = ROOT / workloads.WORK_DIR / args.workload
    try:
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        result = work / "result.json"
        worker = run_worker(manifest_path, result,
                            ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                            deadline)
        setups = [worker["setup_s"]] + [
            run_worker(manifest_path, result, ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        sys.path.insert(0, str(ROOT / "src"))
        import oracles

        by_command: dict = {}
        for r in worker["runs"]:
            by_command.setdefault(r["index"], []).append(r)
        pool = sorted(by_command)
        timed = oracles.check_outputs(
            args.workload, [(manifest["commands"][i], by_command[i]) for i in pool])
        ref = oracles.check_outputs(args.workload, [(manifest["reference"], [worker["reference"]])]
                                    if manifest["reference"] else [])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = timed["attempted"] + ref["attempted"]
    failed = timed["failed"] + ref["failed"]
    if args.trace:
        metrics = worker["layers"]
    else:
        failed_items = dict(zip(pool, timed["failed_items"]))
        items = sum(manifest["commands"][r["index"]]["items"] for r in worker["runs"])
        done = items - sum(failed_items[r["index"]] for r in worker["runs"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "items_per_s": (done / worker["wall_s"], "items/s"),
            "cpu_ms_per_item": (1000.0 * worker["cpu_s"] / items, "ms"),
            "peak_rss_mb": (worker["peak_rss_kb"] / 1024.0, "MB"),
        }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": worker["environment"],
        "timed_commands": len(worker["runs"]),
        "pool_commands": len(pool),
        "pool_items": timed["attempted"],
        "wall_s": worker["wall_s"],
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "wrong": timed["wrong"] + ref["wrong"],
        "problems": (timed["problems"] + ref["problems"])[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lpbound" / "cli.py").is_file():
        print(f"perfbench: no lpbound sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed}: {record['timed_commands']} runs of "
          f"{record['pool_commands']} commands ({record['pool_items']} items) in "
          f"{record['wall_s']:.2f} s (closed loop, one client)")
    print(f"# python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"threads {env['threads']}, nproc {env['nproc']}, cpu {env['cpu_model']}")
    for problem in record["problems"]:
        print(f"# FAIL {problem}")
    print(f"fail_share = {record['fail_share']!r} ratio")
    for key, m in record["metrics"].items():
        print(f"{key} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
