"""One workload run: a fresh single-threaded process driving the CLI.

    python3 perfbench/worker.py --manifest FILE --result FILE [--seconds S] [--trace 0|1]
    python3 perfbench/worker.py --manifest FILE --result FILE --setup-only

run.py starts it from the root of a checkout with a manifest from
workloads.generate. Set-up is timed from just before `import lpbound.cli` to
the end of one warm-up `estimate`. The timed body then runs the manifest's
commands through `lpbound.cli.main` in a closed loop: one client, each
command starting when the previous one returns. The loop goes on until
--seconds have passed and every command of the pool has run at least once,
so that each run checks the whole pool. With --trace 1 every round of
commands runs untraced and then traced, and the ratio of the two walls is
the tracing overhead.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything loads a BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def invoke(argv):
    """(exit code, stdout, stderr) of one CLI command; an exception gives
    exit code None and its traceback as stderr."""
    cli = sys.modules["lpbound.cli"]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)  # looked up per call: the tracer may rebind it
    except Exception:
        return None, out.getvalue(), traceback.format_exc()
    return rc, out.getvalue(), err.getvalue()


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_one(commands, index) -> dict:
    rc, out, err = invoke(commands[index]["argv"])
    return {"index": index, "rc": rc, "out": out, "err": err}


def closed_loop(commands, round_size, seconds):
    """Run commands in pool order, whole rounds at a time, until `seconds`
    have passed and every command has run. Returns (runs, wall seconds,
    CPU seconds)."""
    runs = []
    cpu0, t0 = _cpu_s(), perf_counter()
    while (len(runs) % round_size or len(runs) < len(commands)
           or perf_counter() - t0 < seconds):
        runs.append(run_one(commands, len(runs) % len(commands)))
    return runs, perf_counter() - t0, _cpu_s() - cpu0


def traced_loop(commands, round_size, seconds, tracer):
    """Run each round untraced, then again traced, in whole passes over the
    pool until `seconds` have passed, so that per-command counts are exact
    averages over the pool; alternating makes drift in machine speed cancel
    from the ratio of the two walls. Returns (runs, untraced wall, traced
    wall, traced commands)."""
    runs, walls = [], [0.0, 0.0]
    t0 = perf_counter()
    start = 0
    while perf_counter() - t0 < seconds or start % len(commands):
        indices = [(start + k) % len(commands) for k in range(round_size)]
        start += round_size
        for traced in (0, 1):
            if traced:
                tracer.install()
            t = perf_counter()
            runs.extend(run_one(commands, index) for index in indices)
            walls[traced] += perf_counter() - t
            if traced:
                tracer.uninstall()
    return runs, walls[0], walls[1], start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    manifest = json.loads(Path(args.manifest).read_text())

    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import lpbound.cli

    import_s = perf_counter() - t0
    if not Path(lpbound.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"lpbound imported from {lpbound.cli.__file__}, not from {ROOT / 'src'}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rc, _, err = invoke(["estimate", "--config", manifest["warmup"]])
    setup_s = perf_counter() - t0
    if rc != 0:
        sys.exit(f"warm-up estimate failed (exit {rc}): {err}")
    result = {"setup_s": setup_s, "import_s": import_s}

    if not args.setup_only:
        commands, round_size = manifest["commands"], manifest["round"]
        if tracer is None:
            runs, wall, cpu = closed_loop(commands, round_size, args.seconds)
            result.update(wall_s=wall, cpu_s=cpu)
        else:
            tracer.uninstall()
            tracer.reset()
            runs, wall, traced_wall, traced = traced_loop(
                commands, round_size, args.seconds, tracer)
            layers = tracer.metrics(traced)
            layers["linalg.first_call_s"] = (tracer.first_call_s["linalg.solve_lp"], "s")
            layers["cli.import_s"] = (import_s, "s")
            layers["trace.overhead_share"] = (traced_wall / wall - 1.0, "ratio")
            result.update(wall_s=wall + traced_wall, layers=layers)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ref = manifest.get("reference")
        if ref:
            rc, out, err = invoke(ref["argv"])
            result["reference"] = {"rc": rc, "out": out, "err": err}
        result["runs"] = runs
        result["environment"] = environment()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
