"""homcount benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload csl-cv --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 45   # table of every workload

Run it from the repository root. It imports homcount from `src/` of that
root, builds the workload's inputs from the seed (the set-up, timed five
times with the import measured in fresh interpreters), then repeats the
workload's timed call into the public API until `--seconds` have passed,
clearing homcount's caches before each call, and finally checks every
call's output. `run_s` is the mean time per call, the run's timed seconds
over its calls, so it is the inverse of throughput at the workload's input
size. With `--trace 1` it alternates untraced and traced calls and reports
per-layer figures instead of the end-to-end ones.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it is a JSON record of the machine, configuration, input
sizes and every sample; it is also written, with the trace spans, under
`perfbench/results/`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import mean, median

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("csl-cv", "labeled-embed")
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny only proves the workloads and checks run")
    return ap.parse_args(argv)


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import homcount.datasets, homcount.embedding, homcount.evaluate; "
    "print(time.perf_counter() - t)"
)


def import_homcount() -> None:
    """Import homcount from this checkout's sources, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "homcount" / "__init__.py").is_file():
        raise SystemExit(f"error: no homcount sources under {src}")
    sys.path.insert(0, str(src))
    import homcount.datasets, homcount.embedding, homcount.evaluate  # noqa: E401,F401

    if Path(homcount.__file__).resolve().parent != (src / "homcount").resolve():
        raise SystemExit(f"error: imported homcount from {homcount.__file__}, not {src}")


def import_seconds() -> float:
    """Import time of homcount in a fresh interpreter: a process imports a
    module only once, so each set-up repeat needs its own process."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_record() -> dict:
    import numpy as np

    rec = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["library"], rec["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    maps = Path("/proc/self/maps")
    lines = maps.read_text().splitlines() if maps.is_file() else []
    for lib in sorted({ln.split()[-1] for ln in lines if "openblas" in ln}):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getter = getattr(handle, sym)
                getter.restype, getter.argtypes = ctypes.c_int, []
                rec["threads"] = getter()
                return rec
    return rec


def machine_record() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "git_commit": git_commit(),
    }


def run_workload(args) -> int:
    import_homcount()
    import layertrace
    import workloads
    from homcount import patterns

    w = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    workdir = BENCH_DIR / "_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        import_times, gen_times = [], []
        for _ in range(SETUP_REPEATS):
            import_times.append(import_seconds())
            start = time.perf_counter()
            inputs = w.setup(args.seed, size, workdir)
            gen_times.append(time.perf_counter() - start)

        tracer = layertrace.Tracer()
        if args.trace:
            tracer.install()
        plain, traced, per_op, outputs = [], [], [], []
        loop_start = time.perf_counter()
        while True:
            use_trace = bool(args.trace) and len(plain) > len(traced)
            patterns.nice_decomposition.cache_clear()
            mark = tracer.mark()
            tracer.active = use_trace
            start = time.perf_counter()
            try:
                out = w.run(inputs)
            except Exception:  # a raising call fails all its checked operations
                traceback.print_exc()
                out = None
            elapsed = time.perf_counter() - start
            tracer.active = False
            outputs.append(None if out is None else w.digest(inputs, out))
            out = None
            (traced if use_trace else plain).append(elapsed)
            if use_trace:
                per_op.append(tracer.layer_metrics(mark))
            if time.perf_counter() - loop_start >= args.seconds and (traced or not args.trace):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.uninstall()

        attempted, failed = w.check(inputs, outputs)
        sizes = w.sizes(inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = layertrace.median_metrics(per_op)
        values["datasets.gen_s"] = median(gen_times)
        values["trace.overhead_s"] = mean(traced) - mean(plain)
        units = layertrace.LAYER_UNITS
    else:
        setup_s = median(i + g for i, g in zip(import_times, gen_times))
        values = {"run_s": mean(plain), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "threads": 1,
        "inputs": sizes,
        "machine": machine_record(),
        "import_samples_s": import_times,
        "gen_samples_s": gen_times,
        "run_samples_s": plain,
        "traced_run_samples_s": traced,
        "fail_rate": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    out_path = BENCH_DIR / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"record": record, "result": result}) + "\n")
    if args.trace:
        tracer.write(out_path.with_suffix(".spans.json"))

    for k, m in result["metrics"].items():
        print(f"{w.name}  {k:32s} {m['value']:.6g} {m['unit']}")
    print(f"{w.name}  {'fail_rate':32s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    print(f"{'workload':16s} {'metric':32s} {'value':>12s} unit")
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for k, m in result["metrics"].items():
            print(f"{name:16s} {k:32s} {m['value']:12.6g} {m['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"{name:16s} {'fail_rate':32s} {rate:12.6g} ratio"
              f" ({result['failed']}/{result['attempted']}, correct={result['correct']})")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
