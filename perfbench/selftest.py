"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload once at tiny size, untraced and traced, and checks
   that each run succeeds and reports exactly the metrics BENCHMARK.json
   lists.
2. Injects a corrupted embedding cell, a flipped fold accuracy and a
   corrupted parse, and checks that the output checks count each as a
   failure, so a broken program cannot pass them.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must fail without printing a result.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

from run import BENCH_DIR, ROOT, WORKLOAD_NAMES, import_homcount

RUN = [sys.executable, str(BENCH_DIR / "run.py")]
TIMEOUT_S = 600


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            args = ["--workload", name, "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(RUN + args, capture_output=True, text=True,
                                  cwd=ROOT, timeout=TIMEOUT_S)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            assert list(result["metrics"]) == expected[trace], result["metrics"]
            print(f"ok  {name} trace={trace} attempted={result['attempted']}")


def injected_failures() -> None:
    import workloads as wl

    size = wl.SIZES["tiny"]
    work = BENCH_DIR / "_work" / "selftest"
    try:
        csl = wl.WORKLOADS["csl-cv"]
        inp = csl.setup(5, size, work)
        report = csl.run(inp)
        folds = len(report.fold_accuracies)
        reference = wl.reference_fold_accuracies(inp, list(range(folds)))
        assert wl.check_folds(folds, reference, [report]) == (folds, 0)
        flipped = copy.deepcopy(report)
        flipped.fold_accuracies[0] = 1.0 - flipped.fold_accuracies[0]
        assert wl.check_folds(folds, reference, [report, flipped]) == (2 * folds, 1)
        assert wl.check_folds(folds, reference, [None]) == (folds, folds)
        assert wl.check_folds(folds, {0: 0.5}, [report]) == (folds, 1)
        print("ok  flipped fold accuracy counts as one failed fold")

        lab = wl.WORKLOADS["labeled-embed"]
        inp = lab.setup(5, size, work)
        parsed, mats = lab.run(inp)
        attempted, failed = lab.check(inp, [lab.digest(inp, (parsed, mats))])
        assert failed == 0 and attempted >= 2, (attempted, failed)

        plan = wl.sample_cells(inp["bundle"], wl.LABELED_FAMILIES, 5, size["cells_per_family"])
        assert wl.check_cells(inp["bundle"], plan, [mats]) == (len(plan), 0)
        fi, i, j = plan[0][:3]
        bad_mats = copy.deepcopy(mats)
        bad_mats[fi].values[i, j] += 1.0
        cells, failed = wl.check_cells(inp["bundle"], plan, [mats, bad_mats])
        assert cells == 2 * len(plan) and failed >= 1, (cells, failed)
        print("ok  corrupted embedding cell counts as a failed cell")

        bad = dataclasses.replace(parsed, labels=[1 - parsed.labels[0]] + parsed.labels[1:])
        assert lab.check(inp, [lab.digest(inp, (bad, mats))]) == (attempted, 1)
        assert lab.check(inp, [None]) == (attempted, attempted)
        print("ok  corrupted parse and a raising call count as failures")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bare_directory() -> None:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = BENCH_DIR / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "csl-cv", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
        print(f"ok  bare directory exits {proc.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tiny_runs()
    import_homcount()
    injected_failures()
    bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
