"""Fingerprint the fold results of the fixed cross-validation workloads.

Runs CSL/cycles:8, bipartite/{cycles:8, trees:6} and Paulus/{cycles:8,
trees:6} as 10x10 `cross_validate` at seed 0, once with training limited to
one CPU and once to two. For each workload it prints one tab-separated line:
the workload, the sha256 of its fold accuracies (as float hex) and
`config["epochs_run"]` for 1 and for 2 CPUs, and the `layer_seconds` of
both runs. Two commits give the same fold results exactly when the first
three columns match:

    python3 scripts/cv_identity.py | cut -f1-3 > ids.txt    # on each commit
    diff ids_before.txt ids_after.txt

Run from the repository root; it takes about a minute on two cores.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from homcount import evaluate  # noqa: E402
from homcount.datasets import gen_bipartite_er, gen_csl, load_paulus  # noqa: E402

WORKLOADS = [
    ("csl", gen_csl, "cycles:8"),
    ("bipartite", gen_bipartite_er, "cycles:8"),
    ("bipartite", gen_bipartite_er, "trees:6"),
    ("paulus", load_paulus, "cycles:8"),
    ("paulus", load_paulus, "trees:6"),
]


def fingerprint(report: evaluate.CVReport) -> str:
    record = {
        "fold_accuracies": [a.hex() for a in report.fold_accuracies],
        "epochs_run": report.config["epochs_run"],
    }
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def main() -> None:
    for name, make, family in WORKLOADS:
        bundle = make(seed=0)
        hashes, times = [], []
        for cpus in (1, 2):
            evaluate._usable_cpus = lambda: cpus
            report = evaluate.cross_validate(bundle, family, k=10, seed=0, repeats=10)
            hashes.append(fingerprint(report))
            times.append({key: round(s, 3) for key, s in report.layer_seconds.items()})
        print("\t".join([f"{name}/{family}", *hashes, *map(json.dumps, times)]), flush=True)


if __name__ == "__main__":
    main()
