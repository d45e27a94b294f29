"""Workload definitions, shared by run.py and the worker.

Standard library only: run.py never imports numpy or rolegnn. NOTES.md
records why each workload was chosen and what each one should show.
"""

from __future__ import annotations

X10 = {"n_users": 20000, "n_products": 3000, "n_reviews": 80000}
X1 = {"n_users": 2000, "n_products": 300, "n_reviews": 8000}
# Smoke sizes finish in seconds; they check the plumbing, not performance,
# and train for more epochs so that the quality check still holds.
SMOKE = {"n_users": 400, "n_products": 60, "n_reviews": 1600}

# Shared training settings of both training workloads.
TRAIN = {"channels": 32, "batch_size": 256, "lr": 0.005,
         "neighbor_samples": 128, "roles": "learn"}
MIN_TEST_AUC = 0.9

WORKLOADS = {
    "twohop-x10-l1-fd": {
        "kind": "train", "size": X10, "layers": 1, "fd": True, "epochs": 1,
        "smoke_epochs": 30, "checkpoint": True,
    },
    "twohop-x1-l2-nofd": {
        "kind": "train", "size": X1, "layers": 2, "fd": False, "epochs": 2,
        "smoke_epochs": 8, "checkpoint": False,
    },
    "bundle-x10-roundtrip": {
        "kind": "roundtrip", "size": X10,
    },
}

# The workloads BENCHMARK.json lists, whose end-to-end metrics carry bounds.
# The roundtrip is left out: on a shared 2-core VM its rates moved by up to
# 1.8x between back-to-back runs of the same code, past any bound, and the
# run-time budget pays for longer runs of two workloads rather than three.
# It still runs by name and with --workload all.
SPEC_WORKLOADS = ("twohop-x10-l1-fd", "twohop-x1-l2-nofd")


def size_of(name: str, smoke: bool) -> dict:
    return dict(SMOKE) if smoke else dict(WORKLOADS[name]["size"])
