"""Shipped defaults, the hyperparameter grid, and the hop-budget rule.

Everything here is data; `defaults_self_test` re-derives the values that other
modules rely on so a run can assert its own configuration.
"""

from __future__ import annotations

import json
import math
import numbers
import os

# Shipped defaults. Flags > config file > these.
DEFAULTS = {
    "lr": 0.001,
    "channels": 128,
    "layers": 2,
    "dropout": 0.0,
    "neighbor_samples": 128,
    "beta": 1e-6,
    "gamma": 0.1,
    "alpha": 0.9,     # gate blend toward the running table-level gate
    "mu": 0.9,        # running-gate momentum
    "tau": 0.1,       # contrastive temperature
    "negatives": 8,
    "epochs": 30,
    "batch_size": 256,
    "patience": 10,
    "cat_dim": 8,
    "subspace_dim": 0,   # 0 -> channels // 4 (min 1)
    "path_cap": 5_000_000,
}

# Upper bounds of the size settings that array shapes scale with; a larger
# value is refused as a usage error rather than left to fail an allocation.
MAX_CHANNELS = 1024
MAX_LAYERS = 16   # twice the grid's largest value
MAX_NEGATIVES = 256

# Search grid used by the reference experiments.
GRID = {
    "lr": [0.005, 0.001, 0.0005, 0.0001],
    "neighbor_samples": [64, 128],
    "channels": [32, 64, 128],
    "layers": list(range(1, 9)),
    "dropout": [0.0, 0.2, 0.3, 0.5],
}

SEED_ENV_VAR = "ROLEGNN_SEED"


def hop_budget(neighbor_samples: int, hop: int) -> int:
    """Per-node sampling budget at 0-indexed hop `hop`: budget // 2**hop."""
    if hop < 0:
        raise ValueError(f"hop must be >= 0, got {hop}")
    return neighbor_samples // (2 ** hop)


def integral(name: str, value) -> int:
    """`value` as an int when it is a whole number (an int, or a float with
    no fraction), else ValueError naming `name`. A bool is not a number."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def real(name: str, value) -> float:
    """`value` as a float when it is a finite number, else ValueError
    naming `name`. A bool is not a number, nor are NaN and +-inf."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if math.isfinite(value):
            return float(value)
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    raise ValueError(f"{name} must be a number, got {value!r}")


def setting(name: str, value, like):
    """`value` (or its text, read as JSON) as a setting of the kind of its
    default `like`: a whole number for an int, a finite number for a float.
    A string default keeps the value. Else ValueError naming `name`."""
    if isinstance(like, str):
        return value
    try:
        value = json.loads(value) if isinstance(value, str) else value
    except ValueError:
        pass
    return (integral if isinstance(like, int) else real)(name, value)


def default_seed() -> int:
    """Seed default, overridable through the environment by a whole number
    >= 0; any other value raises ValueError naming the variable."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    seed = setting(SEED_ENV_VAR, raw, 0)
    if seed < 0:
        raise ValueError(f"{SEED_ENV_VAR} must be >= 0, got {seed}")
    return seed


def defaults_self_test() -> list[tuple[str, bool, str]]:
    """Re-check the shipped defaults and the hop-budget rule.

    Returns (check name, passed, detail) rows; all rows must pass for a
    configuration to be considered authentic.
    """
    checks = []
    checks.append(("beta_default", DEFAULTS["beta"] == 1e-6,
                   f"beta={DEFAULTS['beta']!r}"))
    checks.append(("gamma_default", DEFAULTS["gamma"] == 0.1,
                   f"gamma={DEFAULTS['gamma']!r}"))
    budgets_64 = [hop_budget(64, i) for i in range(4)]
    checks.append(("hop_budget_rule_64", budgets_64 == [64, 32, 16, 8],
                   f"budgets(64)={budgets_64}"))
    budgets_128 = [hop_budget(128, i) for i in range(4)]
    checks.append(("hop_budget_rule_128", budgets_128 == [128, 64, 32, 16],
                   f"budgets(128)={budgets_128}"))
    checks.append(("lr_in_grid", DEFAULTS["lr"] in GRID["lr"],
                   f"lr={DEFAULTS['lr']}"))
    checks.append(("channels_in_grid", DEFAULTS["channels"] in GRID["channels"],
                   f"channels={DEFAULTS['channels']}"))
    checks.append(("dropout_in_grid", DEFAULTS["dropout"] in GRID["dropout"],
                   f"dropout={DEFAULTS['dropout']}"))
    checks.append(("neighbor_samples_in_grid",
                   DEFAULTS["neighbor_samples"] in GRID["neighbor_samples"],
                   f"B={DEFAULTS['neighbor_samples']}"))
    return checks
