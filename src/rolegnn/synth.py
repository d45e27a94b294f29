"""Deterministic synthetic databases with planted, analytically known structure.

Each generator is a pure function of its parameters and seed, builds a fully
validated database (and usually a task), and can emit the standard bundle
format so the whole pipeline including ingestion gets exercised. Noise is
uniform throughout; magnitudes are documented per generator.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import setting
from .rdb import (ColumnSpec, ForeignKeySpec, LabelRecords, RelationalDatabase,
                  TableSpec, TaskSpec, build_database, export_bundle)

DAY = 86400
BASE_TIME = 1_600_000_000  # generator epoch origin


def _split_cuts() -> tuple[float, float, float]:
    return (BASE_TIME + 100 * DAY, BASE_TIME + 101 * DAY, BASE_TIME + 102 * DAY)


def _assign_splits(rng: np.random.Generator, n: int,
                   fractions=(0.6, 0.15, 0.25)) -> dict[str, np.ndarray]:
    order = rng.permutation(n)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    return {"train": order[:n_train],
            "val": order[n_train:n_train + n_val],
            "test": order[n_train + n_val:]}


def _classification_task(name: str, entity_table: str, entity_pk: np.ndarray,
                         labels: np.ndarray, splits: dict[str, np.ndarray]) -> TaskSpec:
    cuts = _split_cuts()
    task = TaskSpec(name=name, task_type="classification",
                    entity_table=entity_table, split=cuts)
    for split, cut in zip(("train", "val", "test"), cuts):
        idx = splits[split]
        task.labels[split] = LabelRecords(
            entity=entity_pk[idx].astype(np.int64),
            t_predict=np.full(len(idx), float(cut)),
            label=labels[idx].astype(np.float64))
    return task


# ---------------------------------------------------------------------------
# two-hop planted signal: user <- review -> product
# ---------------------------------------------------------------------------

def gen_twohop(n_users: int, n_products: int, n_reviews: int,
               signal_strength: float, seed: int) -> tuple[RelationalDatabase, TaskSpec]:
    """Labels live two hops away: each user's class is the thresholded mean of
    a product attribute over their reviewed products. Review attributes are
    pure noise (uniform [-1, 1]); with signal_strength 1 the label is a
    deterministic function of the two-hop features, lower values replace it
    with a fair coin at probability (1 - signal_strength)."""
    for name, size in (("n_users", n_users), ("n_products", n_products),
                       ("n_reviews", n_reviews)):
        if size < 10:
            raise ValueError(f"sizes must be >= 10, got {name}={size}")
    rng = np.random.default_rng(seed)
    user_pk = np.arange(1, n_users + 1, dtype=np.int64)
    product_pk = np.arange(1, n_products + 1, dtype=np.int64)
    quality = rng.uniform(-1.0, 1.0, size=n_products)

    # every user reviews at least once; no duplicate (user, product) pairs
    review_user = np.concatenate([
        np.arange(n_users), rng.integers(0, n_users, size=n_reviews - n_users)])
    review_product = np.empty(n_reviews, dtype=np.int64)
    seen: dict[int, set] = {}
    for i in range(n_reviews):
        u = int(review_user[i])
        used = seen.setdefault(u, set())
        p = int(rng.integers(0, n_products))
        while p in used and len(used) < n_products:
            p = int(rng.integers(0, n_products))
        used.add(p)
        review_product[i] = p
    review_time = BASE_TIME + rng.integers(0, 90 * DAY, size=n_reviews)

    mean_quality = np.zeros(n_users)
    counts = np.zeros(n_users)
    np.add.at(mean_quality, review_user, quality[review_product])
    np.add.at(counts, review_user, 1.0)
    mean_quality /= np.maximum(counts, 1.0)
    labels = (mean_quality > 0).astype(np.float64)
    rerandom = rng.random(n_users) > signal_strength
    labels[rerandom] = rng.integers(0, 2, size=int(rerandom.sum())).astype(np.float64)

    specs = [
        TableSpec("user", (ColumnSpec("user_id", "integer"),
                           ColumnSpec("u_noise_a", "real"),
                           ColumnSpec("u_noise_b", "real")),
                  primary_key="user_id"),
        TableSpec("product", (ColumnSpec("product_id", "integer"),
                              ColumnSpec("quality", "real"),
                              ColumnSpec("p_noise", "real")),
                  primary_key="product_id"),
        TableSpec("review", (ColumnSpec("review_id", "integer"),
                             ColumnSpec("user_id", "integer"),
                             ColumnSpec("product_id", "integer"),
                             ColumnSpec("r_noise", "real"),
                             ColumnSpec("created_at", "datetime")),
                  primary_key="review_id",
                  foreign_keys=(ForeignKeySpec("user_id", "user"),
                                ForeignKeySpec("product_id", "product")),
                  time_column="created_at"),
    ]
    rows = {
        "user": [{"user_id": int(user_pk[i]),
                  "u_noise_a": float(rng.uniform(-1, 1)),
                  "u_noise_b": float(rng.uniform(-1, 1))}
                 for i in range(n_users)],
        "product": [{"product_id": int(product_pk[i]),
                     "quality": float(quality[i]),
                     "p_noise": float(rng.uniform(-1, 1))}
                    for i in range(n_products)],
        "review": [{"review_id": i + 1,
                    "user_id": int(user_pk[review_user[i]]),
                    "product_id": int(product_pk[review_product[i]]),
                    "r_noise": float(rng.uniform(-1, 1)),
                    "created_at": int(review_time[i])}
                   for i in range(n_reviews)],
    }
    db = build_database(specs, rows)
    task = _classification_task("user-positive", "user", user_pk, labels,
                                _assign_splits(rng, n_users))
    return db, task


# ---------------------------------------------------------------------------
# planted low-rank difference subspace: entry -> anchor
# ---------------------------------------------------------------------------

def gen_subspace(n: int, channels_hint: int, d_true: int, seed: int,
                 sigma: float = 0.0) -> tuple[RelationalDatabase, dict]:
    """Two linked tables whose per-link attribute differences (anchor minus
    entry, identity encoding) lie in a planted d_true-dimensional affine
    subspace plus uniform noise of half-width sigma."""
    if d_true >= channels_hint:
        raise ValueError("d_true must be < channels_hint")
    rng = np.random.default_rng(seed)
    m = channels_hint
    n_anchor = max(n // 3, 8)
    anchors = rng.uniform(-2.0, 2.0, size=(n_anchor, m))
    basis, _ = np.linalg.qr(rng.normal(size=(m, d_true)))
    shift = rng.uniform(-1.0, 1.0, size=m)

    link = rng.integers(0, n_anchor, size=n)
    z = rng.uniform(-1.0, 1.0, size=(n, d_true))
    noise = rng.uniform(-sigma, sigma, size=(n, m)) if sigma > 0 else 0.0
    diffs = shift + z @ basis.T + noise
    entries = anchors[link] - diffs

    attr_cols = [f"a{j}" for j in range(m)]
    specs = [
        TableSpec("anchor",
                  (ColumnSpec("anchor_id", "integer"),
                   *(ColumnSpec(c, "real") for c in attr_cols)),
                  primary_key="anchor_id"),
        TableSpec("entry",
                  (ColumnSpec("entry_id", "integer"),
                   ColumnSpec("anchor_id", "integer"),
                   *(ColumnSpec(c, "real") for c in attr_cols)),
                  primary_key="entry_id",
                  foreign_keys=(ForeignKeySpec("anchor_id", "anchor"),)),
    ]
    rows = {
        "anchor": [{"anchor_id": i + 1,
                    **{c: float(anchors[i, j]) for j, c in enumerate(attr_cols)}}
                   for i in range(n_anchor)],
        "entry": [{"entry_id": i + 1, "anchor_id": int(link[i]) + 1,
                   **{c: float(entries[i, j]) for j, c in enumerate(attr_cols)}}
                  for i in range(n)],
    }
    db = build_database(specs, rows)
    meta = {"basis": basis, "shift": shift, "d_true": d_true, "sigma": sigma,
            "diffs": diffs, "link": link}
    return db, meta


# ---------------------------------------------------------------------------
# future leakage probe: user <- activity events, signal strictly in the future
# ---------------------------------------------------------------------------

def gen_future_leak(n: int, seed: int) -> tuple[RelationalDatabase, TaskSpec]:
    """Labels depend only on events timestamped after every prediction time.

    Each user has two past events with zero signal attribute and two future
    events carrying it; the label thresholds the mean future attribute. A
    causal sampler therefore sees nothing informative.
    """
    rng = np.random.default_rng(seed)
    user_pk = np.arange(1, n + 1, dtype=np.int64)
    future_base = BASE_TIME + 200 * DAY  # beyond every split cut

    events = []
    signal_mean = np.zeros(n)
    eid = 1
    for i in range(n):
        for _ in range(2):
            events.append({"event_id": eid, "user_id": int(user_pk[i]),
                           "activity": 0.0,
                           "e_noise": float(rng.uniform(-1, 1)),
                           "happened_at": int(BASE_TIME + rng.integers(0, 80 * DAY))})
            eid += 1
        vals = rng.uniform(-1.0, 1.0, size=2)
        signal_mean[i] = vals.mean()
        for v in vals:
            events.append({"event_id": eid, "user_id": int(user_pk[i]),
                           "activity": float(v),
                           "e_noise": float(rng.uniform(-1, 1)),
                           "happened_at": int(future_base + rng.integers(0, 10 * DAY))})
            eid += 1
    labels = (signal_mean > 0).astype(np.float64)

    specs = [
        TableSpec("user", (ColumnSpec("user_id", "integer"),
                           ColumnSpec("u_noise", "real")),
                  primary_key="user_id"),
        TableSpec("event", (ColumnSpec("event_id", "integer"),
                            ColumnSpec("user_id", "integer"),
                            ColumnSpec("activity", "real"),
                            ColumnSpec("e_noise", "real"),
                            ColumnSpec("happened_at", "datetime")),
                  primary_key="event_id",
                  foreign_keys=(ForeignKeySpec("user_id", "user"),),
                  time_column="happened_at"),
    ]
    rows = {
        "user": [{"user_id": int(user_pk[i]),
                  "u_noise": float(rng.uniform(-1, 1))} for i in range(n)],
        "event": events,
    }
    db = build_database(specs, rows)
    task = _classification_task("future-signal", "user", user_pk, labels,
                                _assign_splits(rng, n, (0.4, 0.2, 0.4)))
    return db, task


# ---------------------------------------------------------------------------
# mediated chain: source -> mid -> sink with multiplicative gating
# ---------------------------------------------------------------------------

def gen_completion_chain(sizes: tuple[int, int, int], seed: int,
                         gate_mode: str = "random") -> tuple[RelationalDatabase, TaskSpec]:
    """Three-table chain where each sink's regression target is the mean over
    incoming chains of (source attribute x mid gate attribute)."""
    n_src, n_mid, n_sink = sizes
    rng = np.random.default_rng(seed)
    modes = {"random": lambda: rng.uniform(0.0, 1.0, size=n_mid),
             "one": lambda: np.ones(n_mid),
             "zero": lambda: np.zeros(n_mid)}
    if gate_mode not in modes:
        raise ValueError(f"gate_mode must be one of {sorted(modes)}, "
                         f"got {gate_mode!r}")
    gate_vals = modes[gate_mode]()
    mid_sink = rng.integers(0, n_sink, size=n_mid)
    src_mid = rng.integers(0, n_mid, size=n_src)
    src_attr = rng.uniform(-1.0, 1.0, size=n_src)
    mid_time = BASE_TIME + rng.integers(0, 90 * DAY, size=n_mid)

    target = np.zeros(n_sink)
    counts = np.zeros(n_sink)
    contrib = src_attr * gate_vals[src_mid]
    np.add.at(target, mid_sink[src_mid], contrib)
    np.add.at(counts, mid_sink[src_mid], 1.0)
    target /= np.maximum(counts, 1.0)

    specs = [
        TableSpec("sink", (ColumnSpec("sink_id", "integer"),
                           ColumnSpec("s_noise", "real")),
                  primary_key="sink_id"),
        TableSpec("mid", (ColumnSpec("mid_id", "integer"),
                          ColumnSpec("sink_id", "integer"),
                          ColumnSpec("gate", "real"),
                          ColumnSpec("logged_at", "datetime")),
                  primary_key="mid_id",
                  foreign_keys=(ForeignKeySpec("sink_id", "sink"),),
                  time_column="logged_at"),
        TableSpec("source", (ColumnSpec("source_id", "integer"),
                             ColumnSpec("mid_id", "integer"),
                             ColumnSpec("strength", "real")),
                  primary_key="source_id",
                  foreign_keys=(ForeignKeySpec("mid_id", "mid"),)),
    ]
    sink_pk = np.arange(1, n_sink + 1, dtype=np.int64)
    rows = {
        "sink": [{"sink_id": int(sink_pk[i]),
                  "s_noise": float(rng.uniform(-1, 1))} for i in range(n_sink)],
        "mid": [{"mid_id": i + 1, "sink_id": int(mid_sink[i]) + 1,
                 "gate": float(gate_vals[i]), "logged_at": int(mid_time[i])}
                for i in range(n_mid)],
        "source": [{"source_id": i + 1, "mid_id": int(src_mid[i]) + 1,
                    "strength": float(src_attr[i])} for i in range(n_src)],
    }
    db = build_database(specs, rows)
    cuts = _split_cuts()
    task = TaskSpec(name="mediated-target", task_type="regression",
                    entity_table="sink", split=cuts)
    splits = _assign_splits(rng, n_sink)
    for split, cut in zip(("train", "val", "test"), cuts):
        idx = splits[split]
        task.labels[split] = LabelRecords(
            entity=sink_pk[idx], t_predict=np.full(len(idx), float(cut)),
            label=target[idx])
    return db, task


# ---------------------------------------------------------------------------
# random schemas for round-trip stress
# ---------------------------------------------------------------------------

def gen_random_bundle(seed: int) -> RelationalDatabase:
    """Random DAG-ish schema with mixed column kinds, nullables, occasional
    self-references, and 20-120 rows per table."""
    rng = np.random.default_rng(seed)
    n_tables = int(rng.integers(2, 6))
    specs = []
    all_rows: dict[str, list[dict]] = {}
    names = [f"t{i}" for i in range(n_tables)]
    pk_values: dict[str, np.ndarray] = {}

    for ti, name in enumerate(names):
        cols = [ColumnSpec(f"{name}_id", "integer")]
        n_attrs = int(rng.integers(0, 4))
        for ai in range(n_attrs):
            kind = rng.choice(["integer", "real", "categorical", "datetime"])
            cols.append(ColumnSpec(f"c{ai}", str(kind), nullable=bool(rng.random() < 0.4)))
        fks = []
        for fi in range(int(rng.integers(0, 3))):
            if ti == 0 and rng.random() < 0.9:
                continue
            if ti > 0 and rng.random() < 0.85:
                ref = names[int(rng.integers(0, ti))]
            else:
                ref = name  # self reference
            fks.append(ForeignKeySpec(f"fk{fi}", ref))
            cols.append(ColumnSpec(f"fk{fi}", "integer", nullable=bool(rng.random() < 0.5)))
        time_col = None
        if rng.random() < 0.5:
            time_col = "seen_at"
            cols.append(ColumnSpec("seen_at", "datetime", nullable=bool(rng.random() < 0.3)))
        specs.append(TableSpec(name, tuple(cols), primary_key=f"{name}_id",
                               foreign_keys=tuple(fks), time_column=time_col))

    vocab = ["red", "green", "blue", "umlautü", "with,comma", 'with"quote']
    for spec in specs:
        n_rows = int(rng.integers(20, 121))
        pks = rng.choice(np.arange(1, 10 * n_rows), size=n_rows, replace=False)
        pk_values[spec.name] = np.sort(pks).astype(np.int64)
        rows = []
        for i in range(n_rows):
            row: dict = {spec.primary_key: int(pk_values[spec.name][i])}
            for col in spec.columns:
                if col.name == spec.primary_key or col.name.startswith("fk"):
                    continue
                if col.nullable and rng.random() < 0.2:
                    row[col.name] = None
                elif col.kind == "integer":
                    row[col.name] = int(rng.integers(-1000, 1000))
                elif col.kind == "real":
                    row[col.name] = float(rng.normal() * 10.0 ** int(rng.integers(-3, 4)))
                elif col.kind == "categorical":
                    row[col.name] = str(rng.choice(vocab))
                else:
                    row[col.name] = int(BASE_TIME + rng.integers(0, 365 * DAY))
            for fk in spec.foreign_keys:
                col = spec.column(fk.column)
                if col.nullable and rng.random() < 0.25:
                    row[fk.column] = None
                else:
                    targets = pk_values[fk.references]
                    row[fk.column] = int(targets[int(rng.integers(0, len(targets)))])
            rows.append(row)
        all_rows[spec.name] = rows
    return build_database(specs, all_rows)


# generator -> (its function of keyword parameters, returning the database
# and task, and every parameter's default, whose kind the value must have)
GENERATORS = {
    "twohop": (gen_twohop, {"n_users": 2000, "n_products": 300,
                            "n_reviews": 8000, "signal_strength": 1.0,
                            "seed": 0}),
    "subspace": (lambda **p: (gen_subspace(**p)[0], None),
                 {"n": 600, "channels_hint": 16, "d_true": 4, "seed": 0,
                  "sigma": 0.0}),
    "future_leak": (gen_future_leak, {"n": 2500, "seed": 0}),
    "completion_chain": (
        lambda n_src, n_mid, n_sink, **p: gen_completion_chain(
            (n_src, n_mid, n_sink), **p),
        {"n_src": 2000, "n_mid": 1000, "n_sink": 500, "seed": 0,
         "gate_mode": "random"}),
    "random": (lambda seed: (gen_random_bundle(seed), None), {"seed": 0}),
}


def parameters(generator: str, params: dict) -> dict:
    """Every parameter of `generator`: each of `params`, a value or its text,
    read by `config.setting` as its default's kind, the rest at defaults.
    ValueError names an unknown generator or parameter, or a bad value: one
    of the wrong kind, or a negative number."""
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; "
                         f"known: {sorted(GENERATORS)}")
    defaults = GENERATORS[generator][1]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"generator {generator!r} has no parameter "
                         f"{unknown[0]!r}; known: {sorted(defaults)}")
    values = {k: setting(k, params.get(k, v), v) for k, v in defaults.items()}
    for k, v in values.items():
        if not isinstance(v, str) and v < 0:
            raise ValueError(f"{k} must be >= 0, got {v}")
    return values


def emit(generator: str, params: dict, out_dir: str | Path) -> Path:
    """Write the bundle (and task, if any) of a generator's `parameters`."""
    params = parameters(generator, params)
    db, task = GENERATORS[generator][0](**params)
    return export_bundle(db, Path(out_dir), task=task)
