import numpy as np
import pytest
from hypothesis import settings

from rolegnn import tensor as T
from rolegnn.rdb import ColumnSpec, ForeignKeySpec, TableSpec, build_database
from rolegnn.schema_graph import RoleAssignment

# Every run of the suite draws the same examples: a fault then fails the
# change that brings it, not a later one that happens to draw it. Each
# test keeps its own max_examples.
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")


@pytest.fixture(autouse=True)
def _clean_tape():
    T.clear_tape()
    yield
    T.clear_tape()


def review_fixture_rows(n_users=4, n_products=3, reviews=None):
    if reviews is None:
        reviews = [(1, 1, 1), (2, 1, 2), (3, 2, 3), (4, 3, 1), (5, 4, 2)]
    rows = {
        "user": [{"user_id": i + 1, "age": 20.0 + i} for i in range(n_users)],
        "product": [{"product_id": i + 1, "price": 5.0 * (i + 1)}
                    for i in range(n_products)],
        "review": [{"review_id": rid, "user_id": u, "product_id": p,
                    "rating": float(rid), "created_at": 1_600_000_000 + rid}
                   for rid, u, p in reviews],
    }
    return rows


def review_fixture_specs():
    return [
        TableSpec("user", (ColumnSpec("user_id", "integer"),
                           ColumnSpec("age", "real")),
                  primary_key="user_id"),
        TableSpec("product", (ColumnSpec("product_id", "integer"),
                              ColumnSpec("price", "real")),
                  primary_key="product_id"),
        TableSpec("review", (ColumnSpec("review_id", "integer"),
                             ColumnSpec("user_id", "integer"),
                             ColumnSpec("product_id", "integer"),
                             ColumnSpec("rating", "real"),
                             ColumnSpec("created_at", "datetime")),
                  primary_key="review_id",
                  foreign_keys=(ForeignKeySpec("user_id", "user"),
                                ForeignKeySpec("product_id", "product")),
                  time_column="created_at"),
    ]


def random_node_edge_roles(triples, seed: int) -> RoleAssignment:
    """Each triple "edge" or "node" by a fair draw of `seed`: a mixed role
    assignment for round-trip tests."""
    rng = np.random.default_rng(seed)
    return RoleAssignment(
        {t.id: ("edge" if rng.random() < 0.5 else "node") for t in triples})


@pytest.fixture
def review_db():
    return build_database(review_fixture_specs(), review_fixture_rows())


def finite_diff_max_rel(build_loss, params, eps=1e-5):
    """Max relative error of analytic gradients against central differences."""
    for p in params:
        p.grad[:] = 0.0
    T.clear_tape()
    loss = build_loss()
    T.backward(loss)
    grads = [p.grad.copy() for p in params]
    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.values.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            with T.no_grad():
                up = build_loss().item()
            flat[i] = orig - eps
            with T.no_grad():
                down = build_loss().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(numeric), abs(gflat[i]), 1e-3)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    for p in params:
        p.grad[:] = 0.0
    return worst


def rand_tensor(rng, shape, grad=True, away_from_zero=False):
    vals = rng.uniform(-2, 2, size=shape)
    if away_from_zero:
        vals = np.where(np.abs(vals) < 0.2, vals + np.sign(vals + 1e-12) * 0.3,
                        vals)
    return T.Tensor(vals, requires_grad=grad)
