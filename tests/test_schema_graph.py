import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (random_node_edge_roles, review_fixture_rows,
                      review_fixture_specs)
from rolegnn.errors import PathCapExceeded, ProvenanceError, RoleError
from rolegnn.rdb import (ColumnSpec, ForeignKeySpec, TableSpec, build_database,
                         canonical_form)
from rolegnn.schema_graph import (RelationKey, RoleAssignment,
                                  all_three_node_graphs, build_schema_graph,
                                  close_common_neighbors,
                                  construct_reg, demo_add_counterexample,
                                  demo_prune_counterexample,
                                  enumerate_edge_triples,
                                  enumerate_pruning_maps, invert_reg,
                                  prune_to_core)
from rolegnn.synth import gen_random_bundle, gen_twohop


@pytest.fixture
def review_db():
    return build_database(review_fixture_specs(), review_fixture_rows())


def test_schema_graph_shape(review_db):
    sg = build_schema_graph(review_db)
    assert len(sg.vertices) == 3
    assert len(sg.arcs) == 2


def test_two_fks_same_target_distinct_arcs():
    specs = [
        TableSpec("user", (ColumnSpec("user_id", "integer"),),
                  primary_key="user_id"),
        TableSpec("event", (ColumnSpec("event_id", "integer"),
                            ColumnSpec("host_id", "integer"),
                            ColumnSpec("guest_id", "integer")),
                  primary_key="event_id",
                  foreign_keys=(ForeignKeySpec("host_id", "user"),
                                ForeignKeySpec("guest_id", "user"))),
    ]
    db = build_database(specs, {
        "user": [{"user_id": 1}, {"user_id": 2}],
        "event": [{"event_id": 1, "host_id": 1, "guest_id": 2}]})
    sg = build_schema_graph(db)
    assert len(sg.arcs) == 2
    triples = enumerate_edge_triples(sg)
    co = [t for t in triples if t.pattern == "cooccurrence"]
    # both orientations of the host/guest pair, user on both ends
    assert len(co) == 2
    assert {(t.fk_u, t.fk_w) for t in co} == {("host_id", "guest_id"),
                                              ("guest_id", "host_id")}


def test_declared_fk_count_equals_arcs():
    for seed in range(8):
        db = gen_random_bundle(seed)
        sg = build_schema_graph(db)
        declared = sum(len(db.specs[t].foreign_keys) for t in db.table_names)
        assert len(sg.arcs) == declared


def test_cooccurrence_both_orientations(review_db):
    sg = build_schema_graph(review_db)
    ids = {t.id for t in enumerate_edge_triples(sg)}
    assert "co:user<~review.user_id|review.product_id~>product" in ids
    assert "co:product<~review.product_id|review.user_id~>user" in ids


def test_completion_chain_triple():
    specs = [
        TableSpec("circuit", (ColumnSpec("circuit_id", "integer"),),
                  primary_key="circuit_id"),
        TableSpec("race", (ColumnSpec("race_id", "integer"),
                           ColumnSpec("circuit_id", "integer")),
                  primary_key="race_id",
                  foreign_keys=(ForeignKeySpec("circuit_id", "circuit"),)),
        TableSpec("standing", (ColumnSpec("standing_id", "integer"),
                               ColumnSpec("race_id", "integer")),
                  primary_key="standing_id",
                  foreign_keys=(ForeignKeySpec("race_id", "race"),)),
    ]
    db = build_database(specs, {
        "circuit": [{"circuit_id": 1}],
        "race": [{"race_id": 1, "circuit_id": 1}],
        "standing": [{"standing_id": 1, "race_id": 1}]})
    triples = enumerate_edge_triples(build_schema_graph(db))
    comp = [t for t in triples if t.pattern == "completion"]
    assert len(comp) == 1
    assert (comp[0].u_table, comp[0].v_table, comp[0].w_table) == \
        ("standing", "race", "circuit")


def test_star_schema_no_completion(review_db):
    triples = enumerate_edge_triples(build_schema_graph(review_db))
    assert all(t.pattern == "cooccurrence" for t in triples)


def test_shared_target_pattern_never_generated():
    # u -> v <- w: two fact tables referencing one dimension table
    specs = [
        TableSpec("dim", (ColumnSpec("dim_id", "integer"),),
                  primary_key="dim_id"),
        TableSpec("fact_a", (ColumnSpec("a_id", "integer"),
                             ColumnSpec("dim_id", "integer")),
                  primary_key="a_id",
                  foreign_keys=(ForeignKeySpec("dim_id", "dim"),)),
        TableSpec("fact_b", (ColumnSpec("b_id", "integer"),
                             ColumnSpec("dim_id", "integer")),
                  primary_key="b_id",
                  foreign_keys=(ForeignKeySpec("dim_id", "dim"),)),
    ]
    db = build_database(specs, {
        "dim": [{"dim_id": 1}],
        "fact_a": [{"a_id": 1, "dim_id": 1}],
        "fact_b": [{"b_id": 1, "dim_id": 1}]})
    assert enumerate_edge_triples(build_schema_graph(db)) == []


def test_self_fk_excluded_from_triples():
    specs = [
        TableSpec("node", (ColumnSpec("node_id", "integer"),
                           ColumnSpec("parent_id", "integer", nullable=True),
                           ColumnSpec("other_id", "integer", nullable=True)),
                  primary_key="node_id",
                  foreign_keys=(ForeignKeySpec("parent_id", "node"),
                                ForeignKeySpec("other_id", "node"))),
    ]
    db = build_database(specs, {"node": [
        {"node_id": 1, "parent_id": None, "other_id": None},
        {"node_id": 2, "parent_id": 1, "other_id": 1}]})
    assert enumerate_edge_triples(build_schema_graph(db)) == []
    # the self arcs still exist as node-level relations
    sg = build_schema_graph(db)
    roles = RoleAssignment.uniform([], "learn")
    reg = construct_reg(db, sg, roles)
    assert reg.edges["node.parent_id->node"].n_edges == 1


def test_path_relation_join_by_hand():
    rows = review_fixture_rows(
        n_users=2, n_products=2,
        reviews=[(1, 1, 1), (2, 1, 2)])
    db = build_database(review_fixture_specs(), rows)
    sg = build_schema_graph(db)
    triples = enumerate_edge_triples(sg)
    reg = construct_reg(db, sg, RoleAssignment.uniform(triples, "learn"))
    pr = reg.paths["co:user<~review.user_id|review.product_id~>product"]
    got = {(int(reg.nodes["user"].pk[u]), int(reg.nodes["review"].pk[v]),
            int(reg.nodes["product"].pk[w]))
           for u, v, w in zip(pr.u_pos, pr.v_pos, pr.w_pos)}
    assert got == {(1, 1, 1), (1, 2, 2)}


def test_empty_intermediate_table():
    rows = review_fixture_rows()
    rows["review"] = []
    db = build_database(review_fixture_specs(), rows)
    sg = build_schema_graph(db)
    reg = construct_reg(db, sg,
                        RoleAssignment.uniform(enumerate_edge_triples(sg), "learn"))
    assert all(p.n_instances == 0 for p in reg.paths.values())
    assert reg.nodes["user"].n_rows == 4
    assert reg.nodes["product"].n_rows == 3


def _bruteforce_join_counts(db, triple):
    """Nested-loop join oracle over raw rows."""
    count = 0
    if triple.pattern == "cooccurrence":
        v = db.table(triple.v_table)
        u = db.table(triple.u_table)
        w = db.table(triple.w_table)
        for i in range(v.n_rows):
            if not (v.cols[triple.fk_u].mask[i] and v.cols[triple.fk_w].mask[i]):
                continue
            hits_u = int((u.pk == v.cols[triple.fk_u].values[i]).sum())
            hits_w = int((w.pk == v.cols[triple.fk_w].values[i]).sum())
            count += hits_u * hits_w
    else:
        u = db.table(triple.u_table)
        v = db.table(triple.v_table)
        w = db.table(triple.w_table)
        for i in range(u.n_rows):
            if not u.cols[triple.fk_u].mask[i]:
                continue
            for j in range(v.n_rows):
                if v.pk[j] != u.cols[triple.fk_u].values[i]:
                    continue
                if not v.cols[triple.fk_w].mask[j]:
                    continue
                count += int((w.pk == v.cols[triple.fk_w].values[j]).sum())
    return count


def test_path_cardinality_matches_bruteforce_join():
    db, _ = gen_twohop(40, 15, 200, 1.0, 3)
    sg = build_schema_graph(db)
    triples = enumerate_edge_triples(sg)
    reg = construct_reg(db, sg, RoleAssignment.uniform(triples, "learn"))
    for t in triples:
        assert reg.paths[t.id].n_instances == _bruteforce_join_counts(db, t)
    for seed in range(4):
        db = gen_random_bundle(seed)
        sg = build_schema_graph(db)
        triples = enumerate_edge_triples(sg)
        reg = construct_reg(db, sg, RoleAssignment.uniform(triples, "learn"))
        for t in triples:
            assert reg.paths[t.id].n_instances == _bruteforce_join_counts(db, t)


def test_path_cap_names_triple(review_db):
    sg = build_schema_graph(review_db)
    triples = enumerate_edge_triples(sg)
    with pytest.raises(PathCapExceeded) as err:
        construct_reg(review_db, sg, RoleAssignment.uniform(triples, "learn"),
                      path_cap=2)
    assert err.value.triple_id.startswith("co:")


def test_roundtrip_every_role_mode(review_db):
    sg = build_schema_graph(review_db)
    triples = enumerate_edge_triples(sg)
    for roles in [RoleAssignment.uniform(triples, "node"),
                  RoleAssignment.uniform(triples, "edge"),
                  RoleAssignment.uniform(triples, "learn"),
                  random_node_edge_roles(triples, 3)]:
        reg = construct_reg(review_db, sg, roles)
        assert canonical_form(invert_reg(reg)) == canonical_form(review_db)


def test_reconstruction_reads_node_store_attributes(review_db):
    """Whatever the role, every table's attributes come back from its node
    store: the graph round-trips, and an edit to the store of the
    intermediate (review, the edge-role table under all-edge) shows at that
    row and nowhere else."""
    sg = build_schema_graph(review_db)
    triples = enumerate_edge_triples(sg)
    original = review_db.table("review")
    want = dict(zip(original.pk.tolist(), original.cols["rating"].values.tolist()))
    for mode in ("node", "learn", "edge"):
        reg = construct_reg(review_db, sg, RoleAssignment.uniform(triples, mode))
        assert canonical_form(invert_reg(reg)) == canonical_form(review_db)
        store = reg.nodes["review"]
        store.attrs["rating"].values[2] = -1.0
        rebuilt = invert_reg(reg).table("review")
        got = dict(zip(rebuilt.pk.tolist(), rebuilt.cols["rating"].values.tolist()))
        assert got == {**want, int(store.pk[2]): -1.0}


def test_provenance_stripped_reconstruction_fails(review_db):
    sg = build_schema_graph(review_db)
    reg = construct_reg(review_db, sg,
                        RoleAssignment.uniform(enumerate_edge_triples(sg), "learn"))
    stripped = reg.strip_provenance()
    with pytest.raises(ProvenanceError):
        invert_reg(stripped)


def test_reverse_tagging_is_involution():
    key = RelationKey("review", "user_id", "user")
    assert key.flipped().flipped() == key
    assert key.flipped().id != key.id


def test_role_assignment_validation(review_db):
    sg = build_schema_graph(review_db)
    triples = enumerate_edge_triples(sg)
    bad = RoleAssignment({"co:nonexistent": "edge"})
    with pytest.raises(RoleError, match="co:nonexistent"):
        bad.validate(triples)
    tid = triples[0].id
    for role in ("hyperedge", True, float("nan"), float("inf"), -0.5, 1.5,
                 None, [0.5]):
        with pytest.raises(RoleError) as err:
            RoleAssignment({tid: role}).validate(triples)
        assert repr(tid) in str(err.value)
    for role in ("node", "edge", "learn", 0, 0.25, 1.0):
        RoleAssignment({tid: role}).validate(triples)


def test_fixed_gate_of_each_role():
    roles = RoleAssignment({"a": "node", "b": "edge", "c": "learn", "d": 0.25})
    assert [roles.fixed_gate(t) for t in "abcde"] == [None, 1.0, None, 0.25,
                                                      None]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=3))
def test_roundtrip_random_bundles_property(seed, mode_idx):
    db = gen_random_bundle(seed)
    sg = build_schema_graph(db)
    triples = enumerate_edge_triples(sg)
    roles = [RoleAssignment.uniform(triples, "node"),
             RoleAssignment.uniform(triples, "edge"),
             RoleAssignment.uniform(triples, "learn"),
             random_node_edge_roles(triples, seed)][mode_idx]
    reg = construct_reg(db, sg, roles)
    assert canonical_form(invert_reg(reg)) == canonical_form(db)


def _reg_digest(reg) -> str:
    """SHA-256 over every entity-graph array that sampling and the model read."""
    h = hashlib.sha256()

    def put(name, arr):
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())

    for t in sorted(reg.nodes):
        store = reg.nodes[t]
        put(f"{t}.pk", store.pk)
        put(f"{t}.times", store.times)
        for c in sorted(store.attrs):
            cd = store.attrs[c]
            if cd.kind == "categorical":
                h.update(f"{t}.{c}|{cd.values!r}|{cd.vocab!r}|".encode())
            else:
                put(f"{t}.{c}", cd.values)
            put(f"{t}.{c}.mask", cd.mask)
    for k in sorted(reg.edges):
        put(f"{k}.holder_rows", reg.edges[k].holder_rows)
        put(f"{k}.ref_rows", reg.edges[k].ref_rows)
    for tid in sorted(reg.paths):
        pr = reg.paths[tid]
        for name in ("u_pos", "v_pos", "w_pos", "t_admissible"):
            put(f"{tid}.{name}", getattr(pr, name))
        for i, arr in enumerate(reg.path_adjacency(tid)):
            put(f"{tid}.adj{i}", arr)
    for key in reg.relation_keys:
        for i, arr in enumerate(reg.adjacency(key)):
            put(f"{key.id}.adj{i}", arr)
    return h.hexdigest()


_REG_BUNDLES = {"twohop-x1": lambda: gen_twohop(2000, 300, 8000, 1.0, 7)[0],
                "random-0": lambda: gen_random_bundle(0),
                "random-3": lambda: gen_random_bundle(3),
                "random-8": lambda: gen_random_bundle(8)}
_REG_ROLES = {"learn": lambda ts: RoleAssignment.uniform(ts, "learn"),
              "all-edge": lambda ts: RoleAssignment.uniform(ts, "edge"),
              "random": lambda ts: random_node_edge_roles(ts, 5)}
# recorded while path relations still carried a copy of the intermediate
# table's attributes; construct_reg joins every triple whatever its role, so
# each role mode gives the bundle's one digest
_REG_PINNED = {
    "random-0": "d49e412625859bca437557abc2d0514d5a29b57ed23eaaaccb34a8d6dc5db439",
    "random-3": "24c83fd627fa9b714ceeb1769fa8103b68ba546bd26991eff955fc0245aee30d",
    "random-8": "af068ae1a7f8d53bd8074c88e270f8d55050f3f6cbc6d61d8a31e9e782aa5f62",
    "twohop-x1": "45bffd1559e0558c3581f56f6fec81ea555d3aec56f644f1cb5d2a6e9a61a456",
}


@pytest.mark.parametrize("bundle", sorted(_REG_BUNDLES))
def test_entity_graph_arrays_pinned_byte_for_byte(bundle):
    db = _REG_BUNDLES[bundle]()
    sg = build_schema_graph(db)
    triples = enumerate_edge_triples(sg)
    for make in _REG_ROLES.values():
        assert _reg_digest(construct_reg(db, sg, make(triples))) \
            == _REG_PINNED[bundle]


# --- structure-learning incompatibility demos ------------------------------

def test_prune_counterexample():
    g1, g2, pruned = demo_prune_counterexample()
    assert g1 != g2
    assert prune_to_core(g1, pruned[1]) == pruned
    assert prune_to_core(g2, pruned[1]) == pruned


def test_add_counterexample():
    g1, g2, aug = demo_add_counterexample()
    assert g1 != g2
    assert close_common_neighbors(g1) == aug
    assert close_common_neighbors(g2) == aug


def test_tagged_addition_remains_distinguishable():
    g1, g2, aug = demo_add_counterexample()
    tagged1 = (aug[0], aug[1], aug[1] - g1[1])  # inferred edges kept separate
    tagged2 = (aug[0], aug[1], aug[1] - g2[1])
    assert tagged1 != tagged2


def test_empty_addition_is_identity():
    v = frozenset(("a", "b", "c"))
    g = (v, frozenset({frozenset(("a", "b"))}))
    # no common neighbors -> nothing added -> trivially invertible
    assert close_common_neighbors(g) == g


def test_identity_pruning_has_no_collision():
    graphs = all_three_node_graphs()
    assert len(graphs) == len(set(graphs))  # identity map is injective


def test_every_nonidentity_pruning_map_collides():
    non_identity, collisions = enumerate_pruning_maps()
    assert non_identity == collisions
    assert non_identity == 4095
