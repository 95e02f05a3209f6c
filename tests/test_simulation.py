"""Tests for double simulation (§4.2-4.4) against the naive reference.

FBSimBas is the reference FBSim is checked against.
"""
import pytest

from repro.core.simulation import fb_sim, fb_sim_bas
from repro.queries.pattern import CHILD, DESC, Pattern
from repro.queries.templates import instantiate
from tests.bruteforce import double_simulation, homomorphisms
from tests.sets import id_set


def _fb_sets(sim):
    return {q: id_set(ids) for q, ids in sim.fb.items()}


PATTERNS = [
    instantiate(1, qtype="H", n_labels=5, seed=0),   # path
    instantiate(6, qtype="H", n_labels=5, seed=1),   # diamond
    instantiate(9, qtype="D", n_labels=5, seed=0),   # directed triangle (cyclic)
    instantiate(11, qtype="C", n_labels=5, seed=2),  # 4-clique
]


@pytest.mark.parametrize("p", PATTERNS, ids=lambda p: p.name)
def test_fbsim_matches_naive_reference(tiny_ctx_for, p):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    expected = double_simulation(p, nodes, edges)
    got = _fb_sets(fb_sim(ctx, p, max_passes=None))
    assert got == expected


@pytest.mark.parametrize(
    "seed,p",
    [pytest.param(1, p, id=p.name) for p in PATTERNS[:3]]
    + [pytest.param(0, PATTERNS[1], id=f"{PATTERNS[1].name}-graph0")],
)
def test_bas_and_dag_agree_at_fixpoint(tiny_ctx_for, seed, p):
    g, ctx = tiny_ctx_for(seed)
    bas = _fb_sets(fb_sim_bas(ctx, p, max_passes=None))
    dag = _fb_sets(fb_sim(ctx, p, max_passes=None))
    assert bas == dag


def test_fbsim_converges_on_cyclic_pattern(tiny_ctx_for):
    _, ctx = tiny_ctx_for(0)
    p = instantiate(9, qtype="C", n_labels=5, seed=0)
    sim = fb_sim(ctx, p, max_passes=None)
    assert sim.converged


def test_fb_contains_occurrence_sets(tiny_ctx_for):
    # os(q) ⊆ FB(q): simulation never prunes a node that occurs in an
    # answer (§4.2).
    g, ctx = tiny_ctx_for(2)
    nodes, edges = g.to_pandas()
    p = instantiate(6, qtype="H", n_labels=5, seed=3)
    answers = homomorphisms(p, nodes, edges)
    fb = _fb_sets(fb_sim(ctx, p, max_passes=None))
    for tup in answers:
        for q, v in zip(p.node_ids(), tup):
            assert v in fb[q]


def test_fb_subset_of_match_sets(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    p = instantiate(1, qtype="H", n_labels=5, seed=0)
    fb = _fb_sets(fb_sim(ctx, p, max_passes=None))
    for q in p.node_ids():
        assert fb[q] <= {r["id"] for r in ctx.ms_node(p, q).collect()}


def test_pass_cap_is_superset_of_fixpoint(tiny_ctx_for):
    # Approximate FB (N-pass cap, §4.5) may keep extra nodes but never
    # fewer than the exact fixpoint.
    g, ctx = tiny_ctx_for(1)
    p = instantiate(8, qtype="H", n_labels=5, seed=1)
    exact = _fb_sets(fb_sim(ctx, p, max_passes=None))
    capped = _fb_sets(fb_sim(ctx, p, max_passes=1))
    for q in p.node_ids():
        assert exact[q] <= capped[q]


def test_empty_label_gives_empty_fb(tiny_ctx_for):
    _, ctx = tiny_ctx_for(0)
    p = Pattern.of({0: "L0", 1: "NOPE"}, [(0, 1, CHILD)])
    sim = fb_sim(ctx, p, max_passes=None)
    assert sim.empty and sim.converged


def test_counts_match_dataframes(tiny_ctx_for):
    _, ctx = tiny_ctx_for(0)
    p = instantiate(1, qtype="C", n_labels=5, seed=0)
    sim = fb_sim(ctx, p, max_passes=None)
    for q, ids in sim.fb.items():
        assert sim.counts[q] == len(ids)


def test_dag_converges_no_slower_than_bas(tiny_ctx_for):
    # §4.4: on a DAG pattern FBSim is FBSimDag, which needs no more
    # passes than FBSimBas.
    _, ctx = tiny_ctx_for(2)
    p = instantiate(2, qtype="H", n_labels=5, seed=2)
    bas = fb_sim_bas(ctx, p, max_passes=None)
    dag = fb_sim(ctx, p, max_passes=None)
    assert dag.passes <= bas.passes
