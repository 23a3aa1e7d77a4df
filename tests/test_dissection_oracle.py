"""The nested-dissection and PORD orderings against a frozen oracle.

``oracle_nested_dissection`` and ``oracle_pord`` are the two orderings as
they stood before they shared one round-based driver: each pops one frame
at a time from its own pending stack, finds the frame's components with one
single-source BFS per component, runs the George-Liu sweeps one BFS at a
time and cuts the separator as the far-side vertices adjacent to the near
side.  The tests below hold the driver to the same permutation on random
graphs (disconnected ones and ones with isolated vertices among them),
hub-bearing graphs, cliques, grids and FEM-style block graphs, over the
leaf, balance, hub and level parameters and seeds 0-3.  The greedy kernel
the leaves and separators go through has its own oracle
(``tests/test_greedy_oracle.py``) and is shared here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import nested_dissection_ordering, pord_ordering
from repro.ordering.nested_dissection import extract_hubs
from repro.ordering.quotient_graph import order_subgraph, tie_breakers
from repro.ordering.rcm import gather_rows
from repro.sparse import (
    SparsePattern,
    arrow_pattern,
    circuit_pattern,
    fem_block_pattern,
    grid_2d,
    grid_3d,
    random_pattern,
)


def oracle_bfs(indptr, indices, start, mask):
    """Single-source level-synchronous BFS: ``(level, order)``."""
    n = len(indptr) - 1
    level = np.full(n, -1, dtype=np.int64)
    level[start] = 0
    unseen = mask.copy()
    unseen[start] = False
    slot = np.full(n, indices.size, dtype=np.int64)
    frontier = np.array([start], dtype=np.int64)
    levels = [frontier]
    depth = 0
    while True:
        nbrs, _ = gather_rows(indptr, indices, frontier)
        nbrs = nbrs[unseen[nbrs]]
        if nbrs.size == 0:
            break
        at = np.arange(nbrs.size, dtype=np.int64)
        np.minimum.at(slot, nbrs, at)
        frontier = nbrs[slot[nbrs] == at]
        unseen[frontier] = False
        depth += 1
        level[frontier] = depth
        levels.append(frontier)
    return level, np.concatenate(levels)


def oracle_peripheral(indptr, indices, mask, level, order):
    """George-Liu search seeded with its first sweep; the final structure."""
    current = int(order[0])
    last_ecc = -1
    for sweep in range(8):
        if sweep:
            level, order = oracle_bfs(indptr, indices, current, mask)
        ecc = int(level[order[-1]])
        if ecc <= last_ecc:
            return level, order
        last_ecc = ecc
        last_level = order[level[order] == ecc]
        current = int(last_level[np.argmin(indptr[last_level + 1] - indptr[last_level])])
    return oracle_bfs(indptr, indices, current, mask)


def oracle_components(indptr, indices, vertices):
    inset = np.zeros(len(indptr) - 1, dtype=bool)
    inset[vertices] = True
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    comps, first = [], None
    for v in vertices.tolist():
        if seen[v]:
            continue
        level, comp = oracle_bfs(indptr, indices, v, inset)
        if not comps:
            first = (level, comp)
        seen[comp] = True
        comps.append(comp)
    return comps, first


def oracle_separator(indptr, indices, vertices, balance, levels):
    mask = np.zeros(len(indptr) - 1, dtype=bool)
    mask[vertices] = True
    level, order = oracle_peripheral(indptr, indices, mask, *levels)
    target = max(1, int(balance * order.size))
    cut_level = int(level[order[min(target, order.size - 1)]])
    a_vertices = order[level[order] < cut_level]
    if a_vertices.size == 0 or a_vertices.size == order.size:
        a_vertices = order[: max(1, order.size // 2)]
    in_a = np.zeros(len(mask), dtype=bool)
    in_a[a_vertices] = True
    b_vertices = order[~in_a[order]]
    nbrs, counts = gather_rows(indptr, indices, b_vertices)
    owner = np.repeat(np.arange(b_vertices.size), counts)
    touches_a = np.bincount(owner[in_a[nbrs]], minlength=b_vertices.size) > 0
    return a_vertices, b_vertices[~touches_a], b_vertices[touches_a]


def oracle_dissection(pattern, *, balance, hubs, is_leaf, order_leaf, order_separator):
    """The per-frame pending-stack loop both orderings ran."""
    indptr, indices = pattern.adjacency()
    n = pattern.n
    out: list[np.ndarray] = []
    non_hubs = np.setdiff1d(np.arange(n, dtype=np.int64), hubs)
    pending: list[tuple[str, np.ndarray, int]] = []
    if hubs.size:
        pending.append(("emit", hubs, 0))
    pending.append(("dissect", non_hubs, 0))
    while pending:
        kind, verts, depth = pending.pop()
        if kind == "emit":
            out.append(order_separator(verts))
            continue
        if verts.size == 0:
            continue
        if is_leaf(verts.size, depth):
            out.append(order_leaf(verts))
            continue
        comps, levels = oracle_components(indptr, indices, verts)
        if len(comps) > 1:
            for comp in comps:
                pending.append(("dissect", comp, depth))
            continue
        part_a, part_b, separator = oracle_separator(indptr, indices, verts, balance, levels)
        if separator.size == 0 or part_a.size == 0 or part_b.size == 0:
            out.append(order_leaf(verts))
            continue
        pending.append(("emit", separator, depth))
        pending.append(("dissect", part_b, depth + 1))
        pending.append(("dissect", part_a, depth + 1))
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def oracle_nested_dissection(
    pattern, *, leaf_size=64, balance=0.5, leaf_method="degree", seed=0, handle_hubs=True
):
    indptr, indices = pattern.adjacency()
    jitter = tie_breakers(seed, pattern.n)
    return oracle_dissection(
        pattern,
        balance=balance,
        hubs=extract_hubs(indptr, indices) if handle_hubs else np.empty(0, dtype=np.int64),
        is_leaf=lambda size, depth: size <= leaf_size,
        order_leaf=lambda v: order_subgraph(indptr, indices, v, leaf_method, jitter),
        order_separator=lambda v: v,
    )


def oracle_pord(pattern, *, nd_levels=4, leaf_size=48, balance=0.45, seed=0):
    indptr, indices = pattern.adjacency()
    jitter = tie_breakers(seed, pattern.n)
    return oracle_dissection(
        pattern,
        balance=balance,
        hubs=extract_hubs(indptr, indices),
        is_leaf=lambda size, depth: size <= leaf_size or depth >= nd_levels,
        order_leaf=lambda v: order_subgraph(indptr, indices, v, "fill", jitter),
        order_separator=lambda v: order_subgraph(indptr, indices, v, "degree", jitter),
    )


# --------------------------------------------------------------------------- #
# graphs
# --------------------------------------------------------------------------- #
def random_graph(n, density, seed):
    """Random pattern; sparse draws leave isolated vertices and several components."""
    rng = np.random.default_rng(seed)
    nnz = int(density * n * n)
    return SparsePattern.from_coo(n, rng.integers(0, n, size=nnz), rng.integers(0, n, size=nnz))


def clique(n):
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    return SparsePattern.from_coo(n, rows, cols)


def disjoint_union(*patterns):
    """The patterns side by side, with their vertices interleaved by a fixed shuffle."""
    rows, cols, offset = [], [], 0
    for p in patterns:
        r = np.repeat(np.arange(p.n), np.diff(p.indptr))
        rows.append(r + offset)
        cols.append(p.indices + offset)
        offset += p.n
    perm = np.random.default_rng(offset).permutation(offset)
    return SparsePattern.from_coo(offset, perm[np.concatenate(rows)], perm[np.concatenate(cols)])


GRAPHS = {
    "grid2d": grid_2d(23, 17),
    "grid2d-9pt": grid_2d(15, 15, stencil=9),
    "grid3d": grid_3d(9, 8, 7),
    "fem-block": fem_block_pattern(grid_2d(11, 9), 3),
    "fem-block-3d": fem_block_pattern(grid_3d(5, 5, 4), 2),
    "clique": clique(70),
    "arrow-hubs": arrow_pattern(400, bandwidth=2, arrow_width=3),
    "circuit-hubs": circuit_pattern(500, seed=3),
    "random": random_pattern(600, density=0.006, seed=2),
    "disconnected": disjoint_union(grid_2d(12, 9), clique(40), grid_3d(5, 4, 4), random_graph(90, 0.01, 5)),
}

ND_PARAMS = [
    {},
    {"leaf_size": 8},
    {"leaf_size": 1},
    {"balance": 0.3},
    {"balance": 0.7, "leaf_size": 16},
    {"handle_hubs": False},
    {"leaf_method": "fill", "leaf_size": 20},
]
PORD_PARAMS = [
    {},
    {"nd_levels": 1},
    {"nd_levels": 8, "leaf_size": 6},
    {"leaf_size": 0, "nd_levels": 3},
    {"balance": 0.5},
    {"balance": 0.25, "leaf_size": 12},
]


def with_seeds(params: list[dict]) -> list[tuple[dict, int]]:
    """Every parameter set at seed 0; the default and two others at seeds 1-3
    (the seed only moves the greedy ties of leaves and separators)."""
    others = [(p, seed) for seed in (1, 2, 3) for p in (params[0], params[seed], params[-seed])]
    return [(p, 0) for p in params] + others


def case_id(case: tuple[dict, int]) -> str:
    params, seed = case
    return (",".join(f"{k}={v}" for k, v in params.items()) or "default") + f"-seed{seed}"


@pytest.mark.parametrize("case", with_seeds(ND_PARAMS), ids=case_id)
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_nested_dissection_matches_oracle(graph, case):
    params, seed = case
    pattern = GRAPHS[graph]
    want = oracle_nested_dissection(pattern, seed=seed, **params)
    assert nested_dissection_ordering(pattern, seed=seed, **params).tolist() == want.tolist()


@pytest.mark.parametrize("case", with_seeds(PORD_PARAMS), ids=case_id)
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_pord_matches_oracle(graph, case):
    params, seed = case
    pattern = GRAPHS[graph]
    want = oracle_pord(pattern, seed=seed, **params)
    assert pord_ordering(pattern, seed=seed, **params).tolist() == want.tolist()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=120),
    density=st.sampled_from([0.0, 0.005, 0.01, 0.03, 0.1, 0.4]),
    graph_seed=st.integers(0, 10_000),
    seed=st.integers(0, 3),
    leaf_size=st.sampled_from([0, 1, 3, 10]),
    balance=st.sampled_from([0.2, 0.45, 0.5, 0.8]),
    nd_levels=st.integers(0, 6),
    handle_hubs=st.booleans(),
)
def test_property_random_graphs_match_oracle(
    n, density, graph_seed, seed, leaf_size, balance, nd_levels, handle_hubs
):
    pattern = random_graph(n, density, graph_seed)
    nd = dict(leaf_size=leaf_size, balance=balance, seed=seed, handle_hubs=handle_hubs)
    want = oracle_nested_dissection(pattern, **nd)
    assert nested_dissection_ordering(pattern, **nd).tolist() == want.tolist()
    pord = dict(nd_levels=nd_levels, leaf_size=leaf_size, balance=balance, seed=seed)
    assert pord_ordering(pattern, **pord).tolist() == oracle_pord(pattern, **pord).tolist()
