"""Numpy reference implementations of the solver kernel family.

These are the exact-solver counterparts of the coloring kernels in
:mod:`repro.core.backends.numpy_backend`: the frontier-batched residual
BFS (levels and discovery arcs), the blocking-flow DFS of Dinic's
phases, the fused highest-label push-relabel loop, the fused
Edmonds–Karp augmentation loop, and the batched multi-lane Brandes
dependency pass.  They define the semantics every backend must
reproduce to 1e-9 (the BFS/flow kernels are bit-identical; the Brandes
batch tolerates re-association of the dependency sums).

The module is deliberately **self-contained** — plain numpy only, no
imports from :mod:`repro.solvers` — so the backends package never forms
an import cycle through the solver tier.  The gather helpers below
mirror the reference kernels in ``numpy_backend`` verbatim.

All kernels are **pure** of observability: work counters (phases,
relabels, pushes, augmentations) are *returned* so the dispatch layer
in :mod:`repro.solvers` can report them once per solve.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

_EPS = 1e-12

__all__ = [
    "solve_bfs_levels",
    "solve_bfs_parents",
    "solve_blocking_flow",
    "solve_push_relabel",
    "solve_edmonds_karp",
    "solve_brandes_batch",
]


def _take_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + count)`` (cumsum trick);
    mirrors ``numpy_backend.take_ranges``."""
    nonempty = counts > 0
    starts = starts[nonempty]
    counts = counts[nonempty]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    result = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    result[0] = starts[0]
    result[ends[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(result)


def _unique_int(values: np.ndarray) -> np.ndarray:
    """Sorted unique of an int array (sort + diff mask)."""
    if values.size <= 1:
        return values
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _residual_frontier_arcs(
    indptr: np.ndarray,
    arcs: np.ndarray,
    cap: np.ndarray,
    frontier: np.ndarray,
) -> np.ndarray:
    """All residual arcs (cap > eps) leaving the frontier nodes."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    out = arcs[_take_ranges(starts, counts)]
    return out[cap[out] > _EPS]


# ----------------------------------------------------------------------
# residual BFS
# ----------------------------------------------------------------------
def solve_bfs_levels(
    indptr: np.ndarray,
    arcs: np.ndarray,
    head: np.ndarray,
    cap: np.ndarray,
    n: int,
    source: int,
    sink: int,
) -> np.ndarray:
    """Frontier-batched BFS levels of the residual graph.

    Unreached nodes get ``-1``.  ``sink < 0`` runs the full BFS
    (reachability); otherwise expansion stops as soon as the sink's
    level is assigned — the whole level is finished first, so every
    shortest admissible arc survives (Dinic's level graph).
    """
    level = np.full(n, -1, dtype=np.int64)
    level[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        heads = head[_residual_frontier_arcs(indptr, arcs, cap, frontier)]
        heads = heads[level[heads] < 0]
        if heads.size == 0:
            break
        frontier = _unique_int(heads)
        depth += 1
        level[frontier] = depth
        if sink >= 0 and level[sink] == depth:
            break
    return level


def solve_bfs_parents(
    indptr: np.ndarray,
    arcs: np.ndarray,
    head: np.ndarray,
    tail: np.ndarray,
    cap: np.ndarray,
    n: int,
    source: int,
    sink: int,
) -> np.ndarray:
    """Shortest-path discovery arcs (Edmonds–Karp's BFS).

    ``parent_arc[v]`` is the arc that first reached ``v`` on some
    shortest residual path from the source — the *first occurrence* in
    (ascending frontier node, adjacency position) order, which every
    backend must reproduce exactly so the augmentation sequence is
    identical.  ``parent_arc[sink] < 0`` signals an unreachable sink.
    Expansion stops after the level at which the sink is discovered.
    """
    parent_arc = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        arc_ids = _residual_frontier_arcs(indptr, arcs, cap, frontier)
        heads = head[arc_ids]
        fresh = ~visited[heads]
        arc_ids, heads = arc_ids[fresh], heads[fresh]
        if heads.size == 0:
            return parent_arc
        # First-occurrence dedupe (stable sort keeps discovery order).
        order = np.argsort(heads, kind="stable")
        sorted_heads = heads[order]
        keep = np.empty(sorted_heads.size, dtype=bool)
        keep[0] = True
        np.not_equal(sorted_heads[1:], sorted_heads[:-1], out=keep[1:])
        frontier = sorted_heads[keep]
        visited[frontier] = True
        parent_arc[frontier] = arc_ids[order[keep]]
        if visited[sink]:
            return parent_arc
    return parent_arc


# ----------------------------------------------------------------------
# Dinic blocking flow (compacted level graph)
# ----------------------------------------------------------------------
def solve_blocking_flow(
    local_indptr: np.ndarray,
    heads: np.ndarray,
    caps: np.ndarray,
    source: int,
    sink: int,
) -> Tuple[float, np.ndarray]:
    """Iterative current-arc DFS over one compacted level graph.

    ``local_indptr``/``heads``/``caps`` describe only the admissible,
    sink-reaching arcs of the phase (tail-grouped), so no level checks
    are needed while advancing.  Returns ``(total, flows)`` — the
    blocking-flow value and the per-arc pushes to scatter back into the
    residual vector.  ``caps`` is consumed (callers pass a copy).

    The reference runs on plain Python lists: the DFS is scalar-bound,
    and list indexing beats numpy scalar indexing by ~3x here.  Compiled
    backends fuse the same algorithm — identical advance/retreat/kill
    decisions, identical float arithmetic.
    """
    indptr: List[int] = local_indptr.tolist()
    head_list: List[int] = heads.tolist()
    cap_list: List[float] = caps.tolist()
    flows: List[float] = [0.0] * len(head_list)
    n = len(indptr) - 1
    cursor = indptr[:n]
    limit = indptr[1:]
    total = 0.0
    stack = [source]
    path: List[int] = []
    while stack:
        u = stack[-1]
        if u == sink:
            bottleneck = min(map(cap_list.__getitem__, path))
            total += bottleneck
            # Augment and retreat to the first saturated arc, fused in
            # one pass over the (short) path.
            cut = -1
            for index, a in enumerate(path):
                remaining = cap_list[a] - bottleneck
                cap_list[a] = remaining
                flows[a] += bottleneck
                if cut < 0 and remaining <= _EPS:
                    cut = index
            del stack[cut + 1 :]
            del path[cut:]
            continue
        position = cursor[u]
        end = limit[u]
        while position < end and cap_list[position] <= _EPS:
            position += 1
        cursor[u] = position
        if position < end:
            stack.append(head_list[position])
            path.append(position)
        else:
            # Dead end: kill the arc into u so predecessors skip it.
            stack.pop()
            if path:
                cap_list[path.pop()] = 0.0
    return total, np.asarray(flows)


# ----------------------------------------------------------------------
# push-relabel (highest-label, bucket lists, gap heuristic)
# ----------------------------------------------------------------------
def solve_push_relabel(
    indptr: np.ndarray,
    arcs: np.ndarray,
    head: np.ndarray,
    cap_array: np.ndarray,
    n: int,
    source: int,
    sink: int,
) -> Tuple[float, int, int]:
    """Fused highest-label push-relabel; mutates ``cap_array`` in place.

    Returns ``(flow_value, relabels, pushes)``.  Bucket discipline is
    LIFO per height with stale entries refiled on pop (the gap heuristic
    moves nodes without touching their bucket), and discharge scans arcs
    in adjacency order — compiled backends must reproduce exactly this
    order to stay bit-identical.
    """
    cap = cap_array.tolist()
    head_list = head.tolist()
    arc_list = arcs.tolist()
    indptr_list = indptr.tolist()

    height = [0] * n
    excess = [0.0] * n
    count_at_height = [0] * (2 * n + 1)
    height[source] = n
    count_at_height[0] = n - 1
    count_at_height[n] += 1
    cursor = indptr_list[:n]
    buckets: List[List[int]] = [[] for _ in range(2 * n + 1)]
    in_queue = [False] * n
    highest = -1
    relabels = 0
    pushes = 0

    def activate(v: int) -> None:
        nonlocal highest
        if v != source and v != sink and not in_queue[v]:
            in_queue[v] = True
            buckets[height[v]].append(v)
            if height[v] > highest:
                highest = height[v]

    # Saturate every source arc (reverse twins start at zero capacity,
    # so the cap > eps filter keeps only real forward arcs).
    for position in range(indptr_list[source], indptr_list[source + 1]):
        a = arc_list[position]
        delta = cap[a]
        if delta > _EPS:
            v = head_list[a]
            cap[a] = 0.0
            cap[a ^ 1] += delta
            excess[v] += delta
            activate(v)

    def relabel(u: int) -> None:
        nonlocal relabels
        relabels += 1
        old_height = height[u]
        min_height = 2 * n
        for position in range(indptr_list[u], indptr_list[u + 1]):
            a = arc_list[position]
            if cap[a] > _EPS:
                h = height[head_list[a]]
                if h < min_height:
                    min_height = h
        if min_height >= 2 * n:
            # A node with excess always has a residual arc back toward
            # the source; hitting this means corrupted residual state.
            raise RuntimeError(f"relabel of node {u} found no residual arc")
        count_at_height[old_height] -= 1
        height[u] = min_height + 1
        count_at_height[min_height + 1] += 1
        cursor[u] = indptr_list[u]
        # Gap heuristic: an emptied level below n strands every node
        # above it (except s) — lift them past n in one sweep.
        if count_at_height[old_height] == 0 and old_height < n:
            for node in range(n):
                if node != source and old_height < height[node] <= n:
                    count_at_height[height[node]] -= 1
                    height[node] = n + 1
                    count_at_height[n + 1] += 1

    while highest >= 0:
        bucket = buckets[highest]
        if not bucket:
            highest -= 1
            continue
        u = bucket.pop()
        if height[u] != highest:
            # Stale entry (gap heuristic moved u): refile at its true
            # height so its excess still drains.
            buckets[height[u]].append(u)
            if height[u] > highest:
                highest = height[u]
            continue
        in_queue[u] = False
        # Discharge u completely.
        while excess[u] > _EPS:
            position = cursor[u]
            if position == indptr_list[u + 1]:
                relabel(u)
                continue
            a = arc_list[position]
            v = head_list[a]
            if cap[a] > _EPS and height[u] == height[v] + 1:
                delta = excess[u]
                if cap[a] < delta:
                    delta = cap[a]
                cap[a] -= delta
                cap[a ^ 1] += delta
                excess[u] -= delta
                excess[v] += delta
                pushes += 1
                activate(v)
            else:
                cursor[u] = position + 1

    cap_array[:] = cap
    return excess[sink], relabels, pushes


# ----------------------------------------------------------------------
# Edmonds–Karp (fused BFS + augmentation loop)
# ----------------------------------------------------------------------
def solve_edmonds_karp(
    indptr: np.ndarray,
    arcs: np.ndarray,
    head: np.ndarray,
    tail: np.ndarray,
    cap: np.ndarray,
    n: int,
    source: int,
    sink: int,
) -> Tuple[float, int]:
    """Shortest augmenting paths; mutates ``cap`` in place.

    Returns ``(flow_value, augmentations)``.  Each BFS uses the
    first-occurrence parent rule of :func:`solve_bfs_parents`, so the
    augmenting-path sequence — and therefore the final residual state —
    is identical across backends.
    """
    total = 0.0
    augmentations = 0
    while True:
        parent_arc = solve_bfs_parents(
            indptr, arcs, head, tail, cap, n, source, sink
        )
        if parent_arc[sink] < 0:
            break
        augmentations += 1
        # Collect the path, then augment by its bottleneck.
        path = []
        v = sink
        while v != source:
            a = int(parent_arc[v])
            path.append(a)
            v = int(tail[a])
        path_array = np.asarray(path, dtype=np.int64)
        bottleneck = float(cap[path_array].min())
        cap[path_array] -= bottleneck
        cap[path_array ^ 1] += bottleneck
        total += bottleneck
    return total, augmentations


# ----------------------------------------------------------------------
# batched Brandes dependencies
# ----------------------------------------------------------------------
def solve_brandes_batch(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    weights: np.ndarray,
    n: int,
) -> np.ndarray:
    """Weighted sum of dependency vectors over a block of BFS sources.

    All lanes run in lock-step: node ``v`` of lane ``b`` is the flat key
    ``b * n + v``, so one gather/scatter per global depth serves every
    source in the block.  Compiled backends may instead run the sources
    sequentially (sigma counts are exact integers in float64, so only
    the dependency sums re-associate — within 1e-9 of this reference).
    """
    lanes = len(sources)
    size = lanes * n
    dist = np.full(size, -1, dtype=np.int32)
    sigma = np.zeros(size)
    keys = np.arange(lanes, dtype=np.int64) * n + sources
    dist[keys] = 0
    sigma[keys] = 1.0
    frontier = keys
    levels: List[Tuple[np.ndarray, np.ndarray]] = []
    depth = 0
    while frontier.size:
        nodes = frontier % n
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        positions = _take_ranges(starts, counts)
        heads = (
            np.repeat(frontier - nodes, counts) + indices[positions]
        )
        tails = np.repeat(frontier, counts)
        # Crossing arcs == arcs whose head was undiscovered at gather
        # time; one gather serves discovery and the sigma scatter alike.
        crossing = dist[heads] < 0
        tails, heads = tails[crossing], heads[crossing]
        if tails.size == 0:
            break
        dist[heads] = depth + 1
        sigma += np.bincount(heads, weights=sigma[tails], minlength=size)
        levels.append((tails, heads))
        frontier = _unique_int(heads)
        depth += 1
    delta = np.zeros(size)
    for tails, heads in reversed(levels):
        contributions = sigma[tails] / sigma[heads] * (1.0 + delta[heads])
        delta += np.bincount(tails, weights=contributions, minlength=size)
    delta[keys] = 0.0
    return weights @ delta.reshape(lanes, n)
