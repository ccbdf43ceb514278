"""Exhaustive brute-force oracles for small assignment and matching
instances, with the same lexicographic tie-break as the solvers in
``pointmatch.assignment``. A test helper: the installed package does not
ship it.
"""

from __future__ import annotations

import itertools

import numpy as np

from pointmatch.assignment import TIE_TOL, _finish
from pointmatch.types import Assignment, CostMatrix

# factorial enumeration bound for brute_force_min_cost
MAX_BRUTE_MIN_SIDE = 8
# node bound for brute_force_max_matching
MAX_BRUTE_NODES = 16


def brute_force_min_cost(costs: CostMatrix) -> Assignment:
    """Oracle: exhaustive enumeration of all injective size-min(rows, cols)
    assignments. Rejects instances with min(rows, cols) > 8."""
    n_rows, n_cols = costs.rows, costs.cols
    k = min(n_rows, n_cols)
    if k > MAX_BRUTE_MIN_SIDE:
        raise ValueError(f"brute force bound exceeded: min side {k} > {MAX_BRUTE_MIN_SIDE}")
    if k == 0:
        return _finish([], n_rows, n_cols)

    transposed = n_rows > n_cols
    a = costs.values.T if transposed else costs.values
    small, large = a.shape
    count = 1
    for t in range(small):
        count *= large - t
    if count > 10_000_000:
        raise ValueError("brute force enumeration too large")

    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(large), small)),
        dtype=np.int64,
        count=count * small,
    ).reshape(count, small)
    totals = a[np.arange(small)[None, :], perms].sum(axis=1)
    best = totals.min()
    ties = np.flatnonzero(totals <= best + TIE_TOL)

    def as_pairs(perm):
        if transposed:
            return sorted((int(p), j) for j, p in enumerate(perm))
        return [(i, int(p)) for i, p in enumerate(perm)]

    if not transposed and len(ties) == 1:
        pairs = as_pairs(perms[ties[0]])
    else:
        pairs = min(as_pairs(perms[t]) for t in ties)
    return _finish(pairs, n_rows, n_cols)


def brute_force_max_matching(adjacency: np.ndarray) -> Assignment:
    """Oracle: exhaustive search for a maximum matching of a 2-D boolean
    adjacency array. Rejects instances with rows + cols > 16."""
    n_rows, n_cols = adjacency.shape
    if n_rows + n_cols > MAX_BRUTE_NODES:
        raise ValueError(
            f"brute force bound exceeded: {n_rows}+{n_cols} nodes > {MAX_BRUTE_NODES}"
        )
    adj = [np.flatnonzero(adjacency[r]).tolist() for r in range(n_rows)]
    memo = {}

    def best_size(i, mask):
        if i == n_rows:
            return 0
        key = (i, mask)
        if key in memo:
            return memo[key]
        best = best_size(i + 1, mask)
        for c in adj[i]:
            bit = 1 << c
            if not mask & bit:
                best = max(best, 1 + best_size(i + 1, mask | bit))
        memo[key] = best
        return best

    # reconstruct lexicographically smallest maximum matching: matching the
    # current row beats leaving it unmatched whenever cardinality permits
    pairs = []
    mask = 0
    for i in range(n_rows):
        target = best_size(i, mask)
        for c in adj[i]:
            bit = 1 << c
            if not mask & bit and 1 + best_size(i + 1, mask | bit) == target:
                pairs.append((i, c))
                mask |= bit
                break
    return _finish(pairs, n_rows, n_cols)
