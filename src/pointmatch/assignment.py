"""Exact solvers for rectangular min-cost assignment and maximum bipartite
matching.

Both solvers share a deterministic tie-break: among optimal solutions, the
one whose (row, col) pair list (sorted by row) is lexicographically smallest
is returned. Optimality ties in the min-cost solver are resolved with an
absolute tolerance of 1e-9.
"""

from __future__ import annotations

import itertools

import numpy as np

from .types import Assignment, CostMatrix

TIE_TOL = 1e-9


def _finish(pairs, rows, cols) -> Assignment:
    pairs = tuple(sorted(pairs))
    matched_r = {r for r, _ in pairs}
    matched_c = {c for _, c in pairs}
    return Assignment(
        pairs=pairs,
        unmatched_rows=tuple(r for r in range(rows) if r not in matched_r),
        unmatched_cols=tuple(c for c in range(cols) if c not in matched_c),
    )


# padded elements (problems x rows x columns) of one block of min-cost
# problems or evaluation cells; bounds the float block and the boolean arrays
# of its shape held at once
BLOCK_ELEMENTS = 1 << 17


def block_batches(items, sides):
    """Consecutive runs of ``items`` whose padded block holds at most
    BLOCK_ELEMENTS elements: with ``sides(item)`` an item's (n, m), a run of
    B items takes B x (largest min(n, m)) x (largest max(n, m)), a side of 0
    counting as 1. An item over the budget is a run of its own."""
    batch, rows, cols = [], 1, 1
    for item in items:
        n, m = sorted(sides(item))
        if batch and (len(batch) + 1) * max(rows, n) * max(cols, m) > BLOCK_ELEMENTS:
            yield batch
            batch, rows, cols = [], 1, 1
        batch.append(item)
        rows, cols = max(rows, n), max(cols, m)
    if batch:
        yield batch


def stack_padded(arrays, fill: float) -> np.ndarray:
    """Arrays with the same number of dimensions, stacked into one array of
    their largest shape: each in the corner of its slice, ``fill`` around
    it."""
    out = np.full((len(arrays), *np.max([a.shape for a in arrays], axis=0)), fill)
    for b, a in enumerate(arrays):
        out[(b, *map(slice, a.shape))] = a
    return out


def _lockstep(a_all: np.ndarray, n_of: np.ndarray):
    """Rectangular shortest augmenting path (Jonker & Volgenant 1987, in the
    rectangular form of Crouse 2016) for every problem of a (B, N, M) block.

    Problem b is the matrix in the corner of ``a_all[b]``, of ``n_of[b]``
    rows and no fewer columns, padded with +inf: an inf column is never
    reached and an inf row never searched. A row reduction starts the duals
    at u = row minima, v = 0, and gives each row, in order, its first
    cheapest column if that column is still free. Each row left over runs
    Dijkstra over reduced costs to the nearest free column: O(n^2 m) work,
    with no dummy rows. While two or more problems are live, one round of
    numpy operations on the (K, M) arrays of K problems advances every
    search by one step, and the searches that end update their duals
    together. A problem with no free row left stays as a dead row that no
    round can end, until dead rows are half of the arrays and these are
    compacted; so a lone live problem is their only row, and it finishes
    with scalar steps and dual updates on its own rows. Both modes do the
    same arithmetic in the same order and break ties alike, so a problem's
    (col4row, u, v), returned as (B, N), (B, N) and (B, M) arrays, are
    bit-identical alone or in any block. The duals satisfy
    a[i, j] - u[i] - v[j] >= 0 (up to float error) with equality on assigned
    pairs, v <= 0, and v[j] < 0 only for assigned columns.
    """
    b_all, n_max, m_max = a_all.shape
    real = np.arange(n_max) < n_of[:, None]
    # a padded row is never searched; u = 0 keeps its reduced costs +inf
    u_all = np.where(real, a_all.min(axis=2), 0.0)
    v_all = np.zeros((b_all, m_max))
    c4r_all = np.full((b_all, n_max), -1, dtype=np.int64)
    r4c_all = np.full((b_all, m_max), -1, dtype=np.int64)
    # row reduction: the first row of a problem whose minimum is column j
    # takes it
    pb, pr = np.nonzero(real)
    pc = a_all.argmin(axis=2)[pb, pr]
    _, first = np.unique(pb * m_max + pc, return_index=True)
    c4r_all[pb[first], pr[first]] = pc[first]
    r4c_all[pb[first], pc[first]] = pr[first]
    queue = [[] for _ in range(b_all)]
    for b, r in zip(*np.nonzero(real & (c4r_all == -1))):
        queue[b].append(int(r))

    # row k of the arrays below is the search of problem pid[k], rooted at
    # row cur[k] and now at row row[k], lowest[k] away; cand holds the
    # tentative distance of each column not yet reached (inf once it is),
    # todo the columns not yet reached, pred each column's row on its path,
    # dist each reached column's distance, and free the columns free when
    # the search began. Every column of a dead row (listed in dead) is owned
    # by its row 0, so its search never ends.
    pid = np.array([b for b in range(b_all) if queue[b]], dtype=np.int64)
    cur = np.array([queue[b].pop(0) for b in pid.tolist()], dtype=np.int64)
    row = cur.copy()
    lowest = np.zeros(len(pid))
    cand = np.full((len(pid), m_max), np.inf)
    todo = np.ones(cand.shape, dtype=bool)
    pred = np.zeros(cand.shape, dtype=np.int64)
    dist = np.zeros(cand.shape)
    u, v, c4r, r4c = u_all[pid], v_all[pid], c4r_all[pid], r4c_all[pid]
    free = r4c == -1
    a_rows = a_all.reshape(-1, m_max)
    dead = []
    while len(pid):
        if len(pid) == 1:
            # one live problem: scalar steps on its own rows until its
            # search ends, then its dual update
            a, i, low = a_all[pid[0]], row[0], lowest[0]
            cand_k, todo_k, pred_k, dist_k = cand[0], todo[0], pred[0], dist[0]
            u_k, v_k, r4c_k, free_cols = u[0], v[0], r4c[0], np.flatnonzero(free[0])
            while i != -1:
                reach = low + a[i]
                reach -= u_k[i]
                reach -= v_k
                better = reach < cand_k
                better &= todo_k
                np.copyto(cand_k, reach, where=better)
                pred_k[better] = i
                j = cand_k.argmin()
                low = cand_k[j]
                i = r4c_k.item(j)
                if i != -1:
                    # among equally near columns a free one ends the search now
                    tie = free_cols[cand_k[free_cols] == low]
                    if tie.size:
                        j, i = tie[0], -1
                todo_k[j] = False
                cand_k[j] = np.inf
                dist_k[j] = low
            reached = np.flatnonzero(~todo_k)
            gap = low - dist_k[reached]
            v_k[reached] -= gap
            u_k[cur[0]] += low
            owned = reached != j
            u_k[r4c_k[reached[owned]]] += gap[owned]
            ends = [(0, j)]
        else:
            if not dead:  # the arrays are new or compacted
                # flat indices into the (K, N) and (K, M) arrays and a_rows
                at_n = np.arange(0, len(pid) * n_max, n_max)
                at_m = np.arange(0, len(pid) * m_max, m_max)
                at_a = pid * n_max
            while True:
                reach = a_rows.take(at_a + row, axis=0)
                reach += lowest[:, None]
                reach -= u.take(at_n + row)[:, None]
                reach -= v
                better = reach < cand
                better &= todo
                np.copyto(cand, reach, where=better)
                np.copyto(pred, row[:, None], where=better)
                j = cand.argmin(axis=1)
                lowest = cand.take(at_m + j)
                # among equally near columns a free one ends the search now
                tie = cand == lowest[:, None]
                tie &= free
                first = tie.argmax(axis=1)
                j = np.where(tie.take(at_m + first), first, j)
                at = at_m + j
                todo.put(at, False)
                cand.put(at, np.inf)
                dist.put(at, lowest)
                row = r4c.take(at)
                ended = np.flatnonzero(row == -1)
                if ended.size:
                    break
            # the dual update of each ended search, as in the scalar mode
            low = lowest[ended]
            gap = low[:, None] - dist[ended]
            reached = ~todo[ended]
            ve = v[ended]
            np.subtract(ve, gap, out=ve, where=reached)
            v[ended] = ve
            u[ended, cur[ended]] += low
            ek, ej = np.nonzero(reached & ~free[ended])
            rk = ended[ek]
            u[rk, r4c[rk, ej]] += gap[ek, ej]
            ends = zip(ended.tolist(), j[ended].tolist())
        for k, col in ends:
            # flip the path, then start the problem's next free row
            p, c4r_k, r4c_k, root = pred[k], c4r[k], r4c[k], cur[k]
            while True:
                i = p[col]
                r4c_k[col] = i
                c4r_k[i], col = col, c4r_k[i]
                if i == root:
                    break
            rows_left = queue[pid[k]]
            if rows_left:
                cur[k] = row[k] = rows_left.pop(0)
                lowest[k] = 0.0
                cand[k] = np.inf
                todo[k] = True
                np.equal(r4c_k, -1, out=free[k])
            else:
                dead.append(k)
                r4c_k[:] = row[k] = 0
        if 2 * len(dead) >= len(pid):
            # write the dead rows' solutions back and drop them
            u_all[pid[dead]], v_all[pid[dead]], c4r_all[pid[dead]] = u[dead], v[dead], c4r[dead]
            keep = np.delete(np.arange(len(pid)), dead)
            pid, cur, row, lowest = pid[keep], cur[keep], row[keep], lowest[keep]
            cand, todo, pred, dist = cand[keep], todo[keep], pred[keep], dist[keep]
            u, v, c4r, r4c, free = u[keep], v[keep], c4r[keep], r4c[keep], free[keep]
            dead = []
    return c4r_all, u_all, v_all


def _unique_optimum(eb, ei, ec, col4row, v) -> np.ndarray:
    """Per problem of a (B, N, M) block of solved matrices (each n <= m),
    whether its admissible graph admits no optimum other than ``col4row``.
    The graph's edges are the (problem, row, col) triples (eb, ei, ec) of
    reduced cost within TIE_TOL of 0, ``v`` the column duals.

    Another optimum exists exactly when the graph has an alternating cycle:
    in the digraph with an arc i -> owner(c) for each admissible non-matching
    edge (i, c), a directed cycle. The m - n zero-cost dummy rows that square
    the problem are interchangeable, so they are one node per problem that
    owns every unassigned column and has an arc to the owner of every
    assigned column of zero dual. Arcs whose tail has no in-arc or whose head
    has no out-arc lie on no cycle; they are dropped until none is left, and
    a problem is flagged when no arc of it remains.
    """
    b_all, n_max = col4row.shape
    m_max = v.shape[1]
    arc = col4row[eb, ei] != ec
    eb, ei, ec = eb[arc], ei[arc], ec[arc]
    pb, pi = np.nonzero(col4row >= 0)
    pc = col4row[pb, pi]
    # node b * (N + 1) + i is row i of problem b, node b * (N + 1) + N its
    # dummy rows
    base = np.arange(0, b_all * (n_max + 1), n_max + 1)
    owner = np.repeat(base + n_max, m_max).reshape(b_all, m_max)
    owner[pb, pc] = base[pb] + pi
    db, dc = np.nonzero((owner != (base + n_max)[:, None]) & (v >= -TIE_TOL))
    tail = np.concatenate([base[eb] + ei, base[db] + n_max])
    head = np.concatenate([owner[eb, ec], owner[db, dc]])
    nodes = b_all * (n_max + 1)
    while tail.size:
        keep = np.bincount(head, minlength=nodes)[tail] > 0
        keep &= np.bincount(tail, minlength=nodes)[head] > 0
        if keep.all():
            break
        tail, head = tail[keep], head[keep]
    return np.bincount(tail // (n_max + 1), minlength=b_all) == 0


def _adjacency(rows: np.ndarray, cols: np.ndarray, n_rows: int) -> list[list[int]]:
    """Column lists of rows ``0 .. n_rows - 1`` of the edges (rows, cols),
    which are sorted by row, then column."""
    bounds = np.searchsorted(rows, np.arange(n_rows + 1)).tolist()
    flat = cols.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _try_augment(root, adj, match_row, match_col, visited, shared=(), joins=()):
    """Look for an augmenting path from the free row ``root``; flip it if found.

    Depth-first search with an explicit stack, so the path length is not
    bounded by the interpreter's recursion limit. A row scans ``adj[row]`` in
    ascending order, then ``shared`` as well if ``row in joins``. Joining rows
    scan ``shared`` through one iterator: every column it has passed is
    visited already, so the rows that share it cost one pass per search.
    Columns marked in ``visited`` are skipped. A search that fails flips
    nothing and marks only columns that lead to no free column, so a later
    search that keeps its marks finds the same path as one started afresh.
    """
    tail = iter(shared)
    chain = itertools.chain
    rows = [root]
    scans = [chain(adj[root], tail) if root in joins else iter(adj[root])]
    while scans:
        for c in scans[-1]:
            if visited[c]:
                continue
            visited[c] = True
            nxt = match_col[c]
            if nxt == -1:
                # each row takes the column that led to the next one; the
                # column a row was entered by passes to the row before it
                for r in reversed(rows):
                    prev = match_row[r]
                    match_row[r] = c
                    match_col[c] = r
                    c = prev
                return True
            rows.append(nxt)
            scans.append(chain(adj[nxt], tail) if nxt in joins else iter(adj[nxt]))
            break
        else:
            scans.pop()
            rows.pop()
    return False


def _lex_refine(adj, match_row, match_col, n_lex=None, shared=(), joins=()):
    """The lexicographically smallest maximum matching, as the (row, col)
    pairs of rows ``0 .. n_lex - 1`` (default: all).

    ``match_row``/``match_col`` hold a matching, possibly empty, and are
    consumed destructively. Kuhn first makes it maximum: each free row, in
    order, looks for an augmenting path. Then each row in order keeps its
    first column that leaves maximum cardinality attainable without the
    columns earlier rows kept, or else its current partner, if it has one:
    a column outside ``adj[row]``, such as one reached through ``shared``.
    ``shared`` and ``joins`` extend the graph as in ``_try_augment``.
    """
    n_rows, n_cols = len(match_row), len(match_col)
    visited = [False] * n_cols
    for r in range(n_rows):
        if match_row[r] == -1 and _try_augment(
            r, adj, match_row, match_col, visited, shared, joins
        ):
            visited = [False] * n_cols
    # a kept pair stays matched; its column is marked used, so no later
    # search enters it or reaches its row
    used_col = [False] * n_cols
    for i in range(n_rows if n_lex is None else n_lex):
        ci = match_row[i]
        for c in adj[i]:
            if used_col[c]:
                continue
            if c == ci:
                break
            r_star = match_col[c]
            if ci != -1 and r_star != -1:
                # both are engaged elsewhere: row i can take c if, with ci
                # and r_star freed, a later free row finds an augmenting
                # path that avoids c and the used columns
                match_col[ci] = -1
                match_row[r_star] = -1
                visited = used_col.copy()
                visited[c] = True
                if not any(
                    match_row[r] == -1
                    and _try_augment(r, adj, match_row, match_col, visited, shared, joins)
                    for r in range(i + 1, n_rows)
                ):
                    match_col[ci] = i
                    match_row[r_star] = c
                    continue
            elif r_star != -1:
                # row i is free: c's owner can give c up, as any maximum
                # matching can be rerouted to cover row i with it
                match_row[r_star] = -1
            elif ci != -1:
                # c is free: dropping (i, ci) keeps maximality
                match_col[ci] = -1
            match_row[i] = ci = c
            match_col[c] = i
            break
        if ci != -1:
            used_col[ci] = True
    return [(i, c) for i, c in enumerate(match_row[:n_lex]) if c != -1]


def _refine(rows, cols, n, m, col4row: np.ndarray, u, v, transposed: bool) -> np.ndarray:
    """The col4row of the lexicographically smallest optimal assignment of a
    solved n x m problem, n <= m, with solution ``col4row`` and duals u, v;
    (rows, cols), sorted by row, then column, are its admissible edges
    (reduced cost within TIE_TOL of 0). Smallest is in the pair list of the
    problem's matrix, or of its transpose if ``transposed`` (a matrix with
    more rows than columns)."""
    n_rows, n_cols = (m, n) if transposed else (n, m)
    pairs = _pairs(col4row.tolist(), transposed)
    if transposed:
        order = np.lexsort((rows, cols))
        rows, cols, u, v = cols[order], rows[order], v, u
    match_row = [-1] * m
    match_col = [-1] * m
    for r, c in pairs:
        match_row[r] = c
        match_col[c] = r
    # Padded to m x m with zero-cost dummy rows (N < M) or columns (N > M)
    # of dual 0, the optimal solutions are exactly the perfect matchings on
    # admissible edges. A dummy is admissible against every real line of
    # zero dual, so all dummy rows reach one shared list of zero-dual
    # columns, and all zero-dual rows reach one shared list of dummy columns:
    # no dummy edges are built. A line of negative dual thus stays matched to
    # a real one, as optimality requires. The refinement stops after the last
    # real row.
    adj = _adjacency(rows, cols, m)
    if transposed:
        shared = list(range(n_cols, m))
        joins = set(np.flatnonzero(u >= -TIE_TOL).tolist())
    else:
        shared = np.flatnonzero(v >= -TIE_TOL).tolist()
        joins = range(n_rows, m)
    # the dummies take the free columns here: augmenting from each dummy
    # row in _lex_refine would rescan ``shared`` once per dummy, 5.3M scan
    # steps instead of ~300 for a 120 x 3136 problem
    free_rows = [r for r in range(m) if match_row[r] == -1]
    free_cols = [c for c in range(m) if match_col[c] == -1]
    for r, c in zip(free_rows, free_cols):
        match_row[r] = c
        match_col[c] = r
    refined = np.empty_like(col4row)
    for r, c in _lex_refine(adj, match_row, match_col, n_rows, shared, joins):
        if c < n_cols:
            refined[c if transposed else r] = r if transposed else c
    return refined


def min_cost_block(a_all: np.ndarray, n_of, m_of, transposed) -> np.ndarray:
    """The col4row, as a (B, N) array with -1 on padded rows, of each
    problem's lexicographically smallest optimal assignment, for a (B, N, M)
    block padded with +inf. Problem b is the ``n_of[b]`` x ``m_of[b]``
    matrix (n <= m) in the corner of ``a_all[b]``; where ``transposed[b]``
    it is the transpose of the matrix whose pair list the tie-break orders.

    ``_lockstep`` solves every block, of one problem or many: vectorized
    rounds while two or more problems are live, scalar steps for the last
    one, with the same duals either way. ``a_all`` is then overwritten with
    the reduced costs, and their admissible edges are taken once, as
    (problem, row, col) triples sorted in that order. ``_unique_optimum``
    reads them all: a solution with no other optimum is returned as it is.
    Only the others run the refinement, each on its problem's run of edges.
    """
    b_all, n_max, _ = a_all.shape
    if not n_max:  # no row to assign, and perhaps no column to reduce over
        return np.zeros((b_all, 0), dtype=np.int64)
    c4r, u, v = _lockstep(a_all, n_of)
    a_all -= u[:, :, None]
    a_all -= v[:, None, :]
    eb, ei, ec = np.nonzero(a_all <= TIE_TOL)
    flagged = np.flatnonzero(~_unique_optimum(eb, ei, ec, c4r, v))
    runs = np.searchsorted(eb, [flagged, flagged + 1]).T.tolist()
    for b, (lo, hi) in zip(flagged.tolist(), runs):
        n, m = n_of[b], m_of[b]
        c4r[b, :n] = _refine(
            ei[lo:hi], ec[lo:hi], n, m, c4r[b, :n], u[b, :n], v[b, :m], transposed[b]
        )
    return c4r


def _pairs(col4row, transposed: bool) -> list[tuple[int, int]]:
    """The (row, col) pairs of a solution of a matrix or of its transpose."""
    return [(j, i) if transposed else (i, j) for i, j in enumerate(col4row) if j >= 0]


def solve_min_cost(costs: CostMatrix) -> Assignment:
    """Minimum-cost assignment of size min(rows, cols).

    Among equal-cost optima (within 1e-9) returns the lexicographically
    smallest pair list. Empty matrices yield the empty assignment. The
    matrix, with its smaller side as rows, is solved by ``min_cost_block``
    as a block of one problem.
    """
    flip = costs.rows > costs.cols
    a = costs.values.T if flip else costs.values
    n_of, m_of = np.array(a.shape)[:, None]
    col4row = min_cost_block(a[None].copy(), n_of, m_of, [flip])
    return _finish(_pairs(col4row[0].tolist(), flip), costs.rows, costs.cols)


def max_matching_edges(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lexicographically smallest maximum matching of the bipartite graph
    with edges (rows[k], cols[k]), sorted by row, then column; returned as
    the (rows, cols) of its pairs, in no particular order.

    An edge whose row and column both have degree 1 is a component of its
    own and is matched as it is. The lexicographic refinement runs on the
    other edges only, from an empty matching, with their rows and columns
    renumbered in order. The lexicographically smallest maximum matching is
    that of each component, so the pairs are those of the whole graph.
    """
    alone = (np.bincount(rows)[rows] == 1) & (np.bincount(cols)[cols] == 1)
    row_ids, r = np.unique(rows[~alone], return_inverse=True)
    col_ids, c = np.unique(cols[~alone], return_inverse=True)
    adj = _adjacency(r, c, len(row_ids))
    pairs = _lex_refine(adj, [-1] * len(row_ids), [-1] * len(col_ids))
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return (
        np.concatenate([rows[alone], row_ids[pairs[:, 0]]]),
        np.concatenate([cols[alone], col_ids[pairs[:, 1]]]),
    )
