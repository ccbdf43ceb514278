import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import brute_force_max_matching, brute_force_min_cost
from pointmatch.anchors import GridSpec, make_grid
from pointmatch.assignment import (
    TIE_TOL,
    _adjacency,
    _lex_refine,
    _lockstep,
    _refine,
    _unique_optimum,
    max_matching_edges,
    min_cost_block,
    solve_min_cost,
    stack_padded,
)
from pointmatch.types import Assignment, CostMatrix


def cost_of(values, assignment):
    """The sum of ``values`` over the assignment's pairs."""
    return float(sum(np.asarray(values)[r, c] for r, c in assignment.pairs))


def matching_pairs(mask):
    """``max_matching_edges`` of a dense boolean mask's entries, as sorted pairs."""
    rows, cols = max_matching_edges(*np.nonzero(mask))
    return tuple(sorted(zip(rows.tolist(), cols.tolist())))


def _same_bytes(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _flag(block, c4r, u, v):
    """The admissible (problem, row, col) edges of a solved block, taken as
    ``min_cost_block`` takes them (the block is overwritten with reduced
    costs), and ``_unique_optimum``'s flag of each problem's solution."""
    block -= u[:, :, None]
    block -= v[:, None, :]
    edges = np.nonzero(block <= TIE_TOL)
    return edges, _unique_optimum(*edges, c4r, v)


def _alone_solve(a):
    """``_lockstep`` of one matrix (n <= m) as a block of its own, so in
    scalar steps throughout, and ``_unique_optimum``'s flag of its solution,
    as (col4row, u, v, unique)."""
    col4row, u, v = (x[0] for x in _lockstep(a[None].copy(), np.array([len(a)])))
    unique = _flag(a[None].copy(), col4row[None], u[None], v[None])[1][0]
    return col4row, u, v, unique


def _lockstep_solve(mats):
    """``_lockstep``'s (col4row, u, v) of the padded block of ``mats`` (each
    n <= m), with the block's admissible edges before them and
    ``_unique_optimum``'s flag of each solution after them."""
    block = stack_padded(mats, np.inf)
    c4r, u, v = _lockstep(block, np.array([len(a) for a in mats]))
    edges, unique = _flag(block, c4r, u, v)
    return edges, c4r, u, v, unique


def _assert_slots_equal_alone(mats, c4r, u, v):
    # each problem's slot of a block, solved in vectorized rounds and then in
    # scalar steps: the (col4row, u, v) of the problem solved alone, byte for
    # byte, and duals that certify its optimum
    for b, a in enumerate(mats):
        n, m = a.shape
        batched = (c4r[b, :n], u[b, :n], v[b, :m])
        for alone, got in zip(_alone_solve(a), batched):
            assert _same_bytes(alone, np.ascontiguousarray(got))
        reduced = a - batched[1][:, None] - batched[2]
        assert reduced.min(initial=0.0) >= -1e-9
        assert np.abs(reduced[np.arange(n), batched[0]]).max(initial=0.0) <= 1e-9
        assert batched[2].max(initial=0.0) <= 0.0
        assert set(np.flatnonzero(batched[2] < 0)) <= set(batched[0].tolist())


class TestSolveMinCost:
    def test_two_by_two(self):
        cm = CostMatrix([[1, 3], [2, 1]])
        a = solve_min_cost(cm)
        assert a.pairs == ((0, 0), (1, 1))
        assert cost_of(cm.values, a) == 2

    def test_empty_matrix(self):
        a = solve_min_cost(CostMatrix(np.zeros((0, 0))))
        assert a.pairs == ()
        assert a.unmatched_rows == () and a.unmatched_cols == ()

    def test_all_zero_tie_break_is_identity(self):
        a = solve_min_cost(CostMatrix(np.zeros((3, 3))))
        assert a.pairs == ((0, 0), (1, 1), (2, 2))

    def test_rectangular_leaves_surplus_unmatched(self):
        a = solve_min_cost(CostMatrix([[1, 9, 9], [9, 1, 9]]))
        assert a.pairs == ((0, 0), (1, 1))
        assert a.unmatched_cols == (2,)

    def test_more_rows_than_cols(self):
        a = solve_min_cost(CostMatrix([[5], [1], [3]]))
        assert a.pairs == ((1, 0),)
        assert a.unmatched_rows == (0, 2)

    def test_negative_dual_column_stays_matched(self):
        # ((0, 0), (1, 1)) is tight on every real row but costs 2, not 1
        a = solve_min_cost(CostMatrix([[1, 1, 0], [1, 1, 0]]))
        assert a.pairs == ((0, 0), (1, 2))

    def test_negative_dual_row_stays_matched(self):
        a = solve_min_cost(CostMatrix([[1, 1], [1, 1], [0, 0]]))
        assert a.pairs == ((0, 0), (2, 1))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CostMatrix([[1, float("inf")]])

    def test_tie_within_tolerance_is_refined(self):
        # 0.1 + 0.2 exceeds 0.3 + 0.0 by one rounding error: both are optimal
        # within 1e-9, so the smaller pair list wins over the solver's own
        for values in ([[0.1, 0.3], [0.0, 0.2]], [[0.1, 0.3, 1.0], [0.0, 0.2, 1.0]]):
            assert solve_min_cost(CostMatrix(values)).pairs == ((0, 0), (1, 1))


class TestBruteForceMinCost:
    def test_single_cell(self):
        a = brute_force_min_cost(CostMatrix([[5.0]]))
        assert a.pairs == ((0, 0),)
        assert cost_of([[5.0]], a) == 5.0

    def test_rectangular(self):
        cm = CostMatrix([[1, 9, 9], [9, 1, 9]])
        a = brute_force_min_cost(cm)
        assert a.pairs == ((0, 0), (1, 1))
        assert cost_of(cm.values, a) == 2
        assert a.unmatched_cols == (2,)

    def test_agrees_with_solver(self):
        cm = CostMatrix([[1, 3], [2, 1]])
        assert brute_force_min_cost(cm).pairs == solve_min_cost(cm).pairs

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            brute_force_min_cost(CostMatrix(np.zeros((9, 9))))


class TestSolveMaxMatching:
    def test_isolated_row(self):
        assert matching_pairs(np.array([[True, True], [False, False]])) == ((0, 0),)

    def test_requires_swap(self):
        assert matching_pairs(np.array([[True, False], [True, True]])) == ((0, 0), (1, 1))

    def test_no_edges(self):
        assert matching_pairs(np.zeros((2, 3), dtype=bool)) == ()

    def test_long_augmenting_path_needs_no_recursion(self):
        # rows i < n-1 reach {i, i+1} and row n-1 reaches {0} only, so the
        # lexicographic repair walks a path through all n rows
        n = 1500
        vals = np.zeros((n, n), dtype=bool)
        vals[np.arange(n - 1), np.arange(n - 1)] = True
        vals[np.arange(n - 1), np.arange(1, n)] = True
        vals[n - 1, 0] = True
        assert matching_pairs(vals) == tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, 0),)


class TestBruteForceMaxMatching:
    def test_all_true(self):
        assert len(brute_force_max_matching(np.ones((2, 2), bool)).pairs) == 2

    def test_single_column(self):
        a = brute_force_max_matching(np.array([[True], [True]]))
        assert a.pairs == ((0, 0),)

    def test_all_two_by_two_cases(self):
        for bits in range(16):
            vals = np.array([[bits & 1, bits & 2], [bits & 4, bits & 8]], dtype=bool)
            assert matching_pairs(vals) == brute_force_max_matching(vals).pairs

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            brute_force_max_matching(np.ones((9, 9), bool))


def test_package_import_leaves_oracles_unloaded():
    import pointmatch

    assert not hasattr(pointmatch, "brute_force_min_cost")
    assert "brute_force_max_matching" not in pointmatch.__all__
    # a fresh interpreter: this one has already imported the oracles
    code = "import sys, pointmatch; print('pointmatch._oracle' in sys.modules)"
    src = os.path.dirname(os.path.dirname(pointmatch.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


def _structural_ok(a: Assignment, rows, cols):
    assert len(a.pairs) + len(a.unmatched_rows) == rows
    assert len(a.pairs) + len(a.unmatched_cols) == cols
    rs = [r for r, _ in a.pairs]
    cs = [c for _, c in a.pairs]
    assert len(set(rs)) == len(rs) and len(set(cs)) == len(cs)


cost_matrices = st.integers(0, 6).flatmap(
    lambda r: st.integers(0, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-4, 4).map(float), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: np.array(rows, dtype=float).reshape(r, c))
    )
)

bool_matrices = st.integers(0, 7).flatmap(
    lambda r: st.integers(0, 7).flatmap(
        lambda c: st.lists(
            st.lists(st.booleans(), min_size=c, max_size=c), min_size=r, max_size=r
        ).map(lambda rows: np.array(rows, dtype=bool).reshape(r, c))
    )
)


@settings(max_examples=300, deadline=None)
@given(cost_matrices)
def test_min_cost_matches_oracle(values):
    cm = CostMatrix(values)
    fast = solve_min_cost(cm)
    slow = brute_force_min_cost(cm)
    assert abs(cost_of(values, fast) - cost_of(values, slow)) < 1e-9
    assert fast.pairs == slow.pairs
    _structural_ok(fast, cm.rows, cm.cols)


@settings(max_examples=300, deadline=None)
@given(bool_matrices)
def test_max_matching_matches_oracle(values):
    assert matching_pairs(values) == brute_force_max_matching(values).pairs


@settings(max_examples=200, deadline=None)
@given(cost_matrices, st.integers(-5, 5))
def test_constant_shift_does_not_change_pairs(values, shift):
    p1 = solve_min_cost(CostMatrix(values)).pairs
    p2 = solve_min_cost(CostMatrix(values + float(shift))).pairs
    assert p1 == p2


@settings(max_examples=100, deadline=None)
@given(cost_matrices)
def test_min_cost_deterministic(values):
    cm = CostMatrix(values)
    assert solve_min_cost(cm) == solve_min_cost(cm)


@settings(max_examples=100, deadline=None)
@given(bool_matrices)
def test_max_matching_deterministic(values):
    assert matching_pairs(values) == matching_pairs(values)


# up to 4 ground truths, each row repeated beta times, at most 8 rows
replicated_costs = st.sampled_from([2, 3]).flatmap(
    lambda beta: st.tuples(
        st.just(beta),
        st.integers(1, 8).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-3, 3).map(float), min_size=c, max_size=c),
                min_size=1,
                max_size=min(4, 8 // beta),
            )
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(replicated_costs)
def test_replicated_rows_match_oracle(beta_values):
    # the one-to-many matcher repeats each ground-truth row beta times, so
    # every optimum has beta-fold ties between identical rows
    beta, base = beta_values
    cm = CostMatrix(np.repeat(np.array(base), beta, axis=0))
    assert solve_min_cost(cm).pairs == brute_force_min_cost(cm).pairs


def _anchor_costs(n_gt, seed, tau=0.05, side=224):
    # paper-size patch: 224 x 224, stride 8, 2 x 2 anchors -> 3,136 proposals;
    # a 64 x 64 patch, as train-match's, has 256
    rng = np.random.default_rng(seed)
    anchors = np.array(make_grid(GridSpec(side // 8, side // 8, 8.0)).positions)
    proposals = anchors + rng.normal(0.0, 2.0, anchors.shape)
    gts = rng.uniform(0.0, float(side), (n_gt, 2))
    dist = np.linalg.norm(gts[:, None, :] - proposals[None, :, :], axis=2)
    return tau * dist - rng.uniform(0.0, 1.0, (1, len(proposals)))


@pytest.mark.parametrize(
    "n_gt, beta, transpose",
    [(30, 1, False), (30, 1, True), (60, 1, False)]
    + [(n, b, False) for n in (30, 60) for b in (2, 4, 6)],
)
def test_min_cost_agrees_with_scipy_at_paper_size(n_gt, beta, transpose):
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    values = np.repeat(_anchor_costs(n_gt, seed=n_gt * 10 + beta), beta, axis=0)
    if transpose:
        values = values.T
    rows, cols = linear_sum_assignment(values)
    cm = CostMatrix(values)
    a = solve_min_cost(cm)
    _structural_ok(a, cm.rows, cm.cols)
    assert len(a.pairs) == min(values.shape)
    assert abs(cost_of(values, a) - values[rows, cols].sum()) < 1e-9


@pytest.mark.parametrize("seed", [1, 2])
def test_paper_size_training_matrices_solve_alike_alone_and_in_a_block(seed):
    # a paper-size patch's one-to-one and beta = 4 matrices (30 and 120 rows
    # over 3,136 proposals) solve alike alone, in scalar steps, and in one
    # block with a train-match-size patch's two (over 256 proposals), where
    # their searches run in vectorized rounds beside the others'
    paper, train = _anchor_costs(30, seed), _anchor_costs(30, seed + 10, side=64)
    mats = [paper, np.repeat(paper, 4, axis=0), train, np.repeat(train, 4, axis=0)]
    assert [a.shape for a in mats] == [(30, 3136), (120, 3136), (30, 256), (120, 256)]
    c4r, u, v = _lockstep(stack_padded(mats, np.inf), np.array([len(a) for a in mats]))
    _assert_slots_equal_alone(mats, c4r, u, v)


def test_row_reduction_assigns_every_free_minimum():
    # each row's first cheapest column differs, so no row needs a search:
    # the duals stay at the row minima and zero
    a = np.array([[2.0, 0.5, 3.0, 1.0], [0.0, 4.0, 0.0, 2.0], [5.0, 6.0, 7.0, 4.5]])
    col4row, u, v, unique = _alone_solve(a)
    assert col4row.tolist() == [1, 0, 3]
    assert u.tolist() == [0.5, 0.0, 4.5]
    assert not v.any()
    # row 1 could take column 2 at the same cost
    assert not unique
    assert solve_min_cost(CostMatrix(a)).pairs == ((0, 1), (1, 0), (2, 3))


def test_rows_colliding_on_one_minimum():
    # column 0 is cheapest for every row: row 0 keeps it from the reduction
    # and the other rows are left to the shortest-path search
    a = np.array([[0.0, 5.0, 6.0, 3.0], [0.0, 7.0, 1.0, 4.0], [0.0, 2.0, 9.0, 8.0]])
    col4row, u, v, unique = _alone_solve(a)
    assert unique
    # the duals the refinement relies on: feasible, tight on the assignment,
    # and negative only on assigned columns
    reduced = a - u[:, None] - v[None, :]
    assert reduced.min() >= -1e-9
    assert np.abs(reduced[np.arange(3), col4row]).max() <= 1e-9
    assert v.max() <= 0.0 and set(np.flatnonzero(v < 0)) <= set(col4row)
    cm = CostMatrix(a)
    assert solve_min_cost(cm).pairs == brute_force_min_cost(cm).pairs == ((0, 0), (1, 2), (2, 1))
    assert solve_min_cost(CostMatrix(a.T)).pairs == ((0, 0), (1, 2), (2, 1))


# rows mostly share one cheapest column; each row is repeated beta times
shared_minimum_costs = st.tuples(
    st.sampled_from([1, 2, 3]),
    st.integers(1, 8).flatmap(
        lambda c: st.tuples(
            st.integers(0, c - 1),
            st.lists(
                st.lists(st.integers(0, 3).map(float), min_size=c, max_size=c),
                min_size=1,
                max_size=8,
            ),
        )
    ),
)


@settings(max_examples=200, deadline=None)
@given(shared_minimum_costs)
def test_shared_row_minimum_matches_oracle(case):
    beta, (col, base) = case
    base = np.array(base[: max(1, 8 // beta)])
    base[:, col] = base.min(axis=1) - 1.0
    values = np.repeat(base, beta, axis=0)
    for cm in (CostMatrix(values), CostMatrix(values.T)):
        assert solve_min_cost(cm).pairs == brute_force_min_cost(cm).pairs


@pytest.mark.parametrize("shape", [(30, 33), (33, 30), (90, 95)])
def test_min_cost_agrees_with_scipy_on_near_square_distances(shape):
    # raw_hungarian solves the plain distance matrix of one class-image
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(sum(shape))
    gts = rng.uniform(0.0, 256.0, (shape[0], 2))
    preds = rng.uniform(0.0, 256.0, (shape[1], 2))
    values = np.linalg.norm(gts[:, None, :] - preds[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(values)
    cm = CostMatrix(values)
    a = solve_min_cost(cm)
    _structural_ok(a, cm.rows, cm.cols)
    assert len(a.pairs) == min(shape)
    assert abs(cost_of(values, a) - values[rows, cols].sum()) < 1e-9


TIE_KINDS = ("integer", "binary", "quarter", "zero", "replicated", "signed", "distance")


def _tie_heavy(kind, rows, cols, seed):
    """One cost matrix of a tie-heavy kind, oriented rows <= cols."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        a = rng.integers(0, 6, (rows, cols)).astype(float)
    elif kind == "binary":
        a = rng.integers(0, 2, (rows, cols)).astype(float)
    elif kind == "quarter":
        a = rng.integers(-8, 9, (rows, cols)) / 4.0
    elif kind == "zero":
        a = np.zeros((rows, cols))
    elif kind == "replicated":
        beta = int(rng.integers(2, 5))
        a = np.repeat(rng.integers(0, 4, (-(-rows // beta), cols)), beta, axis=0)[:rows]
    elif kind == "signed":
        a = rng.normal(0.0, 10.0, (rows, cols))
    else:
        gts = rng.integers(0, 12, (rows, 2))
        preds = rng.integers(0, 12, (cols, 2))
        a = np.round(np.linalg.norm(gts[:, None, :] - preds[None, :, :], axis=2), 1)
    a = np.asarray(a, dtype=float)
    return a.T if rows > cols else a


tie_heavy_batches = st.lists(
    st.builds(
        _tie_heavy,
        st.sampled_from(TIE_KINDS),
        st.integers(1, 10),
        st.integers(1, 10),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=40,
)


# "serial" in the names below is a problem solved alone, in scalar steps
def _assert_same_duals(mats):
    # each problem's slot of the lockstep block, byte for byte as solved
    # alone, with the same flag as the bare matrix
    _, c4r, u, v, unique = _lockstep_solve(mats)
    _assert_slots_equal_alone(mats, c4r, u, v)
    assert unique.tolist() == [bool(_alone_solve(a)[3]) for a in mats]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(tie_heavy_batches)
def test_lockstep_duals_equal_serial(mats):
    _assert_same_duals(mats)


@pytest.mark.parametrize("size", [1, 130])
def test_lockstep_duals_equal_serial_across_batch_sizes(size):
    _assert_same_duals(
        [_tie_heavy(TIE_KINDS[k % 7], 1 + k % 9, 1 + (5 * k) % 11, k) for k in range(size)]
    )


def _early_or_late(kind, seed):
    """A problem that never searches (0 or 1 row), finishes after a few
    searches (2-3 rows) or runs long (a tie-heavy integer 8 x 12)."""
    rng = np.random.default_rng(seed)
    cols = int(rng.integers(3, 13))
    if kind == "none":
        return np.zeros((0, cols))
    if kind == "one":
        return rng.integers(0, 6, (1, cols)).astype(float)
    if kind == "few":
        return rng.integers(0, 3, (int(rng.integers(2, 4)), cols)).astype(float)
    return _tie_heavy("integer", 8, 12, seed)


# both searches end in their second round: the first problem then has no free
# row left, the second restarts from its third row
ENDS_TOGETHER = [np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([[0.0, 1.0, 5.0]] * 3)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(
        st.builds(
            _early_or_late,
            st.sampled_from(["none", "one", "few", "few", "few", "few", "long"]),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(0, 40),
)
def test_lockstep_dead_rows_keep_serial_duals(mats, at):
    # most problems finish early and stay as dead rows until they are half of
    # the arrays; the long ones keep searching across each compaction
    mats[at:at] = ENDS_TOGETHER
    c4r, u, v = _lockstep(stack_padded(mats, np.inf), np.array([len(a) for a in mats]))
    _assert_slots_equal_alone(mats, c4r, u, v)


def _staircase(n, m):
    """An n x m problem (n < m) whose row reduction gives rows 0 .. n - 2
    columns 0 .. n - 2, and whose last row, colliding on column 0, searches
    n steps: column k is reached at distance k through row k - 1, until the
    free column n - 1 ends the search."""
    a = np.full((n, m), 10.0)
    a[np.arange(n - 1), np.arange(n - 1)] = 0.0
    a[np.arange(n - 1), np.arange(1, n)] = 1.0
    a[n - 1, 0] = 0.0
    return a


def test_last_live_problem_switches_to_scalar_steps_mid_search():
    # the 2 x 2 problem's one search ends in the first round, leaving the
    # staircase alone after the first of its 7 steps: its search finishes in
    # scalar steps from its vectorized state, and so does its second search
    long, short = np.vstack([_staircase(7, 9), np.full((1, 9), 10.0)]), np.zeros((2, 2))
    long[7, [0, 8]] = 0.0, 5.0
    mats = [short, long]
    c4r, u, v = _lockstep(stack_padded(mats, np.inf), np.array([2, 8]))
    _assert_slots_equal_alone(mats, c4r, u, v)
    assert c4r[0, :2].tolist() == [0, 1]
    assert c4r[1].tolist() == [1, 2, 3, 4, 5, 6, 0, 8]
    cm = CostMatrix(long)
    assert solve_min_cost(cm).pairs == brute_force_min_cost(cm).pairs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tie_heavy_batches, st.lists(st.booleans(), min_size=40, max_size=40))
def test_flagged_optimum_needs_no_refinement(mats, flips):
    # the flag is sound: refining every problem, flagged or not, on its run
    # of the block's edges returns min_cost_block's col4row. Each problem is
    # ordered by the pair list of its matrix or of its transpose (which the
    # solver solves as the matrix), so one block mixes both orientations,
    # and each problem is refined in both
    (eb, ei, ec), c4r, u, v, _ = _lockstep_solve(mats)
    n_of, m_of = np.array([a.shape for a in mats]).T
    flips = flips[: len(mats)]
    for flip in (flips, [not f for f in flips]):
        solved = min_cost_block(stack_padded(mats, np.inf), n_of, m_of, flip)
        for b, (n, m) in enumerate(zip(n_of, m_of)):
            run = eb == b
            refined = _refine(ei[run], ec[run], n, m, c4r[b, :n], u[b, :n], v[b, :m], flip[b])
            assert np.array_equal(solved[b, :n], refined)


@pytest.mark.parametrize("values", [
    [[0.0, 0.0], [0.0, 0.0]],
    # beta = 2 replicas of one ground truth: swapping them costs nothing
    [[1.0, 2.0, 5.0], [1.0, 2.0, 5.0]],
    # the dummy row could take column 0 as well as column 1
    [[0.0, 0.0]],
])
def test_tie_is_not_flagged(values):
    a = np.array(values)
    assert not _alone_solve(a)[3]
    assert not _lockstep_solve([a, a])[4].any()


def test_each_matrix_solves_within_its_memory_bound():
    # one 600 x 600 matrix among 63 small ones, some of them transposed or
    # empty: each is solved as a block of its own, the large one included
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    rng = np.random.default_rng(3)
    shapes = [(5, 5), (5, 3), (3, 5), (0, 4)] * 10 + [(600, 600)] + [(5, 5)] * 23
    for shape in shapes:
        cm = CostMatrix(rng.integers(0, 20, shape).astype(float))
        tracemalloc.start()
        try:
            got = solve_min_cost(cm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6
        rows, cols = linear_sum_assignment(cm.values)
        assert cost_of(cm.values, got) == cm.values[rows, cols].sum()


def _sparse_cell(rows, cols, density, seed):
    return np.random.default_rng(seed).random((rows, cols)) < density


# cells of up to 6 x 6 with sparse to dense edges, some with no rows or
# columns; sparse cells hold isolated pairs, edgeless rows and shared columns
edge_cells = st.lists(
    st.builds(_sparse_cell, st.integers(0, 6), st.integers(0, 6),
              st.sampled_from([0.1, 0.25, 0.5, 0.9]), st.integers(0, 2**32 - 1)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edge_cells)
def test_edge_list_matching_of_block_union_equals_per_cell_oracle(cells):
    rows, cols = [], []
    row_at = np.cumsum([0] + [c.shape[0] for c in cells])
    col_at = np.cumsum([0] + [c.shape[1] for c in cells])
    for cell, r0, c0 in zip(cells, row_at, col_at):
        r, c = np.nonzero(cell)
        rows.append(r + r0)
        cols.append(c + c0)
    got_rows, got_cols = max_matching_edges(np.concatenate(rows), np.concatenate(cols))
    got = sorted(zip(got_rows.tolist(), got_cols.tolist()))
    want = [
        (r + int(r0), c + int(c0))
        for cell, r0, c0 in zip(cells, row_at, col_at)
        for r, c in brute_force_max_matching(cell).pairs
    ]
    assert got == want


def _lex_min_cost(values):
    """Test oracle for integer costs of any size: rows in order, each fixed to
    its smallest column that keeps the optimum (scipy's
    ``linear_sum_assignment``, exact on integers) attainable. A row that can
    keep none stays unmatched; only a matrix with more rows than columns has
    such rows."""
    from scipy.optimize import linear_sum_assignment

    def best(rows, cols):
        sub = values[np.ix_(rows, cols)]
        r, c = linear_sum_assignment(sub)
        return len(r), sub[r, c].sum()

    n_rows, n_cols = values.shape
    size = min(n_rows, n_cols)
    total = best(range(n_rows), range(n_cols))[1]
    pairs, spent, free = [], 0.0, list(range(n_cols))
    for i in range(n_rows):
        rest = list(range(i + 1, n_rows))
        for c in free:
            others = [j for j in free if j != c]
            k, cost = best(rest, others) if rest and others else (0, 0.0)
            if len(pairs) + 1 + k == size and spent + values[i, c] + cost == total:
                pairs.append((i, c))
                spent += values[i, c]
                free.remove(c)
                break
    return tuple(pairs)


def _lex_max_matching(rows, cols, n_rows, n_cols):
    """Test oracle for any size: rows in order, each fixed to its smallest
    column that keeps a maximum matching (sized by scipy's
    ``maximum_bipartite_matching``) attainable."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    def size(row_ok, col_ok):
        keep = row_ok[rows] & col_ok[cols]
        graph = csr_matrix((np.ones(keep.sum()), (rows[keep], cols[keep])), (n_rows, n_cols))
        return int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())

    row_ok, col_ok = np.ones(n_rows, bool), np.ones(n_cols, bool)
    left, pairs = size(row_ok, col_ok), []
    for i in range(n_rows):
        row_ok[i] = False
        for c in cols[rows == i].tolist():
            if col_ok[c]:
                col_ok[c] = False
                if 1 + size(row_ok, col_ok) == left:
                    pairs.append((i, c))
                    left -= 1
                    break
                col_ok[c] = True
    return tuple(pairs)


def test_lex_oracles_agree_with_brute_force():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(41)
    for _ in range(150):
        r, c = rng.integers(1, 7, 2)
        beta = int(rng.integers(1, 4))
        values = np.repeat(rng.integers(0, 4, (r, c)), beta, axis=0)[:7].astype(float)
        for v in (values, values.T):
            assert _lex_min_cost(v) == brute_force_min_cost(CostMatrix(v)).pairs
        mask = rng.random((r, c)) < rng.choice([0.2, 0.5, 0.8])
        want = brute_force_max_matching(mask).pairs
        assert _lex_max_matching(*np.nonzero(mask), r, c) == want


@pytest.mark.parametrize("beta", [1, 2, 3, 4])
def test_min_cost_equals_lex_oracle_beyond_brute_force(beta):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(100 + beta)
    for _ in range(10):
        n = int(rng.integers(9, 40 // beta + 1))
        m = int(rng.integers(n * beta, 61))
        values = np.repeat(rng.integers(0, 5, (n, m)), beta, axis=0).astype(float)
        for v in (values, values.T):
            assert solve_min_cost(CostMatrix(v)).pairs == _lex_min_cost(v)


def test_max_matching_equals_lex_oracle_beyond_brute_force():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(7)
    for _ in range(25):
        n, m = rng.integers(20, 41, 2)
        rows, cols = np.nonzero(rng.random((n, m)) < rng.choice([0.04, 0.08, 0.15]))
        got = sorted(zip(*(a.tolist() for a in max_matching_edges(rows, cols))))
        assert tuple(got) == _lex_max_matching(rows, cols, n, m)


def test_refinement_completes_a_non_maximum_matching():
    # a greedy start (each row takes its first free column) is maximal but
    # often not maximum; the refinement ends on the same pairs as from empty
    rng = np.random.default_rng(3)
    short = 0
    for _ in range(200):
        n, m = rng.integers(2, 15, 2)
        rows, cols = np.nonzero(rng.random((n, m)) < 0.3)
        adj = _adjacency(rows, cols, n)
        match_row, match_col = [-1] * n, [-1] * m
        for r in range(n):
            c = next((c for c in adj[r] if match_col[c] == -1), -1)
            if c != -1:
                match_row[r], match_col[c] = c, r
        greedy = sum(c != -1 for c in match_row)
        pairs = _lex_refine(adj, match_row, match_col)
        short += greedy < len(pairs)
        assert pairs == _lex_refine(adj, [-1] * n, [-1] * m)
    assert short > 10
