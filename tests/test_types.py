import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch.types import LabeledPoint, PredictedPoint, distance_matrix


def _points(n, exponent, seed):
    """n points with coordinates of magnitude up to 10**exponent."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 2)) * 10.0**exponent


points = st.builds(_points, st.integers(0, 9), st.integers(-3, 100), st.integers(0, 2**32 - 1))


def _norm(a, b):
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(points, points)
def test_distance_matrix_is_norm_bit_for_bit(a, b):
    # both orientations: a cell is scored with its smaller side as rows
    assert _same_bits(distance_matrix(a, b), _norm(a, b))
    assert _same_bits(distance_matrix(b, a), _norm(b, a))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(points, points), min_size=1, max_size=6))
def test_padded_block_is_norm_bit_for_bit(cells):
    # rows padded with +inf and columns with -inf: every padded entry is +inf
    n_max = max(len(a) for a, _ in cells)
    m_max = max(len(b) for _, b in cells)
    rows = np.full((len(cells), n_max, 2), np.inf)
    cols = np.full((len(cells), m_max, 2), -np.inf)
    for k, (a, b) in enumerate(cells):
        rows[k, : len(a)] = a
        cols[k, : len(b)] = b
    block = distance_matrix(rows, cols)
    assert block.shape == (len(cells), n_max, m_max)
    for k, (a, b) in enumerate(cells):
        assert _same_bits(block[k, : len(a), : len(b)].copy(), _norm(a, b))
        padding = np.ones((n_max, m_max), dtype=bool)
        padding[: len(a), : len(b)] = False
        assert np.all(block[k][padding] == np.inf)


def test_distance_matrix_of_empty_sets():
    a = np.zeros((0, 2))
    b = np.ones((3, 2))
    assert distance_matrix(a, b).shape == (0, 3)
    assert distance_matrix(b, a).shape == (3, 0)
    assert distance_matrix(a, a).shape == (0, 0)
    assert distance_matrix(np.zeros((4, 0, 2)), np.zeros((4, 5, 2))).shape == (4, 0, 5)


def test_rows_chunked_across_problems():
    # 5 rows of 3,000 columns per chunk of dy * dy: chunks end inside a
    # 7-row problem and span two; a 40,000-column row is a chunk of its own
    rng = np.random.default_rng(1)
    a = rng.uniform(-1e3, 1e3, (4, 7, 2))
    b = rng.uniform(-1e3, 1e3, (4, 3000, 2))
    block = distance_matrix(a, b)
    for k in range(4):
        assert _same_bits(block[k].copy(), _norm(a[k], b[k]))
    wide = rng.uniform(-1e3, 1e3, (40_000, 2))
    assert _same_bits(distance_matrix(a[0], wide), _norm(a[0], wide))


def test_point_constructors_refuse_background_class_and_short_vector():
    with pytest.raises(ValueError, match=r"class_id must be >= 1 \(0 is reserved for background\)"):
        LabeledPoint(0.0, 0.0, 0)
    with pytest.raises(ValueError, match="confidences needs background plus at least one class"):
        PredictedPoint(0.0, 0.0, (1.0,))
