import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointmatch.anchors import GridSpec, apply_offsets, make_grid


class TestMakeGrid:
    def test_two_by_two_subgrid_centers(self):
        anchors = make_grid(GridSpec(1, 1, 4, (2, 2)))
        assert anchors.positions == ((1, 1), (3, 1), (1, 3), (3, 3))

    def test_single_center(self):
        anchors = make_grid(GridSpec(1, 1, 2, (1, 1)))
        assert anchors.positions == ((1, 1),)

    def test_anchor_count_formula(self):
        anchors = make_grid(GridSpec(2, 3, 8, (2, 2)))
        assert len(anchors.positions) == 24

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            GridSpec(0, 1, 4)
        with pytest.raises(ValueError):
            GridSpec(1, 1, 0)
        with pytest.raises(ValueError):
            GridSpec(1, 1, 4, (0, 2))

    @pytest.mark.parametrize("stride", [float("nan"), float("inf")])
    def test_rejects_non_finite_stride(self, stride):
        # NaN fails no comparison: it would pass a `stride <= 0` check and
        # place every anchor at NaN
        with pytest.raises(ValueError, match="stride"):
            GridSpec(2, 2, stride)


class TestApplyOffsets:
    def test_zero_offsets_are_identity(self):
        anchors = make_grid(GridSpec(1, 1, 4, (2, 2)))
        preds = apply_offsets(
            anchors, [(0, 0)] * 4, [(0.5, 0.5)] * 4
        )
        assert [(p.x, p.y) for p in preds] == list(anchors.positions)

    def test_vector_addition(self):
        anchors = make_grid(GridSpec(1, 1, 2, (1, 1)))
        preds = apply_offsets(anchors, [(2, -1)], [(0.1, 0.9)])
        assert (preds[0].x, preds[0].y) == (3, 0)

    def test_length_mismatch(self):
        anchors = make_grid(GridSpec(1, 1, 4, (2, 2)))
        with pytest.raises(ValueError):
            apply_offsets(anchors, [(0, 0)], [(0.5, 0.5)] * 4)


grid_specs = st.builds(
    GridSpec,
    st.integers(1, 5),
    st.integers(1, 5),
    st.sampled_from([2, 4, 8, 16]),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
)


@settings(max_examples=100, deadline=None)
@given(grid_specs)
def test_grid_count_and_bounds(spec):
    anchors = make_grid(spec)
    assert len(anchors.positions) == spec.num_anchors
    assert len(set(anchors.positions)) == len(anchors.positions)
    for x, y in anchors.positions:
        assert 0 < x < spec.feature_width * spec.stride
        assert 0 < y < spec.feature_height * spec.stride
