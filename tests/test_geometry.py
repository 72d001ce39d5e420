import json

import numpy as np
import pytest

from pact.geometry import (
    SamplingPattern,
    SensorArray,
    apply_sampling_pattern,
    build_hemisphere_grid,
    load_sensor_array,
    quadrature_weights,
    save_sensor_array,
)


def test_single_detector_grid():
    arr = build_hemisphere_grid(1, 1, 0.13)
    assert arr.n_elements == 1
    assert arr.angles[0, 0] == pytest.approx(np.pi / 4)
    assert arr.angles[0, 1] == 0.0
    # One cell carries the whole hemisphere area.
    assert quadrature_weights(arr)[0] == pytest.approx(2 * np.pi * 0.13**2, rel=1e-12)


def test_paper_scale_grid():
    arr = build_hemisphere_grid(64, 400, 0.13)
    assert arr.n_elements == 25600
    assert np.all(arr.active)
    total = quadrature_weights(arr).sum()
    assert total == pytest.approx(2 * np.pi * 0.13**2, rel=1e-6)


def test_two_by_four_weights_sum():
    arr = build_hemisphere_grid(2, 4, 1.0)
    assert arr.positions.shape == (8, 3)
    assert quadrature_weights(arr).sum() == pytest.approx(2 * np.pi, rel=1e-12)


def test_positions_on_sphere():
    arr = build_hemisphere_grid(5, 12, 0.07)
    radii = np.linalg.norm(arr.positions, axis=1)
    assert np.allclose(radii, 0.07, rtol=1e-12)
    # Upper hemisphere only.
    assert np.all(arr.positions[:, 2] > 0)
    # Derived from the grid, so read-only.
    with pytest.raises(ValueError):
        arr.positions[0] = 0.0
    with pytest.raises(AttributeError):
        arr.angles = arr.angles.copy()


def test_invalid_grid_arguments():
    with pytest.raises(ValueError):
        build_hemisphere_grid(0, 4, 1.0)
    with pytest.raises(ValueError):
        build_hemisphere_grid(4, 0, 1.0)
    with pytest.raises(ValueError):
        build_hemisphere_grid(4, 4, -1.0)
    with pytest.raises(ValueError):
        SensorArray(1.0, 4, 4, np.ones(15, dtype=bool))


def test_quadrature_weights_inactive_zero():
    arr = build_hemisphere_grid(4, 8, 1.0)
    arr.active[::2] = False
    q = quadrature_weights(arr)
    assert np.all(q[~arr.active] == 0.0)
    # Retained sum equals the brute-force sum of the kept cell areas.
    full = build_hemisphere_grid(4, 8, 1.0)
    expected = quadrature_weights(full)[arr.active].sum()
    assert q.sum() == pytest.approx(expected, rel=1e-12)


def test_single_ring_weights():
    arr = build_hemisphere_grid(1, 6, 1.0)
    assert np.allclose(quadrature_weights(arr), 2 * np.pi / 6, rtol=1e-12)


def test_uniform_subsampling_counts():
    arr = build_hemisphere_grid(4, 400, 0.13)
    sub = apply_sampling_pattern(arr, SamplingPattern.parse("uniform:6"))
    cols = np.count_nonzero(sub.active) // 4
    assert cols == 67  # ceil(400 / 6)


def test_limited_azimuth_counts():
    arr = build_hemisphere_grid(3, 360, 0.13)
    sub = apply_sampling_pattern(arr, SamplingPattern.parse("limaz:120"))
    assert np.count_nonzero(sub.active) // 3 == 120


def test_limited_elevation_keeps_polar_rows():
    arr = build_hemisphere_grid(9, 8, 1.0)
    sub = apply_sampling_pattern(arr, SamplingPattern.parse("limel:0.333"))
    kept_rows = np.unique(sub.active_indices // 8)
    assert list(kept_rows) == [0, 1, 2]
    theta_kept = arr.angles[sub.active_indices, 0]
    assert theta_kept.max() < arr.angles[:, 0].max()


def test_full_pattern_is_identity():
    arr = build_hemisphere_grid(4, 10, 1.0)
    sub = apply_sampling_pattern(arr, SamplingPattern("full"))
    assert np.array_equal(sub.active, arr.active)


def test_uniform_one_equals_full():
    arr = build_hemisphere_grid(4, 10, 1.0)
    a = apply_sampling_pattern(arr, SamplingPattern("uniform", rate=1))
    b = apply_sampling_pattern(arr, SamplingPattern("full"))
    assert np.array_equal(a.active, b.active)


@pytest.mark.parametrize("pattern", ["uniform:3", "limaz:90", "limel:0.5"])
def test_subsampling_idempotent(pattern):
    arr = build_hemisphere_grid(6, 12, 1.0)
    p = SamplingPattern.parse(pattern)
    once = apply_sampling_pattern(arr, p)
    twice = apply_sampling_pattern(once, p)
    assert np.array_equal(once.active, twice.active)


@pytest.mark.parametrize("pattern", ["uniform:4", "limaz:45", "limel:0.25"])
def test_active_weight_sum_never_grows(pattern):
    arr = build_hemisphere_grid(6, 12, 1.0)
    sub = apply_sampling_pattern(arr, SamplingPattern.parse(pattern))
    assert quadrature_weights(sub).sum() <= quadrature_weights(arr).sum() + 1e-15


def test_rate_exceeding_nphi_rejected():
    arr = build_hemisphere_grid(2, 8, 1.0)
    with pytest.raises(ValueError):
        apply_sampling_pattern(arr, SamplingPattern("uniform", rate=9))


def test_pattern_parsing():
    assert SamplingPattern.parse("full").kind == "full"
    assert SamplingPattern.parse("uniform:6").rate == 6
    assert SamplingPattern.parse("limaz:120").arc_deg == 120.0
    assert SamplingPattern.parse("limel:0.333").fraction == pytest.approx(0.333)
    with pytest.raises(ValueError):
        SamplingPattern.parse("banana:3")
    with pytest.raises(ValueError):
        SamplingPattern.parse("uniform")
    with pytest.raises(ValueError):
        SamplingPattern("uniform", rate=0)
    with pytest.raises(ValueError):
        SamplingPattern("limaz", arc_deg=400.0)
    with pytest.raises(ValueError):
        SamplingPattern("limel", fraction=0.0)


def test_sensor_array_round_trip(tmp_path):
    arr = build_hemisphere_grid(3, 7, 0.11)
    arr = apply_sampling_pattern(arr, SamplingPattern.parse("uniform:2"))
    path = tmp_path / "geom.json"
    save_sensor_array(arr, path)
    back = load_sensor_array(path)
    assert back.n_theta == 3 and back.n_phi == 7
    assert back.radius_m == pytest.approx(0.11)
    assert np.array_equal(back.active, arr.active)
    assert np.allclose(back.positions, arr.positions, atol=1e-15)
    assert np.allclose(quadrature_weights(back), quadrature_weights(arr), rtol=1e-15)
    # Header is honest JSON with the declared fields.
    doc = json.loads(path.read_text())
    assert set(doc) == {"radius_m", "n_theta", "n_phi", "elements"}
