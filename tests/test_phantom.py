import numpy as np
import pytest

from pact.phantom import (
    GrowthParams,
    VesselTree,
    default_tree_bbox,
    grow_vessel_tree,
    make_initial_pressure,
    rasterize_tree,
)
from pact.volume import GridSpec, Volume, load_volume, parse_grid_string, save_volume

BOX = (np.array([0.0, 0.0, 0.0]), np.array([0.032, 0.032, 0.032]))


def test_single_leaf_is_one_segment():
    tree = grow_vessel_tree(123, 1, BOX)
    assert len(tree.segments) == 1


def test_binary_tree_segment_count():
    tree = grow_vessel_tree(7, 16, BOX)
    assert len(tree.segments) == 31  # 2n - 1
    starts, ends, radii = tree.as_arrays()
    assert np.all(radii > 0)
    # Every segment stays inside the box.
    assert np.all(starts >= BOX[0] - 1e-12) and np.all(starts <= BOX[1] + 1e-12)
    assert np.all(ends >= BOX[0] - 1e-12) and np.all(ends <= BOX[1] + 1e-12)


def test_tree_connectivity():
    tree = grow_vessel_tree(5, 10, BOX)
    starts, ends, _ = tree.as_arrays()
    endpoints = {tuple(np.round(e, 12)) for e in ends}
    for s in starts[1:]:
        assert tuple(np.round(s, 12)) in endpoints


def test_murray_law_at_first_split():
    tree = grow_vessel_tree(11, 8, BOX, GrowthParams(min_radius_m=1e-9))
    _, _, radii = tree.as_arrays()
    r_parent = radii[0]
    # Depth-first order: children of the root are segments 1 and 1 + left subtree size.
    children = sorted(radii[1:], reverse=True)[:2]
    # The two largest radii after the root are its children.
    assert children[0] ** 3 + children[1] ** 3 == pytest.approx(r_parent**3, rel=1e-9)
    ratio = children[0] ** 3 / r_parent**3
    assert 0.4 <= ratio <= 0.6


def test_determinism_in_seed():
    a = grow_vessel_tree(42, 12, BOX)
    b = grow_vessel_tree(42, 12, BOX)
    assert a.segments == b.segments
    c = grow_vessel_tree(43, 12, BOX)
    assert a.segments != c.segments


def test_invalid_tree_arguments():
    with pytest.raises(ValueError):
        grow_vessel_tree(0, 0, BOX)
    with pytest.raises(ValueError):
        grow_vessel_tree(0, 4, (BOX[1], BOX[0]))


def test_empty_tree_rasterizes_to_zero():
    grid = GridSpec((16, 16, 16), 1e-3)
    vol = make_initial_pressure(VesselTree([]), grid, sigma_vox=1.0)
    assert not np.any(vol.data)


def test_capsule_voxel_count_matches_analytic_volume():
    grid = GridSpec((48, 48, 48), 1e-3)
    pitch = grid.pitch_m
    # Generic position: no voxel sits exactly on the capsule boundary.
    radius = 2.3 * pitch
    a = np.array([-0.015, 0.00037, 0.00021])
    b = np.array([0.015, 0.00037, 0.00021])
    tree = VesselTree([(tuple(a), tuple(b), radius)])
    vol = make_initial_pressure(tree, grid, p0_scale=1.0, sigma_vox=0.0)
    assert vol.data.max() == 1.0
    assert set(np.unique(vol.data)) <= {0.0, 1.0}
    length = np.linalg.norm(b - a)
    capsule = np.pi * radius**2 * length + 4.0 / 3.0 * np.pi * radius**3
    count = np.count_nonzero(vol.data)
    assert count == pytest.approx(capsule / pitch**3, rel=0.10)


def test_smoothing_preserves_mass():
    grid = GridSpec((32, 32, 32), 1e-3)
    # Tree well inside the grid so boundary truncation loses no mass.
    tree = grow_vessel_tree(3, 6, ((-0.008,) * 3, (0.008,) * 3))
    binary = rasterize_tree(tree, grid)
    from scipy.ndimage import gaussian_filter

    smoothed = gaussian_filter(binary, sigma=1.0, mode="constant", truncate=3.0)
    assert smoothed.sum() == pytest.approx(binary.sum(), rel=1e-3)


def test_peak_equals_scale_and_nonnegative():
    grid = GridSpec((24, 24, 24), 1e-3)
    tree = grow_vessel_tree(9, 5, default_tree_bbox(grid))
    vol = make_initial_pressure(tree, grid, p0_scale=2.5, sigma_vox=1.0)
    assert vol.data.max() == pytest.approx(2.5, rel=1e-6)
    assert vol.data.min() >= 0.0


def test_smoothing_never_raises_the_peak():
    grid = GridSpec((24, 24, 24), 1e-3)
    tree = grow_vessel_tree(4, 4, default_tree_bbox(grid))
    binary = rasterize_tree(tree, grid)
    from scipy.ndimage import gaussian_filter

    last = binary.max()
    for sigma in (0.5, 1.0, 2.0):
        peak = gaussian_filter(binary, sigma=sigma, mode="constant", truncate=3.0).max()
        assert peak <= last + 1e-12
        last = peak


def test_rasterization_translation_consistency():
    grid = GridSpec((32, 32, 32), 1e-3)
    seg = ((-0.0052, 0.0003, 0.0001), (0.0071, 0.0003, 0.0001), 0.0021)
    base = rasterize_tree(VesselTree([seg]), grid)
    shifted_seg = tuple(
        (tuple(np.asarray(p) + [grid.pitch_m, 0, 0]) if i < 2 else p)
        for i, p in enumerate(seg)
    )
    shifted = rasterize_tree(VesselTree([shifted_seg]), grid)
    assert np.array_equal(shifted[1:, :, :], base[:-1, :, :])


def test_out_of_grid_tree_warns_and_clips():
    grid = GridSpec((16, 16, 16), 1e-3)
    tree = VesselTree([((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), 0.002)])
    with pytest.warns(UserWarning):
        vol = make_initial_pressure(tree, grid, sigma_vox=0.0)
    assert vol.data.max() == 1.0  # clipped, not an error


def test_volume_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vol = Volume(rng.random((5, 6, 7)).astype(np.float32), 4e-4, (0.001, -0.002, 0.0))
    path = str(tmp_path / "v.f32")
    save_volume(vol, path)
    back = load_volume(path)
    assert np.array_equal(back.data, vol.data)
    assert back.pitch_m == vol.pitch_m
    assert back.origin_m == vol.origin_m
    # x varies fastest on disk.
    raw = np.fromfile(path, dtype="<f4")
    assert raw[0] == vol.data[0, 0, 0]
    assert raw[1] == vol.data[1, 0, 0]
    # Float64 data is held as is in memory and rounded to float32 on disk.
    wide = Volume(rng.standard_normal((5, 6, 7)), 4e-4)
    assert wide.data.dtype == np.float64
    save_volume(wide, path)
    assert np.array_equal(load_volume(path).data, wide.data.astype(np.float32))


def test_parse_grid_string():
    assert parse_grid_string("64x64x64") == (64, 64, 64)
    assert parse_grid_string("48") == (48, 48, 48)
    assert parse_grid_string("2x3x4") == (2, 3, 4)
    with pytest.raises(ValueError):
        parse_grid_string("8x8")
    with pytest.raises(ValueError):
        parse_grid_string("axbxc")
