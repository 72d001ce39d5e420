"""Cartesian scalar volumes (initial pressure, reconstructions) and their file format.

In memory the data array is float64 with shape ``(nx, ny, nz)``, indexed
``data[ix, iy, iz]``.  On disk it is raw little-endian float32 (``f32le``)
with x varying fastest, plus a JSON sidecar ``<file>.json`` holding ``{nx,
ny, nz, pitch_m, origin_m, dtype, order}``; :func:`save_volume` rounds the
values to float32.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryMismatchError, header_field, positive


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a voxel grid: shape, pitch and the center of voxel (0,0,0)."""

    shape: tuple
    pitch_m: float
    origin_m: tuple = None

    def __post_init__(self):
        if len(self.shape) != 3 or any(int(n) < 1 for n in self.shape):
            raise ValueError(f"invalid grid shape {self.shape}")
        positive(self.pitch_m, "voxel pitch")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if self.origin_m is None:
            # Center the grid on the coordinate origin.
            org = tuple(-(n - 1) / 2.0 * self.pitch_m for n in self.shape)
            object.__setattr__(self, "origin_m", org)
        else:
            object.__setattr__(self, "origin_m", tuple(float(v) for v in self.origin_m))

    @property
    def n_voxels(self):
        nx, ny, nz = self.shape
        return nx * ny * nz

    def axis_coords(self, axis):
        """Voxel-center coordinates along one axis (m)."""
        return self.origin_m[axis] + self.pitch_m * np.arange(self.shape[axis])

    def voxel_coords(self):
        """All voxel-center positions, shape (n_voxels, 3), C-order flattening."""
        x, y, z = (self.axis_coords(a) for a in range(3))
        gx, gy, gz = np.meshgrid(x, y, z, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    def bounding_box(self):
        """(lo, hi) corners of the voxel-center bounding box, each a 3-array."""
        lo = np.asarray(self.origin_m)
        hi = lo + self.pitch_m * (np.asarray(self.shape) - 1)
        return lo, hi

    def corners(self):
        """The 8 corners of the voxel-center bounding box, shape (8, 3)."""
        lo, hi = self.bounding_box()
        return np.array([[x, y, z] for x in (lo[0], hi[0])
                         for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])

    def zeros(self):
        return Volume(np.zeros(self.shape), self.pitch_m, self.origin_m)


@dataclass
class Volume:
    """3D scalar field on a regular grid; ``data`` is float64, shape (nx, ny, nz)."""

    data: np.ndarray
    pitch_m: float
    origin_m: tuple = None

    grid: GridSpec = field(init=False, repr=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError("volume data must be a 3D array")
        self.grid = GridSpec(self.data.shape, self.pitch_m, self.origin_m)
        self.origin_m = self.grid.origin_m

    @property
    def shape(self):
        return self.data.shape


def save_volume(vol, path):
    """Write the data rounded to raw f32le (x fastest) plus the JSON sidecar header."""
    nx, ny, nz = vol.shape
    with open(path, "wb") as f:
        # F-order bytes of an (x, y, z) array put x fastest on disk.
        f.write(np.ascontiguousarray(vol.data.ravel(order="F"), dtype="<f4").tobytes())
    header = {
        "nx": nx,
        "ny": ny,
        "nz": nz,
        "pitch_m": float(vol.pitch_m),
        "origin_m": [float(v) for v in vol.origin_m],
        "dtype": "f32le",
        "order": "x-fastest",
    }
    with open(sidecar_path(path), "w") as f:
        json.dump(header, f, indent=1, sort_keys=True)
        f.write("\n")


def load_volume(path):
    """Read a volume written by :func:`save_volume` (float32 values held as float64)."""
    side = sidecar_path(path)
    with open(side) as f:
        header = json.load(f)
    shape = tuple(header_field(header, key, "int", side) for key in ("nx", "ny", "nz"))
    if header.get("dtype") != "f32le" or header.get("order") != "x-fastest":
        raise GeometryMismatchError(f"{side}: unsupported dtype/order")
    pitch = float(header_field(header, "pitch_m", "number", side))
    if pitch <= 0:
        raise GeometryMismatchError(f"{side}: pitch_m must be positive, got {pitch}")
    origin = header_field(header, "origin_m", "numbers", side)
    if len(origin) != 3:
        raise GeometryMismatchError(f"{side}: origin_m must hold 3 numbers")
    n = shape[0] * shape[1] * shape[2]
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != n:
        raise GeometryMismatchError(
            f"{path}: payload has {raw.size} values, header promises {n}"
        )
    if not np.all(np.isfinite(raw)):
        raise GeometryMismatchError(f"{path}: payload holds non-finite values")
    data = raw.reshape(shape, order="F")
    return Volume(data, pitch, tuple(origin))


def sidecar_path(path):
    return str(path) + ".json"


def max_intensity_projection(vol, axis=2):
    """Max-intensity projection along one axis as a 2D float array."""
    return np.max(vol.data, axis=axis)


def save_pgm(image, path):
    """Write a 2D array as an 8-bit binary portable graymap (P5)."""
    img = np.asarray(image, dtype=np.float64)
    lo, hi = float(img.min()), float(img.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pix = np.clip((img - lo) * scale, 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode("ascii"))
        f.write(pix.tobytes())


def parse_grid_string(text):
    """Parse CLI grid syntax '64x64x64' (or '64' for a cube) into a shape tuple."""
    parts = text.lower().split("x")
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ValueError(f"bad grid spec '{text}': expected NXxNYxNZ")
    try:
        shape = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad grid spec '{text}': {exc}") from None
    if any(n < 1 for n in shape):
        raise ValueError(f"bad grid spec '{text}': dimensions must be >= 1")
    return shape
