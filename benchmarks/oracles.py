"""Reference computations the benchmark checks the program against.

Everything here is written from the file formats and the physics, with
numpy only; nothing calls into ``pact``.  Each function answers one
question about an output and is cheap next to the work it checks.
"""

import json
import math

import numpy as np


# --------------------------------------------------------------------------
# File readers (formats as documented in the project README)


def read_volume(path):
    """(data float64 [nx, ny, nz], pitch_m, origin_m) from a .f32 volume."""
    with open(str(path) + ".json") as f:
        head = json.load(f)
    shape = (head["nx"], head["ny"], head["nz"])
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != shape[0] * shape[1] * shape[2]:
        raise ValueError(f"{path}: payload size does not match its header")
    data = raw.reshape(shape, order="F").astype(np.float64)
    return data, float(head["pitch_m"]), np.asarray(head["origin_m"], dtype=np.float64)


def read_spectra(path):
    """(values complex128 [n_det, n_freq], header dict) from a .c64 file."""
    with open(str(path) + ".json") as f:
        head = json.load(f)
    raw = np.fromfile(path, dtype="<c8")
    if raw.size != head["n_det"] * head["n_freq"]:
        raise ValueError(f"{path}: payload size does not match its header")
    return raw.reshape(head["n_det"], head["n_freq"]).astype(np.complex128), head


def read_positions(path):
    """Detector positions [n_elements, 3] from a sensor-array .json file."""
    with open(path) as f:
        doc = json.load(f)
    n = doc["n_theta"] * doc["n_phi"]
    angles = np.zeros((n, 2))
    for idx, theta, phi, _w, _act in doc["elements"]:
        angles[idx] = (theta, phi)
    th, ph = angles[:, 0], angles[:, 1]
    return doc["radius_m"] * np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)


def write_spectra(path, values, head):
    """Write a .c64 file in the documented layout (used for synthetic inputs)."""
    head = dict(head, n_det=int(values.shape[0]), n_freq=int(values.shape[1]))
    with open(str(path) + ".json", "w") as f:
        json.dump(head, f)
    with open(path, "wb") as f:
        f.write(np.ascontiguousarray(values, dtype="<c8").tobytes())


def read_trace_csv(path):
    with open(path) as f:
        lines = f.read().split()
    if lines[0] != "iteration,objective":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


# --------------------------------------------------------------------------
# Acoustic Green's sums


def voxel_coords(shape, pitch, origin):
    """Voxel centres [n, 3] in C order of an (nx, ny, nz) array."""
    axes = [origin[a] + pitch * np.arange(shape[a]) for a in range(3)]
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([c.ravel() for c in g], axis=1)


def green_sum(data, pitch, origin, det_pos, omega, c0, response):
    """psi[m, k] = H_k sum_v P_v exp(i w_k R / c0) / (4 pi R) dV, in float64.

    ``det_pos`` [n_det, 3], ``omega`` [n_k] and ``response`` [n_k]; only
    voxels with nonzero P contribute.
    """
    flat = data.ravel()
    idx = np.flatnonzero(flat)
    coords = voxel_coords(data.shape, pitch, origin)[idx]
    vals = flat[idx]
    out = np.empty((det_pos.shape[0], omega.size), dtype=np.complex128)
    for i, s in enumerate(det_pos):
        R = np.linalg.norm(coords - s, axis=1)
        g = vals * (pitch**3 / (4.0 * np.pi)) / R
        out[i] = np.exp(1j * np.outer(omega / c0, R)) @ g
    return out * response[None, :]


def spectra_omega(head):
    """Angular frequencies of the retained bins of a spectra header."""
    return 2.0 * np.pi * np.arange(1, head["n_freq"] + 1) * head["fs"] / head["n_t"]


def spectra_response(head):
    return np.asarray(head["response_re"]) + 1j * np.asarray(head["response_im"])


def rows_match(got, want):
    """Worst row error relative to the row's peak; complex64 storage gives ~1e-7."""
    err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
    return float(err.max())


# --------------------------------------------------------------------------
# Image metrics


def cosine(a, b):
    a, b = np.ravel(a), np.ravel(b)
    return float(a @ b / math.sqrt(float(a @ a) * float(b @ b)))


def psnr(ref, test):
    ref, test = np.ravel(ref), np.ravel(test)
    mse = float(np.mean((ref - test) ** 2))
    return 10.0 * math.log10(float(ref.max()) ** 2 / mse)


# --------------------------------------------------------------------------
# Spherical DISCO quadrature


def cap_area(r, radius_m):
    """Area of a geodesic cap of angular radius r on a sphere of radius_m."""
    return 2.0 * math.pi * (1.0 - math.cos(r)) * radius_m**2


def hemisphere(n_theta, n_phi, radius_m):
    """Unit vectors [n, 3], cell areas [n] and colatitudes [n] of the bowl grid.

    theta_i = (i + 1/2) (pi/2) / n_theta, phi_j = 2 pi j / n_phi, element
    index i * n_phi + j; a cell's area is R^2 dphi (cos th_lo - cos th_hi).
    """
    d_theta, d_phi = (math.pi / 2.0) / n_theta, 2.0 * math.pi / n_phi
    th = np.repeat((np.arange(n_theta) + 0.5) * d_theta, n_phi)
    ph = np.tile(np.arange(n_phi) * d_phi, n_theta)
    units = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
    lo = np.arange(n_theta) * d_theta
    ring = radius_m**2 * d_phi * (np.cos(lo) - np.cos(lo + d_theta))
    return units, np.repeat(ring, n_phi), th


def zernike4(rho, phi, r):
    """The first four OSA Zernike functions on the disk of radius r."""
    t = np.minimum(rho / r, 1.0)
    return np.stack([np.ones_like(t), t * np.sin(phi), t * np.cos(phi),
                     t * t * np.sin(2.0 * phi)], axis=-1)


def disco_rows(units, weights, theta, f, r, rows):
    """DISCO outputs at ``rows`` by direct quadrature over the geodesic ball.

    out[o, i] = sum_{c, l, j} theta[o, c, l] b_l(rho_ij, phi_ij) q_j f[c, j],
    with (rho, phi) the log-map polar coordinates of u_j about v_i and local
    east as phi = 0.  Returns ([C_out, len(rows)], smallest |rho - r| seen,
    which says how close any pair came to the support boundary).
    """
    out = np.empty((theta.shape[0], len(rows)))
    margin = math.inf
    for n, i in enumerate(rows):
        v = units[i]
        cos_rho = units @ v
        rho_all = np.arccos(np.clip(cos_rho, -1.0, 1.0))
        margin = min(margin, float(np.abs(rho_all - r).min()))
        nbr = np.flatnonzero(rho_all <= r)
        east = np.cross([0.0, 0.0, 1.0], v)
        east /= np.linalg.norm(east)
        north = np.cross(v, east)
        u = units[nbr]
        b = zernike4(rho_all[nbr], np.arctan2(u @ north, u @ east), r)
        kf = np.einsum("jl,j,cj->cl", b, weights[nbr], f[:, nbr])
        out[:, n] = np.einsum("ocl,cl->o", theta, kf)
    return out, margin
