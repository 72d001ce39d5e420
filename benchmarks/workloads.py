"""The four benchmark workloads.

Each workload does its one-time work in ``setup(r)``, one timed unit of work
per ``item(k)``, and checks every item's output in ``check`` against
``oracles`` or against properties the method must have.  A run sets up
several times so that set-up time is a median; each set-up makes inputs
from its own seeds, and items cycle over all of them, so that the quality
figures average over more phantoms at no extra cost.  Inputs depend only
on the run seed, and every item of a workload does the same kind of work.
"""

import contextlib
import json
import math
import os
import shutil

import numpy as np

# Layers are called through their modules so that the traced run's wrappers,
# which rebind module attributes, see the benchmark's own library calls too.
from pact import cli, forward, geometry, neuralop, phantom, recon_ubp
from pact.forward import AcousticMedium, Spectra
from pact.neuralop import DiscoLayer
from pact.recon_ubp import UbpConfig
from pact.volume import GridSpec, Volume

import oracles

# c04: the acceptance suite's phantom-batch size; c13: its determinism size.
C04 = {"grid": 48, "pitch": 5e-4, "radius": 0.045, "ntheta": 10, "nphi": 36,
       "nf": 40, "center": 8e5, "leaves": 12}
C13 = {"grid": 24, "pitch": 1e-3, "radius": 0.045, "ntheta": 8, "nphi": 24,
       "nf": 24, "center": 6e5, "leaves": 8}

FULL = {"c04": C04, "c13": C13, "iters": 20,
        "grids": ((32, 64), (64, 128)), "mask": (8, 64), "disco_rows": 16}
# Seconds-scale sizes for the smoke test; every check still applies.
TOY = {"c04": {"grid": 16, "pitch": 1e-3, "radius": 0.045, "ntheta": 6, "nphi": 24,
               "nf": 24, "center": 6e5, "leaves": 4},
       "c13": {"grid": 8, "pitch": 2e-3, "radius": 0.045, "ntheta": 4, "nphi": 8,
               "nf": 8, "center": 3e5, "leaves": 3},
       "iters": 3,
       "grids": ((16, 32), (32, 64)), "mask": (4, 16), "disco_rows": 4}

PATTERNS = ("full", "uniform:6", "limaz:120", "limel:0.5")
SWEEP_INPUTS = 2    # phantoms simulated per ubp_sweep set-up
MEDIUM = AcousticMedium()


def pact(*argv):
    """One whole ``pact`` CLI call, in this process."""
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"pact {argv[0]} exited with code {code}")


def grid_args(size):
    n = size["grid"]
    return ["--grid", f"{n}x{n}x{n}", "--pitch", size["pitch"]]


def pipeline_args(size):
    return grid_args(size) + [
        "--radius", size["radius"], "--ntheta", size["ntheta"], "--nphi", size["nphi"],
        "--nf", size["nf"], "--center", size["center"], "--leaves", size["leaves"]]


def verdict(name, ok, detail):
    """One check's result: (name, passed, what was measured)."""
    return (name, bool(ok), detail)


class Workload:
    """Shared plumbing: a work directory, seeds, items done and their scores."""

    def __init__(self, seed, workdir, size, recorder=None):
        self.seed = seed
        self.dir = workdir
        self.size = size
        self.recorder = recorder
        self.inputs = []    # what the set-ups made, one entry per phantom
        self.done = []      # (k, slot directory) of every item that completed
        self.quality = []   # (cosine, psnr) of every distinct reconstruction scored

    def input_seed(self, j):
        return self.seed * 1000 + j

    def fresh_dir(self, *parts):
        path = os.path.join(self.dir, *parts)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def slot(self):
        return self.fresh_dir("items", str(len(self.done)))

    @contextlib.contextmanager
    def tagged(self, tag):
        """Label spans recorded inside the block (traced run only)."""
        if self.recorder is None:
            yield
            return
        old, self.recorder.tag = self.recorder.tag, tag
        try:
            yield
        finally:
            self.recorder.tag = old

    def new_input(self):
        """Seed and directory of the next set-up input."""
        j = len(self.inputs)
        return self.input_seed(j), self.fresh_dir("setup", str(j))


class PipelineUbp(Workload):
    """One ``pact pipeline --recon ubp --pattern full`` call per item, fresh seed each."""

    name = "pipeline_ubp"

    def setup(self, r):
        """Nothing to prepare: each item is a whole pipeline."""

    def item(self, k):
        out = self.slot()
        pact("pipeline", "--recon", "ubp", "--pattern", "full", "--threads", 1,
             "--seed", self.input_seed(k), "--out-dir", out, *pipeline_args(self.size["c04"]))
        self.done.append((k, out))

    def check(self):
        row_err, metric_err = 0.0, 0.0
        for k, out in self.done:
            psi, head = oracles.read_spectra(os.path.join(out, "psi.c64"))
            gt, pitch, origin = oracles.read_volume(os.path.join(out, "gt.f32"))
            rec, _, _ = oracles.read_volume(os.path.join(out, "recon.f32"))
            rows = green_rows(self.input_seed(k), psi.shape[0])
            pos = oracles.read_positions(os.path.join(out, "geom.json"))
            ids = np.asarray(head["detector_ids"])[rows]
            want = oracles.green_sum(gt, pitch, origin, pos[ids], oracles.spectra_omega(head),
                                     head["c0"], oracles.spectra_response(head))
            row_err = max(row_err, oracles.rows_match(psi[rows], want))
            with open(os.path.join(out, "report.json")) as f:
                report = json.load(f)
            cos, db = oracles.cosine(gt, rec), oracles.psnr(gt, rec)
            metric_err = max(metric_err, abs(report["cosine"] - cos) / abs(cos),
                             abs(report["psnr_db"] - db) / abs(db))
            self.quality.append((cos, db))
        return [
            verdict("spectra-rows-match-green-sum", row_err < 1e-6,
                    f"worst row error {row_err:.2e} of the row peak over {len(self.done)} items"),
            verdict("report-matches-recomputed-metrics", metric_err < 1e-9,
                    f"worst relative difference {metric_err:.2e}"),
        ]


def green_rows(seed, n_det):
    """The two detector rows of an item that the Green's-sum check recomputes."""
    return np.sort(np.random.default_rng(seed).choice(n_det, size=2, replace=False))


class UbpSweep(Workload):
    """Four ``pact ubp --threads 2`` calls per item, one per sampling pattern."""

    name = "ubp_sweep"

    def setup(self, r):
        size = self.size["c04"]
        for _ in range(SWEEP_INPUTS):
            seed, d = self.new_input()
            pact("phantom", "--seed", seed, "--leaves", size["leaves"],
                 "--out", os.path.join(d, "gt.f32"), *grid_args(size))
            pact("geom", "--ntheta", size["ntheta"], "--nphi", size["nphi"],
                 "--radius", size["radius"], "--out", os.path.join(d, "geom.json"))
            pact("forward", "--vol", os.path.join(d, "gt.f32"),
                 "--geom", os.path.join(d, "geom.json"), "--nf", size["nf"],
                 "--center", size["center"], "--out", os.path.join(d, "psi.c64"))
            for i, pattern in enumerate(PATTERNS):
                pact("subsample", "--geom", os.path.join(d, "geom.json"), "--pattern", pattern,
                     "--geom-out", os.path.join(d, f"geom{i}.json"),
                     "--rf", os.path.join(d, "psi.c64"), "--out", os.path.join(d, f"psi{i}.c64"))
            self.inputs.append(d)

    def backproject(self, src, i, out, threads=2):
        pact("ubp", "--rf", os.path.join(src, f"psi{i}.c64"),
             "--geom", os.path.join(src, f"geom{i}.json"), "--threads", threads,
             "--out", out, *grid_args(self.size["c04"]))

    def item(self, k):
        out = self.slot()
        src = self.inputs[k % len(self.inputs)]
        for i in range(len(PATTERNS)):
            self.backproject(src, i, os.path.join(out, f"rec{i}.f32"))
        self.done.append((k, out))

    def check(self):
        results = [self.check_threads(), self.check_two_point()]
        first, repeat_ok = {}, True
        for k, out in self.done:
            j = k % len(self.inputs)
            for i in range(len(PATTERNS)):
                with open(os.path.join(out, f"rec{i}.f32"), "rb") as f:
                    data = f.read()
                repeat_ok &= first.setdefault((j, i), data) == data
        results.append(verdict("repeat-items-bitwise-identical", repeat_ok,
                               f"{len(self.done)} items over {len(self.inputs)} inputs"))
        ordered, worst = True, math.inf
        for j in sorted({j for j, _ in first}):
            gt, _, _ = oracles.read_volume(os.path.join(self.inputs[j], "gt.f32"))
            scores = []
            for i in range(len(PATTERNS)):
                rec = np.frombuffer(first[(j, i)], dtype="<f4").astype(np.float64)
                rec = rec.reshape(gt.shape, order="F")
                scores.append(oracles.cosine(gt, rec))
                self.quality.append((scores[-1], oracles.psnr(gt, rec)))
            ordered &= all(scores[0] >= s for s in scores[1:])
            worst = min(worst, scores[0] - max(scores[1:]))
        results.append(verdict("full-beats-every-subsampled-pattern", ordered,
                               f"smallest cosine margin {worst:.4f}"))
        return results

    def check_threads(self):
        k, out = self.done[0]
        src = self.inputs[k % len(self.inputs)]
        probe = self.fresh_dir("threads")
        with self.tagged(("threads", 0)):
            for threads in (1, 2):
                self.backproject(src, 0, os.path.join(probe, f"t{threads}.f32"), threads)
        blobs = []
        for path in (os.path.join(out, "rec0.f32"), os.path.join(probe, "t1.f32"),
                     os.path.join(probe, "t2.f32")):
            with open(path, "rb") as f:
                blobs.append(f.read())
        return verdict("threads-2-bitwise-equals-threads-1", blobs[0] == blobs[1] == blobs[2],
                       "item output vs --threads 1 and --threads 2 on the same input")

    def check_two_point(self):
        """Back-project two point sources; the peak must sit on the stronger one."""
        size = self.size["c04"]
        src = self.inputs[0]
        n = size["grid"]
        rng = np.random.default_rng(self.seed)
        margin = n // 4
        strong = weak = (0, 0, 0)
        while np.linalg.norm(np.subtract(strong, weak)) < n / 3:   # keep the blobs apart
            strong, weak = (tuple(int(v) for v in rng.integers(margin, n - margin, 3))
                            for _ in range(2))
        vol = np.zeros((n, n, n))
        vol[weak] = 1.0
        vol[strong] = 2.0
        _, head = oracles.read_spectra(os.path.join(src, "psi.c64"))
        pos = oracles.read_positions(os.path.join(src, "geom.json"))
        origin = np.full(3, -(n - 1) / 2.0 * size["pitch"])
        psi = oracles.green_sum(vol, size["pitch"], origin, pos[head["detector_ids"]],
                                oracles.spectra_omega(head), head["c0"],
                                oracles.spectra_response(head))
        d = self.fresh_dir("two_point")
        oracles.write_spectra(os.path.join(d, "psi.c64"), psi, head)
        worst = 0
        for i, pattern in enumerate(PATTERNS):
            pact("subsample", "--geom", os.path.join(src, "geom.json"), "--pattern", pattern,
                 "--geom-out", os.path.join(d, f"geom{i}.json"),
                 "--rf", os.path.join(d, "psi.c64"), "--out", os.path.join(d, f"psi{i}.c64"))
            self.backproject(d, i, os.path.join(d, f"rec{i}.f32"))
            rec, _, _ = oracles.read_volume(os.path.join(d, f"rec{i}.f32"))
            peak = np.unravel_index(int(np.argmax(rec)), rec.shape)
            worst = max(worst, int(np.max(np.abs(np.subtract(peak, strong)))))
        return verdict("two-point-peak-on-stronger-source", worst <= 1,
                       f"worst peak offset {worst} voxel over {len(PATTERNS)} patterns")


class Fista(Workload):
    """One ``pact iter --warm ubp --trace`` call per item on set-up spectra."""

    name = "fista"

    def setup(self, r):
        seed, d = self.new_input()
        pact("pipeline", "--recon", "ubp", "--pattern", "uniform:2", "--threads", 1,
             "--seed", seed, "--out-dir", d, *pipeline_args(self.size["c13"]))
        self.inputs.append(d)

    def item(self, k):
        out = self.slot()
        src = self.inputs[k % len(self.inputs)]
        pact("iter", "--rf", os.path.join(src, "psi.c64"), "--geom", os.path.join(src, "geom.json"),
             "--warm", "ubp", "--iters", self.size["iters"], "--threads", 1,
             "--trace", os.path.join(out, "trace.csv"), "--out", os.path.join(out, "rec.f32"),
             *grid_args(self.size["c13"]))
        self.done.append((k, out))

    def check(self):
        rise, low, margin = -math.inf, math.inf, math.inf
        for k, out in self.done:
            src = self.inputs[k % len(self.inputs)]
            trace = oracles.read_trace_csv(os.path.join(out, "trace.csv"))
            # The solver accepts a step up to 1e-9 of the starting objective.
            rise = max(rise, float(np.max(np.diff(trace) / trace[0])))
            rec, _, _ = oracles.read_volume(os.path.join(out, "rec.f32"))
            gt, _, _ = oracles.read_volume(os.path.join(src, "gt.f32"))
            warm, _, _ = oracles.read_volume(os.path.join(src, "recon.f32"))
            low = min(low, float(rec.min()))
            cos = oracles.cosine(gt, rec)
            margin = min(margin, cos - oracles.cosine(gt, warm))
            self.quality.append((cos, oracles.psnr(gt, rec)))
        dot = self.dot_product_error()
        return [
            verdict("objective-trace-non-increasing", rise <= 1e-9,
                    f"largest step {rise:.2e} of the starting objective"),
            verdict("reconstruction-nonnegative", low >= 0.0, f"minimum voxel {low:.3e}"),
            verdict("beats-its-ubp-warm-start", margin > 0.0,
                    f"smallest cosine gain {margin:.4f}"),
            verdict("forward-adjoint-dot-product", dot < 1e-6, f"relative error {dot:.2e}"),
        ]

    def dot_product_error(self):
        """<A x, y> against <x, A^H y> at the workload's geometry and chain."""
        src = self.inputs[0]
        psi, chain, _ = forward.load_spectra(os.path.join(src, "psi.c64"))
        sensors = geometry.load_sensor_array(os.path.join(src, "geom.json"))
        size = self.size["c13"]
        grid = GridSpec((size["grid"],) * 3, size["pitch"])
        rng = np.random.default_rng(self.seed)
        x = Volume(rng.random(grid.shape).astype(np.float32), grid.pitch_m)
        y = rng.standard_normal(psi.values.shape) + 1j * rng.standard_normal(psi.values.shape)
        ax = forward.forward_operator(x, sensors, MEDIUM, chain).values
        aty = forward.adjoint_operator(Spectra(y, chain.freq_hz, psi.detector_ids), sensors, MEDIUM,
                               chain, grid).data.astype(np.float64)
        lhs = float(np.sum(ax.real * y.real + ax.imag * y.imag))
        rhs = float(np.sum(x.data.astype(np.float64) * aty))
        return abs(lhs - rhs) / abs(lhs)


class NeuralOp(Workload):
    """DISCO layer, FNO layer and masked physics residual on two sensor grids.

    Each set-up simulates one phantom's spectra on both grids and builds the
    DISCO matrices anew; the candidate volume the residual scores is a UBP
    reconstruction from the coarser grid's spectra.
    """

    name = "neuralop"

    def setup(self, r):
        size = self.size["c13"]
        nf = size["nf"]
        grid = GridSpec((size["grid"],) * 3, size["pitch"])
        self.grids = None   # drop the previous matrices before building anew
        self.basis = neuralop.make_kernel_basis("zernike", 4, 0.1 * math.pi)
        rng = np.random.default_rng(self.seed)
        channels = 2 * nf   # Re and Im of each bin
        self.theta = rng.standard_normal((channels, channels, self.basis.L)) / channels
        tree = phantom.grow_vessel_tree(self.input_seed(len(self.inputs)), size["leaves"],
                                        phantom.default_tree_bbox(grid))
        gt = phantom.make_initial_pressure(tree, grid)
        grids, spectra, candidate = [], [], None
        for n_theta, n_phi in self.size["grids"]:
            sensors = geometry.build_hemisphere_grid(n_theta, n_phi, size["radius"])
            chain = forward.default_receive_chain(sensors, grid, MEDIUM, n_freq=nf,
                                                  center_hz=size["center"], derivative=True)
            psi = forward.forward_operator(gt, sensors, MEDIUM, chain)
            if candidate is None:
                traces = recon_ubp.ubp_filter(forward.to_time_domain(psi, chain),
                                              1.0 / chain.fs)
                candidate = recon_ubp.ubp_reconstruct(traces, sensors, grid, UbpConfig(),
                                                      fs=chain.fs)
                self.fno = neuralop.fno_random_layer(2, (n_theta, n_phi, nf), (4, 4, 8),
                                                     self.seed)
            mats = neuralop.build_disco_matrices(sensors, sensors, self.basis)
            mask = forward.sample_physics_mask(*self.size["mask"], chain, sensors, self.seed)
            grids.append({"sensors": sensors, "chain": chain, "mask": mask,
                          "layer": DiscoLayer(self.basis, mats, self.theta)})
            spectra.append(psi)
        self.grids = grids
        self.inputs.append({"gt": gt, "psi": spectra, "candidate": candidate})

    def sample(self, n, k):
        """Item k's spectra on grid n: its phantom's plus seeded noise 40 dB down."""
        psi = self.inputs[k % len(self.inputs)]["psi"][n]
        rng = np.random.default_rng([self.seed, k, n])
        sigma = math.sqrt(psi.energy() / psi.values.size * 1e-4 / 2.0)
        shape = psi.values.shape
        return psi.values + sigma * (rng.standard_normal(shape)
                                     + 1j * rng.standard_normal(shape))

    def checked_rows(self, n, k):
        """Output points of item k on grid n that the quadrature check recomputes."""
        rng = np.random.default_rng([self.seed, k, n, 1])
        return rng.choice(self.grids[n]["layer"].n_out, self.size["disco_rows"], replace=False)

    def item(self, k):
        candidate = self.inputs[k % len(self.inputs)]["candidate"]
        results = []
        for n, g in enumerate(self.grids):
            sensors, chain = g["sensors"], g["chain"]
            values = self.sample(n, k)
            out = neuralop.disco_apply(g["layer"], np.concatenate([values.real.T,
                                                                   values.imag.T]))
            nf = chain.n_freq
            fno_in = np.stack([out[:nf].T, out[nf:].T]).reshape(
                2, sensors.n_theta, sensors.n_phi, nf)
            neuralop.fno_layer_apply(self.fno, fno_in)
            spectra = Spectra(values, chain.freq_hz, sensors.active_indices)
            residual = forward.physics_residual(candidate, spectra, g["mask"], sensors,
                                                MEDIUM, chain)
            # Keep what the checks read: the sampled rows, and one FNO input.
            results.append({"rows": out[:, self.checked_rows(n, k)], "residual": residual,
                            "fno_in": fno_in if not self.done else None})
        self.done.append((k, results))

    def check(self):
        r = self.basis.r
        cap_err, ident_err, self_res, res_err, row_err = 0.0, 0.0, 0.0, 0.0, 0.0
        margin = math.inf
        for n, g in enumerate(self.grids):
            sensors, chain, mask = g["sensors"], g["chain"], g["mask"]
            units, areas, theta = oracles.hemisphere(sensors.n_theta, sensors.n_phi,
                                                     sensors.radius_m)
            # A constant kernel sums cell areas over the ball: the cap area.
            const = np.zeros((1, 1, self.basis.L))
            const[0, 0, 0] = 1.0
            layer = DiscoLayer(self.basis, g["layer"].matrices, const)
            ball = neuralop.disco_apply(layer, np.ones((1, layer.n_in)))[0]
            inner = (theta >= r) & (theta <= math.pi / 2 - r)
            target = oracles.cap_area(r, sensors.radius_m)
            cap_err = max(cap_err, abs(float(ball[inner].mean()) / target - 1.0))

            pred = []   # masked Green's sum of each input's candidate
            for inp in self.inputs:
                psi = inp["psi"][n]
                truth = forward.physics_residual(inp["gt"], psi, mask, sensors, MEDIUM, chain)
                self_res = max(self_res, truth / psi.energy())
                cand = inp["candidate"]
                pred.append(oracles.green_sum(
                    cand.data.astype(np.float64), cand.pitch_m, np.asarray(cand.origin_m),
                    units[mask.sensor_indices] * sensors.radius_m,
                    chain.omega[mask.mode_indices], MEDIUM.c0,
                    chain.response[mask.mode_indices]))
            ident = neuralop.fno_identity_layer(2, (sensors.n_theta, sensors.n_phi,
                                                    chain.n_freq))
            for k, results in self.done:
                res = results[n]
                values = self.sample(n, k)
                ref = values[np.ix_(mask.sensor_indices, mask.mode_indices)]
                want = float(np.sum(np.abs(pred[k % len(pred)] - ref) ** 2))
                res_err = max(res_err, abs(res["residual"] - want) / want)
                if res["fno_in"] is not None:
                    back = neuralop.fno_layer_apply(ident, res["fno_in"])
                    ident_err = max(ident_err, float(np.abs(back - res["fno_in"]).max()
                                                     / np.abs(res["fno_in"]).max()))
                features = np.concatenate([values.real.T, values.imag.T])
                want_rows, gap = oracles.disco_rows(units, areas, self.theta, features, r,
                                                    self.checked_rows(n, k))
                margin = min(margin, gap)
                row_err = max(row_err, float(np.abs(res["rows"] - want_rows).max()
                                             / np.abs(want_rows).max()))
        for inp in self.inputs:
            gt = inp["gt"].data.astype(np.float64)
            cand = inp["candidate"].data.astype(np.float64)
            self.quality.append((oracles.cosine(gt, cand), oracles.psnr(gt, cand)))
        return [
            verdict("constant-kernel-cap-area", cap_err < 0.02,
                    f"worst ball-average error {cap_err:.4f} over {len(self.grids)} grids"),
            verdict("fno-identity-returns-input", ident_err < 1e-10,
                    f"relative error {ident_err:.2e}"),
            verdict("true-volume-residual-vanishes", self_res < 1e-10,
                    f"worst residual {self_res:.2e} of the spectra energy"),
            verdict("candidate-residual-matches-green-sum", res_err < 1e-9,
                    f"worst relative error {res_err:.2e}"),
            # arccos near the ball centre limits agreement to about sqrt(eps).
            verdict("disco-rows-match-direct-quadrature", row_err < 1e-6 and margin > 1e-9,
                    f"worst relative error {row_err:.2e}; closest pair to the ball edge "
                    f"{margin:.1e} rad"),
        ]


WORKLOADS = {w.name: w for w in (PipelineUbp, UbpSweep, Fista, NeuralOp)}
