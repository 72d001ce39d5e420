"""Spans around pact's layers for the traced benchmark run.

``install`` rebinds every public function of every public ``pact`` module
in each ``pact`` module whose namespace holds it, so that calls between
modules (``pact.cli.forward_operator``) and within one module
(``pact.recon_iter.estimate_op_norm``) both pass through a wrapper.  The
program itself is not changed: ``uninstall`` puts the originals back, and
the untraced runs never call ``install``.

A span keeps its name, its parent span, the tag of the benchmark phase it
ran in, its duration and the problem size read from the call's arguments.
Spans stay in memory until the run ends.
"""

import functools
import inspect
import statistics
import sys
import threading
import time

import numpy as np


def _active(sensors):
    return int(np.count_nonzero(sensors.active))


def _n_voxels(grid):
    return grid.grid.n_voxels if hasattr(grid, "grid") else grid.n_voxels


def _fista_steps(a, result):
    steps = np.diff(result[1])
    return {"accepted": int(np.count_nonzero(steps < 0)), "steps": int(steps.size)}


# Problem size of one call, from its bound arguments and its result.
_SIZES = {
    "forward.forward_operator": lambda a, r: {
        "work": np.count_nonzero(a["p"].data) * _active(a["sensors"]) * a["chain"].n_freq},
    "forward.adjoint_operator": lambda a, r: {
        "work": _n_voxels(a["grid"]) * a["psi"].n_det * a["psi"].n_freq},
    "forward.physics_residual": lambda a, r: {
        "work": a["mask"].sensor_indices.size * a["mask"].mode_indices.size
        * np.count_nonzero(a["p_hat"].data)},
    "recon_ubp.ubp_reconstruct": lambda a, r: {
        "work": _n_voxels(a["grid"]) * _active(a["sensors"]), "threads": a["threads"]},
    "neuralop.build_disco_matrices": lambda a, r: {"work": sum(m.nnz for m in r)},
    "neuralop.disco_apply": lambda a, r: {
        "work": sum(m.nnz for m in a["layer"].matrices) * a["layer"].c_in},
    "recon_iter.fista_reconstruct": _fista_steps,
}

# Public helpers whose time belongs to the layer that calls them.
_FOLD = {
    "phantom.rasterize_tree": "phantom.make_initial_pressure",
    "recon_iter.fista_solve": "recon_iter.fista_reconstruct",
    "metrics.cosine_similarity": "metrics.compare_volumes",
    "metrics.psnr": "metrics.compare_volumes",
    "metrics.nmse": "metrics.compare_volumes",
    "neuralop.eval_kernel_basis": "neuralop.build_disco_matrices",
    "forward.save_spectra": "forward.spectra_io",
    "forward.load_spectra": "forward.spectra_io",
    "volume.save_volume": "volume.io",
    "volume.load_volume": "volume.io",
    "volume.sidecar_path": "volume.io",
    "geometry.save_sensor_array": "geometry.io",
    "geometry.load_sensor_array": "geometry.io",
}

_OPERATORS = ("forward.forward_operator", "forward.adjoint_operator")


def layer_of(name):
    if name.startswith("cli."):
        return "cli"
    return _FOLD.get(name, name)


class Recorder:
    """In-memory span store; ``tag`` names the phase being recorded."""

    def __init__(self):
        self.spans = []
        self.tag = None
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name):
        sig = inspect.signature(fn)
        size = _SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"id": len(self.spans), "parent": stack[-1]["id"] if stack else None,
                    "name": name, "tag": self.tag}
            self.spans.append(span)
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["dur"] = time.perf_counter() - t0
                stack.pop()
            if size is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update((k, int(v)) for k, v in size(bound.arguments, result).items())
            return result

        return traced

    def install(self):
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "pact" and not modname.startswith("pact."):
                continue
            for attr, obj in list(vars(mod).items()):
                name = _layer_function_name(obj)
                if name is None:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, name)
                setattr(mod, attr, wrappers[obj])
                self._undo.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo = []


def _layer_function_name(obj):
    """'module.function' for a public function of a public pact module, else None."""
    if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
        return None
    parts = (obj.__module__ or "").split(".")
    if len(parts) != 2 or parts[0] != "pact" or parts[1].startswith("_"):
        return None
    return f"{parts[1]}.{obj.__name__}"


# --------------------------------------------------------------------------
# Per-layer metrics


PER_LAYER = [
    ("phantom.make_initial_pressure.s", "s", "lower"),
    ("forward.forward_operator.calls", "count", "lower"),
    ("forward.forward_operator.s", "s", "lower"),
    ("forward.forward_operator.vdb_per_s", "vdb/s", "higher"),
    ("forward.adjoint_operator.calls", "count", "lower"),
    ("forward.adjoint_operator.s", "s", "lower"),
    ("forward.adjoint_operator.vdb_per_s", "vdb/s", "higher"),
    ("forward.physics_residual.s", "s", "lower"),
    ("forward.physics_residual.pvox_per_s", "pvox/s", "higher"),
    ("forward.to_time_domain.s", "s", "lower"),
    ("forward.spectra_io_s", "s", "lower"),
    ("recon_ubp.ubp_filter.s", "s", "lower"),
    ("recon_ubp.ubp_reconstruct.s", "s", "lower"),
    ("recon_ubp.ubp_reconstruct.vd_per_s", "vd/s", "higher"),
    ("recon_ubp.ubp_reconstruct.threads_speedup", "1", "higher"),
    ("recon_ubp.ubp_reconstruct.threads1_s", "s", "lower"),
    ("recon_ubp.ubp_reconstruct.threads2_s", "s", "lower"),
    ("recon_iter.estimate_op_norm.s", "s", "lower"),
    ("recon_iter.estimate_op_norm.total_s", "s", "lower"),
    ("recon_iter.estimate_op_norm.ops", "count", "lower"),
    ("recon_iter.fista_reconstruct.ops", "count", "lower"),
    ("recon_iter.fista_reconstruct.self_s", "s", "lower"),
    ("recon_iter.fista_reconstruct.accepted_frac", "1", "higher"),
    ("recon_iter.tv_huber.calls", "count", "lower"),
    ("recon_iter.tv_huber.s", "s", "lower"),
    ("recon_iter.default_lambda.s", "s", "lower"),
    ("neuralop.build_disco_matrices.s", "s", "lower"),
    ("neuralop.build_disco_matrices.nnz_per_s", "nnz/s", "higher"),
    ("neuralop.disco_apply.s", "s", "lower"),
    ("neuralop.disco_apply.nnz_per_s", "nnz/s", "higher"),
    ("neuralop.fno_layer_apply.s", "s", "lower"),
    ("metrics.compare_volumes.s", "s", "lower"),
    ("volume.io_s", "s", "lower"),
    ("geometry.io_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("trace.item_s_traced", "s", "lower"),
    ("trace.item_s_untraced", "s", "lower"),
]


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    own = [s["dur"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["dur"]
    return own


def _under(spans, span, name):
    p = span["parent"]
    while p is not None:
        if spans[p]["name"] == name:
            return True
        p = spans[p]["parent"]
    return False


def _phase_values(spans, own, ids):
    """Layer self times, call counts, work and counters for one phase."""
    v = {}

    def add(key, x):
        v[key] = v.get(key, 0.0) + x

    for i in ids:
        s = spans[i]
        name = s["name"]
        layer = layer_of(name)
        add(layer + ".s", own[i])
        add(name + ".calls", 1)
        add(name + ".dur", s["dur"])
        if "work" in s:
            add(name + ".work", float(s["work"]))
        if name in _OPERATORS:
            for parent in ("recon_iter.estimate_op_norm", "recon_iter.fista_reconstruct"):
                if _under(spans, s, parent):
                    add(parent + ".ops", 1)
        if "accepted" in s:
            add("fista.accepted", s["accepted"])
            add("fista.steps", s["steps"])
    return v


def _rate(v, name):
    """Work per second of self time of a layer that is a single function."""
    t = v.get(name + ".s", 0.0)
    return v.get(name + ".work", 0.0) / t if t > 0 else 0.0


def _item_metrics(v):
    g = v.get
    return {
        "phantom.make_initial_pressure.s": g("phantom.make_initial_pressure.s", 0.0),
        "forward.forward_operator.calls": g("forward.forward_operator.calls", 0),
        "forward.forward_operator.s": g("forward.forward_operator.s", 0.0),
        "forward.forward_operator.vdb_per_s": _rate(v, "forward.forward_operator"),
        "forward.adjoint_operator.calls": g("forward.adjoint_operator.calls", 0),
        "forward.adjoint_operator.s": g("forward.adjoint_operator.s", 0.0),
        "forward.adjoint_operator.vdb_per_s": _rate(v, "forward.adjoint_operator"),
        "forward.physics_residual.s": g("forward.physics_residual.s", 0.0),
        "forward.physics_residual.pvox_per_s": _rate(v, "forward.physics_residual"),
        "forward.to_time_domain.s": g("forward.to_time_domain.s", 0.0),
        "forward.spectra_io_s": g("forward.spectra_io.s", 0.0),
        "recon_ubp.ubp_filter.s": g("recon_ubp.ubp_filter.s", 0.0),
        "recon_ubp.ubp_reconstruct.s": g("recon_ubp.ubp_reconstruct.s", 0.0),
        "recon_ubp.ubp_reconstruct.vd_per_s": _rate(v, "recon_ubp.ubp_reconstruct"),
        "recon_iter.estimate_op_norm.s": g("recon_iter.estimate_op_norm.s", 0.0),
        "recon_iter.estimate_op_norm.total_s": g("recon_iter.estimate_op_norm.dur", 0.0),
        "recon_iter.estimate_op_norm.ops": g("recon_iter.estimate_op_norm.ops", 0),
        "recon_iter.fista_reconstruct.ops": g("recon_iter.fista_reconstruct.ops", 0),
        "recon_iter.fista_reconstruct.self_s": g("recon_iter.fista_reconstruct.s", 0.0),
        "recon_iter.fista_reconstruct.accepted_frac":
            g("fista.accepted", 0) / g("fista.steps") if g("fista.steps") else 0.0,
        "recon_iter.tv_huber.calls": g("recon_iter.tv_huber.calls", 0),
        "recon_iter.tv_huber.s": g("recon_iter.tv_huber.s", 0.0),
        "recon_iter.default_lambda.s": g("recon_iter.default_lambda.s", 0.0),
        "neuralop.disco_apply.s": g("neuralop.disco_apply.s", 0.0),
        "neuralop.disco_apply.nnz_per_s": _rate(v, "neuralop.disco_apply"),
        "neuralop.fno_layer_apply.s": g("neuralop.fno_layer_apply.s", 0.0),
        "metrics.compare_volumes.s": g("metrics.compare_volumes.s", 0.0),
        "volume.io_s": g("volume.io.s", 0.0),
        "geometry.io_s": g("geometry.io.s", 0.0),
        "cli.self_s": g("cli.s", 0.0),
    }


def _median_over(per_phase):
    if not per_phase:
        return {}
    return {k: statistics.median(d[k] for d in per_phase) for k in per_phase[0]}


def per_layer(spans, traced_s, untraced_s):
    """Every PER_LAYER metric: medians over traced items (set-up for the DISCO build)."""
    own = self_times(spans)
    by_tag = {}
    for i, s in enumerate(spans):
        by_tag.setdefault(tuple(s["tag"]), []).append(i)

    items = [_item_metrics(_phase_values(spans, own, ids))
             for tag, ids in sorted(by_tag.items()) if tag[0] == "item"]
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    out.update(_median_over(items))

    builds = []
    for tag, ids in sorted(by_tag.items()):
        if tag[0] == "setup":
            v = _phase_values(spans, own, ids)
            builds.append({"s": v.get("neuralop.build_disco_matrices.s", 0.0),
                           "rate": _rate(v, "neuralop.build_disco_matrices")})
    build = _median_over(builds)
    if build:
        out["neuralop.build_disco_matrices.s"] = build["s"]
        out["neuralop.build_disco_matrices.nnz_per_s"] = build["rate"]

    t = {s["threads"]: s["dur"] for s in spans
         if s["tag"][0] == "threads" and s["name"] == "recon_ubp.ubp_reconstruct"}
    t1, t2 = t.get(1, 0.0), t.get(2, 0.0)
    out["recon_ubp.ubp_reconstruct.threads1_s"] = t1
    out["recon_ubp.ubp_reconstruct.threads2_s"] = t2
    out["recon_ubp.ubp_reconstruct.threads_speedup"] = t1 / t2 if t2 > 0 else 0.0

    if traced_s and untraced_s:
        tr, un = statistics.median(traced_s), statistics.median(untraced_s)
        out["trace.item_s_traced"] = tr
        out["trace.item_s_untraced"] = un
        out["trace.overhead_frac"] = tr / un - 1.0
    return out
