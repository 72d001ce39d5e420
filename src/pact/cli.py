"""Command-line front end: pact <command> [options].

Commands: phantom, geom, forward, subsample, ubp, iter, metrics,
disco-check, fno-check, pipeline, validate.  Exit codes: 0 success, 1 I/O
or data error, 2 usage error.  Every run writes a ``<output>.meta.json`` record with the
resolved configuration, toolkit version and wall time.
"""

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import ToolkitError
from .forward import (
    AcousticMedium,
    Spectra,
    add_noise,
    default_receive_chain,
    forward_operator,
    load_spectra,
    save_spectra,
    to_time_domain,
)
from .geometry import (
    SamplingPattern,
    apply_sampling_pattern,
    build_hemisphere_grid,
    load_sensor_array,
    save_sensor_array,
)
from .metrics import compare_volumes
from .phantom import default_tree_bbox, grow_vessel_tree, make_initial_pressure
from .recon_iter import IterConfig, default_lambda, fista_reconstruct
from .recon_ubp import UbpConfig, ubp_filter, ubp_reconstruct
from .volume import (
    GridSpec,
    Volume,
    load_volume,
    max_intensity_projection,
    parse_grid_string,
    save_pgm,
    save_volume,
)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        outputs = args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except (ToolkitError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    if isinstance(outputs, int):
        return outputs
    if outputs:
        _write_meta(args, outputs, wall)
    return 0


def _write_meta(args, outputs, wall):
    config = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    record = {
        "command": args.command,
        "config": config,
        "outputs": outputs,
        "toolkit_version": __version__,
        "wall_time_s": wall,
    }
    with open(outputs[0] + ".meta.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
        f.write("\n")


_THREADS = dict(type=int, default=1, help="worker threads (never changes numbers)")
_SEED = dict(type=int, default=0, help="master RNG seed")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pact",
        description="Photoacoustic tomography simulation and reconstruction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"pact {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("phantom", help="generate a vascular initial-pressure volume")
    p.add_argument("--seed", **_SEED)
    p.add_argument("--leaves", type=int, default=16)
    p.add_argument("--grid", default="64x64x64")
    p.add_argument("--pitch", type=float, default=5e-4)
    p.add_argument("--sigma", type=float, default=1.0, help="smoothing width in voxels")
    p.add_argument("--p0", type=float, default=1.0, help="peak pressure (Pa)")
    p.add_argument("--out", required=True)
    p.add_argument("--mip", help="write a max-intensity-projection PGM")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("geom", help="write a hemispherical sensor array file")
    p.add_argument("--ntheta", type=int, default=16)
    p.add_argument("--nphi", type=int, default=48)
    p.add_argument("--radius", type=float, default=0.13)
    p.add_argument("--pattern", default="full")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_geom)

    p = sub.add_parser("forward", help="simulate spectra from a volume")
    p.add_argument("--threads", **_THREADS)
    p.add_argument("--seed", **_SEED)
    p.add_argument("--vol", required=True)
    p.add_argument("--geom", required=True)
    p.add_argument("--snr", type=float, default=math.inf, help="target SNR in dB (inf = none)")
    p.add_argument("--c0", type=float, default=1500.0)
    p.add_argument("--fs", type=float, default=20e6)
    p.add_argument("--nf", type=int, default=149)
    p.add_argument("--center", type=float, default=2.12e6, help="band-pass center (Hz)")
    p.add_argument("--flat-response", action="store_true",
                   help="drop the -i*omega wave-equation factor from the response")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("subsample", help="apply an acquisition pattern")
    p.add_argument("--geom", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--geom-out", required=True)
    p.add_argument("--rf", help="optionally filter spectra rows to the new mask")
    p.add_argument("--out", help="output spectra path (with --rf)")
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("ubp", help="universal back-projection reconstruction")
    p.add_argument("--threads", **_THREADS)
    p.add_argument("--rf", required=True)
    p.add_argument("--geom", required=True)
    p.add_argument("--grid", default="64x64x64")
    p.add_argument("--pitch", type=float, default=5e-4)
    p.add_argument("--c0", type=float, default=1500.0)
    p.add_argument("--out", required=True)
    p.add_argument("--mip")
    p.set_defaults(func=cmd_ubp)

    p = sub.add_parser("iter", help="regularized iterative reconstruction (FISTA)")
    p.add_argument("--threads", **_THREADS)
    p.add_argument("--rf", required=True)
    p.add_argument("--geom", required=True)
    p.add_argument("--grid", default="64x64x64")
    p.add_argument("--pitch", type=float, default=5e-4)
    p.add_argument("--c0", type=float, default=1500.0)
    p.add_argument("--lambda", dest="lambda_tv", type=float, default=None,
                   help="TV weight (default 1e-4 * ||A^H psi||_inf)")
    p.add_argument("--mu", type=float, default=0.0, help="Tikhonov weight")
    p.add_argument("--delta", type=float, default=0.01, help="Huber smoothing")
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--warm", choices=["ubp", "zero"], default="ubp")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="objective trace CSV path")
    p.add_argument("--mip")
    p.set_defaults(func=cmd_iter)

    p = sub.add_parser("metrics", help="compare two volumes")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="write the report to a file as well")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("disco-check", help="run the spherical DISCO invariant suite")
    p.add_argument("--seed", **_SEED)
    p.add_argument("--geom", help="sensor array file (default: built-in 32x64 grid)")
    p.add_argument("--basis", choices=["piecewise_linear", "haar", "zernike"],
                   default="zernike")
    p.add_argument("--L", type=int, default=4)
    p.add_argument("--r", type=float, default=0.1 * math.pi)
    p.set_defaults(func=cmd_disco_check)

    p = sub.add_parser("fno-check", help="run the spectral-layer invariant suite")
    p.add_argument("--seed", **_SEED)
    p.add_argument("--ntheta", type=int, default=16)
    p.add_argument("--nphi", type=int, default=32)
    p.add_argument("--nk", type=int, default=8)
    p.add_argument("--channels", type=int, default=2)
    p.add_argument("--modes", default="4,4,8")
    p.set_defaults(func=cmd_fno_check)

    p = sub.add_parser("pipeline", help="simulate, reconstruct and score in one run")
    p.add_argument("--threads", **_THREADS)
    p.add_argument("--seed", **_SEED)
    p.add_argument("--grid", default="32x32x32")
    p.add_argument("--pitch", type=float, default=1e-3)
    p.add_argument("--radius", type=float, default=0.05)
    p.add_argument("--ntheta", type=int, default=8)
    p.add_argument("--nphi", type=int, default=24)
    p.add_argument("--nf", type=int, default=48)
    p.add_argument("--fs", type=float, default=20e6)
    p.add_argument("--center", type=float, default=0.9e6)
    p.add_argument("--leaves", type=int, default=12)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--snr", type=float, default=math.inf)
    p.add_argument("--pattern", default="full")
    p.add_argument("--recon", choices=["ubp", "iter"], default="ubp")
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--c0", type=float, default=1500.0)
    p.add_argument("--flat-response", action="store_true",
                   help="drop the -i*omega wave-equation factor from the response")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mip")
    # Stage settings the pipeline does not expose.
    p.set_defaults(func=cmd_pipeline, p0=1.0, lambda_tv=None, mu=0.0, delta=0.01)

    p = sub.add_parser("validate", help="round-trip check a toolkit file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    return parser


def _as_saved(vol):
    """``vol`` rounded to float32, as :func:`save_volume` stores it."""
    return Volume(vol.data.astype(np.float32), vol.pitch_m, vol.origin_m)


def _phantom(args):
    shape = parse_grid_string(args.grid)
    grid = GridSpec(shape, args.pitch)
    tree = grow_vessel_tree(args.seed, args.leaves, default_tree_bbox(grid))
    return _as_saved(make_initial_pressure(tree, grid, p0_scale=args.p0,
                                           sigma_vox=args.sigma))


def cmd_phantom(args):
    vol = _phantom(args)
    save_volume(vol, args.out)
    return _with_mip(vol, args, [args.out])


def _with_mip(vol, args, outputs):
    """``outputs``, plus ``args.mip`` once the MIP of ``vol`` is written there."""
    if args.mip:
        save_pgm(max_intensity_projection(vol), args.mip)
        outputs.append(args.mip)
    return outputs


def _sensor_array(args):
    array = build_hemisphere_grid(args.ntheta, args.nphi, args.radius)
    return apply_sampling_pattern(array, SamplingPattern.parse(args.pattern))


def cmd_geom(args):
    save_sensor_array(_sensor_array(args), args.out)
    return [args.out]


def _simulate(vol, sensors, args):
    """Spectra of ``vol`` with noise at ``args.snr``, rounded as saved; and the chain."""
    medium = AcousticMedium(c0=args.c0)
    chain = default_receive_chain(sensors, vol.grid, medium, fs=args.fs,
                                  n_freq=args.nf, center_hz=args.center,
                                  derivative=not args.flat_response)
    psi = forward_operator(vol, sensors, medium, chain, threads=args.threads)
    psi = add_noise(psi, args.snr, args.seed + 1)
    return Spectra(psi.values.astype(np.complex64), psi.freq_hz, psi.detector_ids), chain


def cmd_forward(args):
    vol = load_volume(args.vol)
    sensors = load_sensor_array(args.geom)
    psi, chain = _simulate(vol, sensors, args)
    save_spectra(psi, chain, args.out, geometry_file=args.geom, c0=args.c0)
    return [args.out]


def cmd_subsample(args):
    if bool(args.rf) != bool(args.out):
        raise ValueError("--rf and --out go together: the spectra to filter and their output")
    sensors = load_sensor_array(args.geom)
    sub = apply_sampling_pattern(sensors, SamplingPattern.parse(args.pattern))
    if args.rf:
        psi, chain, header = load_spectra(args.rf)
        keep = np.isin(psi.detector_ids, sub.active_indices)
        psi = Spectra(psi.values[keep], psi.freq_hz, psi.detector_ids[keep])
    # Everything is read and checked before the first file is written.
    save_sensor_array(sub, args.geom_out)
    if not args.rf:
        return [args.geom_out]
    save_spectra(psi, chain, args.out, geometry_file=args.geom_out, c0=header.get("c0"))
    return [args.geom_out, args.out]


def _load_recon_inputs(args):
    psi, chain, _ = load_spectra(args.rf)
    sensors = load_sensor_array(args.geom)
    if not np.array_equal(psi.detector_ids, sensors.active_indices):
        raise ToolkitError(
            f"detector ids in {args.rf} do not match active elements of {args.geom}"
        )
    shape = parse_grid_string(args.grid)
    grid = GridSpec(shape, args.pitch)
    return psi, chain, sensors, grid


def _back_project(psi, chain, sensors, grid, args):
    """UBP of the spectra (time traces, the d/dt[t p] filter, back-projection), as saved."""
    cfg = UbpConfig(c0=args.c0)
    traces = ubp_filter(to_time_domain(psi, chain), 1.0 / chain.fs)
    return _as_saved(ubp_reconstruct(traces, sensors, grid, cfg, fs=chain.fs,
                                     threads=args.threads))


def cmd_ubp(args):
    psi, chain, sensors, grid = _load_recon_inputs(args)
    vol = _back_project(psi, chain, sensors, grid, args)
    save_volume(vol, args.out)
    return _with_mip(vol, args, [args.out])


def _fista(psi, chain, sensors, grid, warm, args):
    """FISTA from the ``warm`` volume (None: zero); returns (volume as saved, trace)."""
    medium = AcousticMedium(c0=args.c0)
    lam = args.lambda_tv
    if lam is None:
        lam = default_lambda(psi, sensors, medium, chain, grid, threads=args.threads)
    cfg = IterConfig(lambda_tv=lam, mu_tik=args.mu, huber_delta=args.delta,
                     max_iters=args.iters, threads=args.threads)
    vol, trace = fista_reconstruct(psi, sensors, medium, chain, grid, cfg,
                                   warm_volume=warm)
    return _as_saved(vol), trace


def cmd_iter(args):
    psi, chain, sensors, grid = _load_recon_inputs(args)
    warm = None
    if args.warm == "ubp":
        warm = _back_project(psi, chain, sensors, grid, args)
    vol, trace = _fista(psi, chain, sensors, grid, warm, args)
    save_volume(vol, args.out)
    outputs = [args.out]
    if args.trace:
        with open(args.trace, "w") as f:
            f.write("iteration,objective\n")
            for i, v in enumerate(trace):
                f.write(f"{i},{float(v)!r}\n")
        outputs.append(args.trace)
    return _with_mip(vol, args, outputs)


def cmd_metrics(args):
    ref = load_volume(args.ref)
    test = load_volume(args.test)
    report = compare_volumes(ref, test, ref_file=args.ref, test_file=args.test)
    text = _format_report(report.as_dict(), args.format)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


def _format_report(d, fmt):
    if fmt == "json":
        return json.dumps(d, indent=1, sort_keys=True)
    keys = ["cosine", "cosine_percent", "psnr_db", "nmse"]
    return ",".join(keys) + "\n" + ",".join(str(d[k]) for k in keys)


def cmd_disco_check(args):
    from .checks import run_disco_checks

    geom = load_sensor_array(args.geom) if args.geom else None
    results = run_disco_checks(basis_kind=args.basis, L=args.L, r=args.r,
                               sensors=geom, seed=args.seed)
    return _print_checks(results)


def cmd_fno_check(args):
    from .checks import run_fno_checks

    modes = tuple(int(v) for v in args.modes.split(","))
    if len(modes) != 3:
        raise ValueError("--modes expects three comma-separated integers")
    results = run_fno_checks(n_theta=args.ntheta, n_phi=args.nphi, n_k=args.nk,
                             channels=args.channels, modes=modes, seed=args.seed)
    return _print_checks(results)


def _print_checks(results):
    ok = True
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 1


def cmd_pipeline(args):
    import os

    gt = _phantom(args)
    array = _sensor_array(args)
    psi, chain = _simulate(gt, array, args)
    recon = _back_project(psi, chain, array, gt.grid, args)
    if args.recon == "iter":
        recon, _ = _fista(psi, chain, array, gt.grid, recon, args)

    # Basenames keep the report byte-identical across output directories.
    report = compare_volumes(gt, recon, ref_file="gt.f32", test_file="recon.f32")
    doc = report.as_dict()
    doc["pattern"] = args.pattern
    doc["recon"] = args.recon
    doc["seed"] = args.seed

    # Every stage has run, so a stage that fails leaves no file behind.
    os.makedirs(args.out_dir, exist_ok=True)

    def path(name):
        return os.path.join(args.out_dir, name)

    save_volume(gt, path("gt.f32"))
    save_sensor_array(array, path("geom.json"))
    save_spectra(psi, chain, path("psi.c64"), geometry_file=path("geom.json"),
                 c0=args.c0)
    save_volume(recon, path("recon.f32"))
    with open(path("report.json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return _with_mip(recon, args,
                     [path("report.json"), path("gt.f32"), path("psi.c64"), path("recon.f32")])


def cmd_validate(args):
    path = args.path
    if path.endswith(".f32"):
        vol = load_volume(path)
        print(f"ok: volume {vol.shape} pitch {vol.pitch_m} m")
    elif path.endswith(".c64"):
        psi, chain, _ = load_spectra(path)
        print(f"ok: spectra {psi.n_det} detectors x {psi.n_freq} bins, fs {chain.fs:g} Hz")
    elif path.endswith(".json") and not path.endswith(".meta.json"):
        sensors = load_sensor_array(path)
        n_act = int(np.count_nonzero(sensors.active))
        print(f"ok: sensor array {sensors.n_theta}x{sensors.n_phi}, {n_act} active")
    else:
        raise ValueError(f"unknown file type: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
