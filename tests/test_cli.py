import argparse
import contextlib
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pact.cli
from pact.cli import main
from pact.volume import load_volume


def run(args):
    return main(args)


def test_metrics_self_comparison(tmp_path, capsys):
    vol = tmp_path / "v.f32"
    assert run(["phantom", "--seed", "3", "--leaves", "4", "--grid", "16x16x16",
                "--pitch", "0.001", "--out", str(vol)]) == 0
    assert run(["metrics", "--ref", str(vol), "--test", str(vol)]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["cosine"] == pytest.approx(1.0)
    assert doc["nmse"] == 0.0
    assert doc["psnr_db"] == "inf"


def test_phantom_writes_volume_sidecar_and_meta(tmp_path):
    vol = tmp_path / "v.f32"
    mip = tmp_path / "v.pgm"
    assert run(["phantom", "--seed", "1", "--leaves", "4", "--grid", "12x12x12",
                "--pitch", "0.001", "--out", str(vol), "--mip", str(mip)]) == 0
    assert vol.exists() and (tmp_path / "v.f32.json").exists()
    assert (tmp_path / "v.f32.meta.json").exists()
    meta = json.loads((tmp_path / "v.f32.meta.json").read_text())
    assert meta["command"] == "phantom"
    assert "wall_time_s" in meta and "toolkit_version" in meta
    header = mip.read_bytes()[:2]
    assert header == b"P5"
    v = load_volume(str(vol))
    assert v.shape == (12, 12, 12)


def test_full_cli_pipeline_by_stages(tmp_path):
    vol = tmp_path / "gt.f32"
    geom = tmp_path / "g.json"
    geom_sub = tmp_path / "gsub.json"
    psi = tmp_path / "psi.c64"
    psi_sub = tmp_path / "psi_sub.c64"
    rec = tmp_path / "rec.f32"

    assert run(["phantom", "--seed", "5", "--leaves", "6", "--grid", "16x16x16",
                "--pitch", "0.001", "--out", str(vol)]) == 0
    assert run(["geom", "--ntheta", "6", "--nphi", "12", "--radius", "0.04",
                "--out", str(geom)]) == 0
    assert run(["forward", "--vol", str(vol), "--geom", str(geom),
                "--nf", "24", "--center", "6e5", "--out", str(psi)]) == 0
    assert run(["subsample", "--geom", str(geom), "--pattern", "uniform:3",
                "--geom-out", str(geom_sub), "--rf", str(psi),
                "--out", str(psi_sub)]) == 0
    assert run(["ubp", "--rf", str(psi_sub), "--geom", str(geom_sub),
                "--grid", "16x16x16", "--pitch", "0.001", "--out", str(rec)]) == 0
    assert rec.exists()
    for f in (vol, psi, psi_sub):
        assert run(["validate", str(f)]) == 0
    assert run(["validate", str(geom)]) == 0
    assert run(["metrics", "--ref", str(vol), "--test", str(rec),
                "--format", "csv"]) == 0


def test_iter_command_with_trace(tmp_path):
    vol = tmp_path / "gt.f32"
    geom = tmp_path / "g.json"
    psi = tmp_path / "psi.c64"
    rec = tmp_path / "rec.f32"
    trace = tmp_path / "obj.csv"
    assert run(["phantom", "--seed", "2", "--leaves", "4", "--grid", "12x12x12",
                "--pitch", "0.001", "--out", str(vol)]) == 0
    assert run(["geom", "--ntheta", "4", "--nphi", "8", "--radius", "0.04",
                "--out", str(geom)]) == 0
    assert run(["forward", "--vol", str(vol), "--geom", str(geom),
                "--nf", "16", "--center", "6e5", "--out", str(psi)]) == 0
    assert run(["iter", "--rf", str(psi), "--geom", str(geom),
                "--grid", "12x12x12", "--pitch", "0.001", "--iters", "5",
                "--out", str(rec), "--trace", str(trace)]) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective"
    objs = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b <= a + 1e-9 * objs[0] for a, b in zip(objs, objs[1:]))


def test_missing_file_exits_one(tmp_path, capsys):
    code = run(["metrics", "--ref", str(tmp_path / "nope.f32"),
                "--test", str(tmp_path / "nope.f32")])
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_unknown_flag_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["phantom", "--does-not-exist", "1", "--out", str(tmp_path / "x.f32")])
    assert exc.value.code == 2
    # A command takes --threads and --seed only if it reads them.
    recon = ["--rf", "a.c64", "--geom", "g.json", "--out", "r.f32"]
    subsample = ["--geom", "g.json", "--pattern", "full", "--geom-out", "h.json"]
    for command, flag, required in [
            ("phantom", "--threads", ["--out", "x.f32"]), ("geom", "--threads", ["--out", "g.json"]),
            ("geom", "--seed", ["--out", "g.json"]), ("subsample", "--threads", subsample),
            ("subsample", "--seed", subsample), ("ubp", "--seed", recon), ("iter", "--seed", recon),
            ("disco-check", "--threads", []), ("fno-check", "--threads", [])]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run([command, flag, "1", *required])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_no_command_exits_two():
    assert run([]) == 2


def test_geometry_mismatch_exits_one(tmp_path, capsys):
    vol = tmp_path / "gt.f32"
    geom = tmp_path / "g.json"
    other = tmp_path / "g2.json"
    psi = tmp_path / "psi.c64"
    assert run(["phantom", "--seed", "2", "--leaves", "4", "--grid", "12x12x12",
                "--pitch", "0.001", "--out", str(vol)]) == 0
    assert run(["geom", "--ntheta", "4", "--nphi", "8", "--radius", "0.04",
                "--out", str(geom)]) == 0
    assert run(["geom", "--ntheta", "4", "--nphi", "8", "--radius", "0.04",
                "--pattern", "uniform:2", "--out", str(other)]) == 0
    assert run(["forward", "--vol", str(vol), "--geom", str(geom),
                "--nf", "16", "--out", str(psi)]) == 0
    code = run(["ubp", "--rf", str(psi), "--geom", str(other),
                "--grid", "12x12x12", "--pitch", "0.001",
                "--out", str(tmp_path / "r.f32")])
    assert code == 1
    err = capsys.readouterr().err
    assert "psi.c64" in err and "g2.json" in err


def test_check_commands_exit_zero(tmp_path, capsys):
    geom = tmp_path / "g.json"
    assert run(["geom", "--ntheta", "16", "--nphi", "32", "--radius", "1.0",
                "--out", str(geom)]) == 0
    # Small grid: skip the 64x128-calibrated per-output cap tolerance by
    # exercising the suite through the CLI only for exit-code plumbing.
    assert run(["fno-check", "--ntheta", "16", "--nphi", "32", "--nk", "8",
                "--channels", "2", "--modes", "4,4,8"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_pipeline_iter_beats_ubp(tmp_path):
    cos = {}
    for recon in ("ubp", "iter"):
        d = tmp_path / recon
        assert run(["pipeline", "--seed", "11", "--grid", "24x24x24",
                    "--pitch", "0.001", "--radius", "0.045", "--ntheta", "8",
                    "--nphi", "24", "--nf", "24", "--center", "6e5",
                    "--leaves", "8", "--pattern", "uniform:3",
                    "--recon", recon, "--iters", "8", "--threads", "2",
                    "--out-dir", str(d)]) == 0
        cos[recon] = json.loads((d / "report.json").read_text())["cosine"]
    assert cos["iter"] >= cos["ubp"]


def test_pipeline_determinism_across_threads(tmp_path):
    outs = []
    for name, threads in (("a", "1"), ("b", "2")):
        d = tmp_path / name
        assert run(["pipeline", "--seed", "7", "--grid", "16x16x16",
                    "--pitch", "0.001", "--radius", "0.04", "--ntheta", "6",
                    "--nphi", "12", "--nf", "16", "--leaves", "5",
                    "--pattern", "uniform:2", "--recon", "ubp",
                    "--threads", threads, "--out-dir", str(d)]) == 0
        outs.append(d)
    for fname in ("gt.f32", "psi.c64", "recon.f32", "report.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between thread counts"
    report = json.loads((outs[0] / "report.json").read_text())
    assert set(report) >= {"cosine", "psnr_db", "nmse", "pattern", "recon"}


@pytest.mark.parametrize("recon", ["ubp", "iter"])
def test_pipeline_equals_its_stages(tmp_path, capsys, recon):
    # The pipeline's files are what phantom, geom, forward and ubp (or iter) write.
    run_dir, st = tmp_path / "run", tmp_path / "stages"
    st.mkdir()
    grid = ["--grid", "16x16x16", "--pitch", "0.001"]
    assert run(["pipeline", "--seed", "7", "--ntheta", "4", "--nphi", "12", "--snr", "30",
                "--recon", recon, "--iters", "3", "--out-dir", str(run_dir),
                "--mip", str(tmp_path / "run.pgm"), *grid]) == 0
    assert run(["phantom", "--seed", "7", "--leaves", "12", "--out", str(st / "gt.f32"),
                *grid]) == 0
    assert run(["geom", "--ntheta", "4", "--nphi", "12", "--radius", "0.05",
                "--out", str(st / "geom.json")]) == 0
    assert run(["forward", "--vol", str(st / "gt.f32"), "--geom", str(st / "geom.json"),
                "--seed", "7", "--snr", "30", "--nf", "48", "--center", "9e5",
                "--out", str(st / "psi.c64")]) == 0
    inputs = ["--rf", str(st / "psi.c64"), "--geom", str(st / "geom.json"),
              "--out", str(st / "recon.f32"), "--mip", str(st / "recon.pgm"), *grid]
    if recon == "ubp":
        assert run(["ubp", *inputs]) == 0
    else:
        assert run(["iter", "--warm", "ubp", "--iters", "3", *inputs]) == 0
    for name in ("gt.f32", "geom.json", "psi.c64", "recon.f32"):
        assert (run_dir / name).read_bytes() == (st / name).read_bytes(), name
    assert (tmp_path / "run.pgm").read_bytes() == (st / "recon.pgm").read_bytes()
    capsys.readouterr()
    assert run(["metrics", "--ref", str(st / "gt.f32"), "--test", str(st / "recon.f32")]) == 0
    staged = json.loads(capsys.readouterr().out)
    report = json.loads((run_dir / "report.json").read_text())
    assert [report[k] for k in ("cosine", "psnr_db", "nmse")] == \
        [staged[k] for k in ("cosine", "psnr_db", "nmse")]


@pytest.mark.parametrize("rf", [["--rf", "psi.c64"], ["--rf", "missing.c64", "--out", "sub.c64"],
                                ["--out", "sub.c64"]],
                         ids=["rf-without-out", "missing-rf", "out-without-rf"])
def test_failed_subsample_writes_nothing(tmp_path, capsys, rf):
    _tiny_spectra(tmp_path)
    geom_out = tmp_path / "sub.json"
    rf = [str(tmp_path / a) if a.endswith(".c64") else a for a in rf]
    assert run(["subsample", "--geom", str(tmp_path / "g.json"), "--pattern", "uniform:2",
                "--geom-out", str(geom_out), *rf]) == 1
    assert "error:" in capsys.readouterr().err
    assert not geom_out.exists() and not (tmp_path / "sub.c64").exists()


def test_module_docstring_names_every_subcommand():
    parser = pact.cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    listed = pact.cli.__doc__.split("Commands:")[1].split(".")[0]
    assert set(sub.choices) <= set(re.findall(r"[a-z][a-z-]*", listed))


def _tiny_spectra(d):
    """A 2x4 array, an 8^3 phantom and its spectra in ``d``: (vol, geom, psi) paths."""
    vol, geom, psi = d / "v.f32", d / "g.json", d / "psi.c64"
    assert run(["phantom", "--seed", "1", "--leaves", "2", "--grid", "8x8x8",
                "--pitch", "0.001", "--out", str(vol)]) == 0
    assert run(["geom", "--ntheta", "2", "--nphi", "4", "--radius", "0.04",
                "--out", str(geom)]) == 0
    assert run(["forward", "--vol", str(vol), "--geom", str(geom), "--nf", "8",
                "--center", "6e5", "--out", str(psi)]) == 0
    return vol, geom, psi


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A 2x4 sensor array, an 8^3 volume and its spectra, as in-memory parts."""
    d = tmp_path_factory.mktemp("valid")
    vol, geom, psi = _tiny_spectra(d)
    return {
        "volume": (np.fromfile(vol, dtype="<f4"),
                   json.loads((d / "v.f32.json").read_text())),
        "spectra": (np.fromfile(psi, dtype="<f4"),
                    json.loads((d / "psi.c64.json").read_text())),
        "sensors": json.loads(geom.read_text()),
    }


BAD_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf])
# JSON values of the wrong type for a number, an integer or a list of numbers.
BAD_TYPES = st.sampled_from([None, "x", True, [1.0], {"v": 1.0}])
HEADER_INTS = {"volume": ["nx", "ny", "nz"], "spectra": ["n_t", "n_det", "n_freq"],
               "sensors": ["n_theta", "n_phi"]}
HEADER_NUMBERS = {"volume": ["pitch_m"], "spectra": ["fs"],
                  "sensors": ["radius_m"]}
HEADER_LISTS = {"volume": {"origin_m": 3},
                "spectra": {"response_re": 8, "response_im": 8, "gains": 8}, "sensors": {}}


def _header_mutation(draw, kind):
    """A wrong-type or non-finite header field: (kind, field, element or None, value)."""
    what = draw(st.sampled_from(HEADER_INTS[kind] + HEADER_NUMBERS[kind]
                                + sorted(HEADER_LISTS[kind])))
    if what in HEADER_INTS[kind]:
        return kind, what, None, draw(BAD_TYPES | st.sampled_from([8.0, 2.5]))
    if what in HEADER_NUMBERS[kind]:
        return kind, what, None, draw(BAD_TYPES | BAD_NUMBERS)
    if draw(st.booleans()):
        # A missing or null gains field is valid: it means unit gains.
        return kind, what, None, draw(BAD_TYPES.filter(lambda v: v is not None))
    pos = draw(st.integers(0, HEADER_LISTS[kind][what] - 1))
    return kind, what, pos, draw(BAD_NUMBERS | st.sampled_from([None, "x", True]))


@st.composite
def file_mutations(draw):
    """One defect in one valid file: (kind, what, position, value)."""
    kind = draw(st.sampled_from(["volume", "spectra", "sensors"]))
    if kind == "volume":
        what = draw(st.sampled_from(["payload", "pitch_m", "header"]))
        if what == "payload":
            return kind, what, draw(st.integers(0, 511)), draw(BAD_NUMBERS)
        if what == "header":
            return _header_mutation(draw, kind)
        return kind, what, 0, draw(BAD_NUMBERS | st.sampled_from([0.0, -1e-3]))
    if kind == "spectra":
        what = draw(st.sampled_from(["payload", "fs", "detector_ids", "header"]))
        if what == "payload":
            return kind, what, draw(st.integers(0, 2 * 8 * 8 - 1)), draw(BAD_NUMBERS)
        if what == "header":
            return _header_mutation(draw, kind)
        if what == "fs":
            return kind, what, 0, draw(BAD_NUMBERS | st.sampled_from([0.0, -2e7]))
        row = draw(st.integers(0, 7))
        # The valid file's ids are its row numbers, so another row's is a repeat.
        other = st.integers(0, 7).filter(lambda r: r != row)
        return kind, what, row, draw(other | st.sampled_from([-1, 2**63, 10**30]))
    what = draw(st.sampled_from(["index", "arity", "value", "header"]))
    if what == "header":
        return _header_mutation(draw, kind)
    rec = draw(st.integers(0, 7))
    if what == "index":
        # Out of range, or the index of another record (a repeat).
        other = st.integers(0, 7).filter(lambda i: i != rec)
        return kind, what, rec, draw(st.integers(8, 10**6) | st.integers(-10**6, -1) | other)
    if what == "arity":
        return kind, what, rec, draw(st.sampled_from([0, 1, 2, 3, 4, 6, 7]))
    field = draw(st.integers(1, 3))
    return kind, what, (rec, field), draw(BAD_NUMBERS | st.sampled_from([None, "x"]))


def _write_mutated(valid, mutation, d):
    kind, what, pos, value = mutation
    if kind == "sensors":
        doc = json.loads(json.dumps(valid["sensors"]))
        if what == "index":
            doc["elements"][pos][0] = value
        elif what == "arity":
            rec = doc["elements"][pos]
            doc["elements"][pos] = (rec + [0.0, 0.0])[:value]
        elif what == "value":
            doc["elements"][pos[0]][pos[1]] = value
        elif what == "scale":
            doc["elements"][pos[0]][pos[1]] *= value
        else:
            doc[what] = value
        path = os.path.join(d, "g.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        return path
    raw, header = valid[kind]
    raw, header = raw.copy(), dict(header)
    if what == "payload":
        raw[pos] = value
    elif what == "detector_ids":
        header["detector_ids"] = list(header["detector_ids"])
        header["detector_ids"][pos] = value
    elif what == "sidecar":
        header = value
    elif what in HEADER_LISTS[kind] and pos is not None:
        # The valid file has no gains; mutate one element of unit gains.
        header[what] = list(header.get(what) or [1.0] * 8)
        header[what][pos] = value
    else:
        header[what] = value
    path = os.path.join(d, "v.f32" if kind == "volume" else "psi.c64")
    raw.tofile(path)
    with open(path + ".json", "w") as f:
        json.dump(header, f)
    return path


@settings(max_examples=100, deadline=None)
@given(file_mutations())
@example(("sensors", "index", 1, 0))        # a repeated index
@example(("sensors", "index", 0, 99))       # out of range in a 2x4 array
@example(("sensors", "arity", 0, 4))        # a 4-field record
@example(("volume", "payload", 0, math.nan))
@example(("volume", "pitch_m", 0, math.nan))
@example(("spectra", "payload", 0, math.nan))
@example(("spectra", "fs", 0, math.nan))
@example(("spectra", "detector_ids", 1, 0))
@example(("spectra", "detector_ids", 0, 10**30))    # beyond int64
@example(("spectra", "detector_ids", 0, -1))
@example(("volume", "pitch_m", None, None))
@example(("volume", "nx", None, 8.0))
@example(("volume", "origin_m", None, [0.0, 0.0]))
@example(("spectra", "fs", None, None))
@example(("spectra", "n_freq", None, "8"))
@example(("spectra", "response_re", 3, math.nan))
@example(("spectra", "gains", 0, math.inf))
@example(("spectra", "response_im", None, [1.0]))
@example(("sensors", "n_phi", None, None))
@example(("sensors", "scale", (5, 1), 1.1))   # a theta off the grid
@example(("sensors", "scale", (3, 2), 1.1))   # a phi off the grid
@example(("sensors", "scale", (6, 3), 2.0))   # a doubled weight
@example(("volume", "sidecar", None, [1, 2]))   # JSON, but not an object
@example(("spectra", "sidecar", None, 5))
def test_malformed_input_file_exits_one(valid_files, mutation):
    with tempfile.TemporaryDirectory() as d:
        path = _write_mutated(valid_files, mutation, d)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["validate", path])
    assert code == 1
    assert err.getvalue().startswith("error:")
    assert "Traceback" not in err.getvalue()


def test_sidecar_with_anti_alias_and_null_gains_still_loads(tmp_path, capsys):
    _, geom, psi = _tiny_spectra(tmp_path)
    header = json.loads((tmp_path / "psi.c64.json").read_text())
    assert "gains" not in header and "anti_alias_hz" not in header
    legacy = tmp_path / "legacy.c64"
    legacy.write_bytes(psi.read_bytes())
    (tmp_path / "legacy.c64.json").write_text(
        json.dumps(dict(header, anti_alias_hz=7.5e6, gains=None)))
    recons = []
    for rf in (psi, legacy):
        out = tmp_path / f"{rf.stem}_ubp.f32"
        assert run(["ubp", "--rf", str(rf), "--geom", str(geom), "--grid", "8x8x8",
                    "--pitch", "0.001", "--out", str(out)]) == 0
        recons.append(out.read_bytes())
    assert recons[0] == recons[1]
    (tmp_path / "legacy.c64.json").write_text(
        json.dumps(dict(header, gains=[1.0] * header["n_det"])))
    capsys.readouterr()
    assert run(["ubp", "--rf", str(legacy), "--geom", str(geom), "--grid", "8x8x8",
                "--pitch", "0.001", "--out", str(tmp_path / "r.f32")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "legacy.c64.json" in err


@pytest.mark.parametrize("snr", ["nan", "-inf"])
@pytest.mark.parametrize("command", ["forward", "pipeline"])
def test_non_finite_snr_exits_one(tmp_path, capsys, command, snr):
    if command == "forward":
        vol, geom, _ = _tiny_spectra(tmp_path)
        args = ["forward", "--vol", str(vol), "--geom", str(geom), "--nf", "8",
                "--center", "6e5", "--out", str(tmp_path / "noisy.c64")]
    else:
        args = ["pipeline", "--grid", "8x8x8", "--radius", "0.04", "--ntheta", "2",
                "--nphi", "4", "--nf", "8", "--center", "6e5", "--leaves", "2",
                "--out-dir", str(tmp_path / "run")]
    capsys.readouterr()
    assert run(args + [f"--snr={snr}"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    if command == "pipeline":
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["ubp", "iter"])
def test_unallocatable_record_exits_one(tmp_path, capsys, command):
    # 2**50 samples per detector lies past the record-length bound, so the
    # loader refuses the file before any allocation is attempted.
    _, geom, psi = _tiny_spectra(tmp_path)
    sidecar = tmp_path / "psi.c64.json"
    doc = json.loads(sidecar.read_text())
    doc["n_t"] = 2**50
    sidecar.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run([command, "--rf", str(psi), "--geom", str(geom), "--grid", "8x8x8",
                "--pitch", "0.001", "--out", str(tmp_path / "out.f32")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "allocate" in err and "Traceback" not in err
    assert not (tmp_path / "out.f32").exists()


def test_disco_check_radius_without_interior_ball_exits_one(tmp_path, capsys, recwarn):
    geom = tmp_path / "g.json"
    assert run(["geom", "--ntheta", "16", "--nphi", "32", "--out", str(geom)]) == 0
    capsys.readouterr()
    assert run(["disco-check", "--geom", str(geom), "--r", "0.74"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "r=0.74" in err and "16x32" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command,flag,value", [
    ("forward", "--fs", "0"), ("forward", "--fs", "-1"), ("forward", "--fs", "inf"),
    ("forward", "--center", "0"), ("forward", "--center", "nan"), ("forward", "--center", "-1"),
    ("ubp", "--c0", "nan"), ("ubp", "--c0", "inf"), ("ubp", "--pitch", "nan"),
    ("ubp", "--pitch", "inf"), ("ubp", "--c0", "1e-300"),
    ("iter", "--c0", "nan"), ("iter", "--c0", "1e-300"), ("iter", "--pitch", "nan"),
    ("iter", "--pitch", "inf"),
    ("iter", "--lambda", "nan"), ("iter", "--iters", "-1"),
    ("pipeline", "--fs", "0"), ("pipeline", "--c0", "inf"),
    ("forward", "--c0", "1e-310"), ("pipeline", "--c0", "1e-310"), ("forward", "--c0", "1e-6"),
    ("phantom", "--p0", "nan"), ("phantom", "--sigma", "nan"), ("phantom", "--sigma", "inf"),
    ("geom", "--radius", "inf"),
])
def test_bad_physical_parameter_exits_one(tmp_path, capsys, command, flag, value):
    vol, geom, psi = _tiny_spectra(tmp_path)
    out = tmp_path / "out"
    if command == "phantom":
        args = ["phantom", "--seed", "1", "--leaves", "2", "--grid", "8x8x8", "--out", str(out)]
    elif command == "geom":
        args = ["geom", "--ntheta", "2", "--nphi", "4", "--out", str(out)]
    elif command == "forward":
        args = ["forward", "--vol", str(vol), "--geom", str(geom), "--nf", "8",
                "--center", "6e5", "--out", str(out)]
    elif command == "pipeline":
        args = ["pipeline", "--grid", "8x8x8", "--radius", "0.04", "--ntheta", "2",
                "--nphi", "4", "--nf", "8", "--center", "6e5", "--leaves", "2",
                "--out-dir", str(out)]
    else:
        args = [command, "--rf", str(psi), "--geom", str(geom), "--grid", "8x8x8",
                "--pitch", "0.001", "--out", str(out)]
    capsys.readouterr()
    assert run(args + [f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not list(tmp_path.glob("out*"))
