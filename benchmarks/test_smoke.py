"""Smoke test of the benchmark: every workload at toy size with all of its
checks, the traced run's metric set, and one planted fault per kind of check
to show that the check catches it.  Runs in a few seconds:

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_toolkit()

import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER  # noqa: E402

TOY = workloads.TOY
SEED = 3


def failing(wl):
    return {name for name, ok, _ in wl.check() if not ok}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_every_check_at_toy_size(name, tmp_path):
    result, details = run.run(name, SEED, 0.01, False, size=TOY, setup_repeats=1,
                              workdir=str(tmp_path / "work"))
    assert details["spans"] is None
    assert all(ok for _, ok, _ in details["checks"]), details["checks"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [m for m, _ in run.END_TO_END] == list(result["metrics"])
    assert all(np.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())
    assert not os.path.exists(tmp_path / "work")


@pytest.mark.parametrize("name", ["fista", "neuralop", "ubp_sweep"])
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result, details = run.run(name, SEED, 0.01, True, size=TOY, setup_repeats=1,
                              workdir=str(tmp_path / "work"))
    spans = details["spans"]
    assert result["correct"] and result["attempted"] == 2
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m for m, _, _ in PER_LAYER}
    assert spans and all(s["tag"] is not None for s in spans)
    if name == "fista":
        assert metrics["forward.adjoint_operator.calls"] > 0
        assert metrics["recon_iter.estimate_op_norm.ops"] > 0
        assert 0 < metrics["recon_iter.fista_reconstruct.accepted_frac"] <= 1
    if name == "neuralop":
        assert metrics["neuralop.disco_apply.nnz_per_s"] > 0
        assert metrics["neuralop.build_disco_matrices.s"] > 0
    if name == "ubp_sweep":
        assert metrics["recon_ubp.ubp_reconstruct.threads_speedup"] > 0
    # The wrappers are gone once the run ends.
    import pact.cli
    assert not hasattr(pact.cli.forward_operator, "__wrapped__")


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_spectra_row_scaled_by_one_percent_is_caught(tmp_path):
    wl = workloads.PipelineUbp(SEED, str(tmp_path), TOY)
    wl.setup(0)
    wl.item(0)
    assert failing(wl) == set()
    path = os.path.join(wl.done[0][1], "psi.c64")
    psi, _ = oracles.read_spectra(path)
    psi[workloads.green_rows(wl.input_seed(0), psi.shape[0])[0]] *= 1.01
    psi.astype("<c8").tofile(path)
    assert failing(wl) == {"spectra-rows-match-green-sum"}


def test_reconstruction_swapped_between_seeds_is_caught(tmp_path):
    wl = workloads.PipelineUbp(SEED, str(tmp_path), TOY)
    wl.setup(0)
    wl.item(0)
    wl.item(1)
    (_, a), (_, b) = wl.done
    shutil.move(os.path.join(a, "recon.f32"), os.path.join(tmp_path, "swap.f32"))
    shutil.move(os.path.join(b, "recon.f32"), os.path.join(a, "recon.f32"))
    shutil.move(os.path.join(tmp_path, "swap.f32"), os.path.join(b, "recon.f32"))
    assert failing(wl) == {"report-matches-recomputed-metrics"}


def test_non_monotone_objective_trace_is_caught(tmp_path):
    wl = workloads.Fista(SEED, str(tmp_path), TOY)
    wl.setup(0)
    wl.item(0)
    path = os.path.join(wl.done[0][1], "trace.csv")
    trace = oracles.read_trace_csv(path)
    trace[-1] = 1.5 * trace[0]
    with open(path, "w") as f:
        f.write("iteration,objective\n")
        f.writelines(f"{i},{float(v)!r}\n" for i, v in enumerate(trace))
    assert failing(wl) == {"objective-trace-non-increasing"}


def test_perturbed_disco_matrix_is_caught(tmp_path):
    wl = workloads.NeuralOp(SEED, str(tmp_path), TOY)
    wl.setup(0)
    wl.grids[0]["layer"].matrices[1].data *= 1.0 + 1e-4
    wl.item(0)
    assert failing(wl) == {"disco-rows-match-direct-quadrature"}


def test_run_fails_without_the_toolkit_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "fista", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    with pytest.raises(ValueError):
        json.loads(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "")
