"""Benchmark of the pact toolkit, one workload per process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the toolkit is imported from
``src/``.  The run imports the toolkit, sets the workload up three times,
then starts items until ``--seconds`` have passed, checks every output and
prints one JSON object as its last line of output.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced items and reports the per-layer metrics of the traced ones.
Results and spans are also written under ``benchmarks/out/``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Pin numpy's BLAS/OpenMP pools before numpy loads: the --threads option of
# the toolkit is then the only parallelism in a run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("item_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("cosine_mean", "1"),
    ("psnr_db_mean", "dB"),
]


def import_toolkit():
    """Import pact from this checkout's src/ and return the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "pact", "__init__.py")):
        raise SystemExit(f"error: no toolkit sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import pact
    import pact.cli
    import pact.neuralop  # noqa: F401
    elapsed = time.perf_counter() - t0
    if not os.path.realpath(pact.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: pact was imported from {pact.__file__}, not {SRC}")
    return elapsed


def environment():
    """Host and program facts printed with each run, to tell host drift from code changes."""
    import numpy as np
    import scipy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest, lines = hashlib.sha256(), 0
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as f:
                    data = f.read()
                digest.update(data)
                lines += data.count(b"\n")
    # A fixed numpy-only loop: its time moves with the host, never with the toolkit.
    a = np.random.default_rng(0).standard_normal(1 << 20)
    t0 = time.perf_counter()
    for _ in range(10):
        float(np.sum(np.sqrt(np.abs(a)) * np.cos(a)))
    ref = time.perf_counter() - t0
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "reference_loop_s": ref}


def run(workload, seed, seconds, trace, import_s=0.0, size=None,
        setup_repeats=SETUP_REPEATS, workdir=None):
    """Run one workload; returns (result, details).

    ``result`` is the object the run prints; ``details`` holds the checks,
    the spans of a traced run, and the wall and CPU seconds of every
    set-up and item, which tell host drift from a change in the program.

    ``import_s`` is the toolkit's import time, which set-up time includes.
    """
    import workloads
    from spans import PER_LAYER, Recorder, per_layer

    size = size or workloads.FULL
    recorder = Recorder() if trace else None
    workdir = workdir or os.path.join(OUT, f"work-{workload}-{os.getpid()}")
    wl = workloads.WORKLOADS[workload](seed, workdir, size, recorder)
    try:
        setup_times = []
        for r in range(setup_repeats):
            with traced(recorder, ("setup", r)):
                t0 = time.perf_counter()
                wl.setup(r)
                setup_times.append(time.perf_counter() - t0)

        attempted = failed = 0
        times, traced_times, cpu_times = [], [], []
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < seconds:
            # A traced run's round is the same item untraced, then traced.
            for tracing in ((False, True) if trace else (False,)):
                attempted += 1
                with traced(recorder if tracing else None, ("item", k)):
                    t0, c0 = time.perf_counter(), time.process_time()
                    try:
                        wl.item(k)
                    except Exception as exc:  # a failed item is counted, not fatal
                        failed += 1
                        print(f"item {k} failed: {exc!r}", file=sys.stderr)
                        continue
                    (traced_times if tracing else times).append(time.perf_counter() - t0)
                    cpu_times.append(time.process_time() - c0)
            k += 1
        elapsed = time.perf_counter() - start

        with traced(recorder, ("check", 0)):
            checks = wl.check() if wl.done else [("items-completed", False, "no item completed")]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = per_layer(recorder.spans, traced_times, times)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        cos = [c for c, _ in wl.quality]
        db = [d for _, d in wl.quality]
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "items_per_s": len(times) / elapsed,
            "item_s_p50": statistics.median(times) if times else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cosine_mean": statistics.fmean(cos) if cos else float("nan"),
            "psnr_db_mean": statistics.fmean(db) if db else float("nan"),
        }
        units = dict(END_TO_END)
    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    details = {"checks": checks, "spans": recorder.spans if recorder else None,
               "setup_s": setup_times, "item_s": times, "traced_item_s": traced_times,
               "item_cpu_s": cpu_times}
    return result, details


@contextlib.contextmanager
def traced(recorder, tag):
    """Install the recorder's wrappers for a block and tag what it records."""
    if recorder is None:
        yield
        return
    recorder.tag = tag
    recorder.install()
    try:
        yield
    finally:
        recorder.uninstall()
        recorder.tag = None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline_ubp", "ubp_sweep", "fista", "neuralop"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_s = import_toolkit()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    for name, ok, detail in details["checks"]:
        print(f"[{'PASS' if ok else 'FAIL'}] {args.workload} {name}: {detail}", flush=True)

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".result.json", "w") as f:
        json.dump({"env": env, "args": vars(args), "import_s": import_s, **result,
                   **{k: v for k, v in details.items() if k != "spans"}}, f, indent=1)
    if details["spans"] is not None:
        with open(stem + ".spans.json", "w") as f:
            json.dump(details["spans"], f)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
