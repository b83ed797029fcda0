"""Closed-loop runs of one workload through ``mjpbounds.cli.main``, in process.

One client runs the workload's commands one after another and starts the
next run only when the previous one has finished.  Outputs go to files in a
scratch directory inside the checkout and are checked after each run,
outside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import speedprobe
import tracing
import workloads
from mjpbounds import bounds, cli, modelio

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
TRACE_DIR = ROOT / ".perfbench-out"

MIN_RUNS = 3  # untraced runs per benchmark run, even past the time budget
MIN_TRACED_RUNS = 2  # exact counts are compared between these
SETUP_BUDGET_S = 2.0
SETUP_BLOCK_S = 0.2  # set-up repeats are timed in blocks, with a speed probe after each
SETUP_MIN_BLOCKS = 5
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MJPBOUNDS_THREADS")


def reference_path(workload, command):
    return REFERENCE_DIR / f"{workload.name}.{command.label}.csv"


class Bench:
    """One workload at one seed: its model file, its commands and its tallies."""

    def __init__(self, workload, seed, workdir, use_reference=True):
        self.workload = workload
        self.seed = seed
        self.model_path = Path(workdir) / f"{workload.model}.json"
        workloads.write_model(self.model_path, *workload.model_arrays(seed))
        self.outs = [Path(workdir) / f"{c.label}.csv" for c in workload.commands]
        self.refs = [
            reference_path(workload, c).read_text()
            if use_reference and seed == workloads.DEFAULT_SEED
            else None
            for c in workload.commands
        ]
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def argv(self, command, out):
        return [
            *command.argv,
            "--model", str(self.model_path),
            "--seed", str(self.seed),
            "--no-timestamp",
            "--out", str(out),
        ]

    def run(self, main=cli.main):
        """Run every command once; returns wall seconds, then checks the outputs."""
        gc.collect()  # so the last run's garbage is not collected on this run's clock
        wall = 0.0
        codes = []
        for command, out in zip(self.workload.commands, self.outs):
            argv = self.argv(command, out)
            start = perf_counter()
            try:
                code = main(argv)
            except Exception:  # the run goes on; the command's rows count as failed
                traceback.print_exc()
                code = None
            wall += perf_counter() - start
            codes.append(code)
        for command, out, ref, code in zip(self.workload.commands, self.outs, self.refs, codes):
            self._check(command, out, ref, code)
        return wall

    def _check(self, command, out, ref, code):
        if code != 0:
            attempted, failed = command.expected_rows, command.expected_rows
            notes = [f"exit code {code}"]
        else:
            text = out.read_text() if out.exists() else ""
            attempted, failed, notes = checks.check_body(text, command.expected_rows, ref)
        if out.exists():
            out.unlink()
        self.attempted += attempted
        self.failed += failed
        self.notes += [f"{command.label}: {n}" for n in notes]

    def setup_block(self):
        """Median time of ``read_model_file`` plus ``analyze`` over repeats filling a block."""
        times = []
        begin = perf_counter()
        while not times or perf_counter() - begin < SETUP_BLOCK_S:
            start = perf_counter()
            bounds.analyze(modelio.read_model_file(str(self.model_path)).model)
            times.append(perf_counter() - start)
        return statistics.median(times)


def closed_loop(runs, seconds, min_runs):
    """Call ``runs()`` until ``seconds`` would be exceeded; returns its results."""
    results = []
    begin = perf_counter()
    while True:
        start = perf_counter()
        results.append(runs())
        last = perf_counter() - start
        if len(results) >= min_runs and perf_counter() - begin + last > seconds:
            return results


def untraced_metrics(bench, seconds):
    setup_cal = speedprobe.Calibrated()  # set-up runs on one thread
    setup = closed_loop(
        lambda: setup_cal.time(bench.setup_block), SETUP_BUDGET_S, SETUP_MIN_BLOCKS
    )
    setup_raw, setup_scaled = zip(*setup)
    cal = speedprobe.Calibrated(bench.workload.threads)
    runs = closed_loop(lambda: cal.time(bench.run), seconds, MIN_RUNS)
    raw, scaled = zip(*runs)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(scaled), "s"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    unscaled = {
        "wall_s_unscaled": (statistics.median(raw), "s"),
        "setup_s_unscaled": (statistics.median(setup_raw), "s"),
        "probe_s": (statistics.median(setup_cal.probes + cal.probes), "s"),
    }
    detail = {"runs": len(raw), "wall_s_runs": raw, "probe_s_all": setup_cal.probes + cal.probes}
    return metrics, unscaled, detail


def traced_metrics(bench, seconds):
    """Untraced and traced runs alternate; per-layer medians plus tracing overhead."""
    cal = speedprobe.Calibrated(bench.workload.threads)
    untraced, traced, layer_runs = [], [], []
    last = None

    def traced_run():
        nonlocal last
        tracer = tracing.Tracer()
        with tracing.patched(tracer) as missing:
            wall = bench.run(tracer.wrap("cli.main", cli.main))
        last = (tracer, missing)
        layer_runs.append(tracing.layer_metrics(tracer.spans))
        return wall

    def pair():
        untraced.append(cal.time(bench.run))
        traced.append(cal.time(traced_run))

    closed_loop(pair, seconds, MIN_TRACED_RUNS)
    metrics = tracing.combine_runs(layer_runs)
    overhead = statistics.median(s for _, s in traced) / statistics.median(
        s for _, s in untraced
    )
    metrics["trace_overhead_frac"] = (overhead - 1.0, "ratio")
    unscaled = {"probe_s": (statistics.median(cal.probes), "s")} if cal.probes else {}
    tracer, missing = last
    detail = {
        "runs": len(traced),
        "unwrapped_names": missing,
        "wall_s_untraced_runs": [r for r, _ in untraced],
        "wall_s_traced_runs": [r for r, _ in traced],
        "probe_s_all": cal.probes,
        "self_s_last_run": tracing.self_times(tracer.spans),
        "spans_last_run": tracer.spans,
    }
    return metrics, unscaled, detail


def _git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mjpbounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, seed, seconds, trace):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "model": workload.model,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": _git_revision(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": workload.threads,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def run(workload, seed, seconds, trace, workdir):
    """One benchmark run; prints the environment, a table and the result line."""
    env = environment(workload, seed, seconds, trace)
    bench = Bench(workload, seed, workdir)
    measure = traced_metrics if trace else untraced_metrics
    metrics, unscaled, detail = measure(bench, seconds)
    failed_frac = bench.failed / bench.attempted

    print(json.dumps({"env": env}))
    for note in bench.notes[:20]:
        print(f"failed row: {note}", file=sys.stderr)
    table = {**metrics, **unscaled, "failed_frac": (failed_frac, "ratio")}
    for name, (value, unit) in table.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{workload.name:10s} {name:40s} {shown} {unit}")
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"trace-{workload.name}-seed{seed}.json"
        doc = {"env": env, "metrics": table, **detail}
        out.write_text(json.dumps(doc))
        print(f"trace written to {out.relative_to(ROOT)}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
