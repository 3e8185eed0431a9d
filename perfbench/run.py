#!/usr/bin/env python3
"""Benchmark of the retarget-kit CLI chain, one workload per run.

    python3 perfbench/run.py --workload walk-h1 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program under test is imported
from ./src, never from an installed copy. The run builds its input files
from --seed, then calls the CLI stages of the workload in process through
``retarget_kit.cli.main(argv)``, one after another (a closed loop with one
client), repeating the whole chain until --seconds are used. Every output
is checked; each output file must hash the same on every repeat. Times are
reported at a reference machine speed, sampled while the chain runs (see
speed.py).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
repeats with repeats that have every layer wrapped in spans (see
spans.py), and reports the per-layer metrics. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the line before
it is a JSON object {"detail": ...} with the environment, input sizes,
quality figures and any check failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

# One BLAS thread: the chain is single-client, and more threads than cores
# would measure the scheduler, not the program.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads():
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


# Before numpy is first imported, by the benchmark's modules below.
limit_blas_threads()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 25

# Output checks. A correct chain is far inside each limit; a broken stage
# is far outside it.
MAX_KEYPOINT_DRIFT_M = 0.1  # FK of the reconstruction vs the input keypoints
MAX_RECON_MPJPE_MRAD = 500.0
MAX_MARKER_RESIDUAL_M = 1.0

E2E_UNITS = {
    "throughput_fps": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "recon_mpjpe_mrad": "mrad",
}
PER_LAYER_UNITS = {
    "skeleton.fk_calls": "count",
    "skeleton.fk_us_per_call": "us",
    "skeleton.fk_self_s": "s",
    "retarget.fk_calls_per_frame": "count",
    "retarget.iterations_mean": "count",
    "retarget.frame_ms_p50": "ms",
    "retarget.frame_ms_ptail": "ms",
    "retarget.frame_ms_ptail_pct": "%",
    "retarget.frame_samples": "count",
    "retarget.self_ms_per_frame": "ms",
    "retarget.fk_share": "fraction",
    "retarget.stage_s": "s",
    "retarget.converged_frac": "fraction",
    "retarget.max_marker_residual_m": "m",
    "retarget.mean_marker_residual_m": "m",
    "ik.ms_per_frame": "ms",
    "features.ms_per_frame": "ms",
    "metrics.gen_s": "s",
    "metrics.track_s": "s",
    "vq.assign_s": "s",
    "io.load_s": "s",
    "io.save_s": "s",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
import speed
with speed.Sampler() as sampler:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import retarget_kit as rk
    human = rk.load_example_skeleton("human_24")
    for robot, corr in (("h1_like_19", "human_to_h1"), ("g1_like_21", "human_to_g1")):
        rk.load_example_correspondence(corr, human, rk.load_example_skeleton(robot))
    elapsed = time.perf_counter() - t0
print(rk.__file__)
print(repr(sampler.at_reference_speed(elapsed)))
"""


class HarnessError(Exception):
    """The benchmark cannot run here (no program, bad environment)."""


# --- loading the program -------------------------------------------------


def load_program():
    """Import retarget_kit from ./src of this checkout, and its CLI."""
    if not (SRC / "retarget_kit" / "__init__.py").is_file():
        raise HarnessError(f"no program to measure: {SRC / 'retarget_kit'} is missing")
    sys.path.insert(0, str(SRC))
    import retarget_kit
    import retarget_kit.cli  # noqa: F401  (binds retarget_kit.cli)

    if Path(retarget_kit.__file__).resolve().parent != (SRC / "retarget_kit").resolve():
        raise HarnessError(f"imported retarget_kit from {retarget_kit.__file__}, not {SRC}")
    return retarget_kit


def measure_setup(repeats=SETUP_REPEATS):
    """Median time, at the reference speed, to import the package and load
    the bundled assets.

    Each sample is a fresh interpreter, so imports are really cold in the
    interpreter (the operating system's file cache stays warm).
    """
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if Path(lines[0]).resolve().parent != (SRC / "retarget_kit").resolve():
            raise HarnessError(f"set-up probe imported {lines[0]}")
        samples.append(float(lines[1]))
    return statistics.median(samples)


def blas_info():
    """BLAS library name and version from numpy's build, and its thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    return {"library": name, "threads": _openblas_threads(), "env": {k: os.environ.get(k) for k in BLAS_ENV}}


def _openblas_threads():
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(input_sizes):
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = blas_info()
    threads = blas["threads"] if blas["threads"] is not None else BLAS_THREADS
    if threads > nproc:
        raise HarnessError(f"BLAS uses {threads} threads on {nproc} cores")
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "inputs": input_sizes,
    }


# --- running the chain ----------------------------------------------------


@dataclass
class StageRun:
    name: str
    rc: int
    wall: float
    frames: int
    error: str


@dataclass
class Repeat:
    wall: float  # raw wall time of the chain, speed samples included
    stages: list
    scaled: float  # chain time at the reference speed (untraced repeats only)
    traced: bool = False
    tracer_cost_s: float = 0.0  # time spent in the tracer's own code
    hashes: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)  # stage -> set of failed frame indices
    notes: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    def fail(self, stage, frames, note):
        self.failed.setdefault(stage.name, set()).update(frames)
        self.notes.append(f"{stage.name}: {note}")


def _call_cli(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        return e.code if isinstance(e.code, int) else 2
    except Exception:  # a crash is a failed stage, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        return 1


def run_chain(cli, chain, tracer=None):
    """One repeat of the chain. Untraced, it samples the machine's speed;
    traced, it does not, so that no span holds sampling time."""
    runs = []
    sampler = speed.Sampler() if tracer is None else contextlib.nullcontext()
    cost_before = tracer.cost_s if tracer is not None else 0.0
    with sampler:
        t0 = time.perf_counter()
        for name, argv, frames, _ in chain:
            out, err = io.StringIO(), io.StringIO()
            span = tracer.span(f"cli.{name}") if tracer is not None else contextlib.nullcontext()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                rc = _call_cli(cli, argv)
            runs.append(StageRun(name, rc, time.perf_counter() - start, frames, err.getvalue()[-500:]))
        wall = time.perf_counter() - t0
    if tracer is None:
        return Repeat(wall, runs, sampler.at_reference_speed(wall))
    return Repeat(wall, runs, float("nan"), traced=True, tracer_cost_s=tracer.cost_s - cost_before)


def _sha256(path):
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def measure(rk, chain, out, budget_s, on_repeat, tracer=None):
    """Repeat the chain while another repeat still fits in budget_s, at
    least twice. With a tracer, every second repeat is traced.

    out maps output names to paths; all of them sit in one directory,
    which is emptied before each repeat so no stale file can pass a check.
    """
    out_dir = next(iter(out.values())).parent
    repeats = []
    start = time.perf_counter()
    while len(repeats) < 2 or (
        time.perf_counter() - start + statistics.median(r.wall for r in repeats) <= budget_s
    ):
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        traced = tracer is not None and len(repeats) % 2 == 1
        if traced:
            first_span = len(tracer.spans)
            with spans.patched(tracer, rk):
                rep = run_chain(rk.cli, chain, tracer)
            rep.spans = tracer.spans[first_span:]
        else:
            rep = run_chain(rk.cli, chain)
        for stage, (_, _, _, outputs) in zip(rep.stages, chain):
            for key in outputs:
                rep.hashes[key] = _sha256(out[key])
            if stage.rc != 0:
                rep.fail(stage, range(stage.frames), f"exit {stage.rc}: {stage.error.strip()}")
        on_repeat(rep)
        repeats.append(rep)
    return repeats


# --- checks ---------------------------------------------------------------


def _load(loader, path):
    try:
        return loader(path)
    except Exception as e:  # any load failure is a failed output check
        return e


def _read_json(path):
    return json.loads(Path(path).read_text())


def check_outputs(rk, workload, paths, out, rep):
    """Check one repeat's outputs against the inputs; fill rep.quality."""
    stages = {s.name: s for s in rep.stages}
    n = workload.frames
    human = rk.load_skeleton(paths["human_skel"])

    recon = _load(rk.load_motion, out["recon"])
    if isinstance(recon, Exception) or recon.kind != "trajectory" or len(recon.trajectory.poses) != n:
        rep.fail(stages["ik"], range(n), f"bad reconstruction: {recon}")
        recon = None
    keypoints = rk.load_motion(paths["keypoints"]).keypoints

    def check_drift(stage, rendered):
        drift = np.max(np.linalg.norm(rendered - keypoints, axis=2), axis=1)
        bad = np.flatnonzero(~(drift <= MAX_KEYPOINT_DRIFT_M))
        if len(bad):
            rep.fail(stage, bad.tolist(), f"keypoints off by up to {np.max(drift):.3f} m")

    try:
        mpjpe = _read_json(out["track_report"])["metrics"]["MPJPE(mrad)"]
    except (OSError, ValueError, KeyError, TypeError):
        mpjpe = None
    if not (isinstance(mpjpe, float) and 0.0 < mpjpe <= MAX_RECON_MPJPE_MRAD):
        rep.fail(stages["metrics-track"], range(n), f"reconstruction MPJPE {mpjpe!r} mrad")
    rep.quality["recon_mpjpe_mrad"] = mpjpe

    if workload.robot is not None:
        if recon is not None:
            check_drift(stages["ik"], np.array([rk.fk(human, p).positions for p in recon.trajectory.poses]))
        check_retarget(rk, workload, paths, out, rep, stages["retarget"])
        return

    rendered = _load(rk.load_motion, out["rendered"])
    if isinstance(rendered, Exception) or rendered.kind != "keypoints" or rendered.keypoints.shape != keypoints.shape:
        rep.fail(stages["fk"], range(n), f"bad rendered keypoints: {rendered}")
    else:
        check_drift(stages["fk"], rendered.keypoints)

    feats = _load(rk.load_feature_matrix, out["features"])
    if isinstance(feats, Exception) or feats.values.shape != (n - 1, rk.feature_dimension(human)):
        rep.fail(stages["features"], range(n), f"bad feature matrix: {feats}")

    tokens = _load(rk.load_tokens, out["tokens"])
    codes = rk.load_codebook(paths["codebook"]).size
    if isinstance(tokens, Exception) or len(tokens) != n - 1 or not all(0 <= i < codes for i in tokens.indices):
        rep.fail(stages["quantize-assign"], range(n - 1), f"bad tokens: {tokens}")

    try:
        values = dict(_read_json(out["gen_report"])["metrics"])
    except (OSError, ValueError, KeyError, TypeError):
        values = {}
    expected = ("FID", "DIV", "MM-Dist", "R Top-1", "R Top-2", "R Top-3")
    if not all(isinstance(values.get(k), float) and math.isfinite(values[k]) for k in expected):
        rep.fail(stages["metrics-gen"], range(n - 1), f"bad generation metrics: {values}")


def check_retarget(rk, workload, paths, out, rep, stage):
    n = workload.frames
    robot_skel = rk.load_skeleton(paths["robot_skel"])
    robot = _load(rk.load_motion, out["robot"])
    if isinstance(robot, Exception) or robot.kind != "trajectory" or len(robot.trajectory.poses) != n:
        rep.fail(stage, range(n), f"bad robot motion: {robot}")
    else:
        outside = [i for i, p in enumerate(robot.trajectory.poses) if rk.check_limits(robot_skel, p)]
        if outside:
            rep.fail(stage, outside, f"{len(outside)} frames outside joint limits")
    report = _load(_read_json, out["retarget_report"])
    try:
        frames = report["per_frame"]
        residuals = [float(v) for f in frames for v in f["position_residuals"].values()]
        carried = [i for i, f in enumerate(frames) if not f["position_residuals"]]
        worst = float(report["max_position_residual"])
        quality = {
            "max_marker_residual_m": worst,
            "mean_marker_residual_m": float(np.mean(residuals)) if residuals else None,
            "converged_frac": sum(bool(f["converged"]) for f in frames) / n,
            "iterations_mean": sum(int(f["iterations"]) for f in frames) / n,
        }
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        rep.fail(stage, range(n), f"bad retarget report: {e!r}")
        return
    if len(frames) != n:
        rep.fail(stage, range(n), f"report has {len(frames)} frames, expected {n}")
    if carried:
        rep.fail(stage, carried, f"{len(carried)} frames carried forward")
    if not (math.isfinite(worst) and worst <= MAX_MARKER_RESIDUAL_M):
        rep.fail(stage, range(n), f"marker residual {worst} m")
    rep.quality.update(quality)


def check_repeat_against(reference, rep, chain):
    """Outputs must hash the same as the reference repeat's; tracing included."""
    for stage, (_, _, _, outputs) in zip(rep.stages, chain):
        changed = [k for k in outputs if rep.hashes.get(k) != reference.hashes.get(k)]
        if changed:
            rep.fail(stage, range(stage.frames), f"output differs from first repeat: {changed}")
    rep.quality = dict(reference.quality)


# --- per-layer figures from spans ------------------------------------------


def tail_percentile(n):
    """Highest whole percentile with at least 10 samples beyond it; the
    median (50) when fewer than 20 samples leave no tail above it."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n > 10 else 50


def percentile(values, pct):
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def layer_figures(repeat_spans, workload, quality):
    """Per-layer figures of one traced repeat of the chain."""
    by_id = {s.id: s for s in repeat_spans}

    def named(prefix):
        return [s for s in repeat_spans if s.name.startswith(prefix)]

    def stage_of(s):
        while s.parent is not None:
            s = by_id[s.parent]
        return s.name

    fk = named("skeleton.fk@")
    fk_s = sum(s.duration for s in fk)
    frames = [s for s in repeat_spans if s.name == "retarget.retarget_frame"]
    frame_s = sum(s.duration for s in frames)
    retarget_fk = named("skeleton.fk@retarget")
    n_retarget = len(frames)
    per = (lambda total: total / n_retarget) if n_retarget else (lambda total: 0.0)
    metrics = [s for s in named("metrics.")
               if s.parent is None or not by_id[s.parent].name.startswith("metrics.")]
    stages = named("cli.")
    n = workload.frames
    return {
        "skeleton.fk_calls": len(fk),
        "skeleton.fk_us_per_call": 1e6 * fk_s / len(fk) if fk else 0.0,
        "skeleton.fk_self_s": sum(s.self_s for s in fk),
        "retarget.fk_calls_per_frame": per(len(retarget_fk)),
        "retarget.iterations_mean": quality.get("iterations_mean", 0.0),
        "retarget.frame_durations_ms": [1e3 * s.duration for s in frames],
        "retarget.self_ms_per_frame": per(1e3 * sum(s.self_s for s in frames)),
        "retarget.fk_share": sum(s.duration for s in retarget_fk) / frame_s if frame_s else 0.0,
        "retarget.stage_s": sum(s.duration for s in stages if s.name == "cli.retarget"),
        "retarget.converged_frac": quality.get("converged_frac", 0.0),
        "retarget.max_marker_residual_m": quality.get("max_marker_residual_m", 0.0),
        "retarget.mean_marker_residual_m": quality.get("mean_marker_residual_m", 0.0),
        "ik.ms_per_frame": 1e3 * sum(s.duration for s in named("ik.reconstruct_sequence")) / n,
        "features.ms_per_frame": 1e3 * sum(s.duration for s in named("features.")) / n,
        "metrics.gen_s": sum(s.duration for s in metrics if stage_of(s) == "cli.metrics-gen"),
        "metrics.track_s": sum(s.duration for s in metrics if stage_of(s) == "cli.metrics-track"),
        "vq.assign_s": sum(s.duration for s in named("vq.")),
        "io.load_s": sum(s.duration for s in named("io.load_")),
        "io.save_s": sum(s.duration for s in named("io.save_")),
        "io.bytes_read": sum(s.nbytes for s in named("io.load_")),
        "io.bytes_written": sum(s.nbytes for s in named("io.save_")),
        "cli.self_s": sum(s.self_s for s in stages),
    }


COUNTS = ("skeleton.fk_calls", "retarget.fk_calls_per_frame", "io.bytes_read", "io.bytes_written")


def combine_layers(traced):
    """Median over traced repeats; counts must repeat exactly."""
    out = {}
    for name in PER_LAYER_UNITS:
        if name in ("retarget.frame_ms_p50", "retarget.frame_ms_ptail", "retarget.frame_ms_ptail_pct",
                    "retarget.frame_samples", "trace.overhead_frac"):
            continue
        values = [r.layers[name] for r in traced]
        out[name] = values[0] if name in COUNTS else statistics.median(values)
    durations = [d for r in traced for d in r.layers["retarget.frame_durations_ms"]]
    pct = tail_percentile(len(durations))
    out["retarget.frame_ms_p50"] = statistics.median(durations) if durations else 0.0
    out["retarget.frame_ms_ptail"] = percentile(durations, pct)
    out["retarget.frame_ms_ptail_pct"] = pct
    out["retarget.frame_samples"] = len(durations)
    # The tracer times its own code around every wrapped call, so its cost
    # is measured inside the traced repeat itself. Traced against untraced
    # repeats differ by a share below their run-to-run noise.
    out["trace.overhead_frac"] = statistics.median(r.tracer_cost_s / (r.wall - r.tracer_cost_s) for r in traced)
    return out


def retarget_accounting(values, workload):
    """How much of the retarget stage FK and the solver's own time explain.

    Spans do not cover the stage's argument parsing, file loads and saves
    and report building, so part of the stage stays unexplained. The trace
    accounts for the stage when that part is within the tracing overhead.
    """
    stage_s = values["retarget.stage_s"]
    if not stage_s:
        return None
    explained = values["skeleton.fk_self_s"] + values["retarget.self_ms_per_frame"] * workload.frames / 1e3
    unexplained = 1.0 - explained / stage_s
    return {
        "stage_s": stage_s, "explained_s": explained, "unexplained_frac": unexplained,
        "within_trace_overhead": abs(unexplained) <= values["trace.overhead_frac"],
    }


def check_counts(traced):
    """A count made by the program must repeat exactly between repeats."""
    first = traced[0]
    for rep in traced[1:]:
        for name in COUNTS:
            if rep.layers[name] != first.layers[name]:
                rep.notes.append(f"count {name} changed: {first.layers[name]} -> {rep.layers[name]}")
                for stage in rep.stages:
                    rep.failed.setdefault(stage.name, set()).update(range(stage.frames))


# --- the benchmark ----------------------------------------------------------


def benchmark(rk, workload, seed, seconds, trace, work_dir, spans_path):
    """Run one workload; return (result line, detail).

    A traced run writes its spans, one JSON object a line, to spans_path.
    """
    setup_s = measure_setup()
    work_dir = Path(work_dir)
    inputs_dir, out_dir = work_dir / "inputs", work_dir / "outputs"
    paths = workloads.make_inputs(rk, workload, seed, inputs_dir)
    chain, out = workloads.stages(workload, paths, out_dir)
    input_sizes = {
        "frames": workload.frames,
        "bytes": {k: os.path.getsize(v) for k, v in sorted(paths.items())},
    }

    first = []

    def on_repeat(rep):
        if not first:
            check_outputs(rk, workload, paths, out, rep)
            first.append(rep)
        else:
            check_repeat_against(first[0], rep, chain)
        if rep.traced:
            rep.layers = layer_figures(rep.spans, workload, rep.quality)

    tracer = spans.Tracer() if trace else None
    everything = measure(rk, chain, out, seconds, on_repeat, tracer)
    shutil.rmtree(out_dir, ignore_errors=True)
    repeats = [r for r in everything if not r.traced]
    traced = [r for r in everything if r.traced]
    quality = first[0].quality

    if trace:
        check_counts(traced)
        Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
        Path(spans_path).write_text("".join(json.dumps(r) + "\n" for r in tracer.records()))
        values, units = combine_layers(traced), PER_LAYER_UNITS
        accounting = retarget_accounting(values, workload)
    else:
        values = {
            "throughput_fps": workload.frames / statistics.median(r.scaled for r in repeats),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "recon_mpjpe_mrad": quality["recon_mpjpe_mrad"] or 0.0,
        }
        units, accounting = E2E_UNITS, None
    attempted = sum(s.frames for r in everything for s in r.stages)
    failed = sum(len(v) for r in everything for v in r.failed.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "repeats": len(repeats),
        "traced_repeats": len(traced),
        "chain_walls_s": [r.wall for r in repeats],
        "chain_scaled_s": [r.scaled for r in repeats],
        "traced_walls_s": [r.wall for r in traced],
        "tracer_cost_s": [r.tracer_cost_s for r in traced],
        "throughput_wall_fps": workload.frames / statistics.median(r.wall for r in repeats),
        "retarget_accounting": accounting,
        "stage_walls_s": {s.name: statistics.median(r.stages[i].wall for r in repeats)
                          for i, s in enumerate(repeats[0].stages)},
        "setup_s": setup_s,
        "failed_frac": failed / attempted,
        "quality": quality,
        "hashes": first[0].hashes,
        "environment": environment(input_sizes),
        "failures": [note for r in everything for note in r.notes][:20],
        "spans_file": str(spans_path) if trace else None,
    }
    return result, detail


def print_report(result, detail):
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"repeats {detail['repeats']}+{detail['traced_repeats']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  unscaled throughput {detail['throughput_wall_fps']:.6g} frames/s "
          f"(at the machine's speed during the run)")
    for name, value in detail["quality"].items():
        print(f"  quality {name:26s} {value}")
    print(f"  failed_frac {detail['failed_frac']:.6g} ({result['failed']}/{result['attempted']} frame-ops)")
    for note in detail["failures"]:
        print(f"  FAILED {note}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"work-{os.getpid()}"
    spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        rk = load_program()
        result, detail = benchmark(rk, workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                                   args.trace, work_dir, spans_path)
    except HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print_report(result, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
