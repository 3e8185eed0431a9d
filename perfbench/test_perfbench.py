"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import json
import time

import pytest

import compare
import run
import spans
import speed
import workloads


@pytest.fixture(scope="module")
def rk():
    run.limit_blas_threads()
    return run.load_program()


# --- the compare rule ----------------------------------------------------


PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


def test_clear_gain():
    change = [v * 1.3 for v in PARENT]
    v = compare.verdict(PARENT, change, "higher", 0.1)
    assert v["status"] == "gain"
    assert v["wins"] == 10


def test_tie_counts_for_neither_side():
    v = compare.verdict(PARENT, list(PARENT), "higher", 0.1)
    assert (v["status"], v["wins"], v["losses"]) == ("no change", 0, 0)


def test_nine_of_ten_wins_needed():
    change = [v * 1.3 for v in PARENT]
    change[0], change[1] = PARENT[0] - 1.0, PARENT[1] - 1.0  # two lost pairs
    v = compare.verdict(PARENT, change, "higher", 0.5)
    assert v["wins"] == 8
    assert v["status"] == "no change"


def test_small_median_shift_inside_parent_spread_is_no_gain():
    change = [v + 0.01 for v in PARENT]  # wins every pair, but by less than the IQR
    v = compare.verdict(PARENT, change, "higher", 0.1)
    assert v["wins"] == 10
    assert v["status"] == "no change"


def test_regression_beyond_bound():
    change = [v * 1.2 for v in PARENT]  # lower is better: 20% worse
    assert compare.verdict(PARENT, change, "lower", 0.1)["status"] == "regression"
    assert compare.verdict(PARENT, change, "lower", 0.25)["status"] == "no change"


def test_wide_spread_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    change = [v * 0.97 for v in noisy]
    assert compare.verdict(noisy, change, "higher", 0.1)["status"] == "unresolved"


def test_wide_spread_resolved_when_every_change_run_is_better():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    change = [v + 20.0 for v in noisy]
    assert compare.verdict(noisy, change, "higher", 0.1)["status"] == "gain"


def test_judge_pairs_runs_by_workload_and_seed():
    def record(seed, fps, residual):
        return {
            "workload": "walk-h1", "seed": seed,
            "result": {"correct": True, "metrics": {"throughput_fps": {"value": fps, "unit": "frames/s"}}},
            "detail": {"trace": 0, "quality": {"max_marker_residual_m": residual}, "throughput_wall_fps": fps},
        }

    parent = [record(s, PARENT[s], 0.2) for s in range(10)]
    change = [record(s, 2 * PARENT[s], 0.3) for s in reversed(range(10))]
    rows = compare.judge(parent, change, {"throughput_fps": ("higher", 0.1), **compare.QUALITY})
    assert rows["walk-h1"]["throughput_fps"]["status"] == "gain"
    assert rows["walk-h1"]["max_marker_residual_m"]["status"] == "regression"


def test_spec_metrics_match_the_harness():
    spec = compare.load_spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


# --- inputs ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(rk, tmp_path, name):
    w = workloads.smoke(workloads.WORKLOADS[name])
    a = workloads.make_inputs(rk, w, 7, tmp_path / "a")
    b = workloads.make_inputs(rk, w, 7, tmp_path / "b")
    c = workloads.make_inputs(rk, w, 8, tmp_path / "c")
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes(), key
    assert a["keypoints"].read_bytes() != c["keypoints"].read_bytes()


# --- smoke runs --------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_runs_clean(rk, tmp_path, name, trace):
    w = workloads.smoke(workloads.WORKLOADS[name])
    result, detail = run.benchmark(rk, w, 3, 0.5, trace, tmp_path / "work", tmp_path / "spans.jsonl")
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER_UNITS if trace else run.E2E_UNITS
    assert list(result["metrics"]) == list(units)
    json.dumps(result)  # the result line must be plain JSON
    if trace:
        records = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert {r["name"] for r in records} >= {"cli.ik", "ik.reconstruct_sequence", "io.load_motion"}
    else:
        assert result["metrics"]["throughput_fps"]["value"] > 0
        assert result["metrics"]["recon_mpjpe_mrad"]["value"] > 0


def test_a_broken_stage_counts_its_frames_as_failed(rk, tmp_path, monkeypatch):
    w = workloads.smoke(workloads.WORKLOADS["walk-h1"])

    def no_retarget(*args, **kwargs):
        raise rk.errors.NumericError("injected")

    monkeypatch.setattr(rk.cli, "retarget_sequence", no_retarget)
    result, detail = run.benchmark(rk, w, 3, 0.5, 0, tmp_path / "work", tmp_path / "spans.jsonl")
    assert not result["correct"]
    assert result["failed"] >= w.frames
    assert any("retarget" in note for note in detail["failures"])


def test_tracing_restores_every_wrapped_function(rk):
    before = [(m, a, getattr(m, a)) for m, a, *_ in spans.targets(rk)]
    tracer = spans.Tracer()
    with spans.patched(tracer, rk):
        assert all(getattr(m, a) is not f for m, a, f in before)
    assert all(getattr(m, a) is f for m, a, f in before)


def test_tracer_counts_its_own_cost():
    tracer = spans.Tracer()
    wrapped = tracer.wrap("busy", lambda: sum(range(100000)))
    wrapped()
    (span,) = tracer.spans
    assert 0.0 < tracer.cost_s < span.duration


def test_speed_sampler_takes_its_own_time_out_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(range(1000))
        wall = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3 and 0.0 < sampler.spent_s < wall
    scaled = sampler.at_reference_speed(wall)
    mean = sum(sampler.samples) / len(sampler.samples)
    assert scaled == pytest.approx((wall - sampler.spent_s) * speed.REFERENCE_S / mean)


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    outer, inner = tracer.spans
    assert inner.parent == outer.id
    assert outer.self_s == pytest.approx(outer.duration - inner.duration)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(60) == 83
    assert run.tail_percentile(12) == 50
    assert run.tail_percentile(10) == 50
