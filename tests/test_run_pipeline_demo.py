"""scripts/run_pipeline_demo.py on the shortest motion it takes and one shorter."""

import importlib.util
import json
from pathlib import Path

import pytest

from retarget_kit import asset_path
from retarget_kit.cli import main as cli_main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline_demo.py"
spec = importlib.util.spec_from_file_location("run_pipeline_demo", SCRIPT)
run_pipeline_demo = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_pipeline_demo)


def test_too_few_frames_is_a_parser_error(tmp_path, capsys):
    # Every count from 1 to 7 once crashed with exit 1: the velocity and acceleration
    # errors need 2 and 3 frames, and the codebook draws 8 distinct frames.
    with pytest.raises(SystemExit) as stop:
        run_pipeline_demo.main(["--frames", "7", "--out-dir", str(tmp_path)])
    assert stop.value.code == 2
    assert "error: --frames must be at least 8" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_shortest_motion_runs(tmp_path, capsys):
    run_pipeline_demo.main(["--frames", "8", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert "synthetic motion: 8 frames on human_24" in out
    assert out.count("quantized 8 frames into ") == 2
    assert (tmp_path / "demo.report.json").exists()
    assert len(list(tmp_path.iterdir())) == 17


def strict_load(path):
    """The JSON document at `path`, refusing NaN and the infinities as the spec does."""

    def refuse(constant):
        raise ValueError(f"{path.name}: {constant} is not a JSON number")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_written_files_hold_only_json_numbers(tmp_path, capsys):
    # A carried-forward retarget frame once put bare NaN tokens into --report.
    run_pipeline_demo.main(["--frames", "8", "--out-dir", str(tmp_path)])
    assert cli_main([
        "retarget", "--human", str(tmp_path / "reconstructed.motion"),
        "--human-skel", str(asset_path("human_24")), "--robot-skel", str(asset_path("h1_like_19")),
        "--map", str(asset_path("human_to_h1")), "--out", str(tmp_path / "robot.motion"),
        "--report", str(tmp_path / "retarget.report.json"),
    ]) == 0
    written = [p for p in sorted(tmp_path.iterdir()) if p.suffix != ".bin"]
    assert len(written) == 15  # the demo's 17 files less its 4 binary sidecars, and 2 more
    for path in written:
        assert strict_load(path)["version"] == 1
