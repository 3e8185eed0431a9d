"""scripts/run_pipeline_demo.py on the shortest motion it takes and one shorter."""

import importlib.util
from pathlib import Path

import pytest

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
