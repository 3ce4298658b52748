"""Every example script must run end to end (reduced wall time guards)."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

import repro.storage

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "carpool_detection.py", "storage_backends.py",
     "convoy_service.py", "http_service.py", "metrics_dashboard.py",
     "fleet_dashboard.py"],
)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_quickstart_finds_planted_convoys():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "mined fully connected convoys" in result.stdout
    assert "convoys found" in result.stdout


def test_storage_backends_fails_when_a_backend_disagrees(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "storage_backends", EXAMPLES / "storage_backends.py"
    )
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    build_store = repro.storage.build_store

    def lossy_lsmt(kind, dataset, directory=None):
        if kind == "lsmt":  # a backend that kept only the first tick
            dataset = dataset.restrict_time(dataset.start_time, dataset.start_time)
        return build_store(kind, dataset, directory)

    monkeypatch.setattr(repro.storage, "build_store", lossy_lsmt)
    assert example.main() == 1
    captured = capsys.readouterr()
    assert captured.out.count("[DIFF]") == 1
    assert "['lsmt']" in captured.err


@pytest.mark.slow
@pytest.mark.parametrize(
    "script", ["traffic_jam_monitor.py", "baseline_comparison.py"]
)
def test_heavy_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
