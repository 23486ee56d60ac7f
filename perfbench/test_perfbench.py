"""Self-tests of the benchmark (not part of the simulator's suite).

Run from the repository root::

    python3 -m pytest perfbench -q

They drive ``run.py`` as a subprocess on the shortest workload and
check the contract: printed names are declared, a wrong pinned digest
fails operations instead of being ignored, layer self times add up to
the traced wall time, and a checkout without the simulator refuses to
run.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from probes import LAYERS  # noqa: E402
from run import OUT, ROOT, WORKLOADS  # noqa: E402
from workloads import BUILDERS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOAD = "policy-dos"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", WORKLOAD, "--seed", "0", "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def untraced() -> dict:
    return result_of(bench("--trace", "0"))


@pytest.fixture(scope="module")
def traced() -> dict:
    return result_of(bench("--trace", "1"))


@pytest.fixture
def scratch():
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=OUT))
    yield path
    shutil.rmtree(path)


def _check_names(result: dict, metrics: list) -> None:
    units = {m["name"]: m["unit"] for m in metrics}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == units[name], name
        assert math.isfinite(metric["value"]), name


def test_workloads_are_declared(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert set(WORKLOADS) == set(BUILDERS)
    for workload in declared["workloads"]:
        assert NAME.fullmatch(workload["name"])


def test_untraced_names_are_declared(untraced, declared):
    _check_names(untraced, declared["end_to_end"])
    assert untraced["correct"] and untraced["failed"] == 0


def test_traced_names_are_declared(traced, declared):
    _check_names(traced, declared["per_layer"])
    assert traced["correct"] and traced["failed"] == 0


def test_self_times_sum_to_traced_wall(traced):
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    total += metrics["unattributed.self_s"]
    assert total == pytest.approx(metrics["traced.wall_s"], rel=1e-9)
    assert metrics["unattributed.self_s"] >= 0.0


def test_corrupted_pin_fails_operations(scratch):
    with open(HERE / "pins.json") as handle:
        pins = json.load(handle)
    digests = pins[WORKLOAD]["0"]
    digests[1] = "0" * len(digests[1])
    corrupted = scratch / "pins.json"
    corrupted.write_text(json.dumps(pins))
    result = result_of(bench("--trace", "0", "--pins", str(corrupted)))
    assert not result["correct"]
    # Warm-up runs operation 0 only; the pass runs operation 1 once.
    assert result["failed"] == 1


def test_refuses_to_run_without_the_simulator(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--trace", "0", cwd=scratch)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

