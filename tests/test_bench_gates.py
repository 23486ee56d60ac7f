"""The factor gate table of tool/bench.py, driven with synthetic runs.

The module is loaded by path, so these tests need neither the
benchmark suite nor pytest-benchmark.
"""

import importlib.util
import json
import pathlib

import pytest

BENCH_PY = pathlib.Path(__file__).resolve().parent.parent / "tool" / "bench.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("repro_tool_bench", BENCH_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()
ROWS = {row.key: row for row in bench.GATES}


def run(**mins):
    """A synthetic ``current`` dict: benchmark name -> min in us."""
    return {name: {"min_us": value, "mean_us": value}
            for name, value in mins.items()}


def pair(row, value):
    """The row's two benchmarks with ``value`` as their factor."""
    return run(**{row.numerator: value * 1000.0, row.denominator: 1000.0})


def beyond(row):
    """The row's bound moved 1% to the failing side."""
    return row.bound * (1.01 if row.direction == "<=" else 0.99)


@pytest.fixture
def many_cores(monkeypatch):
    monkeypatch.setattr(bench, "available_cores", lambda: 4)


@pytest.fixture
def baseline_file(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_fastpath.json"
    monkeypatch.setattr(bench, "BASELINE_PATH", str(path))
    return path


class TestTable:
    def test_six_rows_with_the_recorded_bounds(self):
        assert {key: (row.bound, row.direction, row.min_cores)
                for key, row in ROWS.items()} == {
            "obs_overhead_factor": (1.30, "<=", 1),
            "batch_e2e_speedup_factor": (2.5, ">=", 1),
            "sweep_pool_speedup_factor": (1.5, ">=", 4),
            "fabric_hybrid_speedup_factor": (5.0, ">=", 1),
            "metering_overhead_factor": (1.6, "<=", 1),
            "control_plane_overhead_factor": (1.1, "<=", 1),
        }


class TestVerdict:
    @pytest.mark.parametrize("key", sorted(ROWS))
    def test_passes_at_bound(self, key, many_cores):
        row = ROWS[key]
        current = pair(row, row.bound)
        assert bench.factor(row, current) == row.bound
        assert bench.verdict(row, current) is True
        assert bench.check_factors(current) == 0

    @pytest.mark.parametrize("key", sorted(ROWS))
    def test_fails_one_percent_beyond(self, key, many_cores):
        row = ROWS[key]
        current = pair(row, beyond(row))
        assert bench.verdict(row, current) is False
        assert bench.check_factors(current) == 1

    @pytest.mark.parametrize("key", sorted(ROWS))
    def test_absent_pair_gives_no_verdict(self, key, many_cores, capsys):
        row = ROWS[key]
        half = run(**{row.numerator: 1000.0})
        assert bench.factor(row, half) is None
        assert bench.verdict(row, half) is None
        assert bench.verdict(row, {}) is None
        assert capsys.readouterr().out == ""
        assert bench.check_factors({}) == 0

    def test_sweep_skipped_below_four_cores(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "available_cores", lambda: 2)
        row = ROWS["sweep_pool_speedup_factor"]
        current = pair(row, 0.5)
        assert bench.verdict(row, current) is None
        assert bench.check_factors(current) == 0
        assert "SKIPPED" in capsys.readouterr().out


class TestPlainE2eTolerance:
    BASELINE = {"benchmarks": {bench.E2E_BENCH: {"min_us": 1000.0},
                               "test_frame_copy_rate": {"min_us": 10.0}}}

    @pytest.mark.parametrize("ratio,rc", [(1.09, 0), (1.11, 1)])
    def test_held_to_ten_percent(self, ratio, rc):
        current = run(**{bench.E2E_BENCH: 1000.0 * ratio,
                         "test_frame_copy_rate": 10.0})
        assert bench.gate(current, self.BASELINE, 0.20) == rc

    def test_other_benchmarks_keep_the_general_tolerance(self):
        current = run(**{bench.E2E_BENCH: 1000.0,
                         "test_frame_copy_rate": 11.5})
        assert bench.gate(current, self.BASELINE, 0.20) == 0

    def test_tighter_cli_tolerance_still_wins(self):
        current = run(**{bench.E2E_BENCH: 1070.0,
                         "test_frame_copy_rate": 10.0})
        assert bench.gate(current, self.BASELINE, 0.05) == 1


class TestStoreFactors:
    def test_one_call_writes_every_factor(self, baseline_file):
        recorded = {"benchmarks": {"x": {"min_us": 1.0}},
                    "headline": {"e2e_speedup": 4.2},
                    "obs_overhead_factor": 9.0}
        baseline_file.write_text(json.dumps(recorded))
        current = run(test_e2e_des_packet_rate=1000.0,
                      test_e2e_traced_packet_rate=1123.456,
                      test_e2e_batched_packet_rate=300.0,
                      test_sweep_sequential_8pt=3000.0,
                      test_sweep_pool_8pt=1700.0,
                      test_fabric_pure_des_8s32t=8222.2,
                      test_fabric_hybrid_8s32t=1000.0,
                      test_e2e_metered_packet_rate=1067.8,
                      test_e2e_controlplane_packet_rate=969.4)
        bench.store_factors(current)
        stored = json.loads(baseline_file.read_text())
        assert stored["benchmarks"] == recorded["benchmarks"]
        assert stored["headline"] == recorded["headline"]
        assert {key: stored[key] for key in ROWS} == {
            "obs_overhead_factor": 1.123,
            "batch_e2e_speedup_factor": 3.333,
            "sweep_pool_speedup_factor": 1.765,
            "fabric_hybrid_speedup_factor": 8.222,
            "metering_overhead_factor": 1.068,
            "control_plane_overhead_factor": 0.969,
        }
        assert set(stored) == {"benchmarks", "headline", *ROWS}

    def test_nothing_written_without_a_factor(self, baseline_file):
        baseline_file.write_text("{}")
        bench.store_factors(run(test_frame_copy_rate=10.0))
        assert baseline_file.read_text() == "{}"
