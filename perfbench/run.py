"""Workflow benchmark of the MTS reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig5-latency --seed 0 --seconds 20 --trace 0

One run executes the workload's operation list (see ``workloads.py``)
back to back in this process, pass after pass, until ``--seconds`` of
measuring are spent, and checks every operation's output.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``frames_per_s``, ``setup_s``, ``peak_rss_mb``); ``error_rate`` is
``failed / attempted``.  With ``--trace 1`` each measured pass runs
untraced and then again with a span around every function of every
layer, and the metrics are per layer; the spans and per-operation
counter snapshots are written to ``perfbench/out/`` when the run ends.
``perfbench/design.json`` records why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
WORKLOADS = ("fig5-latency", "flood-billing", "policy-dos", "fleet-churn")
OUT = HERE / "out"

#: Cold imports of the simulator measured per run (median reported).
IMPORT_SAMPLES = 5

_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - start)\n"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", type=Path, default=PINS,
                        help="pinned output digests to check against")
    parser.add_argument("--record-pins", action="store_true",
                        help="write this run's digests into --pins")
    return parser.parse_args(argv)


def digest(material: dict) -> str:
    """SHA-256 of an operation's result values (keys starting with
    ``_`` are for checks only)."""
    public = {k: v for k, v in material.items() if not k.startswith("_")}
    text = json.dumps(public, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Runner:
    """Runs passes of one workload and keeps the books: timings, the
    per-operation digests and every failure."""

    def __init__(self, workload, clock, pinned) -> None:
        self.workload = workload
        self.clock = clock
        self.pinned = pinned
        #: Digest per operation from its first execution in this run.
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def run_op(self, index: int, op, hook=None):
        """Execute and check one operation; returns its material."""
        runs_before = len(self.clock.runs)
        start = time.perf_counter()
        try:
            material = op.run()
            material["runs"] = [
                {"sent": r.sent, "delivered": r.delivered,
                 "samples": len(r.latencies)}
                for r in self.clock.runs[runs_before:] if hasattr(r, "sent")]
            problems = op.check(material)
        except Exception:  # one failed operation must not end the run
            material, problems = None, [traceback.format_exc(limit=4)]
        end = time.perf_counter()
        if material is not None:
            problems += self._compare(index, digest(material))
        if hook is not None:
            hook(op, start, end)
        return material, problems

    def _compare(self, index: int, value: str) -> list:
        problems = []
        first = self.reference.setdefault(index, value)
        if value != first:
            problems.append(f"digest {value} differs from {first} earlier "
                            f"in this run")
        if self.pinned is not None and value != self.pinned[index]:
            problems.append(f"digest {value} differs from pinned "
                            f"{self.pinned[index]}")
        return problems

    def warm_up(self) -> None:
        for index in self.workload.warmup:
            op = self.workload.ops[index]
            _, problems = self.run_op(index, op)
            self.attempted += 1
            self._record(op, problems)
        self.clock.reset()

    def run_pass(self, hook=None) -> dict:
        self.clock.reset()
        # Each pass starts from a collected heap, not from whatever
        # garbage the previous pass left for the cyclic collector.
        gc.collect()
        materials = []
        start = time.perf_counter()
        for index, op in enumerate(self.workload.ops):
            material, problems = self.run_op(index, op, hook)
            materials.append(material)
            self.attempted += 1
            self._record(op, problems)
        wall = time.perf_counter() - start
        return {"wall_s": wall, "setup_s": self.clock.setup_s,
                "traffic_s": self.clock.traffic_s,
                "frames_sent": self.clock.frames_sent,
                "frames_delivered": self.clock.frames_delivered,
                "batched_frames": self.clock.batched_frames,
                "materials": materials}

    def _record(self, op, problems) -> None:
        if problems:
            self.failures.append((op.name, problems))
            print(f"FAILED {op.name}: {'; '.join(problems)}",
                  file=sys.stderr)

    def digests(self) -> list:
        return [self.reference[i] for i in range(len(self.workload.ops))]


def import_seconds() -> float:
    """Median cold import time of every ``repro`` module this process
    has loaded, each sample in a fresh interpreter."""
    modules = sorted(name for name in sys.modules
                     if name == "repro" or name.startswith("repro."))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC), *modules],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def keep_measuring(start: float, walls: list, seconds: float) -> bool:
    """Start another pass only if it should end within ``seconds``."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def measure_untraced(runner, seconds: float) -> dict:
    runner.warm_up()
    imports = import_seconds()
    passes = []
    start = time.perf_counter()
    while not passes or keep_measuring(
            start, [p["wall_s"] for p in passes], seconds):
        passes.append(runner.run_pass())
        del passes[-1]["materials"]  # only traced passes read them
        print(f"pass {len(passes)}: {passes[-1]['wall_s']:.3f} s wall, "
              f"{passes[-1]['setup_s']:.3f} s set-up, "
              f"{passes[-1]['traffic_s']:.3f} s traffic")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "frames_per_s": (statistics.median(
            p["frames_sent"] / p["traffic_s"] for p in passes), "1/s"),
        "setup_s": (imports + statistics.median(
            p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


def measure_traced(runner, seconds: float, trace_path: Path) -> dict:
    from probes import Counters, Ledger, Patcher, import_all
    from repro.scenario import registry

    import_all()
    runner.warm_up()
    pairs = []
    start = time.perf_counter()
    while not pairs or keep_measuring(
            start, [p[0]["wall_s"] + p[1]["wall_s"] for p in pairs], seconds):
        untraced = runner.run_pass()
        ledger, counters, patcher = Ledger(), Counters(), Patcher()
        counters.install(patcher)
        ledger.install(patcher)
        _forget_resolved(registry)
        spans = []
        try:
            traced = runner.run_pass(hook=_span_recorder(ledger, counters,
                                                         spans))
        finally:
            patcher.restore()
            _forget_resolved(registry)
        traced.update(ledger=ledger, counters=counters, spans=spans)
        pairs.append((untraced, traced))
        print(f"pair {len(pairs)}: {untraced['wall_s']:.3f} s untraced, "
              f"{traced['wall_s']:.3f} s traced")
    pairs.sort(key=lambda p: p[1]["wall_s"])
    traced = pairs[(len(pairs) - 1) // 2][1]
    overhead = (statistics.median(p[1]["wall_s"] for p in pairs)
                / statistics.median(p[0]["wall_s"] for p in pairs))
    metrics = layer_metrics(traced, overhead)
    _write_trace(trace_path, traced, metrics)
    return metrics


def _forget_resolved(registry) -> None:
    """The workload registry caches resolved measurement functions;
    registering each again makes the next resolve look them up anew
    (spanned while the ledger is installed, original after)."""
    for name, target in list(registry.WORKLOADS.items()):
        registry.register(name, target)


def _span_recorder(ledger, counters, spans: list):
    """One span per operation: its start and end, and the layer calls,
    layer self time and counter growth inside it."""
    last = {"layers": ledger.layer_totals(), "counters": {}}

    def record(op, start, end):
        layers = ledger.layer_totals()
        values = dict(counters.values)
        spans.append({
            "op": op.name, "start": start, "end": end,
            "layers": {layer: [calls - last["layers"][layer][0],
                               self_s - last["layers"][layer][1]]
                       for layer, (calls, self_s) in layers.items()},
            "counters": {k: v - last["counters"].get(k, 0.0)
                         for k, v in values.items()},
        })
        last.update(layers=layers, counters=values)
    return record


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: dict, overhead: float) -> dict:
    from probes import LAYERS

    ledger, counters = traced["ledger"], traced["counters"]
    c = counters.get
    materials = [m for m in traced["materials"] if m is not None]

    def metric_sum(prefix: str) -> float:
        return sum(value for m in materials
                   for key, value in m.get("metrics", {}).items()
                   if key.split("{", 1)[0] == prefix)

    metrics = {}
    totals = ledger.layer_totals()
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (totals[layer][0], "count")
        metrics[f"{layer}.self_s"] = (totals[layer][1], "s")
    metrics["unattributed.self_s"] = (
        traced["wall_s"] - ledger.spanned_s, "s")
    metrics["traced.wall_s"] = (traced["wall_s"], "s")
    frames = traced["frames_sent"]
    metrics.update({
        "sim.events": (c("sim.events"), "count"),
        "sim.events_per_frame": (_ratio(c("sim.events"), frames),
                                 "events/frame"),
        "traffic.frames_sent": (frames, "count"),
        "traffic.frames_delivered": (traced["frames_delivered"], "count"),
        "traffic.fastpath_share": (
            _ratio(traced["batched_frames"], frames), "ratio"),
        "vswitch.emc_hit_ratio": (
            _ratio(c("emc_hits"), c("emc_lookups")), "ratio"),
        "vswitch.plan_hit_ratio": (
            _ratio(c("plan_hits"), c("plan_lookups")), "ratio"),
        "vswitch.flow_misses": (c("flow_misses"), "count"),
        "vswitch.plan_invalidations": (c("plan_invalidations"), "count"),
        "vswitch.rx_ring_drops": (c("drop_rx_ring"), "count"),
        "sriov.veb_memo_hit_ratio": (
            _ratio(c("veb_memo_hits"), c("veb_forwards")), "ratio"),
        "sriov.filter_memo_hit_ratio": (
            _ratio(c("filter_memo_hits"), c("filter_evals")), "ratio"),
        "sriov.drops": (sum(c(k) for k in (
            "drop_spoof", "drop_filtered", "drop_no_destination",
            "drop_unconfigured_vf", "drop_rate_limited")), "count"),
        "billing.usage_records": (sum(
            1 for m in materials for u in m.get("usage", ())
            if u.get("kind") == "usage"), "count"),
        "faults.injected": (metric_sum("faults_injected_total"), "count"),
        "controlplane.transitions": (
            metric_sum("controlplane_transitions_total"), "count"),
        "controlplane.migrations": (
            metric_sum("controlplane_migrations_total"), "count"),
        "fabric.des_events": (c("fabric.des_events"), "count"),
        "perfmodel.solves": (
            ledger.calls_matching("repro.perfmodel.capacity.solve"), "count"),
        "scenario.runs": (
            ledger.calls_matching("repro.scenario.engine.run_scenario"),
            "count"),
        "obs.trace_overhead": (overhead, "ratio"),
    })
    return metrics


def _write_trace(path: Path, traced: dict, metrics: dict) -> None:
    ledger = traced["ledger"]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "operations": traced["spans"],
            "functions": {name: {"layer": ledger.layer_of[name],
                                 "calls": calls, "self_s": self_s}
                          for name, (calls, self_s) in ledger.stats.items()
                          if calls},
        }, handle, indent=1, sort_keys=True)


def load_pins(path: Path, workload: str, seed: int):
    if not path.is_file():
        return None
    with open(path) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def save_pins(path: Path, workload: str, seed: int, digests: list) -> None:
    pins = {}
    if path.is_file():
        with open(path) as handle:
            pins = json.load(handle)
    pins.setdefault(workload, {})[str(seed)] = digests
    with open(path, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import workloads
    from probes import Patcher, PhaseClock

    workload = workloads.build(args.workload, args.seed)
    pinned = None if args.record_pins else load_pins(
        args.pins, args.workload, args.seed)
    if pinned is not None and len(pinned) != len(workload.ops):
        print(f"perfbench: {args.pins} pins {len(pinned)} operations, the "
              f"workload has {len(workload.ops)}", file=sys.stderr)
        return 2
    clock = PhaseClock()
    clock.install(Patcher())
    runner = Runner(workload, clock, pinned)
    print(f"{args.workload}: {len(workload.ops)} operations, seed "
          f"{args.seed}, {'pinned' if pinned else 'no pinned'} digests")

    if args.trace:
        metrics = measure_traced(
            runner, args.seconds,
            OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = measure_untraced(runner, args.seconds)

    if args.record_pins:
        save_pins(args.pins, args.workload, args.seed, runner.digests())
    failed = len(runner.failures)
    summary = hashlib.sha256("".join(runner.digests()).encode()).hexdigest()
    print(f"output digest {summary[:16]}; {failed} of {runner.attempted} "
          f"operations failed; error_rate {failed / runner.attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0



if __name__ == "__main__":
    sys.exit(main())
