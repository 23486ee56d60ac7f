PYTHON ?= python

.PHONY: test bench bench-update bench-micro profile sweep-bench sweep-smoke chaos-smoke billing-smoke fabric-smoke control-smoke obs-smoke perfbench-check experiments-check

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The workflow benchmark's own self-tests: its probes wrap
# TestbedHarness.run, Simulator.run and run_scenario, so a change to
# any of those must keep the probes (and the pinned digests) working.
perfbench-check:
	PYTHONPATH=src $(PYTHON) -m pytest perfbench -q

# Regenerate every table (the paper's and the extensions) and fail
# unless the output is byte-identical to experiments_output.txt.
experiments-check:
	PYTHONPATH=src $(PYTHON) -m repro experiments --extensions \
		> .experiments-check.txt
	cmp .experiments-check.txt experiments_output.txt; \
		status=$$?; rm -f .experiments-check.txt; exit $$status

# Run the benchmark suite and fail if any benchmark regressed more
# than 20% against the recorded baseline (BENCH_fastpath.json).
bench:
	$(PYTHON) tool/bench.py

# Re-record the baseline after an intentional performance change.
bench-update:
	$(PYTHON) tool/bench.py --update

# Just the hot-loop micro-benchmarks (flow-table, VEB, frame copy,
# megaflow): a fast early-failing regression gate for the lookup and
# batching primitives, before the full suite runs.
bench-micro:
	$(PYTHON) tool/bench.py --targets \
		benchmarks/test_microbench.py::test_flow_table_lookup_rate \
		benchmarks/test_microbench.py::test_flow_table_emc_hit_rate \
		benchmarks/test_microbench.py::test_veb_forwarding_rate \
		benchmarks/test_microbench.py::test_frame_copy_rate \
		benchmarks/test_microbench.py::test_megaflow_hit_rate

# cProfile the Fig. 5 e2e scenario: top-20 cumulative for the batched
# fast path and the per-frame oracle (the before/after tables in
# EXPERIMENTS.md come from exactly these two commands).
profile:
	$(PYTHON) tool/profile.py
	$(PYTHON) tool/profile.py --oracle

# Just the sweep/backends benchmarks: records the warm-pool speedup
# factor into BENCH_fastpath.json and gates on it (>= 1.5x required
# when >= 4 cores are available; recorded-only below that).
sweep-bench:
	$(PYTHON) tool/bench.py --targets benchmarks/test_sweep.py

# End-to-end smoke of the sweep runner: a 4-point grid through the
# process pool, written to a throwaway cache, then re-run to prove
# every point comes back from the store.
sweep-smoke:
	rm -rf .sweep-smoke
	PYTHONPATH=src $(PYTHON) -m repro sweep \
		--levels baseline l1 --tenants 4 \
		--duration 0.05 --traffic p2p p2v --jobs 2 \
		--cache-dir .sweep-smoke/cache --out .sweep-smoke/sweep.jsonl
	PYTHONPATH=src $(PYTHON) -m repro sweep \
		--levels baseline l1 --tenants 4 \
		--duration 0.05 --traffic p2p p2v --jobs 2 \
		--cache-dir .sweep-smoke/cache --out .sweep-smoke/sweep2.jsonl \
		> .sweep-smoke/second.txt
	cat .sweep-smoke/second.txt
	grep -q "0 computed" .sweep-smoke/second.txt
	rm -rf .sweep-smoke

# End-to-end smoke of the chaos layer: crash one vswitch per
# configuration, let the watchdog + supervisor heal it, and fail if
# any run ends unrepaired or with an accounting violation (--check).
chaos-smoke:
	rm -rf .chaos-smoke
	PYTHONPATH=src $(PYTHON) -m repro chaos \
		--duration 0.12 --check \
		--cache-dir .chaos-smoke/cache \
		--events-out .chaos-smoke/events.jsonl
	test -s .chaos-smoke/events.jsonl
	PYTHONPATH=src $(PYTHON) -m repro chaos \
		--duration 0.12 --check --warm-standby \
		--cache-dir .chaos-smoke/cache
	rm -rf .chaos-smoke

# End-to-end smoke of the fabric engine: place a small fleet, run the
# flows under study through the hybrid (fluid background + per-packet
# foreground) AND through the pure-DES oracle, and fail unless the two
# agree within the pinned 5% bound (--validate --check).
fabric-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fabric \
		--servers 4 --tenants 16 --study-flows 1 \
		--duration 0.1 --validate --check

# End-to-end smoke of the resident control plane: 30 s of simulated
# tenant churn with three compartment crashes, the autoscaler live and
# the watchdog migrating crash victims.  --check fails on any lifecycle
# invariant violation or a migrated tenant that never resumed
# forwarding; the events file proves the lifecycle log shipped.
control-smoke:
	rm -rf .control-smoke
	mkdir -p .control-smoke
	PYTHONPATH=src $(PYTHON) -m repro serve \
		--duration 30 --arrival-rate 2 --crashes 3 \
		--repair-after 10 --seed 42 --check \
		--cache-dir .control-smoke/cache \
		--events-out .control-smoke/events.jsonl
	test -s .control-smoke/events.jsonl
	rm -rf .control-smoke

# End-to-end smoke of the packet tracer: one traced L2 run through
# `repro obs` must write a non-empty span dump and metrics snapshot.
obs-smoke:
	rm -rf .obs-smoke
	mkdir -p .obs-smoke
	PYTHONPATH=src $(PYTHON) -m repro obs --level l2 --vms 2 \
		--duration 0.01 \
		--trace-out .obs-smoke/spans.jsonl \
		--metrics-out .obs-smoke/metrics.prom
	test -s .obs-smoke/spans.jsonl
	test -s .obs-smoke/metrics.prom
	rm -rf .obs-smoke

# End-to-end smoke of the billing pipeline: meter the noisy-neighbor
# workload on every level (clean + compartment-crash runs), fail
# unless every run's windowed usage reconciles exactly with the
# core/accounting ground truth (--check).
billing-smoke:
	rm -rf .billing-smoke
	mkdir -p .billing-smoke
	PYTHONPATH=src $(PYTHON) -m repro billing \
		--duration 0.05 --check \
		--cache-dir .billing-smoke/cache \
		--usage-out .billing-smoke/usage.jsonl \
		--invoices-out .billing-smoke/invoices.jsonl
	test -s .billing-smoke/usage.jsonl
	test -s .billing-smoke/invoices.jsonl
	rm -rf .billing-smoke
