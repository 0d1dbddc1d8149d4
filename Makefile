# Developer entry points.  Everything runs offline with PYTHONPATH=src —
# no install step required.

PY      ?= python
PYTEST   = PYTHONPATH=src $(PY) -m pytest

.PHONY: test test-fast smoke bench-parallel bench-runtime bench-obs bench-sim bench-service serve-smoke metrics-demo report

# $(call record_or_check,SCRIPT,JSON): record JSON with SCRIPT on the first
# run; afterwards re-measure and gate against it with SCRIPT --check.
record_or_check = @if [ -f $(2) ]; then \
		PYTHONPATH=src $(PY) benchmarks/$(1) --check; \
	else \
		PYTHONPATH=src $(PY) benchmarks/$(1); \
	fi

## Full test suite (tier-1 gate).
test:
	$(PYTEST) -x -q

## Fast split: everything except the long Monte-Carlo integration tests.
test-fast:
	$(PYTEST) -x -q -m "not slow"

## Smoke the parallel Monte-Carlo pool: the bench_parallel benches (tiny
## seed counts) plus a miniature speedup recording, so the multiprocessing
## path is exercised on every run.
smoke:
	$(PYTEST) -q benchmarks/bench_parallel.py
	PYTHONPATH=src $(PY) benchmarks/record_parallel.py \
		--quick -o /tmp/bench_parallel_smoke.json
	PYTHONPATH=src $(PY) benchmarks/record_runtime.py \
		--quick -o /tmp/bench_runtime_smoke.json
	PYTHONPATH=src $(PY) benchmarks/record_fastpath.py \
		--quick -o /tmp/bench_fastpath_smoke.json

## Full-size pool speedup recording (writes BENCH_parallel_pool.json).
bench-parallel:
	PYTHONPATH=src $(PY) benchmarks/record_parallel.py

## Checkpoint data path (lz4 kernels, NDP drain vs its bound); prints its gate table.
bench-runtime:
	$(call record_or_check,record_runtime.py,BENCH_runtime_throughput.json)

## Telemetry overhead (disabled and enabled tracing); prints its gate table.
bench-obs:
	$(call record_or_check,record_obs.py,BENCH_obs_overhead.json)

## Fastpath engine vs the DES and its own older walkers; prints its gate table.
bench-sim:
	$(call record_or_check,record_fastpath.py,BENCH_sim_fastpath.json)

## Service throughput under zipfian load vs naive dispatch; prints its gate table.
bench-service:
	$(call record_or_check,record_service.py,BENCH_service.json)

## Boot the service, fire a mixed request burst (simulate/sweep/optimize
## across concurrent clients), verify byte-identity vs serial simulate
## and that the /metrics counters moved.
serve-smoke:
	PYTHONPATH=src $(PY) benchmarks/record_service.py --smoke

## Run the calibrated C/R demo and print measured-vs-model drift tables.
metrics-demo:
	PYTHONPATH=src $(PY) -m repro metrics

## Regenerate the experiment report, parallel where supported.
report:
	PYTHONPATH=src $(PY) -m repro report --jobs 0 -o REPORT.md
