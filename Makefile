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
		--seeds 4 --mttis 3 -o /tmp/bench_parallel_smoke.json
	PYTHONPATH=src $(PY) benchmarks/record_runtime.py \
		--quick -o /tmp/bench_runtime_smoke.json
	PYTHONPATH=src $(PY) benchmarks/record_fastpath.py \
		--quick -o /tmp/bench_fastpath_smoke.json

## Full-size pool speedup recording (writes BENCH_parallel_pool.json).
bench-parallel:
	PYTHONPATH=src $(PY) benchmarks/record_parallel.py

## Checkpoint data-path throughput: records BENCH_runtime_throughput.json
## on first run.  Every run fails if the dense lz4 kernel's speedup over
## the reference scanner is below 2x or the NDP drain reaches less than
## 0.4 of its drain-rate bound min(io_bw / (1 - factor), compress_rate);
## after the recording it also fails if either falls more than 20% below
## the recorded value.
bench-runtime:
	$(call record_or_check,record_runtime.py,BENCH_runtime_throughput.json)

## Telemetry overhead: records BENCH_obs_overhead.json on first run;
## afterwards fails if the disabled-span cost regresses >3x or the
## disabled-instrumentation bound ever exceeds its 2% budget.
bench-obs:
	$(call record_or_check,record_obs.py,BENCH_obs_overhead.json)

## Vectorized fastpath engine vs the baselines: records
## BENCH_sim_fastpath.json on first run (batch vs DES, >=8x floor; the
## fig6-fig9 grid through one simulate_grid pass vs a per-config loop,
## >=10x floor; the heterogeneous work x MTTI x capacity batch through
## the fused + compacted walker vs the per-capacity uncompacted one,
## >=1.5x floor, bit-identical; zero DES fallbacks); afterwards fails
## if any speedup regresses more than 40% vs the recording or falls
## below its floor.
bench-sim:
	$(call record_or_check,record_fastpath.py,BENCH_sim_fastpath.json)

## Capacity-planning service under zipfian load: records
## BENCH_service.json on first run (batched+coalesced throughput vs
## naive one-request-one-simulate dispatch, >=3x floor, byte-identity
## verified); afterwards fails if the speedup regresses more than 40%
## vs the recording or falls below the floor.
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
