# Developer entry points.  Everything runs against the in-tree sources
# (PYTHONPATH=src), matching the CI tier-1 invocation.

PY ?= python
export PYTHONPATH := src

.PHONY: test trace-tests chaos-tests scrub-tests hedge-tests lifecycle-tests tenant-tests autopilot-tests corruption-drill hedge-drill lifecycle-drill tenant-drill autopilot-drill drill-all drill-chaos pool-paper-check perf bench-smoke coverage

## tier-1: the full default suite (perf benchmarks excluded via addopts)
test:
	$(PY) -m pytest -x -q

## just the causal-tracing / trace-oracle suites
trace-tests:
	$(PY) -m pytest -q -m trace

## just the fault-injection and outage drills
chaos-tests:
	$(PY) -m pytest -q -m "chaos or outage"

## just the silent-corruption / quarantine / deep-scrub suites
scrub-tests:
	$(PY) -m pytest -q -m scrub

## just the speculative straggler-cloning (hedging) suites
hedge-tests:
	$(PY) -m pytest -q -m hedge

## end-to-end data-integrity drill: corruption storm -> detect/quarantine
## -> deep scrub -> converge checker-clean (machine-readable)
corruption-drill:
	$(PY) -m repro.cli corruption-drill --seed 0 --json

## hedged straggler-cloning drill: chaotic busy hour with cloning on ->
## every hedge resolved, trace oracle + audit clean (machine-readable)
hedge-drill:
	$(PY) -m repro.cli hedge-drill --seed 0 --json

## just the planned-operations (evacuation / rolling restart / switchover)
## suites
lifecycle-tests:
	$(PY) -m pytest -q -m lifecycle

## planned-disruption drills: region evacuation, rolling engine restart,
## and orchestration switchover under live load, proved safe by the
## trace oracle, audit, and deep scrub (machine-readable)
lifecycle-drill:
	$(PY) -m repro.cli lifecycle-drill --scenario evacuate --seed 0 --json
	$(PY) -m repro.cli lifecycle-drill --scenario rolling --seed 0 --json
	$(PY) -m repro.cli lifecycle-drill --scenario switchover --seed 0 --json

## just the multi-tenant isolation / fair-share / sharding suites
tenant-tests:
	$(PY) -m pytest -q -m tenant

## multi-tenant control-plane drill: 1000 tenants across sharded engine
## workers, Zipf workload -> per-tenant convergence, budget admission,
## fair share, and cross-tenant isolation all verified (machine-readable)
tenant-drill:
	$(PY) -m repro.cli tenant-drill --seed 0 --json

## just the closed-loop SLO controller (autopilot) suites
autopilot-tests:
	$(PY) -m pytest -q -m autopilot

## SLO autopilot drill: busy hour with a mid-run load surge and a
## regional WAN brownout -> the controller engages on both, p99
## recovers within the settle bound, budgets hold, and audit + deep
## scrub + trace oracle (incl. autopilot discipline) stay clean
autopilot-drill:
	$(PY) -m repro.cli autopilot-drill --seed 0 --json

## every drill the CLI ships, one seed, one shared report schema;
## exits non-zero if any drill reports pass=false
drill-all:
	$(PY) -m repro.cli drill-all --seed 0

## the documented chaos-storm + hedging variants: every lifecycle drill
## and autopilot-drill with --chaos --hedging.  Kept out of drill-all's
## roster so its pinned report stays byte-identical.
drill-chaos:
	$(PY) -m repro.cli lifecycle-drill --scenario evacuate --seed 0 --chaos --hedging --json
	$(PY) -m repro.cli lifecycle-drill --scenario rolling --seed 0 --chaos --hedging --json
	$(PY) -m repro.cli lifecycle-drill --scenario switchover --seed 0 --chaos --hedging --json
	$(PY) -m repro.cli autopilot-drill --seed 0 --chaos --hedging --json

## the paper's part-pool figures (Fig 12 distribution, Fig 16 bulk,
## Fig 17 pool vs fair dispatch) at quarter scale; the outputs go to a
## pytest temp dir, not results/.  Needs pytest-benchmark.
pool-paper-check:
	REPRO_BENCH_SCALE=0.25 $(PY) -m pytest -q --benchmark-disable \
		benchmarks/test_fig12_distribution.py \
		benchmarks/test_fig16_bulk.py \
		benchmarks/test_fig17_scheduling.py

## wall-clock benchmarks (compare against BENCH_PR1.json with bench-perf)
perf:
	$(PY) -m pytest -q -m perf

## seconds-long perf smoke: tiny-scale bench-perf checked against the
## committed scale-0.05 reference.  Rates are not scale-invariant, so
## the full-scale BENCH_PR*.json files cannot be the bar here — the
## scale guard in bench-perf --check would (correctly) refuse them.
## Wider tolerance: tiny work sizes amplify machine noise.
bench-smoke:
	$(PY) -m repro.cli bench-perf --scale 0.05 --repeat 2 --check \
		--baseline tests/baselines/BENCH_SMOKE.json --tolerance 0.5

## line coverage over src/repro; requires the dev extras (pytest-cov).
## Gated so environments without pytest-cov fail with a message instead
## of an unknown-option error from pytest.
coverage:
	@$(PY) -c "import pytest_cov" 2>/dev/null || \
		{ echo "pytest-cov is not installed; run: pip install -e .[dev]"; exit 1; }
	$(PY) -m pytest -q --cov=repro --cov-report=term-missing --cov-fail-under=60
