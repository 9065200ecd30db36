# Convenience targets for the Viator reproduction.

PYTHON ?= python

.PHONY: install test bench bench-smoke bench-baseline bench-parallel \
	examples verify demo figures obs-smoke obs-parallel-smoke \
	chaos-smoke recovery-smoke lint shardcheck sanitize-smoke \
	perfbench-smoke all clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

verify:
	$(PYTHON) -m repro verify

demo:
	$(PYTHON) -m repro demo

figures:
	$(PYTHON) -m repro figures

# Deterministic macro-benchmark gate: run the scenario suite and gate
# it against the committed baseline.  Digest mismatch = semantic drift
# = hard failure; normalized throughput may regress at most 25%.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bench --all --seed 42 \
		--scale short --out /tmp/bench-smoke \
		--compare BENCH_baseline.json --fail-over 25
	@echo "bench-smoke: digests match baseline, throughput in budget"

# Sharded-execution gate: run every shardable scenario partitioned
# across 2 worker processes and require byte-identical digests against
# the committed single-shard baseline (digests never include
# workers/backend, so the same anchor gates both).  Throughput is not
# the point here — CI runners may be single-core — so the regression
# threshold is slack; the digest check stays hard.
bench-parallel:
	PYTHONPATH=src $(PYTHON) -m repro bench \
		shuttle-storm jet-flood shard-scaling \
		--workers 2 --backend mp --seed 42 --scale short \
		--out /tmp/bench-parallel \
		--compare BENCH_baseline.json --fail-over 90
	@echo "bench-parallel: 2-shard digests byte-identical to the single-shard baseline"

# Regenerate the committed baseline.
bench-baseline:
	PYTHONPATH=src $(PYTHON) -m repro bench --all --seed 42 \
		--scale short --repeats 3 --out /tmp/bench-baseline \
		--combined BENCH_baseline.json

# Tiny instrumented demo: the JSONL must be non-empty, parseable, and
# renderable by `repro report`.
obs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro demo --nodes 6 --until 60 \
		--obs-out /tmp/obs-smoke.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.obs import load_jsonl; \
	records = load_jsonl('/tmp/obs-smoke.jsonl'); \
	assert records and records[0]['type'] == 'meta', records[:1]; \
	print(f'obs-smoke: {len(records)} records ok')"
	PYTHONPATH=src $(PYTHON) -m repro report /tmp/obs-smoke.jsonl > /dev/null
	@echo "obs-smoke: report rendered ok"

# Distributed telemetry gate: a 2-worker mp bench must produce one
# merged obs artifact whose report renders, with the run digest still
# byte-identical to the committed obs-off single-shard baseline.
obs-parallel-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bench shard-scaling \
		--workers 2 --backend mp --seed 42 --scale short \
		--out /tmp/obs-parallel-smoke \
		--obs-out /tmp/obs-parallel-smoke.jsonl \
		--compare BENCH_baseline.json --fail-over 90
	PYTHONPATH=src $(PYTHON) -m repro obs report \
		/tmp/obs-parallel-smoke.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro obs timeline \
		/tmp/obs-parallel-smoke.jsonl
	@echo "obs-parallel-smoke: merged 2-shard telemetry rendered, digest gated"

# Static analysis gate: the custom determinism linter is mandatory;
# ruff and mypy run when installed (pip install -e .[lint]) and are
# skipped with a notice otherwise, so the target works in minimal
# containers.  CI installs both, so all three gates bind there.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src/ tests/ benchmarks/ \
		--statistics
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	else echo "lint: ruff not installed, skipping"; fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else echo "lint: mypy not installed, skipping"; fi

# Whole-program shard-safety gate: cross-file analysis of the pickle
# boundary, worker-reachable mutable globals, recovery-metric digest
# hygiene, and RNG seed discipline (rules VIA012+).  Unlike `lint`,
# which judges files in isolation, this builds the import/call graph
# and only flags hazards actually reachable from shard entry points.
shardcheck:
	PYTHONPATH=src $(PYTHON) -m repro shardcheck src/ --statistics
	@echo "shardcheck: worker-reachable code is shard-safe"

# Determinism-sanitizer gate, two legs: (1) a taped run of every
# scenario must reproduce the committed sanitizer-off baseline digest
# (recording never perturbs a draw); (2) a deliberately injected draw
# perturbation MUST be caught and localized to its stream + call site
# (the detector detects).
sanitize-smoke:
	PYTHONPATH=src $(PYTHON) -m repro sanitize --all --scale short \
		--compare BENCH_baseline.json
	@if PYTHONPATH=src $(PYTHON) -m repro sanitize event-loop \
		--scale tiny --inject perf.event_loop@5 \
		> /tmp/sanitize-inject.txt; then \
		echo "sanitize-smoke: injected divergence NOT detected"; \
		exit 1; \
	else \
		grep -q "first divergent draw" /tmp/sanitize-inject.txt; \
	fi
	@echo "sanitize-smoke: digests neutral, injection localized"

# Short pass of every perfbench workload: exits non-zero unless every
# pass is correct, which includes its invariants and its recorded
# digest, so a change to eviction or delivery order fails here.
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload all --seed 42 --seconds 3
	@echo "perfbench-smoke: every workload correct, digests as recorded"

# Shortest chaos campaign at a fixed seed: exits non-zero if any
# resilience invariant (no silent loss, no double-apply, delivery
# ratio floor) fails.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro chaos --campaign smoke --seed 7
	@echo "chaos-smoke: invariants held"

# Fault-tolerant sharding gate: every worker-* chaos campaign, one per
# revive path of the barrier loop — a crash seen at the reply
# (worker-kill), a missed reply deadline (worker-stall), a death found
# at the next send or the pre-send sweep (worker-kill-during-handoff)
# and degradation when the restart budget runs out
# (worker-budget-exhausted).  Each asserts the 2-shard digest equals
# the fault-free single-shard digest.  Then a supervised 2-worker bench
# must reproduce the committed baseline digest.  Recovery must be
# invisible where determinism is judged.
recovery-smoke:
	@for campaign in worker-kill worker-stall \
			worker-kill-during-handoff worker-budget-exhausted; do \
		PYTHONPATH=src $(PYTHON) -m repro chaos --campaign $$campaign \
			--seed 7 || exit 1; \
	done
	PYTHONPATH=src $(PYTHON) -m repro bench shard-scaling \
		--workers 2 --backend mp --recover --seed 42 --scale short \
		--out /tmp/recovery-smoke \
		--compare BENCH_baseline.json --fail-over 90
	@echo "recovery-smoke: digest-identical recovery, supervised digest gated"

all: test bench

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks build *.egg-info src/*.egg-info
