PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test claims coverage checkpoint-smoke bench bench-full bench-obs bench-gainfill bench-gainfill-smoke sweep-smoke faults-smoke trace-smoke

# CPU-feature mask under which numpy's transcendental inner loops fall
# back to their libm-calling baseline, which is bit-identical to the
# math module -- so the exactness probes in repro.phy.vecmath resolve to
# the vector paths.  The gain-fill benchmarks run under it; correctness
# never depends on it (unprobed hosts fall back to scalar loops with the
# same bits).  See docs/SIMULATION.md ("gain-fill kernels").
LIBM_MODE_FEATURES := AVX512_SPR AVX512_ICL AVX512_CNL AVX512_CLX AVX512_SKX AVX512F AVX512CD AVX512VL AVX512BW AVX512DQ AVX512VNNI AVX512IFMA AVX512VBMI AVX512VBMI2 AVX512BITALG AVX512FP16 AVX512BF16 AVX512VPOPCNTDQ X86_V4 AVX2 FMA3 F16C X86_V3 AVX

# Tier-1 test suite (must stay green).
test:
	$(PYTHON) -m pytest -x -q

# Paper-claims suite: the paper-shape assertions under benchmarks/
# (Fig. 1/2/6-9, Table 1, Theorem 1, the PRACH detector, ablations) at CI
# scale; REPRO_FULL=1 runs them at paper scale.  Every test takes the
# pytest-benchmark fixture, timed off here.  The run rewrites the tables
# under benchmarks/results/ with the same bytes at CI scale (wall-clock
# ratios are printed, not recorded), so it leaves git status clean.
claims:
	$(PYTHON) -m pytest benchmarks -q --benchmark-disable

# Tier-1 suite under coverage: terminal summary plus coverage.xml (the CI
# artifact).  Gated on pytest-cov so machines without the plugin still get
# a meaningful (plain) run instead of a usage error.
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -q --cov=repro --cov-report=term --cov-report=xml; \
	else \
		echo "pytest-cov not installed; running the plain suite instead"; \
		$(PYTHON) -m pytest -q; \
	fi

# Checkpoint/restore smoke: halt a checkpointed outage run mid-flight,
# resume from the newest snapshot, and require the resumed run digest to
# be byte-identical to the same scenario run straight through.  Then the
# divergence replayer must pinpoint a deliberately injected mutation.
checkpoint-smoke:
	rm -rf ckpt-smoke ckpt-resumed.txt ckpt-straight.txt
	$(PYTHON) -m repro.cli db-outage --seed 3 --timeout-prob 0.05 \
		--drop-prob 0.05 --checkpoint-dir ckpt-smoke \
		--checkpoint-every 60 --halt-at 250
	$(PYTHON) -m repro.cli db-outage \
		--restore-from "$$(ls ckpt-smoke/ckpt_*.json | sort | tail -n 1)" \
		| grep "run digest" | tee ckpt-resumed.txt
	$(PYTHON) -m repro.cli db-outage --seed 3 --timeout-prob 0.05 \
		--drop-prob 0.05 | grep "run digest" | tee ckpt-straight.txt
	cmp ckpt-resumed.txt ckpt-straight.txt
	$(PYTHON) -m repro.cli replay-diff \
		"$$(ls ckpt-smoke/ckpt_*.json | sort | head -n 1)" \
		--mutate selector.poll_interval_s=9.0 --max-events 5000

# 2-cell sweep through the multiprocessing runner (the CI smoke test).
sweep-smoke:
	$(PYTHON) -m repro.cli sweep fig9a --densities 4 --seeds 1 \
		--techs LTE CellFi --clients-per-ap 3 --epochs 3 \
		--jobs 2 --retries 1 --timeout 300

# Deterministic database-outage scenario through the faulty transport:
# one outage grace mode absorbs, one that forces a vacate.  Exit status
# is 0 iff the run stayed ETSI-compliant (see docs/ROBUSTNESS.md).
faults-smoke:
	$(PYTHON) -m repro.cli db-outage --seed 1 --outages 60:30 240:90 \
		--timeout-prob 0.2 --drop-prob 0.1 --error-prob 0.05 \
		--malformed-prob 0.02 --spike-prob 0.05

# Short traced fig9a cell; validates both trace exports against the
# trace_event schema (see docs/OBSERVABILITY.md).
trace-smoke:
	$(PYTHON) -m repro.cli fig9a --densities 4 --seeds 1 --epochs 3 \
		--trace trace-smoke.json --trace-jsonl trace-smoke.jsonl \
		--metrics-out trace-smoke-metrics.json --profile
	$(PYTHON) -m repro.obs.validate trace-smoke.json trace-smoke.jsonl

# Quick epoch benchmark (small sizes, few epochs) -- suitable for CI.
# Writes the untracked BENCH_epoch_smoke.json, never the reference.
bench:
	$(PYTHON) benchmarks/bench_epoch.py --smoke

# Full epoch benchmark: the production incremental epoch at 10/50/200
# cells, the scalar oracle (repro.lte.scalar_oracle) up to 50; writes
# BENCH_epoch.json.
bench-full:
	$(PYTHON) benchmarks/bench_epoch.py

# Telemetry overhead benchmark: asserts the disabled-telemetry epoch
# stays within 3% of the BENCH_epoch.json reference and writes the
# untracked bench-obs-current.json, then diffs that fresh run against the
# committed BENCH_obs.json at the same 1.03 tolerance (re-record the
# committed file with `bench_obs_overhead.py --output BENCH_obs.json`).
bench-obs:
	$(PYTHON) benchmarks/bench_obs_overhead.py
	$(PYTHON) -m repro.cli obs-report \
		--bench BENCH_obs.json bench-obs-current.json --tolerance 1.03

# Gain-fill kernel benchmark: full cache builds, batched kernels vs the
# scalar oracle, matrices required to hash identical; the city point
# (1000 APs x 10000 UEs) carries the >=10x acceptance target.  Writes
# BENCH_gainfill.json.
bench-gainfill:
	NPY_DISABLE_CPU_FEATURES="$(LIBM_MODE_FEATURES)" \
		$(PYTHON) benchmarks/bench_epoch.py --gain-fill

# CI-sized gain-fill gate: the smoke population with the same
# batched-vs-scalar digest check, then an obs-report timing diff of the
# fresh run against the committed BENCH_gainfill_smoke.json.  The 2.0
# tolerance absorbs host noise at smoke scale while still failing loudly
# if a kernel silently degrades to its scalar fallback (>=5x slower).
bench-gainfill-smoke:
	NPY_DISABLE_CPU_FEATURES="$(LIBM_MODE_FEATURES)" \
		$(PYTHON) benchmarks/bench_epoch.py --gain-fill --smoke \
		--output bench-gainfill-current.json
	$(PYTHON) -m repro.cli obs-report \
		--bench BENCH_gainfill_smoke.json bench-gainfill-current.json \
		--tolerance 2.0
