# Convenience targets for the reproduction workflow.

PYTHON ?= python

# Match the tier-1 verify command: run against the checkout without an
# editable install by putting src/ on PYTHONPATH.
RUN_ENV = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

.PHONY: install test lint xmodlint check bench benchtest profile chaos crashtest shardtest storetest faultsweep metrics report examples clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(RUN_ENV) $(PYTHON) -m pytest tests/

# Determinism & simulation-hygiene linter (repro.lint): src/ must come out
# at zero non-baselined findings with every suppression used.  tests/ and
# benchmarks/ are held to the determinism rules only (DET001/002/004, no
# hygiene), against their own legacy baseline.
lint:
	$(RUN_ENV) $(PYTHON) -m repro.lint src --baseline lint-baseline.json
	$(RUN_ENV) $(PYTHON) -m repro.lint tests benchmarks \
		--select DET001,DET002,DET004 --baseline lint-baseline-tests.json

# Whole-program analysis (--xmod): cross-module RNG lineage, checkpoint
# coverage/symmetry, the package layering DAG, and SQL-vs-schema checks,
# with the per-module rules riding along.  The facts cache makes warm
# reruns cheap; it is content-hashed, so edits invalidate per file.
xmodlint:
	$(RUN_ENV) $(PYTHON) -m repro.lint src --xmod \
		--xmod-cache .repro-lint-cache.json --baseline lint-baseline.json

# The full pre-merge gate: static determinism lint (per-module and
# whole-program) + the tier-1 suite.
check: lint xmodlint
	$(RUN_ENV) $(PYTHON) -m pytest -x -q

bench:
	$(RUN_ENV) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Self-tests of the end-to-end benchmark harness (benchmarks/e2e): tier-1
# collects only tests/, and `make bench` passes --benchmark-only, which
# skips them.
benchtest:
	$(RUN_ENV) $(PYTHON) -m pytest benchmarks/e2e -q

profile:
	$(RUN_ENV) $(PYTHON) -m benchmarks.perf.profile_pipeline

# Chaos harness: the seeded small study under the default FaultProfile,
# asserting the dataset comes out complete (plus the zero-fault identity).
chaos:
	$(RUN_ENV) $(PYTHON) -m pytest tests/test_chaos_smoke.py -v

# Kill-and-resume harness: SIGKILL a checkpointed study subprocess at
# seeded points, resume it, and assert the final dataset and deterministic
# metrics are byte-identical to an uninterrupted run (plain and --chaos).
crashtest:
	$(RUN_ENV) $(PYTHON) -m pytest tests/test_checkpoint_resume.py -v

# Sharded-execution harness: supervisor/merge/plan unit+property tests plus
# the end-to-end CLI acceptance — --jobs 4 byte-identical to --jobs 1 (plain
# and --chaos), a SIGKILLed worker's shard resuming from its own WAL, and
# the degraded/unrecoverable exit codes.
shardtest:
	$(RUN_ENV) $(PYTHON) -m pytest tests/shard/ -v
	$(RUN_ENV) $(PYTHON) -m pytest tests/test_checkpoint_resume.py -k Sharded -v

# Store harness: the SQLite dataset backend — byte-identical export vs the
# legacy JSONL path (plain, --chaos, --jobs 4), SQL queries pinned equal to
# the in-memory analyses, the WAL-replay/shard-merge ingest paths, the
# id columns' little-endian int32 BLOBs (round trip, refused bad ids, a
# refused schema@1 file), and the journal ingest's decode of packed ids
# and its refusals (a malformed packed field, a journal@1 checkpoint).
storetest:
	$(RUN_ENV) $(PYTHON) -m pytest tests/store/ -v
	$(RUN_ENV) $(PYTHON) -m pytest tests/honeypot/test_row_encoding.py \
		-k "Store or JournalIngest or JournalSchema" -v

# Storage-fault sweep: every failpoint in the repro.failpoints catalog is
# injected mid-run (SIGKILL, torn write, ENOSPC/EIO, hang, poison) and the
# recovery path driven to one of exactly two outcomes — a byte-identical
# resumed dataset, or a named refusal with a documented exit code.  A
# completeness test pins the scenario table to the registry, so a new
# failpoint without a sweep scenario fails here.
faultsweep:
	$(RUN_ENV) $(PYTHON) -m pytest tests/test_fault_sweep.py tests/util/test_failpoints.py -v

# Observability smoke: the chaos study with metrics enabled, emitting the
# run manifest (config hash, seed, every counter/gauge) to metrics.json.
metrics:
	$(RUN_ENV) $(PYTHON) -m repro.cli run --chaos --metrics metrics.json --out study.jsonl
	$(RUN_ENV) $(PYTHON) -m pytest tests/test_metrics_manifest.py -v

report:
	$(RUN_ENV) $(PYTHON) examples/paper_reproduction.py

# Every example script end to end (CI job `examples`); tier-1 runs only
# the fast ones, and tests/test_doc_imports.py checks all of their imports.
examples:
	$(RUN_ENV) $(PYTHON) examples/quickstart.py
	$(RUN_ENV) $(PYTHON) examples/custom_farm.py
	$(RUN_ENV) $(PYTHON) examples/fraud_detection.py
	$(RUN_ENV) $(PYTHON) examples/extended_study.py
	$(RUN_ENV) $(PYTHON) examples/paper_reproduction.py
	$(RUN_ENV) $(PYTHON) examples/platform_defender.py

clean:
	rm -rf .pytest_cache .benchmarks build dist *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
