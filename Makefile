# Rainbow reproduction — developer entry points.
#
#   make test        tier-1 test suite (the CI gate)
#   make lint        rainbow-lint over src/, benchmarks/, examples/
#   make lint-all    rainbow-lint + ruff + mypy (skips tools not installed)
#   make bench       kernel microbenchmark smoke run (pytest-benchmark)
#   make baseline    regenerate benchmarks/baseline.json (perfbench work-counter ledger)
#   make chaos       chaos suite: 25 nemesis seeds, all safety invariants
#   make chaos-ledger regenerate benchmarks/chaos_ledger.txt (whole-matrix chaos verdicts)
#   make trace       traced session: phase breakdown + trace.json (Perfetto)
#   make rules       print the rainbow-lint rule catalog
#   make golden      regenerate tests/fixtures/golden/ (golden replay gate)

PY       ?= python
PYPATH   := PYTHONPATH=src
LINTDIRS := src benchmarks examples

.PHONY: test lint lint-all bench baseline chaos chaos-ledger trace rules golden

test:
	$(PYPATH) $(PY) -m pytest -x -q

lint:
	$(PYPATH) $(PY) -m repro lint $(LINTDIRS)

lint-all: lint
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		$(PYPATH) mypy -p repro.sim -p repro.protocols -p repro.analysis; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

bench:
	$(PYPATH) $(PY) -m pytest benchmarks/test_bench_kernel.py --benchmark-only -q -s

baseline:
	$(PY) -m benchmarks.baseline

chaos:
	$(PYPATH) $(PY) -m repro chaos --seeds 25 -j 0

chaos-ledger:
	$(PYPATH) $(PY) -m benchmarks.chaos_ledger -j 0

trace:
	$(PYPATH) $(PY) -m repro trace --seed 7 --out trace.json

rules:
	$(PYPATH) $(PY) -m repro lint --list-rules

golden:
	$(PY) -m tests.golden
