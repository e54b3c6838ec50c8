# Convenience entry points; see PERFORMANCE.md for the benchmark workflow.

PYTEST := PYTHONPATH=src python -m pytest
comma := ,

.PHONY: test slowest bench bench-update bench-full bench-smoke sweep-quick \
	determinism examples-smoke docs-check reports-diff fluid-trace loc sim-points \
	equiv \
	trainer-mem

## tier-1 test suite
test:
	$(PYTEST) -x -q

## the tier-1 suite with its 20 slowest tests named (ROADMAP: a budget for
## tier-1 starts from knowing who spends it)
slowest:
	$(PYTEST) -x -q --durations=20

## bit-reproducibility gate: trainer/determinism tests, then the fig11 smoke
## twice with the reports diffed (they must be byte-identical)
determinism:
	$(PYTEST) tests/test_parallel_trainer.py tests/test_determinism.py -q
	PYTHONPATH=src python -m repro.experiments.runner --quick --jobs 1 fig11 \
		--output /tmp/fig11_run_a.txt > /dev/null
	PYTHONPATH=src python -m repro.experiments.runner --quick --jobs 1 fig11 \
		--output /tmp/fig11_run_b.txt > /dev/null
	diff /tmp/fig11_run_a.txt /tmp/fig11_run_b.txt
	@echo "fig11 report byte-identical across consecutive runs"

## "byte-identical reports" as a command: render every runner section
## (--jobs 1; the --quick report, then the full one) on REF -- a revision,
## checked out into a scratch git worktree, or a directory -- and on this
## tree, and diff them.  QUICK=1 stops after the quick report (the CI form).
reports-diff:
	@test -n "$(REF)" || { echo "usage: make reports-diff REF=<rev|dir> [QUICK=1]"; exit 2; }
	tools/reports_diff.sh "$(REF)" quick $(if $(QUICK),,full)

## tracked python lines under src/repro: one line per package, then the
## total (what `git ls-files 'src/repro/*.py' | xargs cat | wc -l` prints);
## with REF=<rev>, a third column gives each delta against that revision
loc:
	@{ git grep -c '' -- 'src/repro/*.py'; \
	   $(if $(REF),git grep -c '' $(REF) -- 'src/repro/*.py';) } \
	| awk -F: '{ split($$(NF-1), dir, "/"); pkg = (dir[4] == "" ? "(top)" : dir[3]); \
	             if (NF == 3) was[pkg] += $$NF; else now[pkg] += $$NF; seen[pkg] } \
	    END { for (pkg in seen) printf "%7d  %-12s$(if $(REF),  %+d)\n", \
	              now[pkg], pkg$(if $(REF),$(comma) now[pkg] - was[pkg]) }' \
	| sort -k2,2 \
	| awk '{ print; lines += $$1; delta += $$3 } \
	    END { printf "%7d  %-12s$(if $(REF),  %+d)\n", lines, "total"$(if $(REF),$(comma) delta) }'

## re-record tests/data/fluid_trace.json (the fluid engine's bit-for-bit pin)
## and print the keys whose values moved: review a re-pin from that list
fluid-trace:
	PYTHONPATH=src python tests/test_fluid.py

## best-of-N wall time (and DES event count) of each of the 30 planner calls
## one `sim_plan_mix` pass composes; with REF=<rev|dir>, beside REF's
sim-points:
	PYTHONPATH=src python tools/sim_points.py $(if $(N),--repeats $(N)) \
		$(if $(REF),--ref "$(REF)")

## peak RSS of each phase (prepare / train / serial check) of one op of
## every trainer workload, and the tracemalloc retained / peak bytes of
## building its trainer: the per-phase view of the benchmark's peak_rss_mb
trainer-mem:
	PYTHONPATH=src python tools/trainer_mem.py

## quick figure sweeps through the parallel runner (one worker per core)
sweep-quick:
	PYTHONPATH=src python -m repro.experiments.runner --quick fig5 fig8 fidelity

## per-feature CI smokes, one pattern target: `make smoke-<feature>` runs the
## feature's tests, renders its quick figure sweep and checks the report for
## its headline lines ('|'-separated).  scale: the 1k-node fluid what-if
## sweep inside a 10 s budget; async: policy tests + the beyond-BSP
## frontier; chaos: chaos/checkpoint tests + the fault frontier;
## compression: wire/compressor/bucketing tests + the crossover line;
## llm: layer gradchecks + the vocab head's scheme-choice line.
SMOKE_scale_FIGURE := fig_scale
SMOKE_scale_PREFIX := timeout 10
SMOKE_scale_GREP := Scale extrapolation
SMOKE_async_TESTS := tests/test_policy.py
SMOKE_async_FIGURE := fig_async
SMOKE_async_GREP := Beyond-BSP frontier
SMOKE_chaos_TESTS := tests/test_chaos.py tests/test_faults.py \
	tests/test_substrate_checkpoint.py tests/test_rendezvous.py
SMOKE_chaos_FIGURE := fig_faults
SMOKE_chaos_GREP := Fault frontier
SMOKE_compression_TESTS := tests/test_compression.py tests/test_bucketing.py \
	tests/test_fig_compression.py tests/test_ps_step.py \
	tests/test_quantization.py
SMOKE_compression_FIGURE := fig_compression
SMOKE_compression_GREP := Compression zoo|crossover at
SMOKE_llm_TESTS := tests/test_layers.py tests/test_fig_llm.py
SMOKE_llm_FIGURE := fig_llm
SMOKE_llm_GREP := Transformer/LLM sweep|vocab head lm_head

smoke-%:
	$(if $(SMOKE_$*_FIGURE),,$(error no smoke named '$*'))
	$(if $(SMOKE_$*_TESTS),$(PYTEST) $(SMOKE_$*_TESTS) -q)
	$(SMOKE_$*_PREFIX) env PYTHONPATH=src python -m repro.experiments.runner \
		--quick --jobs 1 $(SMOKE_$*_FIGURE) > /tmp/$(SMOKE_$*_FIGURE)_smoke.txt
	@needles='$(SMOKE_$*_GREP)'; IFS='|'; for needle in $$needles; do \
		grep -q "$$needle" /tmp/$(SMOKE_$*_FIGURE)_smoke.txt \
			|| { echo "smoke-$*: report lacks '$$needle'"; exit 1; }; \
	done
	@echo "$(SMOKE_$*_FIGURE) smoke report rendered"

## run all four examples/ scripts at reduced sizes (CI smoke)
examples-smoke:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/bandwidth_planning.py --nodes 8 \
		--bandwidths 10 40
	PYTHONPATH=src python examples/cluster_scaling_study.py --nodes 1 2 4
	PYTHONPATH=src python examples/distributed_cifar_training.py \
		--iterations 10 --workers 2

## intra-repo links (markdown, and every NAME.md / backticked path a .py
## file under src, tests or benchmarks cites; backticked repro.* names
## outside ROADMAP.md / CHANGES.md), no unused module-level import in a
## src/repro module, no src/repro definition without a use outside tests/,
## + the doctests of every tracked src/repro module that has one
docs-check:
	python tools/check_links.py README.md PERFORMANCE.md ROADMAP.md \
		CHANGES.md docs/architecture.md docs/backends.md \
		src tests benchmarks
	python tools/check_imports.py src/repro
	python tools/check_refs.py
	PYTHONPATH=src python -m doctest $$(git grep -l '>>>' -- 'src/repro/*.py')
	@echo "docs check passed"

## every benchmark executed once as a plain test, no timing gates (CI smoke)
bench-smoke:
	$(PYTEST) benchmarks/ -q --benchmark-disable \
		-o python_files='test_*.py bench_*.py'

## tier-1 tests + micro-benchmarks gated against benchmarks/baseline.json
bench:
	$(PYTEST) -x -q
	$(PYTEST) benchmarks/bench_micro.py benchmarks/bench_flow.py \
		benchmarks/bench_fluid.py benchmarks/bench_compression.py \
		benchmarks/bench_transformer.py \
		--benchmark-only -q --benchmark-json=bench_results.json
	python benchmarks/compare.py bench_results.json

## refresh benchmarks/baseline.json from a fresh run (after intentional changes)
bench-update:
	$(PYTEST) benchmarks/bench_micro.py benchmarks/bench_flow.py \
		benchmarks/bench_fluid.py benchmarks/bench_compression.py \
		benchmarks/bench_transformer.py \
		--benchmark-only -q --benchmark-json=bench_results.json
	python benchmarks/compare.py bench_results.json --update

## every benchmark suite (figure/table regeneration included; slow)
bench-full:
	$(PYTEST) benchmarks/ --benchmark-only -q \
		-o python_files='test_*.py bench_*.py'

## the DES oracle: one digest per point of tests/equiv_points.py (results,
## per-tag accounts, GPU busy times, events; a refusal's type and layer) on
## REF -- a revision, unpacked with git archive, or a directory -- and on
## this tree; prints "k of n moved" and the first moved points
equiv:
	@test -n "$(REF)" || { echo "usage: make equiv REF=<rev|dir>"; exit 2; }
	PYTHONPATH=src python tools/equiv.py --ref "$(REF)"
