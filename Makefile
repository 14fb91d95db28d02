.PHONY: all build test lint bench figures eval micro smoke perf fuzz-smoke live-smoke live-nemesis-smoke live-fuzz-nightly examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# typed-AST project invariants (lib/lint, DESIGN.md §12); fails on any
# error-severity finding
lint:
	dune build @lint

# full experiment harness (figures + evaluation + micro-benchmarks)
bench:
	dune exec bench/main.exe -- all

figures:
	dune exec bench/main.exe -- figures

eval:
	dune exec bench/main.exe -- eval

# both also write the machine-readable results, BENCH_micro.json
micro:
	dune exec bench/main.exe -- micro

smoke:
	dune exec bench/main.exe -- smoke

# perf regression check: save the committed BENCH_micro.json as baseline,
# re-run the micro benchmarks (overwrites BENCH_micro.json), and print a
# non-fatal WARN line for every >20% ns/run regression or steady-state
# allocation growth.  Measurement noise never fails the target, but a
# schema-version or benchmark-group-set mismatch vs the committed
# baseline does (exit 1): regenerate and commit BENCH_micro.json in the
# same change.
perf:
	@mkdir -p _build
	@git show HEAD:BENCH_micro.json > _build/BENCH_micro.baseline.json \
	  2>/dev/null || cp BENCH_micro.json _build/BENCH_micro.baseline.json
	dune exec bench/main.exe -- micro
	dune exec bench/main.exe -- perf-diff _build/BENCH_micro.baseline.json BENCH_micro.json

# ~5 s differential-fuzz budget (3-4 s once built, on a 2-thread
# host): a fixed-seed campaign plus the over-collecting-mutant
# self-check (DESIGN.md §11); the nightly CI job runs the same campaign
# with a fresh seed and a much larger budget.  Both print every run's
# verdict and shrunk reproducer; the dune alias (also part of
# `dune runtest`, see test/dune) fails unless that output matches
# test/fuzz-smoke.expected byte for byte.  After a deliberate behaviour
# change, regenerate the golden with `dune promote`.
fuzz-smoke:
	dune build @test/fuzz-smoke

# live-process runtime smoke (DESIGN.md §14): the committed scenario on a
# real 3-process localhost TCP cluster — SIGKILL + durable recovery at
# each crash op — black-box checked against the simulator replay
live-smoke:
	dune exec bin/rdtgc_cli.exe -- cluster-run test/corpus/live_smoke.scn --backend exec -q

# ~10 s nemesis smoke (DESIGN.md §15): every live-representable corpus
# scenario replays under its committed fault schedule on the simulator
# backend, then a fixed-seed 20-run simulator campaign; the dune alias
# (also part of `dune runtest`, see test/dune) fails unless the verdicts
# of both match test/live-nemesis-smoke.expected byte for byte.  Last,
# the partition reproducer runs once against a real TCP cluster with the
# nemesis dropping frames on the wire.  After a deliberate behaviour
# change, regenerate the golden with `dune promote`.
live-nemesis-smoke:
	dune build @test/live-nemesis-smoke
	dune exec bin/rdtgc_cli.exe -- cluster-run test/corpus/live_nemesis_partition.scn \
	  --backend exec --nemesis "$$(cat test/corpus/live_nemesis_partition.nms)" -q

# the nightly live campaign, runnable locally: 50 seeded random scenarios
# under random fault schedules against real TCP processes, corpus
# replayed first, failures shrunk and saved under live-fuzz-corpus/;
# then the duplicated-delivery self-check; then 2000 simulator-backend
# schedules
live-fuzz-nightly:
	dune exec bin/rdtgc_cli.exe -- live-fuzz --runs 50 --backend exec \
	  --seed $${SEED:-42} --corpus live-fuzz-corpus
	dune exec bin/rdtgc_cli.exe -- live-fuzz --runs 3 --backend sim --mutate-deliver \
	  --seed $${SEED:-42} -q
	dune exec bin/rdtgc_cli.exe -- live-fuzz --runs 2000 --backend sim \
	  --seed $${SEED:-42} -q --corpus live-fuzz-corpus

examples:
	dune exec examples/quickstart.exe
	dune exec examples/domino_effect.exe
	dune exec examples/recovery_demo.exe
	dune exec examples/storage_budget.exe
	dune exec examples/causal_breakpoint.exe

clean:
	dune clean
