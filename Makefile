.PHONY: all build test bench bench-smoke bench-full bench-compare examples doc clean faultcheck chaoscheck

all: build

build:
	dune build @all

test:
	dune runtest --force

bench:
	dune exec bench/main.exe

# Tiny-budget pass over every experiment: exercises each code path and
# the BENCH_*.json emission in well under a minute.
bench-smoke:
	BENCH_RUNS=1 BENCH_ITERS=300 BENCH_FIG2_ITERS=1500 \
	BENCH_COMPARE_ITERS=2000 BENCH_GA_GENERATIONS=5 BENCH_GA_POPULATION=30 \
	BENCH_RANDOM_SAMPLES=500 BENCH_HILL_MOVES=1000 BENCH_TABU_ITERS=200 \
	dune exec bench/main.exe

# Paper-scale Fig. 3 protocol (100 runs per device size)
bench-full:
	BENCH_RUNS=100 dune exec bench/main.exe -- fig3

# Paired perfbench runs of revision OLD against this checkout on
# seeds 1..PAIRS, judged by `perfbench/run.py compare`
# (see bench/compare.sh).
PAIRS ?= 5
SECONDS ?= 20
bench-compare:
	@if [ -z "$(OLD)" ] || [ -z "$(W)" ]; then \
	  echo "usage: make bench-compare OLD=<rev> W=<workload> [PAIRS=5] [SECONDS=20]"; \
	  exit 2; fi
	sh bench/compare.sh $(OLD) $(W) $(PAIRS) $(SECONDS)

examples:
	dune exec examples/quickstart.exe
	dune exec examples/motion_detection.exe
	dune exec examples/custom_architecture.exe
	dune exec examples/sdf_pipeline.exe
	dune exec examples/heterogeneous_soc.exe
	dune exec examples/video_phone.exe

# Deterministic fault drills: the in-process fault suite, then — for
# several seeds — crash a checkpointed CLI run at an injected
# evaluation fault and prove the checkpoint resumes to completion
# (every engine; sa and tabu also on the two-processor board of data/,
# whose checkpoints hold two software chains),
# interrupt a checkpointed dse-sweep mid-cell and prove the resumed
# table equals an uninterrupted one (each sweep runs ~1.3 s at -j 2 on
# a 2-core container, so the 0.3 s budget lands mid-sweep even on a
# host several times faster), and crash the job daemon
# mid-queue at an injected job fault and prove recovery leaves every
# job in exactly one outcome directory.
faultcheck: build
	dune exec -- test/test_main.exe test fault
	@set -e; for seed in 1 2 3; do \
	  ck=$$(mktemp -u); \
	  echo "faultcheck: seed $$seed (REPRO_FAULTS=eval:2500)"; \
	  if REPRO_FAULTS=eval:2500 dune exec -- bin/dse_run.exe \
	       --seed $$seed --iters 5000 --warmup 200 \
	       --checkpoint $$ck --checkpoint-every 400 >/dev/null 2>&1; then \
	    echo "faultcheck: injected fault did not fire"; exit 1; \
	  fi; \
	  dune exec -- bin/dse_run.exe --seed $$seed --iters 5000 --warmup 200 \
	    --resume $$ck >/dev/null; \
	  rm -f $$ck; \
	done; echo "faultcheck resume drill OK"
	@set -e; for spec in sa:5000:2500 sa:5000:2500:--schedule=swartz \
	    sa:5000:1100:--serialized-bus greedy:40:10 random:200:100 \
	    hill:200:100 tabu:20:100 ga:4:700 ga-spatial:4:700; do \
	  engine=$${spec%%:*}; rest=$${spec#*:}; \
	  iters=$${rest%%:*}; rest=$${rest#*:}; \
	  fault=$${rest%%:*}; flags=$${rest#$$fault}; flags=$${flags#:}; \
	  ck=$$(mktemp -u); clean=$$(mktemp); resumed=$$(mktemp); \
	  echo "faultcheck: engine $$engine$${flags:+ $$flags} kill/resume" \
	       "(iters $$iters, REPRO_FAULTS=eval:$$fault)"; \
	  dune exec -- bin/dse_run.exe --engine $$engine --seed 7 \
	    --iters $$iters --warmup 200 $$flags --result $$clean >/dev/null; \
	  if REPRO_FAULTS=eval:$$fault dune exec -- bin/dse_run.exe \
	       --engine $$engine --seed 7 --iters $$iters --warmup 200 $$flags \
	       --checkpoint $$ck --checkpoint-every 1 >/dev/null 2>&1; then \
	    echo "faultcheck: $$engine: injected fault did not fire"; exit 1; \
	  fi; \
	  dune exec -- bin/dse_run.exe --engine $$engine --seed 7 \
	    --iters $$iters --warmup 200 $$flags --resume $$ck \
	    --result $$resumed >/dev/null; \
	  sed -e 's/, "eval_stats": .*/}/' -e 's/"wall_seconds": [^,]*, //' $$clean > $$clean.cmp; \
	  sed -e 's/, "eval_stats": .*/}/' -e 's/"wall_seconds": [^,]*, //' $$resumed > $$resumed.cmp; \
	  if ! diff $$clean.cmp $$resumed.cmp >/dev/null; then \
	    echo "faultcheck: $$engine: resumed result differs from clean run"; \
	    sed -e 's/, "eval_stats": .*/}/' -e 's/"wall_seconds": [^,]*, //' $$clean; \
	    sed -e 's/, "eval_stats": .*/}/' -e 's/"wall_seconds": [^,]*, //' $$resumed; \
	    exit 1; \
	  fi; \
	  rm -f $$ck $$clean $$clean.cmp $$resumed $$resumed.cmp; \
	done; echo "faultcheck all-engine kill/resume drill OK"
	@set -e; board="--app-file data/motion_detection.tg \
	    --platform-file data/arm_dsp_fpga.plat"; \
	for spec in sa:5000:2500 tabu:60:300; do \
	  engine=$${spec%%:*}; rest=$${spec#*:}; \
	  iters=$${rest%%:*}; fault=$${rest#*:}; \
	  ck=$$(mktemp -u); clean=$$(mktemp); resumed=$$(mktemp); \
	  echo "faultcheck: engine $$engine on the two-processor board" \
	       "kill/resume (iters $$iters, REPRO_FAULTS=eval:$$fault)"; \
	  dune exec -- bin/dse_run.exe $$board --engine $$engine --seed 7 \
	    --iters $$iters --warmup 200 --result $$clean >/dev/null; \
	  if REPRO_FAULTS=eval:$$fault dune exec -- bin/dse_run.exe $$board \
	       --engine $$engine --seed 7 --iters $$iters --warmup 200 \
	       --checkpoint $$ck --checkpoint-every 1 >/dev/null 2>&1; then \
	    echo "faultcheck: $$engine: injected fault did not fire"; exit 1; \
	  fi; \
	  if [ $$(grep -ac '^sw [0-9]' $$ck) -lt 2 ]; then \
	    echo "faultcheck: $$engine: the checkpoint keeps one chain"; exit 1; \
	  fi; \
	  dune exec -- bin/dse_run.exe $$board --engine $$engine --seed 7 \
	    --iters $$iters --warmup 200 --resume $$ck \
	    --result $$resumed >/dev/null; \
	  sed -e 's/, "eval_stats": .*/}/' -e 's/"wall_seconds": [^,]*, //' $$clean > $$clean.cmp; \
	  sed -e 's/, "eval_stats": .*/}/' -e 's/"wall_seconds": [^,]*, //' $$resumed > $$resumed.cmp; \
	  if ! diff $$clean.cmp $$resumed.cmp >/dev/null; then \
	    echo "faultcheck: $$engine: resumed result differs from clean run"; \
	    cat $$clean.cmp $$resumed.cmp; exit 1; \
	  fi; \
	  rm -f $$ck $$clean $$clean.cmp $$resumed $$resumed.cmp; \
	done; echo "faultcheck two-processor kill/resume drill OK"
	@set -e; for spec in portfolio:race:sa+hill portfolio:rr:sa+hill \
	    portfolio:chain:greedy+sa; do \
	  ck=$$(mktemp -u); clean=$$(mktemp); resumed=$$(mktemp); \
	  echo "faultcheck: $$spec kill/resume (--time-budget 0.1)"; \
	  dune exec -- bin/dse_run.exe --engine $$spec --seed 7 \
	    --iters 300000 --result $$clean >/dev/null; \
	  if dune exec -- bin/dse_run.exe --engine $$spec \
	       --seed 7 --iters 300000 --time-budget 0.1 \
	       --checkpoint $$ck --checkpoint-every 1 >/dev/null 2>&1; then \
	    echo "faultcheck: $$spec: time budget did not interrupt the run"; \
	    exit 1; \
	  fi; \
	  if [ ! -e $$ck ]; then \
	    echo "faultcheck: $$spec: interrupt flushed no checkpoint"; exit 1; fi; \
	  if ls $$ck.m* >/dev/null 2>&1; then \
	    echo "faultcheck: $$spec: member scratch files beside the checkpoint"; \
	    exit 1; fi; \
	  dune exec -- bin/dse_run.exe --engine $$spec --seed 7 \
	    --iters 300000 --resume $$ck --result $$resumed >/dev/null; \
	  sed -e 's/, "eval_stats": .*/}/' -e 's/"wall_seconds": [^,]*, //' $$clean > $$clean.cmp; \
	  sed -e 's/, "eval_stats": .*/}/' -e 's/"wall_seconds": [^,]*, //' $$resumed > $$resumed.cmp; \
	  if ! diff $$clean.cmp $$resumed.cmp >/dev/null; then \
	    echo "faultcheck: $$spec: resumed run differs from clean run"; \
	    cat $$clean.cmp $$resumed.cmp; exit 1; \
	  fi; \
	  rm -f $$ck $$clean $$clean.cmp $$resumed $$resumed.cmp; \
	done; echo "faultcheck portfolio kill/resume drill OK"
	@set -e; for j in 1 2; do \
	  flags="--sizes 200,2000 --runs 1 --iters 1500000 -j $$j"; \
	  ck=$$(mktemp -u); clean=$$(mktemp); resumed=$$(mktemp); \
	  echo "faultcheck: dse-sweep -j $$j interrupt/resume (--time-budget 0.3)"; \
	  dune exec -- bin/dse_sweep.exe $$flags > $$clean; \
	  status=0; dune exec -- bin/dse_sweep.exe $$flags --checkpoint $$ck \
	    --time-budget 0.3 >/dev/null 2>&1 || status=$$?; \
	  if [ $$status != 3 ]; then \
	    echo "faultcheck: sweep -j $$j: interrupted run exited $$status, want 3"; \
	    exit 1; fi; \
	  dune exec -- bin/dse_sweep.exe $$flags --checkpoint $$ck > $$resumed; \
	  if ! diff $$clean $$resumed; then \
	    echo "faultcheck: sweep -j $$j: resumed table differs from clean run"; \
	    exit 1; fi; \
	  rm -f $$ck $$clean $$resumed; \
	done; echo "faultcheck sweep interrupt/resume drill OK"
	@set -e; for seed in 1 2 3; do \
	  spool=$$(mktemp -d); \
	  echo "faultcheck: serve drill seed $$seed (REPRO_FAULTS=job:1)"; \
	  mkdir -p $$spool/jobs; \
	  for j in 1 2 3; do \
	    printf '{"app": "motion_detection", "iters": 200, "warmup": 50, "seed": %d}\n' \
	      $$((seed * 10 + j)) > $$spool/jobs/job$$j.json; \
	  done; \
	  if REPRO_FAULTS=job:1 dune exec -- bin/dse_serve.exe watch $$spool --once \
	       >/dev/null 2>&1; then \
	    echo "faultcheck: injected job fault did not fire"; exit 1; \
	  fi; \
	  dune exec -- bin/dse_serve.exe watch $$spool --once >/dev/null 2>&1; \
	  for j in 1 2 3; do \
	    r=$$spool/results/job$$j.json; f=$$spool/failed/job$$j.json; \
	    if [ -e $$r ] && [ -e $$f ]; then \
	      echo "faultcheck: job$$j ran twice"; exit 1; fi; \
	    if [ ! -e $$r ] && [ ! -e $$f ]; then \
	      echo "faultcheck: job$$j lost"; exit 1; fi; \
	  done; \
	  if [ -n "$$(find $$spool/jobs $$spool/work -type f)" ]; then \
	    echo "faultcheck: spool not drained"; exit 1; fi; \
	  rm -rf $$spool; \
	done; echo "faultcheck serve drill OK"
	@set -e; \
	  spool=$$(mktemp -d); clean=$$(mktemp -d); \
	  job='{"app": "motion_detection", "engine": "sa", "iters": 5000, "seed": 9}'; \
	  echo "faultcheck: lease-reclaim drill (REPRO_FAULTS=eval:700)"; \
	  mkdir -p $$spool/jobs $$clean/jobs; \
	  echo "$$job" > $$spool/jobs/drill.json; \
	  echo "$$job" > $$clean/jobs/drill.json; \
	  dune exec -- bin/dse_serve.exe watch $$clean --once --checkpoint-every 50 \
	    >/dev/null 2>&1; \
	  if REPRO_FAULTS=eval:700 dune exec -- bin/dse_serve.exe watch $$spool --once \
	       --lease-ttl 2 --checkpoint-every 50 >/dev/null 2>&1; then \
	    echo "faultcheck: injected eval fault did not kill the daemon"; exit 1; \
	  fi; \
	  if [ ! -e $$spool/work/drill.json ] || [ ! -e $$spool/work/drill.claim ]; then \
	    echo "faultcheck: crash left no stamped claim behind"; exit 1; fi; \
	  if [ ! -e $$spool/work/drill.ckpt ]; then \
	    echo "faultcheck: crash left no checkpoint behind"; exit 1; fi; \
	  dune exec -- bin/dse_serve.exe watch $$spool --once --checkpoint-every 50 \
	    >/dev/null 2>&1; \
	  if [ ! -e $$spool/results/drill.json ]; then \
	    echo "faultcheck: reclaimed job never completed"; exit 1; fi; \
	  crc() { sed -n 's/.*"solution": "\([0-9a-f]*\)".*/\1/p' $$1; }; \
	  a=$$(crc $$spool/results/drill.json); b=$$(crc $$clean/results/drill.json); \
	  if [ -z "$$a" ] || [ "$$a" != "$$b" ]; then \
	    echo "faultcheck: reclaimed result differs from clean run ($$a vs $$b)"; \
	    exit 1; \
	  fi; \
	  rm -rf $$spool $$clean; \
	  echo "faultcheck lease-reclaim drill OK"; \
	echo "faultcheck OK"

# Seeded chaos drill over the fleet protocol: daemons killed mid-job,
# corrupted checkpoint/result writes, a clock-skewed remote claim, an
# fsck pass crashed mid-repair, then a multi-daemon drain — asserting
# no job lost or duplicated, bit-identical resumed solutions and fsck
# converging in one pass.  Equal seeds replay identical drills.
chaoscheck: build
	@set -e; for seed in 1 2 3; do \
	  echo "chaoscheck: seed $$seed"; \
	  dune exec -- test/chaos/chaos_main.exe $$seed; \
	done; echo "chaoscheck OK"

clean:
	dune clean
