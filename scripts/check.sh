#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from anywhere inside the repo; exits non-zero on the first failure.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The suite runs twice — serial and with a 4-worker pool — to enforce the
# determinism contract: results must be identical at any thread count.
echo "== cargo test -q --workspace (CF_THREADS=1)"
CF_THREADS=1 cargo test -q --workspace

echo "== cargo test -q --workspace (CF_THREADS=4)"
CF_THREADS=4 cargo test -q --workspace

# Resume-determinism gate: interrupted-then-resumed training (3 epochs →
# checkpoint → resume 3 more) must be bitwise identical to 6 epochs straight
# — parameters, loss history, and the downstream causal matrix — and the
# fault drills (injected NaN, injected I/O failure, kill between epochs,
# on-disk corruption) must recover. The store-pipeline gate rides along:
# discovery streamed from a chunked on-disk store must be bitwise identical
# to the in-RAM path (also when a widened stride skips chunks), and a
# corrupted chunk must fail loudly naming its file. Run at 1, 2, and 4
# worker threads: recovery and store/RAM equivalence must be exact on any
# machine. The contraction-kernel gates ride along: the tiled kernels fan
# out by row band, and the workspace suite only runs at 1 and 4 threads.
for threads in 1 2 4; do
  echo "== resume determinism + fault drills + store pipeline (CF_THREADS=$threads)"
  CF_THREADS=$threads cargo test -q -p causalformer \
    --test resume_determinism --test fault_injection --test store_pipeline \
    --test store_widened_stride
  echo "== contraction kernels vs naive reference + thread invariance (CF_THREADS=$threads)"
  CF_THREADS=$threads cargo test -q -p cf-tensor \
    --test microkernel_reference --test parallel_equivalence
done

# Dtype gate: the f64 pipeline must reproduce the pre-generic-backend
# golden bits, and f32 training must land discovery F1 within ±0.02 of
# f64 — the test sweeps 1/2/4 worker threads internally.
echo "== dtype equivalence gate (f64 goldens + f32 tolerance)"
cargo test -q -p causalformer --test dtype_equivalence

# Out-of-core peak-RSS gate: stream a lorenz96 trajectory into a chunked
# store and run discovery from it in a child process; the binary parses
# the child's VmHWM and exits 1 if the peak crosses the 200 MB budget.
# Mirrors the CI bench-smoke gate so a memory regression fails locally
# before it fails on the runner.
echo "== out-of-core peak-RSS gate (par_baseline --smoke --oocore-only)"
cargo run -q --release -p cf-bench --bin par_baseline -- --smoke --oocore-only

# Report smoke: a real discover run must produce a loadable trace, a
# diagnostics stream, and an HTML dashboard containing every panel.
# Two discover runs (1 and 2 threads) give the analyze/report compare
# path a real trace pair.
echo "== causalformer report smoke"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cargo run -q -p cf-cli --bin causalformer -- \
  generate --dataset fork --length 200 --seed 1 --output "$smoke_dir/fork.csv"
cargo run -q -p cf-cli --bin causalformer -- \
  discover --input "$smoke_dir/fork.csv" --preset synthetic-sparse \
  --window 8 --epochs 3 --seed 1 --quiet --threads 1 \
  --trace-out "$smoke_dir/trace-1t.json"
cargo run -q -p cf-cli --bin causalformer -- \
  discover --input "$smoke_dir/fork.csv" --preset synthetic-sparse \
  --window 8 --epochs 3 --seed 1 --quiet --threads 2 \
  --metrics-out "$smoke_dir/metrics.jsonl" \
  --trace-out "$smoke_dir/trace.json" \
  --diag-out "$smoke_dir/diag.cfdiag" \
  --heartbeat-out "$smoke_dir/hb.jsonl"
# The heartbeat stream must open with its meta header, close with
# run_end, and render through the monitor in one-shot mode.
head -1 "$smoke_dir/hb.jsonl" | grep -q '"event":"meta"'
tail -1 "$smoke_dir/hb.jsonl" | grep -q '"event":"run_end"'
cargo run -q -p cf-cli --bin causalformer -- \
  monitor "$smoke_dir/hb.jsonl" --once > "$smoke_dir/monitor.txt"
grep -q "run ended cleanly" "$smoke_dir/monitor.txt"
# Single-precision leg: the same discover end-to-end at --dtype f32 must
# run clean and emit a metrics stream.
cargo run -q -p cf-cli --bin causalformer -- \
  discover --input "$smoke_dir/fork.csv" --preset synthetic-sparse \
  --window 8 --epochs 3 --seed 1 --quiet --threads 2 --dtype f32 \
  --metrics-out "$smoke_dir/metrics-f32.jsonl"
test -s "$smoke_dir/metrics-f32.jsonl"
cargo run -q -p cf-cli --bin causalformer -- \
  report --metrics "$smoke_dir/metrics.jsonl" \
  --trace "$smoke_dir/trace-1t.json" --compare-trace "$smoke_dir/trace.json" \
  --diag "$smoke_dir/diag.cfdiag" \
  --out "$smoke_dir/report.html"
test -s "$smoke_dir/report.html"
for panel in panel-training-loss panel-causal-evolution \
             panel-thread-utilization panel-pool \
             panel-top-self-time panel-flame panel-scaling \
             panel-percentiles panel-scheduler; do
  grep -q "id=\"$panel\"" "$smoke_dir/report.html" \
    || { echo "missing $panel in report.html"; exit 1; }
done
grep -q '"traceEvents"' "$smoke_dir/trace.json"
grep -q '"record":"detect"' "$smoke_dir/diag.cfdiag"

# Store thread-invariance smoke: chunk reads decode concurrently, so a
# discovery streamed from a store must print the same graph at 1 and 2
# threads.
echo "== discover --store thread invariance (--threads 1 vs 2)"
cargo run -q -p cf-cli --bin causalformer -- \
  generate --dataset lorenz96 --length 4000 --seed 1 --chunk-len 256 \
  --store-out "$smoke_dir/store" > /dev/null
for threads in 1 2; do
  cargo run -q -p cf-cli --bin causalformer -- \
    discover --store "$smoke_dir/store" --preset lorenz --window 8 \
    --epochs 2 --max-windows 64 --seed 1 --quiet --threads "$threads" \
    > "$smoke_dir/store-graph-$threads.txt"
done
cmp "$smoke_dir/store-graph-1.txt" "$smoke_dir/store-graph-2.txt"
grep -q "causal relations" "$smoke_dir/store-graph-1.txt"

# Trace-analysis smoke: the analyzer must produce self-time and scaling
# tables from the same pair, and bench-diff must report a committed
# baseline as identical to itself (exit 0).
echo "== causalformer analyze + bench-diff smoke"
cargo run -q -p cf-cli --bin causalformer -- \
  analyze --trace "$smoke_dir/trace.json" \
  --flamegraph "$smoke_dir/stacks.folded" > "$smoke_dir/analyze.md"
grep -q "top self-time spans" "$smoke_dir/analyze.md"
grep -q ";" "$smoke_dir/stacks.folded"
cargo run -q -p cf-cli --bin causalformer -- \
  analyze --compare "$smoke_dir/trace-1t.json" "$smoke_dir/trace.json" \
  > "$smoke_dir/analyze-compare.md"
grep -q "scaling attribution" "$smoke_dir/analyze-compare.md"
for base in BENCH_PR4.json BENCH_PR7.json BENCH_PR8.json BENCH_PR9.json BENCH_CI.json; do
  cargo run -q -p cf-cli --bin causalformer -- \
    bench-diff "$base" "$base" > "$smoke_dir/bench-diff.md"
  grep -q "OK: no cell regressed" "$smoke_dir/bench-diff.md"
done

echo "All checks passed."
