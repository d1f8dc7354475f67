#!/usr/bin/env bash
# Repository CI gate. Run from the workspace root: ./ci.sh
#
# Every stage prints its elapsed wall seconds when it ends, and the script
# prints the total when it exits, passing or failing (bash's SECONDS). On
# exit it also prints the lines of Rust under crates/, tests/ and vendor/
# and the number of workspace members. Both measure; they gate nothing.
#
# Steps:
#   1. cargo fmt --check          — formatting
#   2. cargo clippy -D warnings   — lints across the whole workspace
#   2b. cargo doc -D warnings     — rustdoc across the whole workspace
#                                   (vendored stand-ins included): no
#                                   broken intra-doc link and no public
#                                   doc linking to a private item
#   3. cargo test -q              — unit, integration, and property tests
#   3b. scalar-fallback goldens   — every determinism suite (goldens,
#                                   loss strategies, mini-batch
#                                   equivalence, resume) re-run with
#                                   E2GCL_KERNEL_CONFIG=scalar so the
#                                   non-SIMD fallback keeps reproducing the
#                                   committed scalar fingerprints and the
#                                   degenerate-batch and resume bits, plus
#                                   the nn large-shape kernel pins (InfoNCE
#                                   at 1024 and 784 anchors, GCN backward
#                                   and transpose_matmul at 5,900 rows)
#   4. grep lint                  — no .unwrap()/panic! in non-test library
#                                   code of the crates that run training
#                                   (use .expect("reason") or a TrainError)
#   5. grep lint                  — NumericGuard is constructed only by the
#                                   training engine (engine.rs); models must
#                                   go through EpochDriver, which also owns
#                                   the run clock, so non-test code under
#                                   crates/e2gcl/src/models/ names no Instant;
#                                   training runs the workspace passes, so
#                                   no non-test code outside
#                                   crates/nn/src/gcn.rs names GcnCache
#   6. release smoke run          — the quickstart example drives the full
#                                   selector -> views -> EpochDriver stack
#                                   in release mode
#   7. serve smoke run            — train a tiny model, save an artifact,
#                                   reload it, and answer a batch of top-k
#                                   queries through the CLI; an unknown
#                                   E2GCL_KERNEL_CONFIG is a usage error
#                                   (exit 2) and `scalar` is reported as the
#                                   active dispatch path
#   8. crash-safety smoke         — a fault-injected torn artifact write is
#                                   quarantined on next load, and a durable
#                                   training checkpoint lets `train --resume`
#                                   continue to the same answers as an
#                                   uninterrupted run
#   9. kernel bench smoke         — kernel_bench --quick runs the smallest
#                                   shape of every blocked GEMM kernel and
#                                   fails if any is slower than 0.8x its
#                                   scalar reference, if the committed
#                                   BENCH_kernels.json doesn't parse / shows
#                                   a recorded speedup below 0.8x, or if
#                                   this run's GFLOP/s drops >20% below a
#                                   committed entry with matching (kernel,
#                                   shape, dispatch path) — committed simd
#                                   baselines from a path the host can't
#                                   run are skipped with a message; it also
#                                   measures the sub-quadratic loss kernels
#                                   at n=65536 and fails if smallneg(k=256)
#                                   fwd+bwd exceeds 25% of the projected
#                                   full-softmax cost, or if the committed
#                                   loss-scaling sweep shows smallneg at
#                                   n=65536 slower than 10x its n=8192 time
#  10. mini-batch smoke           — neighbour-sampled GRACE training through
#                                   the CLI with a durable checkpoint; a
#                                   --resume re-run must answer queries
#                                   identically
#  11. loss strategy smoke        — CLI pre-training with --loss smallneg
#                                   and --loss localized must succeed; an
#                                   unknown --loss must exit with a usage
#                                   error, not a panic, and a misspelled
#                                   flag (--epoch) must exit 2
#  12. scale bench smoke          — scale_bench --quick trains E2GCL and
#                                   GRACE mini-batch plus one FULL-BATCH
#                                   E2GCL epoch with the small-negative-set
#                                   loss on the smallest slice of the
#                                   streaming products-sim-1m analog; fails
#                                   if the committed BENCH_scale.json is
#                                   missing, lacks 1M-node cases, or lacks
#                                   the full-batch smallneg E2GCL case at
#                                   the million-node tier
#  13. ANN index smoke            — build an IVF index over the serve-smoke
#                                   artifact twice (bitwise-identical files),
#                                   gate measured recall@10 >= 0.95, answer
#                                   an indexed `query`, and run a short
#                                   indexed `serve-bench` with the load
#                                   generator, whose default report path
#                                   must leave BENCH_serve.json untouched
#  14. serve bench smoke          — serve_latency --quick runs shrunken
#                                   latency/ANN/loadgen tiers and fails if
#                                   the committed BENCH_serve.json is
#                                   missing or below the retrieval contract
#  15. end-to-end bench smoke     — e2e_bench runs every workload once
#                                   (exit 1 on any failed output check),
#                                   then traced train_full and
#                                   train_minibatch runs whose replays must
#                                   match pretrain's losses bit for bit:
#                                   through the greedy selector and the
#                                   λ-weighted Eq. (5) step, and through
#                                   the sampled InfoNCE step
set -euo pipefail
cd "$(dirname "$0")"

# Stage timing from bash's SECONDS: each stage's elapsed seconds print when
# it ends, and the total when the script exits, on success or failure.
stage_id=""
stage_start=0
end_stage() {
    if [ -n "$stage_id" ]; then
        echo "    stage $stage_id: $((SECONDS - stage_start)) s"
    fi
}
stage() {
    end_stage
    stage_id=$1
    stage_start=$SECONDS
    echo "==> $2"
}
# Code size: every *.rs line under each tree, and the packages `cargo
# metadata --no-deps` lists (one manifest_path per workspace member).
size_report() {
    local dir
    for dir in crates tests vendor; do
        echo "    rust lines in $dir/: $(find "$dir" -name '*.rs' -print0 | xargs -0 cat | wc -l)"
    done
    echo "    workspace members: $(cargo metadata --offline --no-deps --format-version 1 \
        | grep -o '"manifest_path"' | wc -l)"
}
trap 'end_stage; size_report; echo "==> total: ${SECONDS} s"' EXIT

stage 1 "cargo fmt --check"
cargo fmt --all -- --check

stage 2 "cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

stage 2b "cargo doc --no-deps -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

stage 3 "cargo test -q"
cargo test -q --workspace --offline

stage 3b "scalar-fallback goldens: E2GCL_KERNEL_CONFIG=scalar determinism suites"
# The default run above validates the goldens for the host's dispatch path
# (avx2 where available). Forcing the scalar path here proves the fallback
# kernels still reproduce all committed scalar fingerprints (DESIGN.md §16),
# and that degenerate mini-batches and resumed runs stay bitwise equal to
# their full-batch and uninterrupted counterparts on that path too. The
# goldens train on ~135 nodes, so the large-shape pins cover the kernels'
# cache-blocked walks (row blocks, 1024-wide transposes) on that path.
E2GCL_KERNEL_CONFIG=scalar cargo test -q --offline -p e2gcl \
    --test golden_determinism --test loss_strategy_determinism \
    --test minibatch_equivalence --test resume_determinism
E2GCL_KERNEL_CONFIG=scalar cargo test -q --offline -p e2gcl-nn --test large_shape_pins

stage 4 "lint: no .unwrap()/panic! in non-test library code"
# Test modules in this codebase are trailing `#[cfg(test)] mod tests` blocks,
# so everything before the first #[cfg(test)] is production code. Comment
# lines (incl. doc comments) are skipped.
fail=0
for f in $(find crates/linalg/src crates/selector/src crates/views/src crates/nn/src crates/e2gcl/src crates/serve/src crates/bench/src/flags.rs crates/bench/src/report.rs crates/bench/src/bin/kernel_bench.rs crates/bench/src/bin/scale_bench.rs crates/bench/src/bin/serve_latency.rs -name '*.rs' | sort); do
    hits=$(awk '/#\[cfg\(test\)\]/{exit} {sub(/^[ \t]+/, ""); if ($0 !~ /^\/\//) print FILENAME":"FNR": "$0}' "$f" \
        | grep -E '\.unwrap\(\)|panic!' || true)
    if [ -n "$hits" ]; then
        echo "$hits"
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "error: found .unwrap()/panic! in non-test code (use .expect or TrainError)" >&2
    exit 1
fi

stage 5 "lint: NumericGuard::new only in the training engine, no Instant in models, no GcnCache users"
# Every model must train through EpochDriver; constructing a guard anywhere
# else bypasses the engine's backoff/recovery sequencing. Same technique as
# above: scan only production code (before the first #[cfg(test)]).
fail=0
for f in $(find crates -name '*.rs' ! -path '*/engine.rs' | sort); do
    hits=$(awk '/#\[cfg\(test\)\]/{exit} {sub(/^[ \t]+/, ""); if ($0 !~ /^\/\//) print FILENAME":"FNR": "$0}' "$f" \
        | grep -F 'NumericGuard::new' || true)
    if [ -n "$hits" ]; then
        echo "$hits"
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "error: NumericGuard::new outside engine.rs — route training through EpochDriver" >&2
    exit 1
fi
# EpochDriver owns the run clock (total time, checkpoint stamps, selection
# time), so models never read one themselves.
for f in $(find crates/e2gcl/src/models -name '*.rs' | sort); do
    hits=$(awk '/#\[cfg\(test\)\]/{exit} {sub(/^[ \t]+/, ""); if ($0 !~ /^\/\//) print FILENAME":"FNR": "$0}' "$f" \
        | grep -F 'Instant' || true)
    if [ -n "$hits" ]; then
        echo "$hits"
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "error: Instant in a model — timing belongs to EpochDriver (engine.rs)" >&2
    exit 1
fi
# Every encoder trains through forward_with/backward_with. The allocating
# GCN pair survives only for e2e_bench's replays, which never name its
# cache type, so no other code may start depending on it.
for f in $(find crates -name '*.rs' ! -path 'crates/nn/src/gcn.rs' | sort); do
    hits=$(awk '/#\[cfg\(test\)\]/{exit} {sub(/^[ \t]+/, ""); if ($0 !~ /^\/\//) print FILENAME":"FNR": "$0}' "$f" \
        | grep -F 'GcnCache' || true)
    if [ -n "$hits" ]; then
        echo "$hits"
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "error: GcnCache outside gcn.rs — train through GcnEncoder::forward_with/backward_with" >&2
    exit 1
fi

stage 6 "release smoke run: quickstart (EpochDriver end to end)"
cargo run --release --offline -q -p e2gcl --example quickstart

stage 7 "serve smoke run: train -> save -> reload -> query"
# Exercises the artifact round trip and both --flag=value and --flag value
# option syntaxes end to end through the CLI.
cargo build --release --offline -q -p e2gcl-cli
artifact=target/ci-serve-artifact.bin
rm -f "$artifact"
target/release/e2gcl-cli train --dataset=cora-sim --scale=0.05 --epochs=3 --save "$artifact"
test -s "$artifact"
query_out=$(target/release/e2gcl-cli query --artifact="$artifact" --node 0 --k 5)
echo "$query_out"
echo "$query_out" | grep -q "top-5 cosine neighbours"
[ "$(echo "$query_out" | grep -c 'score')" -eq 5 ]
# Capture instead of piping into grep -q: early-exit grep would close the
# pipe and kill the CLI mid-print.
inductive_out=$(target/release/e2gcl-cli query --artifact="$artifact" --node=1 --k=3 --mode=inductive)
echo "$inductive_out" | grep -q "top-3 cosine neighbours"
# E2GCL_KERNEL_CONFIG accepts only `scalar` or `avx2`: anything else exits
# 2 with the usage line, and a forced path is the one reported.
code=0
bogus_out=$(E2GCL_KERNEL_CONFIG=bogus target/release/e2gcl-cli kernels 2>&1) || code=$?
if [ "$code" -ne 2 ]; then
    echo "FAIL: E2GCL_KERNEL_CONFIG=bogus exited $code, not the usage error 2"; exit 1
fi
echo "$bogus_out" | grep -qF 'E2GCL_KERNEL_CONFIG accepts `scalar` or `avx2`'
scalar_out=$(E2GCL_KERNEL_CONFIG=scalar target/release/e2gcl-cli kernels)
echo "$scalar_out" | grep -qx 'dispatch path: scalar'

stage 8 "crash-safety smoke: torn write -> quarantine -> resume"
# Simulate a crash mid-save: --fault-torn-write leaves a truncated artifact
# (and exits non-zero), the next load must quarantine it to *.corrupt with a
# typed error, and --resume must pick up the durable checkpoint the crashed
# run left behind and land on the same answers as an uninterrupted run.
crash_artifact=target/ci-crash-artifact.bin
crash_ckpt=target/ci-crash-ckpt.bin
rm -f "$crash_artifact" "$crash_artifact.corrupt" "$crash_ckpt"
crash_flags="--dataset cora-sim --scale 0.05 --epochs 6 --seed 3"
if target/release/e2gcl-cli train $crash_flags --save "$crash_artifact" \
    --checkpoint "$crash_ckpt" --checkpoint-every 2 --fault-torn-write 100; then
    echo "error: torn-write train must exit non-zero" >&2
    exit 1
fi
test -s "$crash_ckpt"                          # the durable checkpoint survived the crash
[ "$(stat -c %s "$crash_artifact")" -eq 100 ]  # the artifact is torn
if load_out=$(target/release/e2gcl-cli query --artifact "$crash_artifact" --node 0 --k 3 2>&1); then
    echo "error: loading a torn artifact must fail" >&2
    exit 1
fi
echo "$load_out" | grep -q "artifact quarantined to"
test -s "$crash_artifact.corrupt"              # quarantined aside...
test ! -e "$crash_artifact"                    # ...not left in place
target/release/e2gcl-cli train $crash_flags --save "$crash_artifact" \
    --checkpoint "$crash_ckpt" --checkpoint-every 2 --resume true
clean_artifact=target/ci-crash-clean.bin
target/release/e2gcl-cli train $crash_flags --save "$clean_artifact"
resumed_q=$(target/release/e2gcl-cli query --artifact "$crash_artifact" --node 0 --k 5 2>/dev/null)
clean_q=$(target/release/e2gcl-cli query --artifact "$clean_artifact" --node 0 --k 5 2>/dev/null)
[ "$resumed_q" = "$clean_q" ]                  # resume converged on the clean answers
rm -f "$crash_artifact" "$crash_artifact.corrupt" "$crash_ckpt" "$clean_artifact"

stage 9 "kernel bench smoke: scalar/blocked/simd tiers + loss n-scaling gate + committed-baseline perf regression"
cargo run --release --offline -q -p e2gcl-bench --bin kernel_bench -- --quick
test -s target/bench-results/kernel_bench_quick.json

stage 10 "mini-batch smoke: sampled subgraph training + durable resume"
# Train GRACE on neighbour-sampled mini-batches with a durable checkpoint,
# then re-run with --resume: the checkpoint records the final epoch, so the
# resumed run restores it and must serve the same answers. (The artifact
# bytes themselves differ only in the embedded config JSON's resume flag;
# tests/resume_determinism.rs proves the mini-batch resume bitwise.)
mb_artifact=target/ci-minibatch-artifact.bin
mb_resumed=target/ci-minibatch-resumed.bin
mb_ckpt=target/ci-minibatch-ckpt.bin
rm -f "$mb_artifact" "$mb_resumed" "$mb_ckpt"
mb_flags="--dataset cora-sim --scale 0.05 --epochs 2 --seed 3 --model GRACE --minibatch true --batch-nodes 48 --fanout 4"
target/release/e2gcl-cli train $mb_flags --save "$mb_artifact" \
    --checkpoint "$mb_ckpt" --checkpoint-every 1
test -s "$mb_artifact"
test -s "$mb_ckpt"
target/release/e2gcl-cli train $mb_flags --save "$mb_resumed" \
    --checkpoint "$mb_ckpt" --checkpoint-every 1 --resume true
mb_q1=$(target/release/e2gcl-cli query --artifact "$mb_artifact" --node 0 --k 5)
mb_q2=$(target/release/e2gcl-cli query --artifact "$mb_resumed" --node 0 --k 5)
[ "$mb_q1" = "$mb_q2" ]            # resume reproduced the run's answers
rm -f "$mb_artifact" "$mb_resumed" "$mb_ckpt"

stage 11 "loss strategy smoke: CLI --loss smallneg/localized end to end"
# The sub-quadratic loss kernels through the CLI surface: a smallneg and a
# localized pre-train must both succeed, and an unknown strategy must be a
# usage error (exit 2), not a panic. So must a misspelled flag, which the
# CLI would otherwise ignore and train with the default.
loss_flags="--dataset cora-sim --scale 0.05 --epochs 2 --seed 3"
target/release/e2gcl-cli pretrain $loss_flags --loss smallneg --negatives 64 \
    --out target/ci-loss-smallneg.json
test -s target/ci-loss-smallneg.json
target/release/e2gcl-cli pretrain $loss_flags --loss localized --loss-hops 2 \
    --out target/ci-loss-localized.json
test -s target/ci-loss-localized.json
if target/release/e2gcl-cli pretrain $loss_flags --loss bogus \
    --out target/ci-loss-bogus.json 2>/dev/null; then
    echo "FAIL: --loss bogus was accepted"; exit 1
fi
code=0
target/release/e2gcl-cli pretrain $loss_flags --epoch 3 \
    --out target/ci-loss-typo.json 2>/dev/null || code=$?
if [ "$code" -ne 2 ]; then
    echo "FAIL: misspelled --epoch exited $code, not the usage error 2"; exit 1
fi
rm -f target/ci-loss-smallneg.json target/ci-loss-localized.json

stage 12 "scale bench smoke: mini-batch + full-batch smallneg on the streaming 1M-tier analog"
cargo run --release --offline -q -p e2gcl-bench --bin scale_bench -- --quick
test -s target/bench-results/scale_bench_quick.json

stage 13 "ANN index smoke: deterministic build, recall gate, indexed serving"
# Reuses the artifact trained by the serve smoke stage. build-index prints a
# measured recall over evenly-spaced stored queries; gate it at the 0.95
# contract, then prove the build is reproducible by rebuilding to the same
# bytes and serve through the index end to end.
test -s "$artifact"
ix_a=target/ci-index-a.ivf
ix_b=target/ci-index-b.ivf
rm -f "$ix_a" "$ix_b"
ix_out=$(target/release/e2gcl-cli build-index --artifact "$artifact" --out "$ix_a" --recall-k 10)
echo "$ix_out"
recall=$(echo "$ix_out" | sed -n 's/^recall@10 over .* stored queries: //p')
awk -v r="$recall" 'BEGIN { exit !(r >= 0.95) }' || {
    echo "error: recall@10 $recall is below the 0.95 contract" >&2
    exit 1
}
target/release/e2gcl-cli build-index --artifact "$artifact" --out "$ix_b" --recall-k 10 > /dev/null
cmp "$ix_a" "$ix_b"                            # rebuild is bitwise identical
ivf_q=$(target/release/e2gcl-cli query --artifact "$artifact" --node 0 --k 5 --index ivf --index-path "$ix_a")
echo "$ivf_q" | grep -q "top-5 cosine neighbours"
[ "$(echo "$ivf_q" | grep -c 'score')" -eq 5 ]
# serve-bench's default report goes under target/, never over the committed
# BENCH_serve.json that serve_latency's quick gate reads in the next stage.
bench_json=target/bench-results/serve_bench.json
rm -f "$bench_json"
serve_record=$(cksum BENCH_serve.json)
target/release/e2gcl-cli serve-bench --artifact "$artifact" --rounds 5 --overload-rounds 5 \
    --index ivf --index-path "$ix_a" --target-qps 2000 --loadgen-requests 200
grep -q '"index"' "$bench_json"                # the index config is recorded...
grep -q '"loadgen"' "$bench_json"              # ...alongside the load-generator section
[ "$(cksum BENCH_serve.json)" = "$serve_record" ]  # the committed record is untouched
rm -f "$ix_a" "$ix_b" "$bench_json"

stage 14 "serve bench smoke: latency/ANN/loadgen quick tiers + recorded baseline"
cargo run --release --offline -q -p e2gcl-bench --bin serve_latency -- --quick
test -s target/bench-results/serve_latency_quick.json

stage 15 "end-to-end bench smoke: every workload's output checks + traced train_full/train_minibatch replays"
e2e="cargo run --release --offline -q -p e2gcl-bench --bin e2e_bench --"
$e2e --workload all --seconds 1
$e2e --workload train_full --trace 1 --seconds 1
$e2e --workload train_minibatch --trace 1 --seconds 1

echo "CI passed."
