#!/usr/bin/env bash
# Tier-1 gate: the offline build-and-test cycle every change must pass.
#
# Works with no network access — proptest resolves to the shim
# vendored under vendor/ (see DESIGN.md §3).
#
# Usage: scripts/tier1.sh [--with-smoke]
#   --with-smoke  also run a scaled parallel campaign and emit
#                 BENCH_campaign.json at the repo root.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== tier-1: member crate tests =="
# The root package's tests do not run the member crates' own tests.
# These hold the bounds-table, MCU FSM and corruption properties, the
# per-policy verifiers, the fuzz harness's finding classification and
# the CLI's flag and exit-code contract.
cargo test -q -p aos-hbt -p aos-mcu -p aos-fault -p aos-lint -p aos-fuzz -p aos-cli

echo "== tier-1: rustdoc gate (every intra-doc link resolves) =="
# Unresolved links, links to private items and redundant link targets
# fail the build. The vendored proptest shim is not ours, so it is
# excluded.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --exclude proptest

echo "== tier-1: every results/ file is byte-identical at full scale =="
# All 11 figures and tables rendered from one shared 158-cell campaign
# at scale 1.0 and diffed against results/: a QARMA change that moves
# one PAC, or a timing or workload change that moves one cycle, fails.
cargo run -q --release -p aos-cli -- repro --check results

echo "== tier-1: fault-injection smoke (strict) =="
# Every fault class must be detected under AOS, missed by Baseline,
# with zero false positives, and every static policy's pinned split
# (here the AOS policy, the default) must hold — nonzero exit
# otherwise.
cargo run -q --release -p aos-cli -- faults --seeds 2 --strict true

echo "== tier-1: static protocol lint smoke (strict) =="
# A clean generated trace must carry zero protocol findings.
cargo run -q --release -p aos-cli -- lint >/dev/null

echo "== tier-1: cross-policy detection matrix smoke =="
# The clean row of the policy x fault-kind matrix must stay silent
# under every static policy (AOS, CryptSan, PACSan, PACTight) —
# nonzero exit on any clean-trace false positive.
cargo run -q --release -p aos-cli -- matrix --scale 0.01 --seeds 1 >/dev/null

echo "== tier-1: adversarial differential fuzz smoke (fixed seed) =="
# A fixed-seed, fixed-budget campaign must run finding-free (exit 0):
# every generated attack chain lands exactly on the pinned
# static/dynamic split. The checked-in golden corpus must replay with
# bit-stable verdicts through both oracles.
cargo run -q --release -p aos-cli -- fuzz --seed 7 --budget 4 >/dev/null
cargo run -q --release -p aos-cli -- fuzz \
    --replay-corpus tests/golden/fuzz/composites.aosc >/dev/null

echo "== tier-1: serve smoke (graceful rejection + clean shutdown) =="
# A short stdio service session: one well-formed lint job, one
# malformed line. The malformed line must answer "rejected" (not tear
# the session down), the job must answer "ok", and EOF must drain to
# a final "shutdown" line with exit 0.
serve_out="${TMPDIR:-/tmp}/aos_serve_smoke_$$.ndjson"
printf '%s\n%s\n' \
    '{"proto":"aos-serve/v1","id":"smoke","kind":"lint","workload":"mcf","system":"aos","scale":0.004}' \
    'this is not a protocol line' \
  | cargo run -q --release -p aos-cli -- serve --workers 1 2>/dev/null >"$serve_out"
grep -q '"id":"smoke","status":"ok"' "$serve_out"
grep -q '"status":"rejected"' "$serve_out"
tail -n 1 "$serve_out" | grep -q '"status":"shutdown"'
rm -f "$serve_out"

echo "== tier-1: corpus record -> replay -> verify round-trip =="
# Record a cell, replay it in sim and lint mode (exit 0 = CRC-clean
# and bit-identical machinery engaged), verify the whole file.
corpus_file="${TMPDIR:-/tmp}/aos_tier1_corpus_$$.aosc"
rm -f "$corpus_file"
cargo run -q --release -p aos-cli -- corpus record \
    --out "$corpus_file" --workloads mcf --systems aos --scale 0.004 >/dev/null
cargo run -q --release -p aos-cli -- corpus replay \
    "$corpus_file" --entry mcf-aos >/dev/null
cargo run -q --release -p aos-cli -- corpus replay \
    "$corpus_file" --entry mcf-aos --mode lint >/dev/null
cargo run -q --release -p aos-cli -- corpus verify "$corpus_file" >/dev/null
rm -f "$corpus_file"

echo "== tier-1: MCU geometry ablation smoke =="
# A small benign MCQ x BWB sweep on the stage core must finish cleanly
# (exit 0 = zero violations on every sweep point).
cargo run -q --release -p aos-cli -- ablate \
    --scale 0.002 --mcq 24,48 --bwb 64 >/dev/null

echo "== tier-1: streaming pipeline smoke =="
# The streaming bench asserts bit-identical RunStats and telemetry
# between the materialized and the per-op streaming pipeline on every
# run — a tiny single-rep pass makes that equivalence assert part of
# the gate without the cost of the full artifact run.
streaming_out="${TMPDIR:-/tmp}/aos_streaming_smoke_$$.json"
cargo run -q --release -p aos-bench --bin streaming_bench -- \
    --scale 0.004 --reps 1 --out "$streaming_out" >/dev/null
rm -f "$streaming_out"

# Hardened crates must not grow new unwrap() on input-reachable paths,
# the streaming pipeline must not regress into collect-then-iterate
# (needless_collect re-materializes traces the refactor made lazy),
# library crates must not print to stdout — user-facing output belongs
# to the CLI and bench binaries, which are exempt from the gate by not
# being in the crate list (aos-bench is checked with --lib only) — and
# every unsafe block or impl must carry a `// SAFETY:` comment stating
# its soundness argument.
# The gate is advisory when clippy is not installed (offline image).
if command -v cargo-clippy >/dev/null 2>&1; then
    echo "== tier-1: clippy unwrap + needless-collect + print-stdout + undocumented-unsafe gate (library crates) =="
    for crate in aos-util aos-heap aos-mcu aos-hbt aos-isa aos-sim aos-core aos-fault aos-lint aos-serve aos-fuzz; do
        cargo clippy -q -p "$crate" --no-deps -- \
            -D clippy::unwrap_used -D clippy::needless_collect \
            -D clippy::print_stdout \
            -D clippy::undocumented_unsafe_blocks
    done
    # aos-bench's library renders reports as strings; its two
    # binaries print by design, so only --lib is gated.
    cargo clippy -q -p aos-bench --lib --no-deps -- \
        -D clippy::unwrap_used -D clippy::needless_collect \
        -D clippy::print_stdout \
        -D clippy::undocumented_unsafe_blocks
else
    echo "== tier-1: clippy not installed, skipping lint gates =="
fi

# Coverage is report-only (a soft floor, never a hard failure): when
# cargo-llvm-cov is installed the line rate is printed so reviewers
# can watch the trend; the offline image without it skips cleanly.
if command -v cargo-llvm-cov >/dev/null 2>&1; then
    echo "== tier-1: coverage report (soft floor ${AOS_COVERAGE_FLOOR:-70}%, report-only) =="
    cargo llvm-cov --workspace --summary-only || \
        echo "coverage run failed (report-only, not fatal)"
else
    echo "== tier-1: cargo-llvm-cov not installed, skipping coverage report =="
fi

if [[ "${1:-}" == "--with-smoke" ]]; then
    echo "== campaign smoke: SPEC2006 x 5 systems, scaled =="
    cargo run -q --release -p aos-bench --bin campaign_smoke -- \
        --scale 0.01 --out BENCH_campaign.json
    # Streaming smoke: a 10x-longer window than the default smoke run.
    # Viable in CI memory precisely because no cell materializes its
    # trace — peak buffered trace stays O(window) per worker.
    echo "== streaming smoke: campaign at 10x window scale =="
    cargo run -q --release -p aos-bench --bin campaign_smoke -- \
        --scale 0.1 --out BENCH_campaign_long.json
    echo "== streaming bench: materialized / streaming pipeline =="
    # Snapshot the committed artifact first so the regression note
    # below can compare against it after the file is overwritten.
    prev_bench="${TMPDIR:-/tmp}/aos_bench_prev_$$.json"
    git show HEAD:BENCH_streaming.json >"$prev_bench" 2>/dev/null \
        || { rm -f "$prev_bench"; prev_bench=""; }
    cargo run -q --release -p aos-bench --bin streaming_bench -- \
        --scale 0.02 --out BENCH_streaming.json
    echo "== bench regression note: sim-cycles/sec vs committed baseline (report-only) =="
    if [[ -n "$prev_bench" ]] && command -v python3 >/dev/null 2>&1; then
        python3 scripts/bench_note.py "$prev_bench" BENCH_streaming.json || true
    else
        echo "no committed BENCH_streaming.json (or no python3) to compare against"
    fi
    [[ -z "$prev_bench" ]] || rm -f "$prev_bench"
fi

echo "tier-1 OK"
