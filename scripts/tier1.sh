#!/usr/bin/env bash
# Tier-1 gate: the offline build-and-test cycle every change must pass.
#
# Works with no network access — proptest resolves to the shim
# vendored under vendor/ (see DESIGN.md §3).
#
# Usage: scripts/tier1.sh [--with-smoke]
#   --with-smoke  also run two scaled parallel campaigns and emit
#                 BENCH_campaign.json and BENCH_campaign_long.json at
#                 the repo root.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== tier-1: member crate tests =="
# The root package's tests do not run the member crates' own tests.
# These hold the cache model's reference oracles and the pipeline
# properties, the bounds-table, MCU FSM and corruption properties, the
# stream splice adapter, the static scanner's policies, the fuzz harness's
# finding classification, the serve jobs' report digests, the CLI's
# flag and exit-code contract, the RNG's Bernoulli and Zipf oracles,
# the generator's and allocator's properties, QARMA's test vectors,
# the signer, the campaign runner and the bench harness.
cargo test -q -p aos-sim -p aos-hbt -p aos-mcu -p aos-isa -p aos-fault -p aos-lint \
    -p aos-fuzz -p aos-serve -p aos-cli -p aos-util -p aos-workloads -p aos-heap \
    -p aos-qarma -p aos-ptrauth -p aos-core -p aos-bench

# Every workspace package, the root package and the vendored proptest
# shim included, is held to rustfmt's output. Skipped when rustfmt is
# not installed.
if cargo fmt --version >/dev/null 2>&1; then
    echo "== tier-1: rustfmt gate (whole workspace) =="
    cargo fmt --all --check
else
    echo "== tier-1: rustfmt not installed, skipping the format gate =="
fi

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
# The report is kept for the JSON parse step below.
faults_json="${TMPDIR:-/tmp}/aos_tier1_faults_$$.json"
cargo run -q --release -p aos-cli -- faults --seeds 2 --strict true --out "$faults_json"

echo "== tier-1: fault-injection smoke, every static policy (strict) =="
# The same sweep gated against each policy's own pinned split: a
# change to the shared static scanner that moves what CryptSan, PACSan
# or PACTight detects fails here.
cargo run -q --release -p aos-cli -- faults --seeds 2 --policy all --strict true >/dev/null

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
# static/dynamic split. With --telemetry true every machine the
# campaign runs counts into the printed table, so the generator and
# pipeline counters must not read 0. The checked-in golden corpus must
# replay with bit-stable verdicts through both oracles.
fuzz_out=$(cargo run -q --release -p aos-cli -- fuzz --seed 7 --budget 4 --telemetry true)
for counter in mcq_enqueued heap_allocs; do
    if ! awk -v c="$counter" '$1 == c && $2 > 0 { ok = 1 } END { exit !ok }' <<<"$fuzz_out"; then
        echo "fuzz smoke: $counter reads 0 under --telemetry true" >&2
        exit 1
    fi
done
cargo run -q --release -p aos-cli -- fuzz \
    --replay-corpus tests/golden/fuzz/composites.aosc >/dev/null

echo "== tier-1: serve smoke (graceful rejection + clean shutdown) =="
# A short stdio service session: one well-formed lint job, one
# malformed line. The malformed line must answer "rejected" (not tear
# the session down), the job must answer "ok", and EOF must drain to
# a final "shutdown" line with exit 0.
serve_out="${TMPDIR:-/tmp}/aos_serve_smoke_$$.ndjson"
printf '%s\n%s\n' \
    '{"proto":"aos-serve/v2","id":"smoke","kind":"lint","workload":"mcf","system":"aos","scale":0.004}' \
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
# (exit 0 = zero violations on every sweep point), at every BWB
# capacity of the default sweep.
cargo run -q --release -p aos-cli -- ablate \
    --scale 0.002 --mcq 24,48 --bwb 16,64,128 >/dev/null

echo "== tier-1: every JSON document parses =="
# With --json true each command's stdout is exactly one JSON document
# (no banner or table around it); the fault report file is one too.
# Skipped when python3 is absent.
if command -v python3 >/dev/null 2>&1; then
    parse_json() { python3 -c 'import json,sys; json.load(sys.stdin)'; }
    aos() { cargo run -q --release -p aos-cli -- "$@"; }
    aos run hmmer --scale 0.004 --json true --telemetry true | parse_json
    aos stats --scale 0.004 --threads 2 --json true | parse_json
    aos lint --json true | parse_json
    aos matrix --scale 0.01 --seeds 1 --json true | parse_json
    aos fuzz --seed 7 --budget 4 --json true | parse_json
    aos ablate --scale 0.002 --mcq 24,48 --bwb 16,64,128 --json true | parse_json
    parse_json <"$faults_json"
else
    echo "no python3, skipping the JSON parse step"
fi
rm -f "$faults_json"

# Hardened crates must not grow new unwrap() on input-reachable paths,
# the streaming pipeline must not regress into collect-then-iterate
# (needless_collect re-materializes traces the refactor made lazy),
# library crates must not print to stdout — user-facing output belongs
# to the CLI, which is exempt from the gate by not being in the crate
# list — and every unsafe block or impl must carry a `// SAFETY:`
# comment stating its soundness argument.
# The gate is advisory when clippy is not installed (offline image).
if command -v cargo-clippy >/dev/null 2>&1; then
    echo "== tier-1: clippy unwrap + needless-collect + print-stdout + undocumented-unsafe gate (library crates) =="
    for crate in aos-util aos-qarma aos-ptrauth aos-heap aos-mcu aos-hbt aos-isa aos-sim aos-workloads aos-core aos-fault aos-lint aos-serve aos-fuzz aos-bench; do
        cargo clippy -q -p "$crate" --no-deps -- \
            -D clippy::unwrap_used -D clippy::needless_collect \
            -D clippy::print_stdout \
            -D clippy::undocumented_unsafe_blocks
    done
    # Every target (tests, examples, benches included) of every crate
    # but the vendored shim is free of clippy's default warnings.
    echo "== tier-1: clippy gate (all targets, default lints, warnings denied) =="
    cargo clippy -q --all-targets --no-deps --workspace --exclude proptest -- -D warnings
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

# Report-only: the non-test line count defined in
# scripts/nontest_lines.sh, so a change that removes code can quote a
# figure anyone can reproduce.
echo "== tier-1: non-test lines (report-only): $(scripts/nontest_lines.sh) =="

if [[ "${1:-}" == "--with-smoke" ]]; then
    echo "== campaign smoke: SPEC2006 x 5 systems, scaled =="
    cargo run -q --release -p aos-cli -- campaign --suite spec2006 \
        --scale 0.01 --out BENCH_campaign.json
    # A 10x-longer window than the default smoke run. Viable in CI
    # memory because no cell materializes its trace: peak buffered
    # trace stays O(window) per worker.
    echo "== campaign smoke: 10x window scale =="
    cargo run -q --release -p aos-cli -- campaign --suite spec2006 \
        --scale 0.1 --out BENCH_campaign_long.json
fi

echo "tier-1 OK"
