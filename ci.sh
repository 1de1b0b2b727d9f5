#!/usr/bin/env bash
# Per-PR gate. Everything runs offline — the workspace has no
# third-party dependencies, so `--offline` must always succeed.
#
#   1. tier-1: release build + full test suite
#   1b. member-crate unit tests: `cargo test` at the root runs only the
#      root package's integration tests, so the unit and property tests
#      inside llr-core (the protocols' own machines and exhaustive
#      checks), llr-mem, llr-gf and llr-bench run here, in release.
#   2. lint: clippy, warnings are errors
#   3. docs: `cargo doc` with warnings denied (llr-mc carries
#      `#![warn(missing_docs)]`, so every public item must stay
#      documented) plus the doctests, so the documented examples keep
#      compiling and passing.
#   4. fast E2 subset: the engine-equivalence tests re-check the
#      mid-size rows of results/e2_modelcheck.csv under the sequential
#      DFS and the one BFS driver over its RAM stores (1/2/4 workers,
#      exact and hashed dedup) and its disk stores (generous and zero
#      budgets), pinning the counts byte-for-byte — one family per
#      protocol, including the rival cores (LevelArray, small splitter
#      networks). The checker's unit tests run next to them (state
#      limit on every store, the fault budget on the disk store). This
#      is the checker hot path; run it in release so it stays fast.
#   5. frontier-spill gate: the disk layer store's file-format property
#      suite (round-trips, loud failure on truncated/torn layer files)
#      and the disk-CSR liveness differential (every E2 family spill vs
#      in-RAM, trap reports, and the under-budget regression whose edge
#      list alone exceeds the byte budget). Small configs under tight
#      tmpdir budgets, including the zero-budget floor — fast in
#      release, but exactly the code that guards the multi-million-state
#      E2 rows.
#   6. POR soundness subset: the partial-order-reduction differential
#      suite (reduced vs full verdicts/terminals on every family, every
#      engine and store) and the footprint audit (declared footprints must
#      cover recorded accesses), also in release.
#   7. real-atomics arena gate: the SimMemory-vs-AtomicMemory
#      differential suite plus the multi-threaded stress tests in
#      release — including `arena_smoke`, a few thousand
#      uniqueness-checked acquire/release ops at 4 threads through the
#      full NameArena stack (gate → session reuse → padded atomics →
#      release-ordered stores). Release mode matters here: optimized
#      code paths plus real thread timing is where a wrong memory
#      ordering would actually surface.
#   8. crash/churn gate: the fault-injection sweeps (freeze and
#      crash–restart at every stall point, all ten protocol cores)
#      and the arena churn battery (armed clients panicking mid-acquire
#      under a 4-permit gate, 100 seeded rounds, zero leaked permits).
#      Also release: the churn rounds are real oversubscribed threads,
#      and the RAII permit-return path only earns trust under optimized
#      unwinding.
#   9. benchmark build: the `perfbench/` package (its own workspace,
#      path deps on `crates/`) must still compile against the crates'
#      API, so a change that would break the repository benchmark fails
#      here rather than when the benchmark is run.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: build (release, offline) =="
cargo build --release --offline

echo "== tier-1: tests =="
cargo test -q --offline

echo "== member-crate unit tests (release) =="
cargo test -q --offline --release -p llr-core -p llr-mem -p llr-gf -p llr-bench

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== docs (-D warnings) + doctests =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
cargo test -q --offline --doc --workspace

echo "== fast E2 subset (engine equivalence + checker unit tests, release) =="
cargo test -q --offline --release --test engine_equivalence
cargo test -q --offline --release -p llr-mc --lib

echo "== frontier-spill gate (layer format + disk-CSR liveness, release) =="
cargo test -q --offline --release --test frontier_format --test liveness_spill

echo "== POR soundness subset (differential + footprint audit, release) =="
cargo test -q --offline --release --test por_equivalence --test footprint_audit

echo "== real-atomics arena gate (differential + stress + smoke, release) =="
cargo test -q --offline --release --test atomic_backend

echo "== crash/churn gate (fault injection + arena churn, release) =="
cargo test -q --offline --release --test crash_tolerance --test arena_churn

echo "== benchmark build (perfbench, release) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "ci.sh: all green"
