#!/usr/bin/env bash
# Full repo gate: build, lint, format, test. Run before every commit.
# Clippy and fmt run ahead of the test suite (and the bench smoke) so
# formatting drift and lint regressions fail in seconds, not minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace --all-targets
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
cargo test -q --workspace
# The benchmark is a package of its own, outside the workspace: its tests
# include a scaled-down run of every workload.
cargo test -q --manifest-path benchmark/Cargo.toml

# The widened data plane's equivalence suites, named explicitly so a
# failure points straight at the plane that diverged (they also run
# as part of the workspace suite above). proptest_sparse pins the sparse
# CSR pipeline and its on-demand mode to the dense oracle; graph_reader
# drives the one graph-file reader through both dialects and the seeded
# chaos reader (fragmented, cut and corrupted streams, hostile lines);
# sparse_memory holds the component closure's rows under the
# dense matrix they replace (under an eighth of it on power-law graphs);
# condense_ids pins the component ids the DAG sweep relies on;
# determinism_and_goldens pins every simulator path (clean and
# fault-armed runs, all mappings, timed elimination) and every compiled
# plan bit for bit; proptest_schedule checks the G-set schedules the plan
# compiler consumes (closure, LU and Faddeev) for legality and coverage;
# proptest_plan_cache pins cached replay and the bank slot table, its
# ring FIFOs and its write-burst counter to a hash-map model;
# serve_oracle replays seeded command streams through the service against
# a recompute oracle and pins every reply byte by digest. In the member
# crates, e30_pinned regenerates experiment E30 and compares it with its
# EXPERIMENTS.md section byte for byte, and elimination_graph_pins pins
# the LU and Faddeev dependence graphs of the one elimination builder.
cargo test -q --test proptest_lanes --test proptest_swar --test proptest_laws \
    --test proptest_sparse --test graph_reader --test sparse_memory --test proptest_durations \
    --test condense_ids --test determinism_and_goldens --test proptest_plan_cache \
    --test proptest_schedule --test serve_oracle
cargo test -q -p systolic-bench --test e30_pinned
cargo test -q -p systolic-dgraph --test elimination_graph_pins
# The simulator's ring index arithmetic and its inlining differ between
# the debug and release profiles (overflow checks, debug assertions), so
# its pinning suites also run optimized. e29_pinned regenerates E29's
# 10⁴–10⁶-vertex sweep and compares every count with its EXPERIMENTS.md
# section, wall-clock cells masked; the workspace pass runs it unoptimized.
cargo test -q --release --test determinism_and_goldens --test proptest_lanes \
    --test proptest_plan_cache
cargo test -q --release -p systolic-bench --test e29_pinned

# Perf smoke (non-gating: wall-clock numbers are machine-dependent).
./scripts/bench_smoke.sh || echo "check.sh: bench_smoke failed (non-gating)"

echo "check.sh: all gates passed"
