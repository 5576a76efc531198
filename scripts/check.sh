#!/usr/bin/env bash
# Full repo gate: build, lint, format, test. Run before every commit.
# Clippy and fmt run ahead of the test suite so formatting drift and lint
# regressions fail in seconds, not minutes. Every step gates.
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

# The workspace pass above runs every suite once in the debug profile.
# The pinning suites, and what each holds: proptest_sparse pins the sparse
# CSR pipeline and its on-demand mode to the dense oracle; graph_reader
# drives the one graph-file reader through both dialects and the seeded
# chaos reader (fragmented, cut and corrupted streams, hostile lines);
# sparse_memory holds the component closure's rows under the dense matrix
# they replace (under an eighth of it on power-law graphs); condense_ids
# pins the component ids the DAG sweep relies on; determinism_and_goldens
# pins every simulator path (clean and fault-armed runs, all mappings,
# timed elimination) and every compiled plan bit for bit;
# proptest_schedule checks the G-set schedules the plan compiler consumes
# (closure, LU and Faddeev) for legality and coverage; proptest_plan_cache
# pins cached replay and the bank slot table, its ring FIFOs and its
# write-burst counter to a hash-map model; serve_oracle replays seeded
# command streams through the service against a recompute oracle and pins
# every reply byte by digest. In the member crates, experiments_pinned
# regenerates every section of EXPERIMENTS.md and compares it with the
# file, wall-clock cells masked, except E29 and E30, which e29_pinned and
# e30_pinned hold the same way in binaries of their own; sparse_peak_rss holds the 10⁵-vertex
# sparse close under 128 MiB of peak RSS; elimination_graph_pins pins the
# LU and Faddeev dependence graphs of the one elimination builder.
#
# The simulator's ring index arithmetic and its inlining differ between
# the debug and release profiles (overflow checks, debug assertions), so
# its pinning suites also run optimized, and so does fault_stream, which
# pins the fault injector's inlined quiet-position skips to the
# per-opportunity roll they replaced, call for call. The experiments pins run
# optimized too: E28's and E29's speedup bars (packed ≥ 8× scalar, one
# 256-instance simulation ≥ 1.5× four 64-instance calls, SWAR min-plus ≥ 4×
# scalar, sparse ≥ 20× dense) are claims about optimized code, asserted
# only where debug assertions are off. proptest_lanes holds the packed
# engine's grouping: one simulation per 256 instances on the narrowest lane
# word, 64-lane groups under a lane-targeted fault plan.
cargo test -q --release --test determinism_and_goldens --test fault_stream \
    --test proptest_lanes --test proptest_plan_cache
cargo test -q --release -p systolic-bench --test experiments_pinned \
    --test e29_pinned --test e30_pinned

echo "check.sh: all gates passed"
