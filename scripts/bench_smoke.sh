#!/usr/bin/env bash
# Perf smoke for the partitioned engines: runs the batched_closure and
# plan_reuse benches with pinned sample counts and records the results —
# one row per mapping and lane plane (linear_m4, lsgp_m4, packed_m4, the
# packed_w1/w2/w4 lane-width sweep, the min-plus scalar/SWAR pair, the
# bitmatrix sweep, plus the plan_reuse shapes) — in
# BENCH_partition.json at the repo root, together with the
# reachability-service stream numbers (query p50/p99 latency at
# fractional-µs precision, sustained command throughput) from the
# serve_bench driver.
#
# Every gated ratio is computed between rows of the *same run*, so gates
# hold on any machine regardless of absolute speed. The historical scalar
# baseline (previous BENCH_partition.json median, falling back to the
# original pre-plan-cache 110.1 ms measurement) is still recorded as
# speedup_vs_baseline, but it is informational only: cross-run wall-clock
# ratios say more about the machine than about the code.
#
# Gates (non-gating from check.sh — wall-clock numbers are
# machine-dependent — but this script itself exits nonzero on failure):
#   * packed_m4 must be >= 8x faster than the same run's linear_m4 (the
#     64-lane bit-sliced data plane's acceptance bar),
#   * the lane-width sweep must record all three packed_w1/w2/w4 rows,
#   * minplus_packed_m4 must be >= 4x faster than the same run's scalar
#     minplus_m4 (the SWAR tropical plane's acceptance bar),
#   * every serve stream must report ok=true (answers cross-checked
#     against a full-recompute oracle; latency itself is not gated),
#   * the chaos smoke must record the 4-client concurrent run and the
#     kill-and-recover run (recover_ms), both ok=true — a daemon that
#     loses a session or recovers a wrong closure fails here,
#   * the sparse data plane must close the pinned n=4096 power-law graph
#     >= 20x faster than the dense BitMatrix sweep (same-run ratio), all
#     three sparse_scale rows (10^4, 10^5, 10^6) must be recorded, and
#     peak resident memory after the 10^5 row must stay under a hard
#     128 MiB ceiling (the whole point of never materializing n x n),
#   * the §4.3 varying-time comparison (E30) must record both
#     varying_utilization keys, the linear chain must be at least as
#     utilized as the equal-cell grid, and the measured-vs-analytic
#     tolerance check inside varying_bench must pass (ok=true),
#   * a gate whose key is missing from the output FAILS — a bench that
#     never printed its line must not pass vacuously.
set -euo pipefail
cd "$(dirname "$0")/.."

export SYSTOLIC_BENCH_SAMPLES="${SYSTOLIC_BENCH_SAMPLES:-7}"
export SYSTOLIC_BENCH_WARMUP_MS="${SYSTOLIC_BENCH_WARMUP_MS:-500}"
SERVE_CMDS="${SYSTOLIC_SERVE_CMDS:-20000}"
ORIGINAL_BASELINE_MS=110.1
OUT=BENCH_partition.json

# Prior scalar median from the last recorded run, if any (informational).
PRIOR_MS=""
if [ -f "$OUT" ]; then
  PRIOR_MS=$(sed -n \
    's/.*"id": "batched_closure\/linear_m4\/32x32", "median_ms": \([0-9.]*\).*/\1/p' \
    "$OUT" | head -n1)
fi
BASELINE_MS="${PRIOR_MS:-$ORIGINAL_BASELINE_MS}"

lines=$(
  cargo bench -p systolic-bench --bench batched_closure 2>/dev/null
  cargo bench -p systolic-bench --bench plan_reuse 2>/dev/null
  cargo bench -p systolic-bench --bench sparse_closure 2>/dev/null
  cargo run --release -q -p systolic-bench --bin serve_bench "$SERVE_CMDS"
  cargo run --release -q -p systolic-bench --bin sparse_bench
  cargo run --release -q -p systolic-bench --bin varying_bench
)
printf '%s\n' "$lines"

printf '%s\n' "$lines" | awk \
  -v baseline="$BASELINE_MS" -v samples="$SYSTOLIC_BENCH_SAMPLES" '
  # Unknown duration units are a hard error, not silently-µs: a harness
  # format drift must break the smoke, not skew its numbers 1000x.
  function to_ms(s,   v, u) {
    v = s; sub(/[^0-9.].*$/, "", v)
    u = s; sub(/^[0-9.]+/, "", u)
    if (u == "ns")              return v / 1e6
    if (u == "µs" || u == "us") return v / 1e3
    if (u == "ms")              return v
    if (u == "s")               return v * 1e3
    printf "bench_smoke: unparseable duration `%s`\n", s > "/dev/stderr"
    bad = 1
    return 0
  }
  function ratio_or_null(num, den) {
    if (num > 0 && den > 0) return sprintf("%.2f", num / den)
    return "null"
  }
  / median / {
    id = $1
    for (i = 1; i <= NF; i++) {
      if ($i == "median") med = to_ms($(i + 1))
      if ($i == "mean")   avg = to_ms($(i + 1))
      if ($i == "min")    low = to_ms($(i + 1))
    }
    n++
    rows[n] = sprintf("    {\"id\": \"%s\", \"median_ms\": %.3f, \"mean_ms\": %.3f, \"min_ms\": %.3f}", id, med, avg, low)
    med_of[id] = med
  }
  /^serve_stream\// {
    delete kv
    for (i = 2; i <= NF; i++) {
      split($(i), pair, "=")
      kv[pair[1]] = pair[2]
    }
    ns++
    srows[ns] = sprintf("    {\"id\": \"%s\", \"n\": %d, \"commands\": %d, \"qps\": %.0f, \"p50_us\": %.3f, \"p99_us\": %.3f, \"max_us\": %.3f, \"ok\": %s}", \
      $1, kv["n"], kv["cmds"], kv["qps"], kv["p50_us"], kv["p99_us"], kv["max_us"], kv["ok"])
  }
  /^serve_concurrent\// {
    delete kv
    for (i = 2; i <= NF; i++) {
      split($(i), pair, "=")
      kv[pair[1]] = pair[2]
    }
    nc++
    crows[nc] = sprintf("    {\"id\": \"%s\", \"n\": %d, \"queries\": %d, \"qps\": %.0f, \"ok\": %s}", \
      $1, kv["n"], kv["queries"], kv["qps"], kv["ok"])
  }
  /^serve_recover\// {
    delete kv
    for (i = 2; i <= NF; i++) {
      split($(i), pair, "=")
      kv[pair[1]] = pair[2]
    }
    nc++
    crows[nc] = sprintf("    {\"id\": \"%s\", \"ops\": %d, \"wal_bytes\": %d, \"recover_ms\": %.2f, \"ok\": %s}", \
      $1, kv["ops"], kv["wal_bytes"], kv["recover_ms"], kv["ok"])
  }
  /^sparse_scale\// {
    delete kv
    for (i = 2; i <= NF; i++) {
      split($(i), pair, "=")
      kv[pair[1]] = pair[2]
    }
    nsc++
    nsp++
    sprows[nsp] = sprintf("    {\"id\": \"%s\", \"edges\": %d, \"scc\": %d, \"dag_edges\": %d, \"mode\": \"%s\", \"fill_pairs\": %.3e, \"fill_exact\": %s, \"mem_bytes\": %d, \"peak_rss_bytes\": %d, \"gen_ms\": %.1f, \"close_ms\": %.1f}", \
      $1, kv["edges"], kv["scc"], kv["dag_edges"], kv["mode"], kv["fill_pairs"], kv["fill_exact"], kv["mem_bytes"], kv["peak_rss_bytes"], kv["gen_ms"], kv["close_ms"])
    if ($1 == "sparse_scale/100000") peak1e5 = kv["peak_rss_bytes"]
  }
  /^varying_utilization\// {
    delete kv
    for (i = 2; i <= NF; i++) {
      split($(i), pair, "=")
      kv[pair[1]] = pair[2]
    }
    vlin = kv["linear"]; vgrid = kv["grid"]; vok = kv["ok"]
    valin = kv["analytic_linear"]; vagrid = kv["analytic_grid"]
  }
  END {
    if (bad) exit 1
    if (n == 0) {
      print "bench_smoke: no bench result lines parsed" > "/dev/stderr"
      exit 1
    }
    accept = med_of["batched_closure/linear_m4/32x32"]
    print "{"
    print "  \"bench\": \"partition perf smoke (scripts/bench_smoke.sh)\","
    printf "  \"samples\": %d,\n", samples
    printf "  \"baseline_median_ms\": %.1f,\n", baseline
    print "  \"results\": ["
    for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
    print "  ],"
    if (accept > 0)
      printf "  \"speedup_vs_baseline\": %.2f,\n", baseline / accept
    else
      print "  \"speedup_vs_baseline\": null,"
    printf "  \"lsgp_speedup_vs_linear\": %s,\n", \
      ratio_or_null(accept, med_of["batched_closure/lsgp_m4/32x32"])
    printf "  \"packed_speedup_vs_linear\": %s,\n", \
      ratio_or_null(accept, med_of["batched_closure/packed_m4/32x32"])
    printf "  \"packed_w2_speedup_vs_w1\": %s,\n", \
      ratio_or_null(med_of["batched_closure/packed_w1_m4/128x32"], \
                    med_of["batched_closure/packed_w2_m4/128x32"])
    printf "  \"packed_w4_speedup_vs_w1\": %s,\n", \
      ratio_or_null(med_of["batched_closure/packed_w1_m4/128x32"], \
                    med_of["batched_closure/packed_w4_m4/128x32"])
    printf "  \"minplus_packed_speedup\": %s,\n", \
      ratio_or_null(med_of["batched_closure/minplus_m4/32x32"], \
                    med_of["batched_closure/minplus_packed_m4/32x32"])
    printf "  \"sparse_speedup_vs_dense_4096\": %s,\n", \
      ratio_or_null(med_of["sparse_closure/dense_4096"], \
                    med_of["sparse_closure/sparse_4096"])
    printf "  \"sparse_scale_rows\": %d,\n", nsc
    printf "  \"sparse_peak_bytes_1e5\": %s,\n", (peak1e5 != "" ? peak1e5 : "null")
    printf "  \"varying_utilization_linear\": %s,\n", (vlin != "" ? vlin : "null")
    printf "  \"varying_utilization_grid\": %s,\n", (vgrid != "" ? vgrid : "null")
    printf "  \"varying_analytic_linear\": %s,\n", (valin != "" ? valin : "null")
    printf "  \"varying_analytic_grid\": %s,\n", (vagrid != "" ? vagrid : "null")
    printf "  \"varying_linear_over_grid\": %s,\n", ratio_or_null(vlin, vgrid)
    printf "  \"varying_ok\": %s,\n", (vok != "" ? vok : "null")
    print "  \"sparse\": ["
    for (i = 1; i <= nsp; i++) printf "%s%s\n", sprows[i], (i < nsp ? "," : "")
    print "  ],"
    print "  \"serve\": ["
    for (i = 1; i <= ns; i++) printf "%s%s\n", srows[i], (i < ns ? "," : "")
    print "  ],"
    print "  \"chaos\": ["
    for (i = 1; i <= nc; i++) printf "%s%s\n", crows[i], (i < nc ? "," : "")
    print "  ]"
    print "}"
  }' > "$OUT.tmp"
mv "$OUT.tmp" "$OUT"

echo "bench_smoke: wrote $OUT (informational baseline ${BASELINE_MS} ms)"
grep -E 'speedup|sparse_|serve_stream|serve_concurrent|serve_recover|varying_' "$OUT"

# gate KEY MIN — the JSON key must exist and its value must be a number
# >= MIN. null or a missing key fails: a gate must never pass because the
# bench that feeds it vanished.
gate() {
  awk -v key="\"$1\"" -v min="$2" '
    $0 ~ key {
      found = 1; gsub(/[,"]/, ""); v = $2
      if (v == "null" || v + 0 < min + 0) {
        printf "bench_smoke: FAIL %s gate (%s < %s)\n", key, v, min
        exit 1
      }
    }
    END {
      if (!found) {
        printf "bench_smoke: FAIL gate key %s missing from output\n", key
        exit 1
      }
    }' "$OUT"
}

# gate_max KEY MAX — the JSON key must exist and its value must be a
# number in (0, MAX]. Zero fails too: for a resource ceiling, 0 means the
# measurement is missing, and a ceiling must never pass unmeasured.
gate_max() {
  awk -v key="\"$1\"" -v max="$2" '
    $0 ~ key {
      found = 1; gsub(/[,"]/, ""); v = $2
      if (v == "null" || v + 0 <= 0 || v + 0 > max + 0) {
        printf "bench_smoke: FAIL %s ceiling (%s not in (0, %s])\n", key, v, max
        exit 1
      }
    }
    END {
      if (!found) {
        printf "bench_smoke: FAIL gate key %s missing from output\n", key
        exit 1
      }
    }' "$OUT"
}

# Gate 1: all same-run speedups recorded. The 64-lane packed engine must
# beat the scalar engine >= 8x; the lsgp ratio only needs to exist and be
# sane (it trades throughput for Θ(n²/m) buffering, not speed).
gate lsgp_speedup_vs_linear 0.1
gate packed_speedup_vs_linear 8.0

# Gate 2: the lane-width sweep ran at every W (ratios are informational —
# the win saturates once one group covers the batch — but must exist).
gate packed_w2_speedup_vs_w1 0.1
gate packed_w4_speedup_vs_w1 0.1

# Gate 3: the SWAR tropical plane must beat scalar min-plus >= 4x.
gate minplus_packed_speedup 4.0

# Gate 4: the sparse data plane. Same-run ratio vs the dense BitMatrix
# sweep on the pinned n=4096 power-law graph (>= 20x), all three scaling
# rows recorded, and peak resident memory after the 10^5 row under a hard
# 128 MiB ceiling (dense n^2/8 alone would be 1.16 GiB).
gate sparse_speedup_vs_dense_4096 20.0
gate sparse_scale_rows 3
gate_max sparse_peak_bytes_1e5 134217728

# Gate 5: the §4.3 varying-time comparison (E30). Both utilization keys
# must be recorded (a missing key fails), the linear chain must be at
# least as utilized as the equal-cell grid, and the in-binary tolerance
# check against the lock-step analytic model must have passed (ok=true —
# the binary compares measured occupancy to the closed form within ±0.02).
gate varying_utilization_linear 0.5
gate varying_utilization_grid 0.5
gate varying_linear_over_grid 1.0
awk '
  /"varying_ok"/ {
    found = 1
    if ($0 !~ /true/) {
      printf "bench_smoke: FAIL varying-time analytic tolerance: %s\n", $0
      exit 1
    }
  }
  END {
    if (!found) {
      print "bench_smoke: FAIL varying_ok key missing from output"
      exit 1
    }
  }' "$OUT"

# Gate 6: both serve streams recorded, and every answer matched the oracle.
awk '
  /"id": "serve_stream\// {
    n++
    if ($0 !~ /"ok": true/) {
      printf "bench_smoke: FAIL serve protocol gate: %s\n", $0
      exit 1
    }
  }
  END {
    if (n < 2) {
      printf "bench_smoke: FAIL serve smoke recorded %d/2 streams\n", n
      exit 1
    }
  }' "$OUT"

# Gate 7: the chaos smoke recorded both runs — four concurrent sessions
# all oracle-correct with none failed, and kill-and-recover rebuilding the
# exact committed closure (recover_ms present). Missing keys fail.
awk '
  /"id": "serve_concurrent\// {
    nc++
    if ($0 !~ /"ok": true/) {
      printf "bench_smoke: FAIL concurrent serve gate: %s\n", $0
      exit 1
    }
  }
  /"id": "serve_recover\// {
    nr++
    if ($0 !~ /"ok": true/ || $0 !~ /"recover_ms"/) {
      printf "bench_smoke: FAIL recover gate: %s\n", $0
      exit 1
    }
  }
  END {
    if (nc < 1 || nr < 1) {
      printf "bench_smoke: FAIL chaos smoke recorded concurrent=%d recover=%d (need 1 each)\n", nc, nr
      exit 1
    }
  }' "$OUT"

echo "bench_smoke: gates passed"
