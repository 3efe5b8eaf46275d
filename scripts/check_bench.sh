#!/usr/bin/env bash
# Micro-benchmark regression gate: compares the ratios a fresh
# `cargo bench -p waco-bench` run (results/microbench.json) against the
# committed baseline (results/microbench_baseline.json).
#
# Raw nanoseconds are machine-dependent, so the gate tracks *ratios*
# between benches from the same run — plan-vs-interpreter speedup, serve
# warm-vs-cold amortization, the parallel work gate's serial parity, and
# the disabled-observability tax. A tracked ratio may drift by
# CHECK_BENCH_TOL (default 1.6x, CI noise included) from the baseline
# before the gate fails.
#
#   cargo bench -p waco-bench -- --smoke   # writes results/microbench.json
#   scripts/check_bench.sh [current.json] [baseline.json]
set -euo pipefail

cd "$(dirname "$0")/.."

CURRENT="${1:-results/microbench.json}"
BASELINE="${2:-results/microbench_baseline.json}"

if ! command -v python3 >/dev/null 2>&1; then
    echo "check_bench: python3 not available, skipping ratio gate" >&2
    exit 0
fi
test -s "$CURRENT" || { echo "check_bench: missing $CURRENT" >&2; exit 1; }
test -s "$BASELINE" || { echo "check_bench: missing $BASELINE" >&2; exit 1; }

python3 - "$CURRENT" "$BASELINE" <<'EOF'
import json
import os
import sys

def medians(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: float(b["median_ns"]) for b in doc["benchmarks"]}

cur = medians(sys.argv[1])
base = medians(sys.argv[2])
tol = float(os.environ.get("CHECK_BENCH_TOL", "1.6"))

# (label, numerator, denominator, higher_is_better)
TRACKED = [
    ("plan_vs_interp_spmv",
     "plan_lowering/spmv_10k_interp_8t", "plan_lowering/spmv_10k_plan_8t", True),
    ("plan_vs_interp_spmm",
     "plan_lowering/spmm_10k_interp_8t", "plan_lowering/spmm_10k_plan_8t", True),
    ("serve_warm_vs_cold",
     "serve_cache/cold_tune_spmv_64", "serve_cache/warm_request_spmv_64", True),
    # The executor's work gate: an 8-thread schedule over sub-cutoff work
    # must run at serial parity (ratio ~1.0, lower is better).
    ("work_gate_parity",
     "plan_lowering/spmv_10k_plan_8t", "plan_lowering/spmv_10k_plan_serial", False),
    # Observability when disabled: hook cost as a share of one SpMV.
    ("obs_disabled_tax",
     "obs_overhead/disabled_hooks", "obs_overhead/spmv_512_disabled", False),
    # The specialized kernel tier: each fast path vs the interpreter on
    # the same schedule. These ratios must not shrink past tolerance.
    ("fastpath_bcsr_vs_interp",
     "plan_lowering/fastpath_bcsr_interp", "plan_lowering/fastpath_bcsr", True),
    ("fastpath_regblock_vs_interp",
     "plan_lowering/spmm_regblock_interp", "plan_lowering/spmm_regblock", True),
    ("fastpath_discordant_vs_interp",
     "plan_lowering/spmv_discordant_interp", "plan_lowering/spmv_discordant", True),
    # The workspace subsystem: fusion vs the unfused two-kernel composition
    # and Gustavson SpGEMM vs the naive two-pass compaction.
    ("workspace_fusion_vs_unfused",
     "workspace/unfused_sddmm_then_spmm", "workspace/fused_sddmm_spmm", True),
    ("workspace_gustavson_vs_two_pass",
     "workspace/spgemm_two_pass", "workspace/spgemm_gustavson", True),
    # The two-stage search: cost-model evaluations the full unpruned search
    # performs per evaluation the staged (asymptotic-pruned) search performs.
    # These are raw counters, not timings, so the ratio is machine-stable.
    ("pruned_vs_full_evals",
     "search_pipeline/evals_full", "search_pipeline/evals_pruned", True),
]

failures = []
for label, num, den, higher_better in TRACKED:
    missing = [n for n in (num, den) if n not in cur or n not in base]
    if missing:
        failures.append(f"{label}: benches missing from a results file: {missing}")
        continue
    now = cur[num] / cur[den]
    ref = base[num] / base[den]
    if higher_better:
        ok = now >= ref / tol
        drift = ref / now if now > 0 else float("inf")
    else:
        ok = now <= ref * tol
        drift = now / ref if ref > 0 else float("inf")
    verdict = "ok" if ok else "REGRESSED"
    print(f"  {label:28s} baseline {ref:10.3f}  current {now:10.3f}  {verdict}")
    if not ok:
        failures.append(
            f"{label}: {now:.3f} vs baseline {ref:.3f} "
            f"(drift {drift:.2f}x > tolerance {tol}x)")

# Absolute floor for the discordant fast path: the tentpole claim is that
# the transpose-permutation stream closes the discordant-traversal gap, so
# the current run must beat the interpreter by at least 4x regardless of
# what the baseline recorded.
DISC_FAST = "plan_lowering/spmv_discordant"
DISC_INTERP = "plan_lowering/spmv_discordant_interp"
if DISC_FAST in cur and DISC_INTERP in cur:
    speedup = cur[DISC_INTERP] / cur[DISC_FAST]
    verdict = "ok" if speedup >= 4.0 else "BELOW FLOOR"
    print(f"  {'discordant_abs_floor':28s} required  {4.0:10.3f}  current {speedup:10.3f}  {verdict}")
    if speedup < 4.0:
        failures.append(
            f"discordant_abs_floor: fast path is only {speedup:.2f}x the "
            f"interpreter (the gate requires 4x)")
else:
    failures.append(
        f"discordant_abs_floor: benches missing from {sys.argv[1]}: "
        f"{[n for n in (DISC_FAST, DISC_INTERP) if n not in cur]}")

# Absolute floor for the fused workspace kernel: fusing the SDDMM and the
# SpMM deletes the intermediate's materialization and second sweep, so the
# current run must beat the unfused composition by at least 1.3x regardless
# of what the baseline recorded.
FUSED = "workspace/fused_sddmm_spmm"
UNFUSED = "workspace/unfused_sddmm_then_spmm"
if FUSED in cur and UNFUSED in cur:
    speedup = cur[UNFUSED] / cur[FUSED]
    verdict = "ok" if speedup >= 1.3 else "BELOW FLOOR"
    print(f"  {'fusion_abs_floor':28s} required  {1.3:10.3f}  current {speedup:10.3f}  {verdict}")
    if speedup < 1.3:
        failures.append(
            f"fusion_abs_floor: the fused SDDMM+SpMM kernel is only "
            f"{speedup:.2f}x the unfused composition (the gate requires 1.3x)")
else:
    failures.append(
        f"fusion_abs_floor: benches missing from {sys.argv[1]}: "
        f"{[n for n in (FUSED, UNFUSED) if n not in cur]}")

# Absolute floor for the two-stage search: Stage 1's asymptotic pruning
# plus Stage 2's masked evaluation budget must cut cost-model evaluations
# by at least 2x regardless of what the baseline recorded (the same bound
# the `search_pruning` verify suite enforces corpus-wide).
EVALS_FULL = "search_pipeline/evals_full"
EVALS_PRUNED = "search_pipeline/evals_pruned"
if EVALS_FULL in cur and EVALS_PRUNED in cur:
    ratio = cur[EVALS_FULL] / max(cur[EVALS_PRUNED], 1.0)
    verdict = "ok" if ratio >= 2.0 else "BELOW FLOOR"
    print(f"  {'pruned_evals_abs_floor':28s} required  {2.0:10.3f}  current {ratio:10.3f}  {verdict}")
    if ratio < 2.0:
        failures.append(
            f"pruned_evals_abs_floor: the staged search only cut cost-model "
            f"evaluations {ratio:.2f}x (the gate requires 2x)")
else:
    failures.append(
        f"pruned_evals_abs_floor: benches missing from {sys.argv[1]}: "
        f"{[n for n in (EVALS_FULL, EVALS_PRUNED) if n not in cur]}")

if failures:
    print("check_bench: FAILED", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print(f"check_bench: all tracked ratios within {tol}x of baseline")
EOF
