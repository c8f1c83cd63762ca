#!/bin/sh
# Capture the full test suite, the observability overhead guard, and
# every benchmark harness into the canonical output files referenced by
# EXPERIMENTS.md.
#
# Usage:
#   scripts/run_all.sh                      normal run (uses ./build)
#   scripts/run_all.sh --sanitize=asan      full suite under ASan
#   scripts/run_all.sh --sanitize=ubsan     full suite under UBSan
#   scripts/run_all.sh --sanitize=tsan     'sanitizer'-labeled suites
#                                           (threading + differential)
#                                           under TSan
#
# Sanitizer runs configure and build a separate tree (build-<mode>) so
# they never disturb the primary build directory, and write their ctest
# log to test_output.<mode>.txt.
cd "$(dirname "$0")/.." || exit 1

sanitize=""
for arg in "$@"; do
    case "$arg" in
      --sanitize=*) sanitize="${arg#--sanitize=}" ;;
      *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

if [ -n "$sanitize" ]; then
    case "$sanitize" in
      asan|ubsan|tsan) ;;
      *) echo "--sanitize must be asan, ubsan, or tsan" >&2; exit 2 ;;
    esac
    bdir="build-$sanitize"
    cmake -B "$bdir" -S . -DZIRIA_SANITIZE="$sanitize" || exit 1
    cmake --build "$bdir" -j || exit 1
    # TSan only pays off on the suites that actually spin up threads;
    # ASan/UBSan sweep everything.
    if [ "$sanitize" = "tsan" ]; then
        label_args="-L sanitizer"
    else
        label_args=""
    fi
    # shellcheck disable=SC2086  # label_args is intentionally split
    ctest --test-dir "$bdir" --output-on-failure $label_args 2>&1 \
        | tee "test_output.$sanitize.txt"
    exit $?
fi

ctest --test-dir build 2>&1 | tee test_output.txt
# Fault-tolerance suites (ctest label `fault`) rerun with verbose output
# so failures in the robustness layer are easy to read, then the CLI
# fault matrix (docs/ROBUSTNESS.md) soaks zirrun's exit codes.
ctest --test-dir build -L fault --output-on-failure 2>&1 \
    | tee fault_output.txt
# Recovery suites (label `recovery`): reset() totality, restart
# supervision, and the CLI recovery matrix (docs/ROBUSTNESS.md,
# "Recovery").  soak.sh runs both matrices below.
ctest --test-dir build -L recovery -E soak_recovery \
    --output-on-failure 2>&1 | tee -a fault_output.txt
sh scripts/soak.sh all 2>&1 | tee -a fault_output.txt
# Serving suites (label `serve`): wire-protocol codec/fuzzing and the
# multi-session server e2e (docs/SERVING.md), then the CLI serve soak
# (zirrun --listen against well- and badly-behaved zclients).
ctest --test-dir build -L serve --output-on-failure 2>&1 \
    | tee serve_output.txt
sh scripts/soak.sh serve 2>&1 | tee -a serve_output.txt
# Checkpoint/migration suites (label `checkpoint`): snapshot round-trip
# totality, checkpointed-restart byte-identity, session migration and
# SIGTERM drain (docs/ROBUSTNESS.md, "Checkpointing & migration"),
# then the CLI migrate soak (ckpt byte-equality x backend x opt,
# threaded restart, drain under load).
ctest --test-dir build -L checkpoint --output-on-failure 2>&1 \
    | tee checkpoint_output.txt
sh scripts/soak.sh migrate 2>&1 | tee -a checkpoint_output.txt
# Crash matrix (docs/ROBUSTNESS.md, "Durable checkpoints & live
# migration"): SIGKILL -> resume from --ckpt-dir -> byte-compare,
# live migration under load, rejection rollback.
sh scripts/soak.sh crash 2>&1 | tee -a checkpoint_output.txt
# Latency observability suites (label `latency`): span accounting,
# percentile extraction, timeline schema, SLO budget counters and the
# Stat frame round-trip (docs/OBSERVABILITY.md).
ctest --test-dir build -L latency --output-on-failure 2>&1 \
    | tee latency_output.txt
# Fused-backend suites (label `fuse`): fusibility classification, the
# vm-vs-fused differential matrix, golden-vector conformance on the
# fused interpreter, reset() totality (docs/FUSION.md) — then the CLI
# fuse soak (--backend=fused x fault x restart).  The suites also carry
# the `sanitizer` label, so --sanitize=tsan covers the fused backend.
ctest --test-dir build -L fuse --output-on-failure 2>&1 \
    | tee fuse_output.txt
sh scripts/soak.sh fuse 2>&1 | tee -a fuse_output.txt
# Native-codegen suites (label `cgen`): vm-vs-fused-vs-native
# differential matrix, native golden-vector conformance, the .so cache
# (miss/hit/corruption quarantine), and the compile-time refusal cells
# (docs/CODEGEN.md) — then the CLI cgen soak (--backend=native x fault
# x restart x serve plus the warm-cache byte-equality check).
ctest --test-dir build -L cgen -E soak_cgen --output-on-failure 2>&1 \
    | tee cgen_output.txt
sh scripts/soak.sh cgen 2>&1 | tee -a cgen_output.txt
sh scripts/check_overhead.sh 2>&1 | tee overhead_output.txt
{
    for b in build/bench/*; do
        if [ -f "$b" ] && [ -x "$b" ]; then
            echo "===== $b ====="
            "$b"
        fi
    done
} 2>&1 | tee bench_output.txt
