#!/bin/sh
# Fault-matrix soak: run zirrun across {fault spec} x {opt level} x
# {plain, supervised} and check each case exits with the documented
# code (0 ok, 2 user error, 3 stage failure, 4 stall timeout, 5 restart
# budget exhausted) within a wall-clock deadline.  The property under
# test is the robustness layer's core claim: no injected fault may hang
# or crash the process — every run terminates promptly with a
# structured outcome, and with a restart policy a *transient* fault
# must not terminate it at all.
#
# The serve matrix (docs/SERVING.md) soaks the zserve network path the
# same way: a zirrun --listen server must survive misbehaving clients —
# a hard disconnect mid-frame, a slow reader forcing backpressure, a
# burst over the session cap — and still serve the next clean session.
# Its cold-compile cell streams one native session while a neighbour's
# pipeline compiles cold: the streaming client's bytes must equal a solo
# run's and no frame may miss the server's latency budget.
#
# The fuse matrix (docs/FUSION.md) runs the same fault x restart grid
# with `--backend=fused`: the fused bytecode interpreter must compose
# with every robustness control exactly like the VM — same exit code in
# every cell — and the solo `|>>>|` programs (one region each) must
# print their VM twins' summaries, clean and checkpoint-healed.  The
# cgen matrix (docs/CODEGEN.md) repeats that grid with
# `--backend=native` (dlopen'd compiled regions), adds restart and
# checkpointing cells whose output must match their VM twins, and a
# warm-.so-cache byte-equality check.
#
# The migrate matrix (docs/ROBUSTNESS.md, "Checkpointing & migration")
# checks the zero-loss claims end to end through the CLI: a faulted run
# with --checkpoint must report the SAME consumed/emitted/first-bytes
# summary as the clean run (journal replay + state restore), a
# threaded pipeline (--deadline-ms) must heal transient faults, a
# checkpointed threaded restart of a stateful two-stage program must
# write the same --out bytes as the clean run, a faulted --listen
# session must heal to the same output bytes as a fault-free server,
# and a listening server with a session mid-stream must drain on
# SIGTERM.
#
# The crash matrix (docs/ROBUSTNESS.md, "Durable checkpoints & live
# migration") SIGKILLs a run mid-stream — no drain, no warning — then
# resumes from --ckpt-dir and byte-compares the output against a
# fault-free run, across {vm,fused,native} solo and --listen.  It also drives
# a live session migration between two servers under neighbor load and
# a rejected migration (dead peer) that must roll back losslessly.
#
# Usage: scripts/soak.sh [fault|recovery|serve|fuse|cgen|migrate|crash|all]
#        (default: all); BUILD_DIR=build-tsan scripts/soak.sh
cd "$(dirname "$0")/.." || exit 1
BUILD="${BUILD_DIR:-build}"
BIN="$BUILD/examples/zirrun"
MODE="${1:-all}"
DEADLINE_S=30   # per-case wall-clock budget (timeout -> case failed)

case "$MODE" in
  fault|recovery|serve|fuse|cgen|migrate|crash|all) ;;
  *) echo "soak: unknown mode '$MODE'" \
          "(want fault|recovery|serve|fuse|cgen|migrate|crash|all)" >&2
     exit 2 ;;
esac

if [ ! -x "$BIN" ]; then
    echo "soak: $BIN not built" >&2
    exit 1
fi

pass=0
fail=0

# check EXPECTED_EXIT DESCRIPTION CMD...
check() {
    want="$1"; desc="$2"; shift 2
    timeout "$DEADLINE_S" "$@" > /dev/null 2>&1
    got=$?
    if [ "$got" -eq 124 ]; then
        echo "FAIL $desc: hung (killed after ${DEADLINE_S}s)"
        fail=$((fail + 1))
    elif [ "$got" -ne "$want" ]; then
        echo "FAIL $desc: exit $got, expected $want"
        fail=$((fail + 1))
    else
        pass=$((pass + 1))
    fi
}

# check_same DESC CMD_A CMD_B: both must exit 0 and print identical
# "consumed ... emitted ...; first bytes: ..." summaries — the
# CLI-visible form of byte-identity (a zero-loss restart against its
# clean run, or one backend against its VM twin).
check_same() {
    desc="$1"; acmd="$2"; bcmd="$3"
    a=$(timeout "$DEADLINE_S" sh -c "$acmd" 2>/dev/null | grep '^consumed')
    b=$(timeout "$DEADLINE_S" sh -c "$bcmd" 2>/dev/null | grep '^consumed')
    if [ -z "$a" ] || [ -z "$b" ]; then
        echo "FAIL $desc: a run did not complete"
        fail=$((fail + 1))
    elif [ "$a" != "$b" ]; then
        echo "FAIL $desc: summaries differ"
        echo "  reference: $a"
        echo "  candidate: $b"
        fail=$((fail + 1))
    else
        pass=$((pass + 1))
    fi
}

# check_heal_identity DESC CLEAN_CMD FAULT_CMD: both must exit 0 and
# write byte-identical --out files (the whole stream, not just the
# summary), and the faulted run must have logged a restart.
check_heal_identity() {
    desc="$1"; acmd="$2"; bcmd="$3"
    d=$(mktemp -d /tmp/ziria-soak-heal-id.XXXXXX)
    if ! timeout "$DEADLINE_S" sh -c "$acmd --out $d/clean" \
             > /dev/null 2>&1 ||
       ! ZIRIA_LOG=warn timeout "$DEADLINE_S" \
             sh -c "$bcmd --out $d/healed" > "$d/log" 2>&1; then
        echo "FAIL $desc: a run did not complete"
        fail=$((fail + 1))
    elif ! grep -q 'restart: ' "$d/log"; then
        echo "FAIL $desc: the fault never fired (no restart logged)"
        fail=$((fail + 1))
    elif ! cmp "$d/clean" "$d/healed"; then
        echo "FAIL $desc: healed output differs from the clean run"
        fail=$((fail + 1))
    else
        pass=$((pass + 1))
    fi
    rm -rf "$d"
}

# solo_twin_cells TAG FLAGS: pipeline.zir and running_sum.zir run
# solo (their |>>>| lowered as >>>, one region) with backend FLAGS must
# print their VM twin's summary, clean and healing a fault from a
# checkpoint.
solo_twin_cells() {
    tag="$1"; flags="$2"
    heal="--restart 2 --backoff-ms 1 --checkpoint=64 --inject-fault throw@7"
    for name in pipeline running_sum; do
        for opt in none all; do
            s="$BIN examples/zir/$name.zir --opt $opt --bytes 4096"
            check_same "$tag/$name/$opt solo matches vm" \
                "$s --backend=vm" "$s $flags"
            check_same "$tag/$name/$opt solo heal matches vm" \
                "$s $heal --backend=vm" "$s $heal $flags"
        done
    done
}

# start_srv LOG FLAGS...: start a scrambler server (--listen in FLAGS)
# and wait for its bound port.  Sets srv_pid and srv_port (empty when
# the server never bound).
start_srv() {
    slog="$1"; shift
    "$BIN" examples/zir/scrambler.zir --workers 2 "$@" > "$slog" 2>&1 &
    srv_pid=$!
    srv_port=""
    t=0
    while [ "$t" -lt 100 ]; do
        srv_port=$(sed -n 's/^listening on port \([0-9][0-9]*\)$/\1/p' \
                   "$slog")
        [ -n "$srv_port" ] && break
        kill -0 "$srv_pid" 2>/dev/null || break
        t=$((t + 1))
        sleep 0.1
    done
}

fault_matrix() {
    # User-error paths (opt-independent).
    check 2 "missing file"  "$BIN" no_such_file.zir
    check 2 "bad fault spec" "$BIN" examples/zir/scrambler.zir \
            --inject-fault bogus@3
    check 2 "bad deadline"  "$BIN" examples/zir/pipeline.zir \
            --deadline-ms -5

    for prog in examples/zir/scrambler.zir examples/zir/pipeline.zir; do
        name=$(basename "$prog" .zir)
        for opt in none vect all; do
            tag="$name/$opt"
            common="$BIN $prog --opt $opt --bytes 4096"
            # Clean runs, plain and supervised.
            check 0 "$tag clean"            $common
            check 0 "$tag clean supervised" $common --deadline-ms 2000
            # Graceful faults: truncation and short reads end or thin
            # the stream but the run still completes.
            check 0 "$tag truncate"  $common --inject-fault truncate@4
            check 0 "$tag shortread" $common --inject-fault shortread@0:7
            # A short stall is just latency when unsupervised.
            check 0 "$tag slow" $common --inject-fault stall@2:200
            # A thrown fault is a stage failure both ways.
            check 3 "$tag throw"            $common --inject-fault throw@2
            check 3 "$tag throw supervised" $common --inject-fault throw@2 \
                    --deadline-ms 2000
            # A long stall under supervision trips the watchdog; the
            # case budget (not the 30 s stall) bounds the wall clock.
            check 4 "$tag stall supervised" $common \
                    --inject-fault stall@2:30000 --deadline-ms 250
        done
    done
}

# Recovery matrix: fault x restart-policy x {single-threaded scrambler,
# threaded pipeline}.  Transient faults heal (exit 0), absent/zero
# budgets fail fast (exit 3/4 — the pre-recovery behavior), and
# permanent faults exhaust the budget (exit 5).
recovery_matrix() {
    sc="$BIN examples/zir/scrambler.zir --bytes 4096"
    pl="$BIN examples/zir/pipeline.zir --bytes 4096"

    for opt in none all; do
        # --- single-threaded (scrambler has no |>>>|) -----------------
        tag="recovery/scrambler/$opt"
        c="$sc --opt $opt"
        check 0 "$tag transient throw heals" \
                $c --inject-fault throw@4 --restart 3 --backoff-ms 1
        check 3 "$tag throw without budget"  $c --inject-fault throw@4
        check 3 "$tag throw restart=0"       $c --inject-fault throw@4 \
                --restart 0
        check 5 "$tag permanent throw exhausts" \
                $c --inject-fault throw@4:0 --restart 2 --backoff-ms 1

        # --- threaded (pipeline splits at |>>>|) ----------------------
        tag="recovery/pipeline/$opt"
        c="$pl --opt $opt"
        check 0 "$tag transient throw heals" \
                $c --inject-fault throw@2 --restart 3 --backoff-ms 1
        check 3 "$tag throw without budget"  $c --inject-fault throw@2
        check 5 "$tag permanent throw exhausts" \
                $c --inject-fault throw@2:0 --restart 2 --backoff-ms 1
        # Watchdog-detected stalls restart too: the stall fires once,
        # the watchdog tears the attempt down, the retry runs past it.
        check 0 "$tag stall heals" $c --inject-fault stall@2:30000 \
                --deadline-ms 250 --restart 2 --backoff-ms 1
        check 4 "$tag stall without budget" $c \
                --inject-fault stall@2:30000 --deadline-ms 250
    done

    # Long-running serve loop: the crash costs one frame, not the loop.
    check 0 "recovery/serve transient throw" \
            $sc --opt none --serve=2000 --inject-fault throw@100 \
            --restart 3 --backoff-ms 1
    check 5 "recovery/serve permanent throw" \
            $sc --opt none --serve=2000 --inject-fault throw@100:0 \
            --restart 2 --backoff-ms 1

    # An --out file that cannot be written fails the run: a short write
    # mid-run (exit 3, or 5 once every restart meets another one), a
    # write a restart carried on past (3 at close), and a failed closing
    # flush of the few bytes stdio still buffers (3).
    if [ -c /dev/full ]; then
        full="$BIN examples/zir/scrambler.zir --opt none --out /dev/full"
        check 3 "recovery/out short write" $full --bytes 4096
        check 5 "recovery/out short write exhausts" \
                $full --bytes 65536 --restart 2 --backoff-ms 1
        check 3 "recovery/out short write healed" \
                $full --bytes 4096 --restart 2 --backoff-ms 1
        check 3 "recovery/out failed close" $full --bytes 64
    fi
}

# Serve matrix: a long-lived zirrun --listen server against well- and
# badly-behaved zclient sessions.  Every case runs against ONE server
# instance — surviving the bad clients without disturbing later
# sessions is the property under test.
serve_matrix() {
    ZCLIENT="$BUILD/tools/zclient"
    if [ ! -x "$ZCLIENT" ]; then
        echo "FAIL serve: $ZCLIENT not built"
        fail=$((fail + 1))
        return
    fi

    srv_log="${TMPDIR:-/tmp}/ziria_soak_serve.$$.log"
    "$BIN" examples/zir/scrambler.zir --listen=0 --workers 2 \
        --max-sessions 4 > "$srv_log" 2>&1 &
    srv_pid=$!

    # The server prints "listening on port N" once bound (port 0 lets
    # the kernel pick, so parallel soaks never collide).
    port=""
    tries=0
    while [ "$tries" -lt 100 ]; do
        port=$(sed -n 's/^listening on port \([0-9][0-9]*\)$/\1/p' \
               "$srv_log")
        [ -n "$port" ] && break
        if ! kill -0 "$srv_pid" 2>/dev/null; then
            break
        fi
        tries=$((tries + 1))
        sleep 0.1
    done
    if [ -z "$port" ]; then
        echo "FAIL serve: server never reported its port"
        cat "$srv_log"
        kill "$srv_pid" 2>/dev/null
        rm -f "$srv_log"
        fail=$((fail + 1))
        return
    fi

    zc="$ZCLIENT --port $port --quiet"

    # Clean streaming, small and multi-frame.
    check 0 "serve basic stream"  $zc --frames 4
    check 0 "serve longer stream" $zc --frames 32 --elems-per-frame 512

    # A client that hard-closes mid-frame is evicted; the server keeps
    # running and the next clean session is untouched.
    check 0 "serve client abort mid-frame" $zc --frames 8 --abort-midframe
    check 0 "serve survives the abort"     $zc --frames 4

    # A deliberately slow reader forces per-session backpressure (queue
    # fills -> reads pause -> TCP pushes back); the stream must still
    # complete, just slower.
    check 0 "serve slow-reader backpressure" \
            $zc --frames 8 --slow-read-ms 5

    # Admission control: fill all 4 slots with held-open sessions, then
    # the fifth connection must be refused with an Error frame (exit 3).
    hold_pids=""
    for _ in 1 2 3 4; do
        $zc --frames 1 --hold-ms 3000 > /dev/null 2>&1 &
        hold_pids="$hold_pids $!"
    done
    sleep 0.5
    check 3 "serve session-cap reject" $zc --frames 1
    for hp in $hold_pids; do
        wait "$hp"
    done
    # The cap is per-moment, not a cumulative quota: slots freed above
    # admit new sessions again.
    check 0 "serve admits after release" $zc --frames 4

    # Orderly shutdown: SIGTERM drains and exits 0.
    kill -TERM "$srv_pid" 2>/dev/null
    wait "$srv_pid"
    srv_exit=$?
    if [ "$srv_exit" -ne 0 ]; then
        echo "FAIL serve shutdown: server exit $srv_exit, expected 0"
        cat "$srv_log"
        fail=$((fail + 1))
    else
        pass=$((pass + 1))
    fi
    rm -f "$srv_log"

    serve_cold_compile_cell
}

# serve_cold_compile_cell: a native --listen server with an empty .so
# cache and a 100 ms frame budget.  A solo session first gives the
# reference bytes.  Then a rate-paced session streams for about two
# seconds, and once its pipeline is built the cache is emptied again,
# so a second client's session compiles cold (the C++ compiler runs)
# while the first streams.  The compile runs on the server's compile
# thread: the streaming session's output must equal the solo run's and
# the server's latency.budget.missed must stay 0.
serve_cold_compile_cell() {
    tag="serve/native cold compile beside a stream"
    work=$(mktemp -d /tmp/ziria-soak-cold.XXXXXX)
    cache="$work/cache"
    start_srv "$work/srv.log" --listen=0 --backend native \
        --cgen-cache-dir "$cache" --latency-budget-us 100000
    if [ -z "$srv_port" ]; then
        echo "FAIL $tag: server never reported its port"
        cat "$work/srv.log"
        kill "$srv_pid" 2>/dev/null
        rm -rf "$work"
        fail=$((fail + 1))
        return
    fi
    zc="$ZCLIENT --port $srv_port --quiet"
    stream="--seed 9 --frames 64 --elems-per-frame 256"
    why=""
    if ! timeout "$DEADLINE_S" $zc $stream --out "$work/solo.bin" \
             > /dev/null 2>&1; then
        why="the solo client failed"
    else
        rm -rf "$cache"
        timeout "$DEADLINE_S" $zc $stream --rate 8192 \
            --out "$work/first.bin" > /dev/null 2>&1 &
        first_pid=$!
        t=0
        while [ "$t" -lt 200 ] && ! ls "$cache"/*.so > /dev/null 2>&1; do
            t=$((t + 1))
            sleep 0.05
        done
        rm -rf "$cache"
        timeout "$DEADLINE_S" $zc --frames 4 > /dev/null 2>&1 ||
            why="the second client failed"
        wait "$first_pid" || why="the streaming client failed"
        [ -n "$why" ] || ls "$cache"/*.so > /dev/null 2>&1 ||
            why="the second session did not compile a native region"
    fi
    if [ -z "$why" ] && ! cmp -s "$work/solo.bin" "$work/first.bin"; then
        why="the streaming session's output differs from the solo run"
    fi
    if [ -z "$why" ]; then
        # Sessions merge their spans into the registry on close; poll a
        # Stat probe until all three have.
        t=0
        while [ "$t" -lt 50 ]; do
            timeout "$DEADLINE_S" $zc --stat > "$work/stat.json" 2>&1
            grep -q '"server.sessions.completed":3' "$work/stat.json" &&
                break
            t=$((t + 1))
            sleep 0.1
        done
        if ! grep -q '"server.latency.budget.met":[1-9]' \
                 "$work/stat.json"; then
            why="no frame was counted against the budget"
        elif ! grep -q '"server.latency.budget.missed":0[,}]' \
                   "$work/stat.json"; then
            why="a frame missed the latency budget: $(grep -o \
                '"server.latency.budget.missed":[0-9]*' "$work/stat.json")"
        fi
    fi
    kill -TERM "$srv_pid" 2>/dev/null
    wait "$srv_pid"
    if [ -n "$why" ]; then
        echo "FAIL $tag: $why"
        fail=$((fail + 1))
    else
        pass=$((pass + 1))
    fi
    rm -rf "$work"
}

# Fuse matrix: {backend=fused} x {fault} x {restart} x {opt}.  Every
# cell must exit with the same documented code as its VM twin above —
# the fused backend sits behind the ExecNode interface, so supervision,
# fault injection, restart, and the serve loop see no difference.
fuse_matrix() {
    for prog in examples/zir/scrambler.zir examples/zir/pipeline.zir; do
        name=$(basename "$prog" .zir)
        for opt in none all; do
            tag="fuse/$name/$opt"
            c="$BIN $prog --opt $opt --backend=fused --bytes 4096"
            check 0 "$tag clean"     $c
            check 0 "$tag truncate"  $c --inject-fault truncate@4
            check 0 "$tag shortread" $c --inject-fault shortread@0:7
            check 3 "$tag throw"     $c --inject-fault throw@2
            check 0 "$tag transient throw heals" \
                    $c --inject-fault throw@4 --restart 3 --backoff-ms 1
            check 5 "$tag permanent throw exhausts" \
                    $c --inject-fault throw@4:0 --restart 2 --backoff-ms 1
        done
    done

    solo_twin_cells fuse --backend=fused

    # Threaded supervision: pipeline.zir splits at |>>>|, so each fused
    # partition runs under the stall watchdog and restart supervisor.
    c="$BIN examples/zir/pipeline.zir --opt none --backend=fused \
       --bytes 4096"
    check 0 "fuse/pipeline supervised clean" $c --deadline-ms 2000
    check 4 "fuse/pipeline stall supervised" $c \
            --inject-fault stall@2:30000 --deadline-ms 250
    check 0 "fuse/pipeline stall heals" $c --inject-fault stall@2:30000 \
            --deadline-ms 250 --restart 2 --backoff-ms 1

    # Long-running serve loop on the fused backend: a transient crash
    # costs one frame, not the loop (reset() re-arm under restart).
    check 0 "fuse/serve transient throw" \
            $BIN examples/zir/scrambler.zir --opt none --backend=fused \
            --serve=2000 --inject-fault throw@100 --restart 3 \
            --backoff-ms 1
}

# Cgen matrix: {backend=native} x {fault} x {restart} x {serve}.  The
# native backend dlopens compiled regions behind the same ExecNode seam
# (docs/CODEGEN.md), so every robustness cell must exit exactly like
# its VM/fused twins; the stage-restart and checkpoint cells must print
# the same summary as their VM twins, and the warm-cache cell proves a
# second run (served from the .so cache) emits the same summary as the
# cold one.  Runs against a private cache dir so the
# matrix is deterministic and leaves nothing behind.
cgen_matrix() {
    cache=$(mktemp -d /tmp/ziria-soak-cgen.XXXXXX)

    for prog in examples/zir/scrambler.zir examples/zir/pipeline.zir; do
        name=$(basename "$prog" .zir)
        for opt in none all; do
            tag="cgen/$name/$opt"
            c="$BIN $prog --opt $opt --backend=native \
               --cgen-cache-dir $cache --bytes 4096"
            check 0 "$tag clean"     $c
            check 0 "$tag truncate"  $c --inject-fault truncate@4
            check 0 "$tag shortread" $c --inject-fault shortread@0:7
            check 3 "$tag throw"     $c --inject-fault throw@2
            check 0 "$tag transient throw heals" \
                    $c --inject-fault throw@4 --restart 3 --backoff-ms 1
            check 5 "$tag permanent throw exhausts" \
                    $c --inject-fault throw@4:0 --restart 2 --backoff-ms 1
        done
    done

    solo_twin_cells cgen "--backend=native --cgen-cache-dir $cache"

    # Threaded supervision over per-partition native regions.
    c="$BIN examples/zir/pipeline.zir --opt none --backend=native \
       --cgen-cache-dir $cache --bytes 4096"
    check 0 "cgen/pipeline supervised clean" $c --deadline-ms 2000
    check 4 "cgen/pipeline stall supervised" $c \
            --inject-fault stall@2:30000 --deadline-ms 250
    check 0 "cgen/pipeline stall heals" $c --inject-fault stall@2:30000 \
            --deadline-ms 250 --restart 2 --backoff-ms 1

    # Long-running serve loop on compiled regions: a transient crash
    # costs one frame, not the loop (reset() re-arm under restart).
    check 0 "cgen/serve transient throw" \
            $BIN examples/zir/scrambler.zir --opt none --backend=native \
            --cgen-cache-dir "$cache" --serve=2000 \
            --inject-fault throw@100 --restart 3 --backoff-ms 1

    # Restart and checkpointing (docs/ROBUSTNESS.md): a compiled region
    # snapshots like the fused interpreter, so each cell must print the
    # same summary as its VM twin.
    stg="$BIN examples/zir/pipeline.zir --cgen-cache-dir $cache \
         --bytes 4096 --restart 2 --backoff-ms 1"
    ckp="$BIN examples/zir/scrambler.zir --cgen-cache-dir $cache \
         --bytes 4096 --restart 3 --backoff-ms 1 --checkpoint=64"
    check_same "cgen/restart matches vm" \
        "$stg --backend=vm --inject-fault throw@2" \
        "$stg --backend=native --inject-fault throw@2"
    check_same "cgen/threaded restart matches vm" \
        "$stg --backend=vm --deadline-ms 2000" \
        "$stg --backend=native --deadline-ms 2000"
    check_same "cgen/checkpoint restart matches vm" \
        "$ckp --backend=vm --inject-fault throw@7" \
        "$ckp --backend=native --inject-fault throw@7"
    ckd=$(mktemp -d /tmp/ziria-soak-cgen-ckd.XXXXXX)
    check_same "cgen/ckpt-dir matches vm" \
        "$ckp --backend=vm --ckpt-dir $ckd/vm" \
        "$ckp --backend=native --ckpt-dir $ckd/native"
    rm -rf "$ckd"

    # Warm cache: the second clean run must be served from the .so
    # cache and print the identical output summary.
    sc="$BIN examples/zir/scrambler.zir --opt none --backend=native \
        --cgen-cache-dir $cache --bytes 4096"
    a=$(timeout "$DEADLINE_S" sh -c "$sc" 2>/dev/null | grep '^consumed')
    b=$(timeout "$DEADLINE_S" sh -c "$sc" 2>/dev/null | grep '^consumed')
    if [ -z "$a" ] || [ -z "$b" ] || [ "$a" != "$b" ]; then
        echo "FAIL cgen/warm cache: cold and warm summaries differ"
        echo "  cold: $a"
        echo "  warm: $b"
        fail=$((fail + 1))
    else
        pass=$((pass + 1))
    fi

    rm -rf "$cache"
}

# Migrate matrix: checkpointed restart byte-equality, solo and threaded,
# and SIGTERM drain with a session mid-stream.
migrate_matrix() {
    sc="$BIN examples/zir/scrambler.zir --bytes 4096"
    pl="$BIN examples/zir/pipeline.zir --bytes 4096"

    cache=$(mktemp -d /tmp/ziria-soak-migrate-cgen.XXXXXX)
    for backend in vm fused native; do
        for opt in none all; do
            tag="migrate/scrambler/$backend/$opt"
            c="$sc --opt $opt --backend=$backend --cgen-cache-dir $cache"
            # Checkpointing a clean run must not perturb its output.
            check_same "$tag ckpt clean identity" "$c" "$c --checkpoint=64"
            # The headline claim: a faulted, checkpoint-restarted run is
            # byte-identical to the uninterrupted run.
            check_same "$tag ckpt restart identity" "$c" \
                "$c --inject-fault throw@7 --restart 3 --backoff-ms 1 \
                 --checkpoint=64"
            # Two faults in one run still converge.
            check_same "$tag ckpt double-fault identity" "$c" \
                "$c --inject-fault throw@7:2 --restart 3 --backoff-ms 1 \
                 --checkpoint=32"
            # Budget exhaustion still reports exit 5 with checkpoints on.
            check 5 "$tag ckpt permanent exhausts" \
                    $c --inject-fault throw@7:0 --restart 2 \
                    --backoff-ms 1 --checkpoint=64
        done
    done

    # Restart on the threaded pipeline (splits at |>>>|): transient
    # faults heal without tearing down healthy stages, permanent ones
    # exhaust the budget as a solo run does.
    for backend in vm fused native; do
        for opt in none all; do
            tag="migrate/pipeline/threaded/$backend/$opt"
            c="$pl --opt $opt --backend=$backend --cgen-cache-dir $cache \
               --deadline-ms 2000"
            check 0 "$tag clean"            $c --restart 3 --backoff-ms 1
            check 0 "$tag transient heals"  $c --inject-fault throw@2 \
                    --restart 3 --backoff-ms 1
            check 5 "$tag permanent exhausts" $c --inject-fault throw@2:0 \
                    --restart 2 --backoff-ms 1
        done
    done

    # Checkpointed threaded restart of two stateful stages: every
    # failed stage restores its own cadence snapshot and replays, so
    # the healed --out bytes equal the clean run's (65536 bytes keep
    # tick 100 past the first snapshot at --opt all too).
    rs="$BIN examples/zir/running_sum.zir --bytes 65536"
    for backend in vm fused native; do
        for opt in none all; do
            tag="migrate/running_sum/threaded/$backend/$opt"
            c="$rs --opt $opt --backend=$backend --cgen-cache-dir $cache"
            h="$c --deadline-ms 2000 --restart 3 --backoff-ms 1 \
               --checkpoint=64"
            check_heal_identity "$tag ckpt restart identity" "$c" \
                "$h --inject-fault throw@100"
            check_heal_identity "$tag ckpt double-fault identity" "$c" \
                "$h --inject-fault throw@100:2"
        done
    done
    rm -rf "$cache"

    ZCLIENT="$BUILD/tools/zclient"
    if [ ! -x "$ZCLIENT" ]; then
        echo "FAIL migrate: $ZCLIENT not built"
        fail=$((fail + 1))
        return
    fi

    # Serve heal: session 0 of a --listen server throws once and heals
    # through its checkpoint carry (restore + journal replay), so the
    # client's output must equal a fault-free server's for the same
    # --seed.  ZIRIA_LOG=warn makes the healing server log the restart.
    tag="migrate/serve/heal"
    work=$(mktemp -d /tmp/ziria-soak-heal.XXXXXX)
    zc="$ZCLIENT --quiet --seed 7 --frames 16 --elems-per-frame 256"
    start_srv "$work/ref.log" --listen=0
    ref_pid=$srv_pid
    ref_port=$srv_port
    ZIRIA_LOG=warn
    export ZIRIA_LOG
    start_srv "$work/heal.log" --listen=0 --restart 2 --checkpoint=256 \
        --inject-fault throw@100 --fault-session 0
    unset ZIRIA_LOG
    if [ -z "$ref_port" ] || [ -z "$srv_port" ]; then
        echo "FAIL $tag: a server never reported its port"
        fail=$((fail + 1))
    elif ! timeout "$DEADLINE_S" $zc --port "$ref_port" \
             --out "$work/ref.bin" > /dev/null 2>&1 ||
         ! timeout "$DEADLINE_S" $zc --port "$srv_port" \
             --out "$work/heal.bin" > /dev/null 2>&1; then
        echo "FAIL $tag: a client run failed"
        cat "$work/heal.log"
        fail=$((fail + 1))
    elif ! grep -q 'restart: stage' "$work/heal.log"; then
        echo "FAIL $tag: the injected fault never fired"
        fail=$((fail + 1))
    elif ! cmp -s "$work/ref.bin" "$work/heal.bin"; then
        echo "FAIL $tag: healed session output diverged from fault-free run"
        fail=$((fail + 1))
    else
        pass=$((pass + 1))
    fi
    kill "$ref_pid" "$srv_pid" 2>/dev/null
    wait "$ref_pid" "$srv_pid" 2>/dev/null
    rm -rf "$work"

    # SIGTERM drain with a session mid-stream: the server must
    # checkpoint it, report the drain, and exit 0 within the timeout.
    srv_log="${TMPDIR:-/tmp}/ziria_soak_migrate.$$.log"
    start_srv "$srv_log" --listen=0
    port=$srv_port
    if [ -z "$port" ]; then
        echo "FAIL migrate drain: server never reported its port"
        cat "$srv_log"
        kill "$srv_pid" 2>/dev/null
        rm -f "$srv_log"
        fail=$((fail + 1))
        return
    fi
    # Park a session mid-stream (data sent, End held back), then TERM.
    "$ZCLIENT" --port "$port" --quiet --frames 2 --hold-ms 5000 \
        > /dev/null 2>&1 &
    cli_pid=$!
    sleep 0.5
    kill -TERM "$srv_pid" 2>/dev/null
    wait "$srv_pid"
    srv_exit=$?
    kill "$cli_pid" 2>/dev/null
    wait "$cli_pid" 2>/dev/null
    if [ "$srv_exit" -ne 0 ]; then
        echo "FAIL migrate drain: server exit $srv_exit, expected 0"
        cat "$srv_log"
        fail=$((fail + 1))
    elif ! grep -q '^draining:' "$srv_log"; then
        echo "FAIL migrate drain: no drain banner in the server log"
        cat "$srv_log"
        fail=$((fail + 1))
    else
        pass=$((pass + 1))
    fi
    rm -f "$srv_log"
}

# Crash matrix: kill -9 mid-stream, resume from the durable checkpoint
# store, byte-compare against the fault-free output.  Timing notes: a
# solo victim is killed as soon as its first durable generation lands,
# which is early in a 64 MiB scrambler run.  A 256-frame keyed session
# takes >0.5 s on this class of machine, so a kill at half that lands
# safely mid-stream; if a fast machine finishes first the resume leg
# degrades to a clean re-run and the byte comparison still holds.
# migrate_op LOG CLIENT_PID ZCLIENT_ARGS...: run the zclient migrate
# operator, its output (the Ack message is printed on stdout, errors on
# stderr) captured in LOG and its exit code left in mig_rc.  While the
# keyed client CLIENT_PID has not attached yet the source answers "no
# live session with key"; only that answer is retried, while the client
# runs and within DEADLINE_S.
migrate_op() {
    mlog="$1"; mpid="$2"; shift 2
    tries=0
    while :; do
        timeout "$DEADLINE_S" "$ZCLIENT" "$@" > "$mlog" 2>&1
        mig_rc=$?
        grep -q 'no live session with key' "$mlog" || break
        kill -0 "$mpid" 2>/dev/null || break
        [ "$tries" -lt $((DEADLINE_S * 50)) ] || break
        tries=$((tries + 1))
        sleep 0.02
    done
}

crash_matrix() {
    ZCLIENT="$BUILD/tools/zclient"
    if [ ! -x "$ZCLIENT" ]; then
        echo "FAIL crash: $ZCLIENT not built"
        fail=$((fail + 1))
        return
    fi
    work="${TMPDIR:-/tmp}/ziria_soak_crash.$$"
    mkdir -p "$work"

    # --- solo legs: {vm,fused,native} -----------------------------
    # The reference run also warms the private .so cache, so the
    # native victim starts as fast as the others.
    for backend in vm fused native; do
        tag="crash/solo/$backend"
        c="$BIN examples/zir/scrambler.zir --backend=$backend \
           --cgen-cache-dir $work/cgen --bytes 67108864"
        ref="$work/ref_$backend.bin"
        out="$work/out_$backend.bin"
        ck="$work/ck_$backend"
        if ! timeout "$DEADLINE_S" $c --out "$ref" > /dev/null 2>&1; then
            echo "FAIL $tag: reference run failed"
            fail=$((fail + 1))
            continue
        fi
        $c --ckpt-dir "$ck" --checkpoint=65536 --out "$out" \
            > /dev/null 2>&1 &
        victim=$!
        # Kill once the first durable generation has landed (a fixed
        # delay can beat a slow first fsync), within the case deadline.
        ticks=0
        while ! ls "$ck"/v1/*/ckpt-*.zck > /dev/null 2>&1 &&
              [ "$ticks" -lt $((DEADLINE_S * 100)) ] &&
              kill -0 "$victim" 2>/dev/null; do
            sleep 0.01
            ticks=$((ticks + 1))
        done
        kill -9 "$victim" 2>/dev/null
        wait "$victim" 2>/dev/null
        log="$work/resume_$backend.log"
        if ! timeout "$DEADLINE_S" $c --ckpt-dir "$ck" \
                --checkpoint=65536 --out "$out" > "$log" 2>&1; then
            echo "FAIL $tag: resume run failed"
            cat "$log"
            fail=$((fail + 1))
        elif ! grep -q '^resumed from durable checkpoint' "$log"; then
            echo "FAIL $tag: no resume banner (run never checkpointed?)"
            cat "$log"
            fail=$((fail + 1))
        elif ! cmp -s "$ref" "$out"; then
            echo "FAIL $tag: resumed output diverged from fault-free run"
            fail=$((fail + 1))
        else
            pass=$((pass + 1))
        fi
    done

    # Fault-free keyed-session reference: the session-mode client
    # generates its input deterministically from --seed, so one clean
    # run against any healthy server is the byte-identity baseline.
    ref="$work/ref_client.bin"
    srv_log="$work/ref_srv.log"
    start_srv "$srv_log" --listen=0
    if [ -z "$srv_port" ] || \
       ! timeout "$DEADLINE_S" "$ZCLIENT" --port "$srv_port" --quiet \
            --frames 256 --elems-per-frame 4096 --out "$ref" \
            > /dev/null 2>&1; then
        echo "FAIL crash: client reference run failed"
        cat "$srv_log"
        kill "$srv_pid" 2>/dev/null
        wait "$srv_pid" 2>/dev/null
        rm -rf "$work"
        fail=$((fail + 1))
        return
    fi
    kill -TERM "$srv_pid" 2>/dev/null
    wait "$srv_pid" 2>/dev/null

    # --- serve leg: SIGKILL the server, restart on the same port and
    # --- ckpt-dir, client auto-reconnects and resumes ---------------
    tag="crash/serve"
    port=$(( ($$ % 20000) + 40000 ))
    ck="$work/ck_serve"
    srv_log="$work/crash_srv.log"
    start_srv "$srv_log" --listen=$port --ckpt-dir "$ck" \
        --ckpt-interval-ms 10
    if [ -z "$srv_port" ]; then
        echo "FAIL $tag: server never reported its port"
        cat "$srv_log"
        kill "$srv_pid" 2>/dev/null
        fail=$((fail + 1))
    else
        out="$work/out_serve.bin"
        timeout "$DEADLINE_S" "$ZCLIENT" --port "$port" --quiet \
            --session crash1 --retry-ms 15000 --frames 256 \
            --elems-per-frame 4096 --out "$out" > /dev/null 2>&1 &
        cli_pid=$!
        sleep 0.25
        kill -9 "$srv_pid" 2>/dev/null
        wait "$srv_pid" 2>/dev/null
        srv_log2="$work/crash_srv2.log"
        start_srv "$srv_log2" --listen=$port --ckpt-dir "$ck" \
            --ckpt-interval-ms 10
        p2=$srv_port
        wait "$cli_pid"
        cli_exit=$?
        kill -TERM "$srv_pid" 2>/dev/null
        wait "$srv_pid" 2>/dev/null
        if [ -z "$p2" ]; then
            echo "FAIL $tag: restarted server never reported its port"
            cat "$srv_log2"
            fail=$((fail + 1))
        elif [ "$cli_exit" -ne 0 ]; then
            echo "FAIL $tag: client exit $cli_exit, expected 0"
            fail=$((fail + 1))
        elif ! cmp -s "$ref" "$out"; then
            echo "FAIL $tag: resumed session diverged from clean run"
            fail=$((fail + 1))
        else
            pass=$((pass + 1))
        fi
    fi

    # --- live migration under load ---------------------------------
    tag="crash/live-migrate"
    logA="$work/migA.log"; logB="$work/migB.log"
    start_srv "$logA" --listen=0
    pA=$srv_port; sA=$srv_pid
    start_srv "$logB" --listen=0
    pB=$srv_port; sB=$srv_pid
    if [ -z "$pA" ] || [ -z "$pB" ]; then
        echo "FAIL $tag: a server never reported its port"
        kill "$sA" "$sB" 2>/dev/null
        fail=$((fail + 1))
    else
        nbr="$work/nbr.bin"; out="$work/out_mig.bin"
        timeout "$DEADLINE_S" "$ZCLIENT" --port "$pA" --quiet \
            --frames 256 --elems-per-frame 4096 --out "$nbr" \
            > /dev/null 2>&1 &
        nbr_pid=$!
        timeout "$DEADLINE_S" "$ZCLIENT" --port "$pA" --quiet \
            --session mig1 --frames 256 --elems-per-frame 4096 \
            --out "$out" > /dev/null 2>&1 &
        cli_pid=$!
        migrate_op "$work/op_mig.log" "$cli_pid" --port "$pA" \
            --migrate mig1 --peer-host 127.0.0.1 --peer-port "$pB"
        wait "$cli_pid"; cli_exit=$?
        wait "$nbr_pid"; nbr_exit=$?
        kill -TERM "$sA" "$sB" 2>/dev/null
        wait "$sA" "$sB" 2>/dev/null
        if [ "$mig_rc" -ne 0 ]; then
            echo "FAIL $tag: migrate operator exit $mig_rc, expected 0"
            cat "$work/op_mig.log"
            fail=$((fail + 1))
        elif [ "$cli_exit" -ne 0 ] || ! cmp -s "$ref" "$out"; then
            echo "FAIL $tag: migrated session lost or corrupted data"
            fail=$((fail + 1))
        elif [ "$nbr_exit" -ne 0 ] || ! cmp -s "$ref" "$nbr"; then
            echo "FAIL $tag: neighbor session was disturbed"
            fail=$((fail + 1))
        else
            pass=$((pass + 1))
        fi
    fi

    # --- rejected migration rolls back losslessly -------------------
    tag="crash/migrate-rollback"
    logA="$work/rollA.log"
    start_srv "$logA" --listen=0
    pA=$srv_port; sA=$srv_pid
    if [ -z "$pA" ]; then
        echo "FAIL $tag: server never reported its port"
        kill "$sA" 2>/dev/null
        fail=$((fail + 1))
    else
        out="$work/out_roll.bin"
        timeout "$DEADLINE_S" "$ZCLIENT" --port "$pA" --quiet \
            --session roll1 --frames 256 --elems-per-frame 4096 \
            --out "$out" > /dev/null 2>&1 &
        cli_pid=$!
        migrate_op "$work/op_roll.log" "$cli_pid" --port "$pA" \
            --migrate roll1 --peer-host 127.0.0.1 --peer-port 1
        wait "$cli_pid"; cli_exit=$?
        kill -TERM "$sA" 2>/dev/null
        wait "$sA" 2>/dev/null
        # Exit 3 alone would also be "no live session": require the
        # dead peer's rejection.
        if [ "$mig_rc" -ne 3 ] ||
           ! grep -q 'migration rejected: peer connect failed' \
                "$work/op_roll.log"; then
            echo "FAIL $tag: migrate exit $mig_rc, expected 3 (dead peer" \
                 "rejected)"
            cat "$work/op_roll.log"
            fail=$((fail + 1))
        elif [ "$cli_exit" -ne 0 ] || ! cmp -s "$ref" "$out"; then
            echo "FAIL $tag: session lost data after rejected migration"
            fail=$((fail + 1))
        else
            pass=$((pass + 1))
        fi
    fi

    rm -rf "$work"
}

case "$MODE" in
  fault)    fault_matrix ;;
  recovery) recovery_matrix ;;
  serve)    serve_matrix ;;
  fuse)     fuse_matrix ;;
  cgen)     cgen_matrix ;;
  migrate)  migrate_matrix ;;
  crash)    crash_matrix ;;
  all)      fault_matrix; recovery_matrix; serve_matrix; fuse_matrix;
            cgen_matrix; migrate_matrix; crash_matrix ;;
esac

echo "soak($MODE): $pass passed, $fail failed"
[ "$fail" -eq 0 ]
