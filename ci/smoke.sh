#!/bin/sh
# Smoke test for the telemetry subsystem: generate a small synthetic
# trace, run cmd/hifind over it with the HTTP endpoints up, and check
# that /metrics exposes the ingestion counters and /healthz reports ok.
# Finishes by interrupting the process and requiring a clean exit, which
# exercises the graceful-shutdown path end to end.
#
# Run from the repository root: ./ci/smoke.sh
set -eu

workdir=$(mktemp -d)
pid=""
extra_pids=""
cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill "$pid" 2>/dev/null || true
    fi
    for p in $extra_pids; do
        kill "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

echo "smoke: building tracegen and hifind"
go build -o "$workdir/tracegen" ./cmd/tracegen
go build -o "$workdir/hifind" ./cmd/hifind

echo "smoke: generating a 5-interval trace"
"$workdir/tracegen" -preset nu -intervals 5 -out "$workdir/smoke.pcap" >/dev/null

# Port 0 lets the kernel pick a free port; hifind prints the bound
# address on stderr as "telemetry on http://ADDR/metrics".
"$workdir/hifind" -pcap "$workdir/smoke.pcap" -edge 129.105.0.0/16 \
    -http 127.0.0.1:0 -linger >"$workdir/stdout.log" 2>"$workdir/stderr.log" &
pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's|^telemetry on http://\([^/]*\)/metrics$|\1|p' "$workdir/stderr.log")
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "smoke: hifind exited before serving telemetry" >&2
        cat "$workdir/stderr.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "smoke: telemetry address never appeared on stderr" >&2
    exit 1
fi
echo "smoke: hifind serving on $addr"

# Wait for the replay to finish (-linger keeps serving afterwards) so
# the counters have their final values.
for _ in $(seq 1 100); do
    grep -q "intervals analyzed" "$workdir/stdout.log" && break
    sleep 0.1
done

metrics=$(fetch "http://$addr/metrics")
echo "$metrics" | grep -q '^hifind_packets_observed_total [1-9]' || {
    echo "smoke: /metrics missing a nonzero hifind_packets_observed_total" >&2
    echo "$metrics" | head -40 >&2
    exit 1
}
# A 5-interval trace yields 5 full intervals plus a trailing partial.
echo "$metrics" | grep -q '^hifind_intervals_total [1-9]' || {
    echo "smoke: /metrics recorded no completed intervals" >&2
    echo "$metrics" | grep '^hifind_' >&2
    exit 1
}

health=$(fetch "http://$addr/healthz")
echo "$health" | grep -q '"status": *"ok"' || {
    echo "smoke: /healthz not ok: $health" >&2
    exit 1
}

fetch "http://$addr/livez" | grep -q ok || {
    echo "smoke: /livez failed" >&2
    exit 1
}

echo "smoke: interrupting hifind, expecting a clean exit"
kill -INT "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [ "$rc" -ne 0 ]; then
    echo "smoke: hifind exited $rc after SIGINT, want 0" >&2
    cat "$workdir/stderr.log" >&2
    exit 1
fi

# ---------------------------------------------------------------------
# Flags that went with earlier simplifications must fail at flag parsing
# (exit status 2), so a stale runbook cannot run in silence: -workers
# went with the key-sharded pipeline, the burst slot count into
# -detectors, the live flow queue into a constant, -of into -routers,
# -inference with the invertible engine (reverse hashing is the only one)
# and -flowcache with the flow cache (every update reaches the sketches
# at observe time).
for gone in "-workers 2" "-burst-slots 8" "-flow-queue 8" "-of 3" "-inference reverse" "-flowcache 4096"; do
    name=${gone%% *}
    echo "smoke: $name must be rejected"
    rc=0
    # shellcheck disable=SC2086 # $gone is a flag and its value
    "$workdir/hifind" -pcap "$workdir/smoke.pcap" -edge 129.105.0.0/16 $gone \
        >"$workdir/stdout-gone.log" 2>"$workdir/stderr-gone.log" || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -q "flag provided but not defined: $name" "$workdir/stderr-gone.log"; then
        echo "smoke: hifind $gone exited $rc, want 2 with 'flag provided but not defined'" >&2
        cat "$workdir/stderr-gone.log" >&2
        exit 1
    fi
done

# -state checkpoints only in live mode: anywhere else it must fail
# naming both flags rather than run without checkpointing.
echo "smoke: -state without -listen must be rejected"
rc=0
"$workdir/hifind" -pcap "$workdir/smoke.pcap" -edge 129.105.0.0/16 -state "$workdir/state.bin" \
    >"$workdir/stdout-state.log" 2>"$workdir/stderr-state.log" || rc=$?
if [ "$rc" -eq 0 ] || ! grep -q -- '-state requires -listen' "$workdir/stderr-state.log"; then
    echo "smoke: hifind -pcap ... -state exited $rc, want non-zero with '-state requires -listen'" >&2
    cat "$workdir/stderr-state.log" >&2
    exit 1
fi

# The mitigation table went with the mitigation engine and the cache
# table with the flow cache: asking for either must fail naming the
# tables that remain.
go build -o "$workdir/benchtables" ./cmd/benchtables
tables='1, 4, 5, 6, 7, 9, f4, mr, val, ma, perf, ttd, ablation, scenarios, all'
for gone in mit cache; do
    echo "smoke: benchtables -table $gone must be rejected"
    rc=0
    "$workdir/benchtables" -table "$gone" >"$workdir/stdout-table.log" 2>"$workdir/stderr-table.log" || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -qF -- "-table must be one of $tables, got \"$gone\"" "$workdir/stderr-table.log"; then
        echo "smoke: benchtables -table $gone exited $rc, want 1 naming the valid tables" >&2
        cat "$workdir/stderr-table.log" >&2
        exit 1
    fi
done

echo "smoke: -detectors bogus must be rejected"
rc=0
"$workdir/hifind" -pcap "$workdir/smoke.pcap" -edge 129.105.0.0/16 -detectors bogus \
    >"$workdir/stdout-bogus.log" 2>"$workdir/stderr-bogus.log" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q 'valid: burst, persist, reflection' "$workdir/stderr-bogus.log"; then
    echo "smoke: hifind -detectors bogus exited $rc, want 1 naming the valid detectors" >&2
    cat "$workdir/stderr-bogus.log" >&2
    exit 1
fi

# ---------------------------------------------------------------------
# Auxiliary detectors: replay each evasion scenario's tracegen preset
# with its detector enabled and require the startup event to name the
# detector and the NDJSON stream to carry its alert type. The attacks
# stay under the interval threshold, so any such alert proves the path
# (tracegen preset -> -detectors -> alert rendering) is wired. The
# stealth preset needs 9 intervals for the 3-interval persistence streak.
for spec in burst:burst:burst-flood stealth:persist:persist-scan reflection:reflection:reflection; do
    preset=${spec%%:*}
    rest=${spec#*:}
    detector=${rest%%:*}
    alert=${rest#*:}
    echo "smoke: $preset scenario with -detectors $detector"
    "$workdir/tracegen" -preset "$preset" -intervals 9 -out "$workdir/$preset.pcap" >/dev/null
    rc=0
    "$workdir/hifind" -pcap "$workdir/$preset.pcap" -edge 129.105.0.0/16 \
        -detectors "$detector" -json \
        >"$workdir/stdout-$preset.log" 2>"$workdir/stderr-$preset.log" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "smoke: $preset replay exited $rc, want 0" >&2
        cat "$workdir/stderr-$preset.log" >&2
        exit 1
    fi
    grep '"kind":"startup"' "$workdir/stdout-$preset.log" | grep -qF "\"detectors\":[\"$detector\"]" || {
        echo "smoke: $preset startup event does not name detector $detector" >&2
        head -1 "$workdir/stdout-$preset.log" >&2
        exit 1
    }
    grep -qF "\"type\":\"$alert\"" "$workdir/stdout-$preset.log" || {
        echo "smoke: $preset replay produced no $alert alert" >&2
        head -20 "$workdir/stdout-$preset.log" >&2
        exit 1
    }
    echo "smoke: $alert alert observed"
done

# ---------------------------------------------------------------------
# Multi-router aggregation under a router crash: run a 3-router split of
# the same trace through -report processes into a -collect process, kill
# one router mid-run (SIGKILL — a crash, not a shutdown), restart it a
# moment later, and require that the collector (a) degraded some interval
# to a partial merge instead of stalling, (b) counted the reconnect, and
# (c) recovered to full 3/3 merges afterwards.
echo "smoke: multi-router aggregation with a mid-run router crash"
"$workdir/hifind" -collect 127.0.0.1:0 -routers 3 -epochs 6 -compact \
    -deadline 4s >"$workdir/collect.log" 2>&1 &
cpid=$!
extra_pids="$cpid"

agg_addr=""
for _ in $(seq 1 100); do
    agg_addr=$(sed -n 's|^collecting from [0-9]* routers on \([^,]*\),.*|\1|p' "$workdir/collect.log")
    [ -n "$agg_addr" ] && break
    if ! kill -0 "$cpid" 2>/dev/null; then
        echo "smoke: collector exited before listening" >&2
        cat "$workdir/collect.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$agg_addr" ]; then
    echo "smoke: collector address never appeared" >&2
    exit 1
fi
echo "smoke: collector on $agg_addr"

start_router() {
    "$workdir/hifind" -report "$agg_addr" -router "$1" -routers 3 \
        -pcap "$workdir/smoke.pcap" -edge 129.105.0.0/16 \
        -epochs 6 -start-epoch "$2" -pace 1s -compact \
        >"$workdir/router$1.log" 2>&1 &
    echo $!
}
r0=$(start_router 0 0); extra_pids="$extra_pids $r0"
r1=$(start_router 1 0); extra_pids="$extra_pids $r1"
r2=$(start_router 2 0); extra_pids="$extra_pids $r2"

# Let the run reach mid-flight, then crash router 2 and bring it back
# skipping the epochs it missed (its hello handshake prunes the rest).
sleep 2.5
kill -9 "$r2" 2>/dev/null || true
echo "smoke: killed router 2 mid-run"
sleep 1.5
r2b=$(start_router 2 4); extra_pids="$extra_pids $r2b"
echo "smoke: restarted router 2 at epoch 4"

rc=0
wait "$cpid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "smoke: collector exited $rc" >&2
    cat "$workdir/collect.log" >&2
    exit 1
fi
wait "$r0" "$r1" "$r2b" 2>/dev/null || true
extra_pids=""

grep -q "partial=true" "$workdir/collect.log" || {
    echo "smoke: no partial interval despite a crashed router" >&2
    cat "$workdir/collect.log" >&2
    exit 1
}
# Recovery: a full 3/3 merge after the last partial one.
awk '
    /partial=true/ { partial = NR }
    /3\/3 routers, partial=false/ { if (partial) recovered = NR }
    END { exit !(partial && recovered > partial) }
' "$workdir/collect.log" || {
    echo "smoke: no full merge after the partial interval (no recovery)" >&2
    cat "$workdir/collect.log" >&2
    exit 1
}
grep "collector done" "$workdir/collect.log" | grep -qE "reconnects=[1-9]" || {
    echo "smoke: collector counted no reconnect after the restart" >&2
    cat "$workdir/collect.log" >&2
    exit 1
}
echo "smoke: partial interval, reconnect, and recovery all observed"

echo "smoke: ok"
