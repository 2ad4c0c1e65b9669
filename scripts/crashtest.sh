#!/bin/sh
# crashtest.sh — kill -9 the twin service mid-load and prove nothing
# acknowledged was lost: boot lumosweb with a state dir and fsync=always,
# drive K journaled sessions, capture each session's published event log,
# SIGKILL the server in the middle of a second load wave, restart it over
# the same state dir, and assert
#
#   1. each session's event log starts with the exact pre-kill bytes
#      (the journal-replay determinism pin),
#   2. the restarted server then reports every session recovered (a
#      restart parks every session unread; the log requests of step 1 are
#      each session's first touch, which recovers it), and
#   3. the recovered sessions keep accepting work.
#
# Usage:
#   scripts/crashtest.sh [sessions] [submits] [workers]
#
#   sessions  concurrent twin sessions  (default: 20)
#   submits   submission batches each   (default: 2)
#   workers   concurrent client workers (default: 8)
#
# Environment:
#   RACE=-race   build server and client under the race detector (CI smoke)
set -eu

SESSIONS="${1:-20}"
SUBMITS="${2:-2}"
WORKERS="${3:-8}"
RACE="${RACE:-}"

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
STATE="$TMP/state"
SERVER=""
trap '[ -n "$SERVER" ] && kill -KILL "$SERVER" 2>/dev/null; rm -rf "$TMP"' EXIT

echo "crashtest: building lumosweb + twinload ${RACE:+(race)}" >&2
# shellcheck disable=SC2086
go build $RACE -o "$TMP/lumosweb" ./cmd/lumosweb
# shellcheck disable=SC2086
go build $RACE -o "$TMP/twinload" ./cmd/twinload

# boot <logfile> starts the server on the shared state dir and waits for
# its address; sets SERVER and ADDR.
boot() {
    "$TMP/lumosweb" -addr 127.0.0.1:0 -days 1 -simdays 1 \
        -state-dir "$STATE" -fsync always >"$1" 2>&1 &
    SERVER=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's/^lumosweb: serving on //p' "$1")"
        [ -n "$ADDR" ] && break
        kill -0 "$SERVER" 2>/dev/null || { echo "crashtest: server died at startup:" >&2; cat "$1" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$ADDR" ] || { echo "crashtest: server never reported its address" >&2; exit 1; }
    echo "crashtest: server up at $ADDR (pid $SERVER)" >&2
}

# Phase 1: populate K durable sessions, then snapshot every event log.
boot "$TMP/server1.log"
"$TMP/twinload" -url "http://$ADDR" -sessions "$SESSIONS" -submits "$SUBMITS" -workers "$WORKERS"
mkdir -p "$TMP/pre"
i=1
while [ "$i" -le "$SESSIONS" ]; do
    ID="$(printf 's%06d' "$i")"
    curl -sf "http://$ADDR/session/$ID/log" >"$TMP/pre/$ID" \
        || { echo "crashtest: could not capture $ID's log" >&2; exit 1; }
    i=$((i + 1))
done

# Phase 2: resume load on those sessions and SIGKILL the server mid-wave:
# twinload fires the kill once half of the wave's requests are answered.
# The load driver tolerates failures after the kill fires (that's the
# point); what it must NOT see is an error before it. A kill that cut no
# session hit an idle server and tested nothing, so it fails the run.
echo "crashtest: resuming load, killing server pid $SERVER mid-wave" >&2
"$TMP/twinload" -url "http://$ADDR" -sessions "$SESSIONS" -submits "$SUBMITS" -workers "$WORKERS" \
    -resume -kill-pid "$SERVER" >"$TMP/wave.log" || WAVE=$?
cat "$TMP/wave.log"
[ "${WAVE:-0}" -eq 0 ] || { echo "crashtest: FAIL: the resumed wave failed before the kill" >&2; exit 1; }
wait "$SERVER" 2>/dev/null || true
SERVER=""
if ! grep -q 'sessions cut off by the kill' "$TMP/wave.log"; then
    echo "crashtest: FAIL: the kill cut no session of the resumed wave" >&2
    exit 1
fi
echo "crashtest: server killed; restarting over $STATE" >&2

# Phase 3: restart and verify recovery.
boot "$TMP/server2.log"
STATUS=0

# The recovery pin: each session's post-restart log must reproduce its
# pre-kill log byte-for-byte as a prefix (the resumed wave may have
# appended more events before the kill — never changed or lost any).
i=1
while [ "$i" -le "$SESSIONS" ]; do
    ID="$(printf 's%06d' "$i")"
    if ! curl -sf "http://$ADDR/session/$ID/log" >"$TMP/post"; then
        echo "crashtest: FAIL: $ID unreachable after restart" >&2
        STATUS=1
    elif ! head -c "$(wc -c <"$TMP/pre/$ID")" "$TMP/post" | cmp -s - "$TMP/pre/$ID"; then
        echo "crashtest: FAIL: $ID event prefix diverged across the crash" >&2
        STATUS=1
    fi
    i=$((i + 1))
done
[ "$STATUS" -eq 0 ] && echo "crashtest: all $SESSIONS event prefixes reproduced byte-for-byte" >&2

# Every session's first touch was its /log request above, so every one
# must now count as recovered.
RECOVERED="$(curl -sf "http://$ADDR/twin/metrics" | grep -o '"twin_recovered":[0-9]*' | cut -d: -f2)"
if [ "${RECOVERED:-0}" -lt "$SESSIONS" ]; then
    echo "crashtest: FAIL: recovered ${RECOVERED:-0}/$SESSIONS sessions" >&2
    STATUS=1
else
    echo "crashtest: recovered $RECOVERED sessions" >&2
fi

# Recovered sessions still serve: one more full wave against them.
"$TMP/twinload" -url "http://$ADDR" -sessions "$SESSIONS" -submits 1 -workers "$WORKERS" -resume || STATUS=1

echo "crashtest: sending SIGTERM, expecting a graceful drain" >&2
kill -TERM "$SERVER"
for _ in $(seq 1 300); do
    kill -0 "$SERVER" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVER" 2>/dev/null; then
    echo "crashtest: server did not exit within 30s of SIGTERM" >&2
    kill -KILL "$SERVER" 2>/dev/null || true
    STATUS=1
fi
wait "$SERVER" 2>/dev/null || true
SERVER=""
if ! grep -q 'shut down cleanly' "$TMP/server2.log"; then
    echo "crashtest: restarted server missing clean-shutdown line:" >&2
    tail -20 "$TMP/server2.log" >&2
    STATUS=1
fi

if [ "$STATUS" -eq 0 ]; then
    echo "crashtest: PASS ($SESSIONS sessions survived kill -9 with identical event prefixes)" >&2
else
    echo "crashtest: FAIL (status $STATUS)" >&2
fi
exit "$STATUS"
