#!/bin/sh
# loadtest.sh — boot lumosweb, drive K twin sessions x M submission batches
# through it with cmd/twinload, and assert the server survives the load and
# drains cleanly on SIGTERM.
#
# Usage:
#   scripts/loadtest.sh [sessions] [submits] [workers]
#
#   sessions  concurrent twin sessions  (default: 1000)
#   submits   submission batches each   (default: 3)
#   workers   concurrent client workers (default: 64)
#
# Environment:
#   RACE=-race       build server and client under the race detector (CI smoke)
#   TWINLOAD_FLAGS   extra flags passed to twinload verbatim, e.g.
#                    "-jobs 150 -advance 100000" for deep-log what-ifs
#   SERVER_FLAGS     extra flags passed to lumosweb verbatim, e.g.
#                    "-state-dir /tmp/twins -fsync always" for durability A/Bs
#
# The script reports sessions/sec and what-if latency percentiles (from
# twinload) plus the server's peak RSS, and exits nonzero if any session
# fails, the server crashes, or shutdown does not end with the server's
# "shut down cleanly" line.
set -eu

SESSIONS="${1:-1000}"
SUBMITS="${2:-3}"
WORKERS="${3:-64}"
RACE="${RACE:-}"

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "loadtest: building lumosweb + twinload ${RACE:+(race)}" >&2
# shellcheck disable=SC2086
go build $RACE -o "$TMP/lumosweb" ./cmd/lumosweb
# shellcheck disable=SC2086
go build $RACE -o "$TMP/twinload" ./cmd/twinload

# Tiny figure workload: this test is about the twin service, not renders.
# shellcheck disable=SC2086
"$TMP/lumosweb" -addr 127.0.0.1:0 -days 1 -simdays 1 ${SERVER_FLAGS:-} >"$TMP/server.log" 2>&1 &
SERVER=$!

# The server prints "lumosweb: serving on 127.0.0.1:PORT" once the listener
# is up; poll for it rather than racing a fixed sleep.
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^lumosweb: serving on //p' "$TMP/server.log")"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER" 2>/dev/null || { echo "loadtest: server died at startup:" >&2; cat "$TMP/server.log" >&2; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "loadtest: server never reported its address" >&2; exit 1; }
echo "loadtest: server up at $ADDR (pid $SERVER)" >&2

STATUS=0
# shellcheck disable=SC2086
"$TMP/twinload" -url "http://$ADDR" -sessions "$SESSIONS" -submits "$SUBMITS" -workers "$WORKERS" ${TWINLOAD_FLAGS:-} || STATUS=$?

# Peak RSS: the acceptance bar is "bounded", so surface the number.
if [ -r "/proc/$SERVER/status" ]; then
    awk '/VmHWM|VmRSS/ {print "loadtest: server " $1 " " $2 " " $3}' "/proc/$SERVER/status" >&2
fi

echo "loadtest: sending SIGTERM, expecting a graceful drain" >&2
kill -TERM "$SERVER"
DRAINED=1
for _ in $(seq 1 300); do
    if ! kill -0 "$SERVER" 2>/dev/null; then DRAINED=0; break; fi
    sleep 0.1
done
if [ "$DRAINED" -ne 0 ]; then
    echo "loadtest: server did not exit within 30s of SIGTERM" >&2
    kill -KILL "$SERVER" 2>/dev/null || true
    STATUS=1
fi
wait "$SERVER" 2>/dev/null || true

if ! grep -q 'shut down cleanly' "$TMP/server.log"; then
    echo "loadtest: server log missing clean-shutdown line:" >&2
    tail -20 "$TMP/server.log" >&2
    STATUS=1
fi

if [ "$STATUS" -eq 0 ]; then
    echo "loadtest: PASS ($SESSIONS sessions x $SUBMITS submits, clean SIGTERM drain)" >&2
else
    echo "loadtest: FAIL (status $STATUS)" >&2
fi
exit "$STATUS"
