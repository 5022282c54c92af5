#!/usr/bin/env bash
# Serving-path smoke: a real multi-process cluster behind skalla-coord,
# hit by concurrent clients over the line protocol.
#
#   scripts/serve_smoke.sh [BUILD_DIR]   (default: ./build)
#
# Spawns 4 skalla-site processes, one skalla-coord over their endpoints,
# then 8 concurrent clients (scripts/coord_client.py) submitting 4
# distinct queries twice each. Checks every reply is OK, that both
# submissions of each query return byte-identical tables, that a repeat
# query is served from the sub-aggregate cache (zero bytes transferred),
# that an over-long line or query gets ERR without disturbing other
# clients, and validates the coordinator's merged cross-process trace
# with scripts/check_trace.py.
set -euo pipefail

BUILD_DIR="${1:-build}"
SITES=4
WORK="$(mktemp -d)"
PIDS=()
HERE="$(dirname "$0")"

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_port() {  # wait_port LOGFILE NAME -> port
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^LISTENING port=\([0-9]*\).*/\1/p' "$1")"
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "$2 never announced its port:" >&2
    cat "$1" >&2
    exit 1
  fi
  echo "$port"
}

"$BUILD_DIR/tools/skalla-dataset" --out "$WORK/wh" --sites "$SITES" \
    --flows 2000 --tpcr-rows 2000

ENDPOINTS=""
for i in $(seq 0 $((SITES - 1))); do
  "$BUILD_DIR/tools/skalla-site" --data "$WORK/wh" --site "$i" --port 0 \
      >"$WORK/site$i.log" 2>&1 &
  PIDS+=($!)
done
for i in $(seq 0 $((SITES - 1))); do
  port="$(wait_port "$WORK/site$i.log" "site $i")"
  ENDPOINTS="${ENDPOINTS:+$ENDPOINTS,}127.0.0.1:$port"
done

"$BUILD_DIR/tools/skalla-coord" --endpoints "$ENDPOINTS" --port 0 \
    --max-concurrent 8 --shutdown-sites \
    --trace-out="$WORK/trace.json" --metrics-out="$WORK/metrics.json" \
    >"$WORK/coord.log" 2>&1 &
COORD_PID=$!
PIDS+=($COORD_PID)
COORD="127.0.0.1:$(wait_port "$WORK/coord.log" "coord")"

QUERIES=(
  'BASE SELECT DISTINCT SourceAS FROM flow;
   MD USING flow COMPUTE COUNT(*) AS flows, SUM(NumBytes) AS bytes
      WHERE r.SourceAS = b.SourceAS;'
  'BASE SELECT DISTINCT DestAS FROM flow;
   MD USING flow COMPUTE COUNT(*) AS flows WHERE r.DestAS = b.DestAS;'
  'BASE SELECT DISTINCT SourceAS, DestAS FROM flow;
   MD USING flow COMPUTE COUNT(*) AS c, SUM(NumBytes) AS s
      WHERE r.SourceAS = b.SourceAS AND r.DestAS = b.DestAS;
   MD USING flow COMPUTE COUNT(*) AS big
      WHERE r.SourceAS = b.SourceAS AND r.DestAS = b.DestAS
        AND r.NumBytes >= b.s / b.c;'
  'BASE SELECT DISTINCT SourceAS FROM flow;
   MD USING flow COMPUTE MAX(NumBytes) AS peak WHERE r.SourceAS = b.SourceAS;'
)

# 8 concurrent clients: each of the 4 queries submitted twice, all
# in flight at once against the same session.
CLIENT_PIDS=()
for c in $(seq 0 7); do
  q=$((c % ${#QUERIES[@]}))
  python3 "$HERE/coord_client.py" "$COORD" "${QUERIES[$q]}" \
      >"$WORK/client$c.out" 2>"$WORK/client$c.err" &
  CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do wait "$pid"; done

# Every reply is OK, and the two submissions of each query returned
# byte-identical tables (the reply is "OK <id> <rows>", the table, then
# the stats block, which may legitimately differ between a cache miss
# and a hit).
table_of() { sed -e 1d -e '/^round \+sync/,$d' -e '/^total:/,$d' "$1"; }
for c in $(seq 0 7); do
  head -1 "$WORK/client$c.out" | grep -q '^OK ' || {
    echo "client $c did not get an OK reply:" >&2
    cat "$WORK/client$c.out" "$WORK/client$c.err" >&2
    exit 1
  }
done
for c in $(seq 0 3); do
  if ! diff <(table_of "$WORK/client$c.out") \
            <(table_of "$WORK/client$((c + 4)).out") >/dev/null; then
    echo "clients $c and $((c + 4)) ran the same query but disagreed:" >&2
    diff <(table_of "$WORK/client$c.out") \
         <(table_of "$WORK/client$((c + 4)).out") >&2 || true
    exit 1
  fi
done

# A sequential repeat is a sub-aggregate cache hit: zero rounds, zero
# bytes, and the table still matches the original answer.
python3 "$HERE/coord_client.py" "$COORD" "${QUERIES[0]}" >"$WORK/repeat.out"
grep -q '^total: 0 bytes, 0 tuples' "$WORK/repeat.out"
diff <(table_of "$WORK/repeat.out") <(table_of "$WORK/client0.out")

# Hostile input: a line one byte over the coordinator's 1 MiB line cap,
# and a query whose pending text passes the 4 MiB query cap in lines
# that each fit. Each gets ERR + END and only that connection closes.
# The payloads are sized so the coordinator has read every byte sent
# when it replies, so the close is clean and the reply is readable.
python3 - "$COORD" <<'PY'
import socket
import sys

host, _, port = sys.argv[1].rpartition(":")
MIB = 1 << 20
for name, payload in (
    ("over-long line", b"x" * (MIB + 1)),
    ("over-long query", (b"x" * MIB + b"\n") * 4),
):
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(payload)
        reply = b""
        while not reply.endswith(b"END\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
        rest = sock.recv(1)  # the coordinator closed the connection
    if not reply.startswith(b"ERR ") or not reply.endswith(b"\nEND\n"):
        sys.exit(f"{name}: expected ERR + END, got {reply[:200]!r}")
    if rest:
        sys.exit(f"{name}: connection stayed open")
PY

# The coordinator still serves other clients, with the same answer.
python3 "$HERE/coord_client.py" "$COORD" "${QUERIES[1]}" >"$WORK/after.out"
diff <(table_of "$WORK/after.out") <(table_of "$WORK/client1.out")

python3 "$HERE/coord_client.py" "$COORD" .shutdown
wait "$COORD_PID"

# Coordinator lane + one lane per site process in the merged trace.
python3 "$HERE/check_trace.py" "$WORK/trace.json" --min-pids $((SITES + 1))
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$WORK/metrics.json"
echo "serve_smoke: OK"
