#!/usr/bin/env bash
# End-to-end check of the `store` subcommands against one generated dataset:
#
#   1. `store build` spills a generated binlog into an ASL3 directory;
#   2. `store info` must render the partition manifest table (per-partition
#      rows/time range/compression) plus the totals and summary-size lines;
#   3. `store analyze` streams windowed preference curves off the store,
#      with a summarized column; a --window-days that would overflow the
#      window width is a named flag error, and the largest accepted one
#      gives a single window;
#   4. `store analyze --trace-out`: the per-window spans (store.window, with
#      their partition, row and summary_fallback attributes and their
#      store.select / store.merge children) must cover at least 90% of the
#      top-level store_analyze span, and some window must merge summaries;
#      a --class run reads rows, and each of its store.select spans holds
#      one store.decode_column span per column of every partition it read,
#      with column and bytes attributes;
#   5. `store analyze --confidence` prints the same windows, records and
#      NLP as the summarized run, each window span says summary_fallback=
#      confidence, and `analyze --confidence` reports its usable replicates;
#   6. `store export` -> `store build` must reproduce every partition file
#      byte-for-byte (the round-trip golden property).
#
# Usage: cli_store_e2e.sh <autosens_cli> [python3]
set -euo pipefail

CLI="$1"
PYTHON="${2:-python3}"
WORK="$(mktemp -d)"
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

"$CLI" generate --out "$WORK/data.bin" --scale tiny --seed 42 --days 3 >/dev/null

# Small partitions/blocks so the tiny dataset still yields several shards.
"$CLI" store build --in "$WORK/data.bin" --out "$WORK/store" \
    --partition-rows 4096 --block-rows 512 > "$WORK/build.out"
grep -Eq '^wrote [0-9]+ rows in [0-9]+ partitions to ' "$WORK/build.out" || {
  echo "FAIL: store build did not report rows/partitions" >&2
  cat "$WORK/build.out" >&2
  exit 1
}
rows="$(sed -n 's/^wrote \([0-9]*\) rows in .*/\1/p' "$WORK/build.out")"
[[ -f "$WORK/store/MANIFEST" ]] || { echo "FAIL: no MANIFEST written" >&2; exit 1; }

# The partition manifest table: every header column, at least one partition
# row (day-000000 shard 0), and a summary whose row count matches the build.
"$CLI" store info --in "$WORK/store" > "$WORK/info.out"
for column in partition day rows "time range (ms)" "raw MiB" "stored MiB" ratio; do
  grep -q "$column" "$WORK/info.out" || {
    echo "FAIL: store info table lacks column '$column'" >&2
    cat "$WORK/info.out" >&2
    exit 1
  }
done
grep -q 'day-000000\.0' "$WORK/info.out" || {
  echo "FAIL: store info lists no day-000000.0 partition" >&2
  cat "$WORK/info.out" >&2
  exit 1
}
grep -Eq "^[0-9]+ partitions, $rows rows, " "$WORK/info.out" || {
  echo "FAIL: store info summary disagrees with build ($rows rows)" >&2
  cat "$WORK/info.out" >&2
  exit 1
}
grep -Eq '^summaries: [0-9.]+ MiB \([0-9.]+% of stored\)$' "$WORK/info.out" || {
  echo "FAIL: store info does not report the partition summaries' size" >&2
  cat "$WORK/info.out" >&2
  exit 1
}

# Windowed analysis straight off the store.
"$CLI" store analyze --in "$WORK/store" --window-days 2 > "$WORK/analyze.out"
grep -q 'NLP@500' "$WORK/analyze.out"
grep -q 'summarized' "$WORK/analyze.out" || {
  echo "FAIL: store analyze table lacks the summarized column" >&2
  cat "$WORK/analyze.out" >&2
  exit 1
}
grep -Eq '^[0-9]+ windows, ' "$WORK/analyze.out" || {
  echo "FAIL: store analyze produced no summary" >&2
  cat "$WORK/analyze.out" >&2
  exit 1
}

# --window-days is range-checked so window_days * 1 day cannot wrap: past
# INT64_MAX / 86400000 days it is an error, and at that bound the clamped
# window holds the whole store.
if "$CLI" store analyze --in "$WORK/store" --window-days 213503982335 \
    > "$WORK/overflow.out" 2> "$WORK/overflow.err"; then
  echo "FAIL: store analyze accepted --window-days 213503982335" >&2
  cat "$WORK/overflow.out" >&2
  exit 1
fi
grep -q 'flag --window-days must be in \[1, 106751991167\]' "$WORK/overflow.err" || {
  echo "FAIL: overflowing --window-days did not name the flag and its range" >&2
  cat "$WORK/overflow.err" >&2
  exit 1
}
"$CLI" store analyze --in "$WORK/store" --window-days 106751991167 > "$WORK/huge.out"
grep -Eq '^1 windows, ' "$WORK/huge.out" || {
  echo "FAIL: the largest --window-days did not give one window" >&2
  cat "$WORK/huge.out" >&2
  exit 1
}

# Every window runs under a store.window span (store.select, store.merge,
# the estimator spans and the table row the CLI adds inside), so the
# top-level span has no unexplained time.
"$CLI" store analyze --in "$WORK/store" --action SelectMail --window-days 1 \
    --trace-out "$WORK/trace.json" > /dev/null
"$PYTHON" - "$WORK/trace.json" <<'PY'
import json
import sys

events = [e for e in json.load(open(sys.argv[1]))["traceEvents"] if e.get("ph") == "X"]
roots = [e for e in events if e["name"] == "store_analyze"]
if len(roots) != 1:
    sys.exit(f"FAIL: expected one store_analyze span, got {len(roots)}")
root = roots[0]
children = [e for e in events if e["args"].get("parent") == root["args"]["id"]]
windows = [e for e in children if e["name"] == "store.window"]
if not windows:
    sys.exit("FAIL: store_analyze has no store.window spans")
for window in windows:
    for key in ("partitions_scanned", "partitions_pruned", "partitions_summarized",
                "bytes_read", "rows_decoded", "rows_selected", "summary_fallback"):
        if key not in window["args"]:
            sys.exit(f"FAIL: store.window span lacks the {key} attribute")
    if window["args"]["summary_fallback"] != "none":
        sys.exit(f"FAIL: SelectMail windows fell back: {window['args']['summary_fallback']}")
window_ids = {w["args"]["id"] for w in windows}
def under_windows(name):
    return [e for e in events if e["name"] == name and e["args"].get("parent") in window_ids]
selects = under_windows("store.select")
if len(selects) != len(windows):
    sys.exit(f"FAIL: {len(selects)} store.select spans under {len(windows)} windows")
busy = [w for w in windows if int(w["args"]["rows_selected"]) > 0]
merges = under_windows("store.merge")
if len(merges) != len(busy):
    sys.exit(f"FAIL: {len(merges)} store.merge spans under {len(busy)} windows with rows")
if not any(int(w["args"]["partitions_summarized"]) > 0 for w in windows):
    sys.exit("FAIL: no window merged a partition summary")
coverage = sum(e["dur"] for e in children) / max(root["dur"], 1)
if coverage < 0.9:
    sys.exit(f"FAIL: child spans cover {coverage:.1%} of store_analyze (< 90%)")
print(f"store_analyze span coverage {coverage:.1%} over {len(windows)} windows")
PY

# A class filter takes the row path: every partition a window reads shows
# up as one store.decode_column span per column under its store.select.
"$CLI" store analyze --in "$WORK/store" --action SelectMail --class Business --window-days 1 \
    --trace-out "$WORK/decode.json" > /dev/null
"$PYTHON" - "$WORK/decode.json" <<'PY'
import json
import sys

events = [e for e in json.load(open(sys.argv[1]))["traceEvents"] if e.get("ph") == "X"]
windows = {e["args"]["id"]: e for e in events if e["name"] == "store.window"}
selects = [e for e in events
           if e["name"] == "store.select" and e["args"].get("parent") in windows]
select_ids = {s["args"]["id"] for s in selects}
decodes = [e for e in events
           if e["name"] == "store.decode_column" and e["args"].get("parent") in select_ids]
if not decodes:
    sys.exit("FAIL: no store.decode_column span under store.select")
columns = {"time", "latency", "user", "action", "class", "status"}
for decode in decodes:
    if decode["args"].get("column") not in columns or "bytes" not in decode["args"]:
        sys.exit(f"FAIL: store.decode_column span lacks column/bytes: {decode['args']}")
for select in selects:
    window = windows[select["args"]["parent"]]
    mine = [d for d in decodes if d["args"]["parent"] == select["args"]["id"]]
    partitions = int(window["args"]["partitions_scanned"])
    if len(mine) != partitions * len(columns):
        sys.exit(f"FAIL: {len(mine)} column decode spans for {partitions} partitions read")
    if partitions and {d["args"]["column"] for d in mine} != columns:
        sys.exit("FAIL: a store.select did not decode all six columns")
    decoded = sum(int(d["args"]["bytes"]) for d in mine)
    if decoded != int(window["args"]["bytes_read"]):
        sys.exit(f"FAIL: column decodes read {decoded} bytes, "
                 f"the window {window['args']['bytes_read']}")
print(f"{len(decodes)} store.decode_column spans under {len(selects)} store.select spans")
PY

# Confidence windows take the row path but keep the same rows: the window,
# records and NLP columns match the summarized run's, and every window says
# why it read rows.
for days in 7 1; do
  "$CLI" store analyze --in "$WORK/store" --action SelectMail --window-days "$days" \
      > "$WORK/plain.out"
  "$CLI" store analyze --in "$WORK/store" --action SelectMail --window-days "$days" \
      --confidence --replicates 5 --trace-out "$WORK/confidence.json" > "$WORK/confidence.out"
  columns() { awk 'NR > 2 && !/ windows, / { print $1, $2, $6, $7, $8 }' "$1"; }
  if [[ "$(columns "$WORK/plain.out")" != "$(columns "$WORK/confidence.out")" ]] ||
      [[ -z "$(columns "$WORK/plain.out")" ]]; then
    echo "FAIL: --confidence windows (--window-days $days) disagree with the plain run" >&2
    diff "$WORK/plain.out" "$WORK/confidence.out" >&2 || true
    exit 1
  fi
  "$PYTHON" - "$WORK/confidence.json" <<'PY'
import json
import sys

events = [e for e in json.load(open(sys.argv[1]))["traceEvents"] if e.get("ph") == "X"]
windows = [e for e in events if e["name"] == "store.window"]
if not windows:
    sys.exit("FAIL: --confidence run has no store.window spans")
for window in windows:
    if window["args"].get("summary_fallback") != "confidence":
        sys.exit(f"FAIL: a --confidence window has summary_fallback="
                 f"{window['args'].get('summary_fallback')}")
PY
done

# The in-memory bootstrap: intervals over the whole SelectMail slice.
"$CLI" analyze --in "$WORK/data.bin" --action SelectMail --confidence --replicates 5 \
    > "$WORK/analyze_ci.out" 2> /dev/null
grep -Eq '^\([0-9]+ usable bootstrap replicates\)$' "$WORK/analyze_ci.out" || {
  echo "FAIL: analyze --confidence did not report its usable replicates" >&2
  cat "$WORK/analyze_ci.out" >&2
  exit 1
}

# Round trip: export the store to a binlog, rebuild, compare byte-for-byte.
"$CLI" store export --in "$WORK/store" --out "$WORK/back.bin" --batch 1000 \
    > "$WORK/export.out"
grep -Eq "^exported $rows rows to " "$WORK/export.out"
"$CLI" store build --in "$WORK/back.bin" --out "$WORK/store2" \
    --partition-rows 4096 --block-rows 512 >/dev/null
diff -rq "$WORK/store" "$WORK/store2" >/dev/null || {
  echo "FAIL: rebuilt store differs from the original" >&2
  diff -rq "$WORK/store" "$WORK/store2" >&2 || true
  exit 1
}

echo "PASS: cli store e2e ($rows rows)"
