#!/usr/bin/env bash
# End-to-end check of the text readers and `analyze` on one generated tiny
# log, written as CSV and as JSON lines:
#
#   1. `generate` writes both files byte for byte as the stream-based
#      writers did (sha256 digests frozen from them);
#   2. the stdout of `analyze` (all rows, --action, --action --class),
#      `summary` and `slices --by action` on each file at --threads 1 and
#      --threads 4 matches a sha256 digest frozen from the shard-based
#      readers the row-range readers replaced;
#   3. `--trace-out` of `analyze` (plain and with --confidence), `summary`,
#      `screen`, `locality` and `alpha` on each file: the run has one root
#      span, named after the command, whose children cover at least 90% of
#      it (the union of their intervals, so overlapping children are not
#      counted twice), and the reader's span (`ingest_csv` / `ingest_jsonl`)
#      carries its lines and chunks attributes.
#
# Usage: cli_analyze_e2e.sh <autosens_cli> [python3]
set -euo pipefail

CLI="$1"
PYTHON="${2:-python3}"
WORK="$(mktemp -d)"
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

declare -A file_digest=(
  [csv]=957e9f6b8ff40485ee704228442b82eedc9dc54cc893a01facc059c933e58c79
  [jsonl]=afa7f31bea9c14a80150bed4bdf62c623063a9d494dd1d0c176c86f3163cd7b6
)
for format in csv jsonl; do
  "$CLI" generate --out "$WORK/data.$format" --scale tiny --seed 7 --days 3 >/dev/null 2>&1
  got="$(sha256sum "$WORK/data.$format" | cut -d' ' -f1)"
  if [[ "$got" != "${file_digest[$format]}" ]]; then
    echo "FAIL: generate wrote data.$format with digest $got, want ${file_digest[$format]}" >&2
    exit 1
  fi
done
echo "generate wrote data.csv and data.jsonl byte for byte"

# "<command and flags>|<sha256 of stdout>"; CSV and JSON lines print the same.
cases=(
  "analyze|e08367367235cc76af4f56bc29c6dcc96c65fe519920765e051b1418fd6c20d9"
  "analyze --action SelectMail|4df7483a06a8a6d6b5585b21e9069dd02e039d11ed7f646f7eb9d1e5ca18755c"
  "analyze --action Search --class Consumer|a76727fc3d920d8d5993a64e1765f0f7f7fe9a506be3bb01c22fb253a3bd5ebb"
  "summary|a38d460e193668ec64007710ceae6ecb76bdcd6d272dedc13b3b0aff50bc5160"
  "slices --by action|aa304ece4de9319d0bb7a8712a7c4ddfbfcdc5ad63243c454bb9078d56c67854"
)
for format in csv jsonl; do
  for entry in "${cases[@]}"; do
    command="${entry%%|*}"
    want="${entry##*|}"
    for threads in 1 4; do
      # shellcheck disable=SC2086  # the command and flags are meant to split
      got="$("$CLI" $command --in "$WORK/data.$format" --threads "$threads" 2>/dev/null |
             sha256sum | cut -d' ' -f1)"
      if [[ "$got" != "$want" ]]; then
        echo "FAIL: $command on data.$format --threads $threads printed digest $got," \
             "want $want" >&2
        exit 1
      fi
    done
  done
done
echo "${#cases[@]} commands on each format match their frozen digests at --threads 1 and 4"

traced=(
  "analyze --action SelectMail"
  "analyze --action SelectMail --confidence --replicates 5"
  "summary"
  "screen"
  "locality"
  "alpha"
)
for format in csv jsonl; do
  for command in "${traced[@]}"; do
    # shellcheck disable=SC2086  # the command and flags are meant to split
    "$CLI" $command --in "$WORK/data.$format" --trace-out "$WORK/trace.json" > /dev/null 2>&1
    "$PYTHON" - "$WORK/trace.json" "$format" "$command" <<'PY'
import json
import sys

fmt, command = sys.argv[2], sys.argv[3]
name = command.split()[0]
events = [e for e in json.load(open(sys.argv[1]))["traceEvents"] if e.get("ph") == "X"]
roots = [e for e in events if e["args"].get("parent", 0) in (0, "0")]
if [e["name"] for e in roots] != [name]:
    sys.exit(f"FAIL: {command}: expected one root span '{name}', "
             f"got {[e['name'] for e in roots]}")
root = roots[0]
reader = [e for e in events if e["name"] == f"ingest_{fmt}"]
if len(reader) != 1:
    sys.exit(f"FAIL: {command}: expected one ingest_{fmt} span, got {len(reader)}")
for key in ("lines", "chunks"):
    if key not in reader[0]["args"]:
        sys.exit(f"FAIL: the ingest_{fmt} span lacks the {key} attribute")
children = [e for e in events if e["args"].get("parent") == root["args"]["id"]]
covered = 0
end = root["ts"]
for child in sorted(children, key=lambda e: e["ts"]):
    start = max(child["ts"], end)
    stop = child["ts"] + child["dur"]
    if stop > start:
        covered += stop - start
        end = stop
coverage = covered / max(root["dur"], 1)
if coverage < 0.9:
    sys.exit(f"FAIL: child spans cover {coverage:.1%} of {name} (< 90%): "
             f"{[(e['name'], e['dur']) for e in children]} of {root['dur']}")
print(f"{command} --in data.{fmt}: span coverage {coverage:.1%} over {len(children)} "
      f"child spans; ingest_{fmt} read {reader[0]['args']['lines']} lines in "
      f"{reader[0]['args']['chunks']} chunks")
PY
  done
done
