#!/usr/bin/env bash
# End-to-end check of `slices` on one generated tiny binlog:
#
#   1. the stdout of every keyed slice family (--by action, class, quartile,
#      period and month, plus --class, --action and --mc variants) at
#      --threads 1 and --threads 4 matches a sha256 digest frozen from the
#      per-slice select code the keyed pass replaced;
#   2. `slices --trace-out`, for each of those families: the run has one
#      root span, `slices`, whose children cover at least 90% of it (the
#      union of their intervals, so overlapping children are not counted
#      twice), and the keyed pass's one `accumulate` span carries its
#      slices, rows and chunks attributes.
#
# Usage: cli_slices_e2e.sh <autosens_cli> [python3]
set -euo pipefail

CLI="$1"
PYTHON="${2:-python3}"
WORK="$(mktemp -d)"
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

"$CLI" generate --out "$WORK/data.bin" --scale tiny --seed 7 --days 3 >/dev/null

# "<slices flags>|<sha256 of stdout>"
cases=(
  "--by action|aa304ece4de9319d0bb7a8712a7c4ddfbfcdc5ad63243c454bb9078d56c67854"
  "--by action --class Consumer|4d27a0caa303d45e6f5ee124b86974d8d844a7e497622095e1cf764c10682952"
  "--by action --mc|d8d6e609860d98b6dc5e8a4b67bd22a368be218a1da83dedae441a8ad4bd107d"
  "--by class|320bb35a03854c9e0e425c663b367dfe0c40bb3ba6d072cd31883088bc955024"
  "--by quartile|f2686070c68c9438dc59b78a13ce28ba6799b5b37244cfb44d7fb3b42a2078ea"
  "--by quartile --class Business|73970608f80c6723858077fd6eab3bda69e49dda817ee501c8ed9daaa3534377"
  "--by period|2fd019df40f43f8e42d53c7b104f35c925cbf8c678ecf724e3feb071693dcbf4"
  "--by period --action Search --class Consumer|bbcf21fdbeafbd5f0202968917560f3a6e48458dd7d51840d23b0dc466a6dc94"
  "--by month|eb6fc950d29b88677c42281eecac5cf079d29fb10bd0c1560fde038f3f07a8de"
  "--by month --action Search|b683046862c739919d55982009301dff97f03a7e88c70886f7119fc3d0ab5699"
)
for entry in "${cases[@]}"; do
  flags="${entry%%|*}"
  want="${entry##*|}"
  for threads in 1 4; do
    # shellcheck disable=SC2086  # the flags are meant to split
    got="$("$CLI" slices --in "$WORK/data.bin" $flags --threads "$threads" 2>/dev/null |
           sha256sum | cut -d' ' -f1)"
    if [[ "$got" != "$want" ]]; then
      echo "FAIL: slices $flags --threads $threads printed digest $got, want $want" >&2
      "$CLI" slices --in "$WORK/data.bin" $flags --threads "$threads" >&2 || true
      exit 1
    fi
  done
done
echo "${#cases[@]} slice runs match their frozen digests at --threads 1 and 4"

for family in action:4 class:2 quartile:4 period:4 month:1; do
"$CLI" slices --in "$WORK/data.bin" --by "${family%%:*}" --trace-out "$WORK/trace.json" \
    > /dev/null 2>&1
"$PYTHON" - "$WORK/trace.json" "${family%%:*}" "${family##*:}" <<'PY'
import json
import sys

by, want_slices = sys.argv[2], sys.argv[3]
events = [e for e in json.load(open(sys.argv[1]))["traceEvents"] if e.get("ph") == "X"]
roots = [e for e in events if e["args"].get("parent", 0) in (0, "0")]
if [e["name"] for e in roots] != ["slices"]:
    sys.exit(f"FAIL: expected one root span 'slices', got {[e['name'] for e in roots]}")
root = roots[0]
children = [e for e in events if e["args"].get("parent") == root["args"]["id"]]
accumulate = [e for e in children if e["name"] == "accumulate"]
if len(accumulate) != 1:
    sys.exit(f"FAIL: expected one keyed accumulate span under slices, got {len(accumulate)}")
for key in ("slices", "rows", "chunks"):
    if key not in accumulate[0]["args"]:
        sys.exit(f"FAIL: the accumulate span lacks the {key} attribute")
if str(accumulate[0]["args"]["slices"]) != want_slices:
    sys.exit(f"FAIL: --by {by} keyed {accumulate[0]['args']['slices']} slices, "
             f"want {want_slices}")
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
    sys.exit(f"FAIL: child spans cover {coverage:.1%} of slices (< 90%): "
             f"{[(e['name'], e['dur']) for e in children]} of {root['dur']}")
print(f"slices --by {by}: span coverage {coverage:.1%} over {len(children)} child spans")
PY
done
