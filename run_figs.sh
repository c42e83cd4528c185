#!/bin/bash
# Regenerate every figure/table CSV through the unified harness, then
# regression-gate the output against the committed goldens in
# results/golden/. Every quick-mode run must also reproduce
# results/golden-quick/ byte for byte. Exits non-zero if any experiment
# or gate fails.
#
# Every output directory is gitignored: the quick modes write
# results-quick/, results-shard/ and results-chaos/, and the full
# campaign writes results/ (only its golden/ and golden-quick/
# subdirectories are tracked).
#
# Pass-through args go to the campaign run, e.g.:
#   ./run_figs.sh                 # quick campaign into results-quick/ + compare
#                                 # (+ byte diff when given no args)
#   IRRNET_FULL=1 ./run_figs.sh   # full paper-scale campaign into results/ + compare
#   ./run_figs.sh shard [N]       # quick campaign as N workers + merge + compare
#                                 # + byte diff
#   ./run_figs.sh chaos           # damage/heal gauntlet: torn tails, stale
#                                 # leases, corruption, reshard — then compare
#                                 # + byte diff
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release -p irrnet-harness
RUN=target/release/irrnet-run

# Byte gate: every quick CSV must equal its twin in results/golden-quick/,
# and every twin must still be written. `compare` holds the load and DSM
# figures to shape only; this catches any drift in their values.
byte_gate() {
  diff -r -x manifest.json -x 'journal*.jsonl' -x 'lease*.json' results/golden-quick "$1"
  echo "$(ls "$1"/*.csv | wc -l) quick CSVs byte-identical to results/golden-quick/"
}

# Distributed mode: run the quick campaign as N concurrent shard workers
# into one directory, merge, and gate the merged artifacts against the
# same goldens as a single-process run — they must be byte-identical.
if [ "${1:-}" = "shard" ]; then
  N="${2:-2}"
  OUT=results-shard
  rm -rf "$OUT"
  PIDS=()
  for ((i = 0; i < N; i++)); do
    "$RUN" work "$OUT" --shard "$i/$N" --all --quick & PIDS+=($!)
  done
  for pid in "${PIDS[@]}"; do wait "$pid"; done
  "$RUN" status "$OUT"
  "$RUN" merge "$OUT"
  "$RUN" compare --out "$OUT" --golden results/golden
  byte_gate "$OUT"
  echo ALLDONE
  exit 0
fi

# Chaos mode: drive the self-healing path end to end through the real
# CLI — torn journal tails, an abandoned shard behind a stale lease,
# mid-file corruption, straggler re-sharding — and require the final
# merge to pass the same golden gate as an undamaged run.
if [ "${1:-}" = "chaos" ]; then
  OUT=results-chaos
  rm -rf "$OUT"
  mkdir -p "$OUT"

  # An empty campaign directory is one clear error, not a stack trace.
  if ERR=$("$RUN" status "$OUT" 2>&1); then
    echo "chaos: status on an empty dir must fail"; exit 1
  fi
  echo "$ERR" | grep -q "no campaign journals"

  "$RUN" work "$OUT" --shard 1/2 --all --quick
  "$RUN" work "$OUT" --shard 0/2 --all --quick
  J0="$OUT/journal.shard-0-of-2.jsonl"
  J1="$OUT/journal.shard-1-of-2.jsonl"

  # Crash shard 0: drop its last two records, leave a torn fragment, and
  # plant a lease from a worker on another machine that stopped
  # heartbeating an hour ago.
  head -n -2 "$J0" > "$J0.tmp" && mv "$J0.tmp" "$J0"
  printf '%s' '{"sum":"0xdeadbeef00000000","kind":"unit","i' >> "$J0"
  STAMP=$(( $(date +%s%3N) - 3600000 ))
  printf '{"pid":1,"host":"other-machine","beat":1,"units_done":0,"stamp_ms":%s,"completed":false,"argv":["work","out","--shard","0/2"]}\n' \
    "$STAMP" > "$OUT/lease.shard-0-of-2.json"

  "$RUN" status "$OUT" | grep -q "STALLED"

  # Adoption requires the explicit flag...
  if "$RUN" work "$OUT" --shard 0/2 --all --quick >/dev/null 2>&1; then
    echo "chaos: adopting a stalled shard without --take-over must fail"; exit 1
  fi
  ERR=$("$RUN" work "$OUT" --shard 0/2 --all --quick 2>&1) || true
  echo "$ERR" | grep -q -- "--take-over"
  # ...and with it, the takeover resumes past the torn tail and finishes.
  "$RUN" work "$OUT" --shard 0/2 --all --quick --take-over --stale-after 1

  # Corrupt shard 1 (one byte inside line 2's checksum field): merge must
  # refuse and name the damage; the repair is delete + re-run.
  OFF=$(( $(head -n 1 "$J1" | wc -c) + 10 ))
  printf 'Z' | dd of="$J1" bs=1 seek="$OFF" conv=notrunc status=none
  if "$RUN" merge "$OUT" >/dev/null 2>&1; then
    echo "chaos: merging a corrupt journal must fail"; exit 1
  fi
  ERR=$("$RUN" merge "$OUT" 2>&1) || true
  echo "$ERR" | grep -qi "corrupt"
  echo "$ERR" | grep -q "journal.shard-1-of-2.jsonl"
  rm "$J1"
  "$RUN" work "$OUT" --shard 1/2 --all --quick

  # Straggler re-sharding: tear shard 0 once more, re-plan the remainder
  # across three workers, and finish there.
  head -n -1 "$J0" > "$J0.tmp" && mv "$J0.tmp" "$J0"
  "$RUN" reshard "$OUT" --shards 3
  for i in 0 1 2; do
    "$RUN" work "$OUT" --shard "$i/3" --all --quick
  done

  "$RUN" status "$OUT"
  "$RUN" merge "$OUT"
  "$RUN" compare --out "$OUT" --golden results/golden
  byte_gate "$OUT"
  echo ALLDONE
  exit 0
fi

if [ "${IRRNET_FULL:-0}" = "1" ]; then
  "$RUN" --all "$@"
  "$RUN" compare
else
  OUT=results-quick
  rm -rf "$OUT"
  "$RUN" --all --quick --out "$OUT" "$@"
  "$RUN" compare --out "$OUT" --golden results/golden
  # Pass-through args such as --schemes change the set of files written.
  if [ $# -eq 0 ]; then
    byte_gate "$OUT"
  fi
fi
echo ALLDONE
