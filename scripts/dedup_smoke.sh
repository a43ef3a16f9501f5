#!/bin/sh
# dedup_smoke.sh — cross-harness dedup through the on-disk store, end to
# end (make bench-smoke). Figure 1 fills a fresh cache dir; Figure 6 then
# runs on the same dir and must read some of its simulations from it (the
# grids share baselines and solo runs). Fails unless the second run's
# -stats line shows disk-hits > 0.
#
# Pure POSIX sh so it runs identically locally and in CI.
set -eu
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/paperfig" ./cmd/paperfig
"$TMP/paperfig" -fig 1 -tiny -cache-dir "$TMP/simcache" >/dev/null 2>&1
stats="$("$TMP/paperfig" -fig 6 -tiny -stats -cache-dir "$TMP/simcache" 2>&1 >/dev/null | grep '^scheduler:')"
echo "dedup-smoke: -fig 6 after -fig 1: $stats"
hits="$(echo "$stats" | sed -n 's/.* disk-hits=\([0-9]*\).*/\1/p')"
if [ "${hits:-0}" -eq 0 ]; then
	echo "dedup-smoke: -fig 6 read nothing from the store -fig 1 filled" >&2
	exit 1
fi
