#!/bin/sh
# Repo verification: tier-1 (build + tests) plus vet and a race pass over
# the concurrency-heavy packages (campaign pool with its abandoned-run claim
# gate and drain path, the measured service with its shared cache and
# admission queue, the chaos fault-injection harness, telemetry
# registry/tracer, the simulator whose counters every worker's lab
# increments, the retry layer, and the population generator).
# The examples are built and vetted explicitly: they have no tests, so only
# an explicit pass catches bit-rot there.
set -eux

cd "$(dirname "$0")/.."

# Formatting gate: gofmt is not a style suggestion here, it is what keeps
# diffs reviewable; any unformatted file fails the run by name.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

go build ./...
go vet ./...
go build ./examples/...
go vet ./examples/...
go test ./...
# bench/ is its own module, so the root `./...` never builds it; an internal
# API change would otherwise break smbench silently.
(cd bench && go vet ./... && go test ./...)
go test -race ./internal/campaign ./internal/measured ./internal/telemetry ./internal/netsim ./internal/core ./internal/population ./internal/censor ./internal/ids
go test -race ./internal/chaos

# Fuzz smoke pass over every wire decoder. The seed corpora always run as
# plain tests (they are part of `go test ./...` above); the bounded
# coverage-guided pass is opt-in because it costs ~5s per target.
if [ "${VERIFY_FUZZ:-0}" = "1" ]; then
  for target in FuzzParseMessage FuzzNameRoundTrip; do
    go test -fuzz="^${target}\$" -fuzztime=5s ./internal/dnswire
  done
  for target in FuzzParse FuzzReassembler; do
    go test -fuzz="^${target}\$" -fuzztime=5s ./internal/packet
  done
  for target in FuzzParseRequest FuzzParseResponse; do
    go test -fuzz="^${target}\$" -fuzztime=5s ./internal/httpwire
  done
  for target in FuzzParseCommand FuzzParseReply FuzzParseMessage; do
    go test -fuzz="^${target}\$" -fuzztime=5s ./internal/smtpwire
  done
  for target in FuzzDecodeObservation FuzzReaderBinary FuzzReaderJSONL; do
    go test -fuzz="^${target}\$" -fuzztime=5s ./internal/archival
  done
fi

# Bench-regression gate: rerun the campaign throughput benchmark and compare
# best-of-3 against the committed BENCH_campaign.json baseline. A fresh
# ns/op more than 25% above baseline (>20% throughput loss) fails the run.
# Opt out with VERIFY_BENCH=0 on noisy or shared machines.
if [ "${VERIFY_BENCH:-1}" = "1" ] && [ -f BENCH_campaign.json ]; then
  benchraw=$(mktemp)
  go test -run '^$' -bench '^BenchmarkCampaign$' -benchtime 1s -count 3 . | tee "$benchraw"
  awk '
    NR == FNR {
      # Parse baseline JSON lines: "Name": {..., "ns_per_op": N, ...}
      if (match($0, /"Benchmark[^"]+"/)) {
        name = substr($0, RSTART + 1, RLENGTH - 2)
        if (match($0, /"ns_per_op": [0-9.]+/)) {
          split(substr($0, RSTART, RLENGTH), kv, ": ")
          base[name] = kv[2]
        }
      }
      next
    }
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      for (i = 3; i < NF; i++) if ($(i + 1) == "ns/op") nsop = $i
      if (!(name in fresh) || nsop + 0 < fresh[name] + 0) fresh[name] = nsop
    }
    END {
      bad = 0
      for (name in fresh) {
        if (!(name in base)) continue
        ratio = fresh[name] / base[name]
        printf "%s: %.0f ns/op vs baseline %.0f (x%.2f)\n", name, fresh[name], base[name], ratio
        if (ratio > 1.25) {
          printf "REGRESSION: %s is %.0f%% slower than baseline\n", name, (ratio - 1) * 100
          bad = 1
        }
      }
      exit bad
    }
  ' BENCH_campaign.json "$benchraw"
  rm -f "$benchraw"
fi

# Worker-scaling gate: on a host with at least 4 CPUs, the 8-worker pool
# must clear at least 2x single-worker throughput on the wide benchmark
# matrix — the shared artifact cache plus per-run hot-path work is what the
# ratio measures. Hosts with fewer cores (1-CPU CI containers) cannot scale
# by pooling workers, so there the ratio is printed but not asserted.
# Opt out entirely with VERIFY_SCALING=0.
if [ "${VERIFY_SCALING:-1}" = "1" ]; then
  ncpu=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
  scaleraw=$(mktemp)
  go test -run '^$' -bench '^BenchmarkCampaignScaling$/^workers=(1|8)$' \
    -benchtime 1s -count 2 . | tee "$scaleraw"
  awk -v ncpu="$ncpu" '
    # GOMAXPROCS=1 hosts print the bare name; others append "-N".
    /^BenchmarkCampaignScaling\/workers=1(-[0-9]+)?[ \t]/ {
      for (i = 3; i < NF; i++) if ($(i + 1) ~ /runs\/s/ && $i + 0 > w1) w1 = $i
    }
    /^BenchmarkCampaignScaling\/workers=8(-[0-9]+)?[ \t]/ {
      for (i = 3; i < NF; i++) if ($(i + 1) ~ /runs\/s/ && $i + 0 > w8) w8 = $i
    }
    END {
      if (w1 + 0 == 0 || w8 + 0 == 0) { print "scaling gate: missing benchmark output"; exit 1 }
      ratio = w8 / w1
      printf "scaling: workers=8 %.0f runs/s vs workers=1 %.0f runs/s (x%.2f) on %d CPU(s)\n", w8, w1, ratio, ncpu
      if (ncpu + 0 >= 4 && ratio < 2) {
        printf "SCALING REGRESSION: 8-worker speedup x%.2f < x2 on a %d-CPU host\n", ratio, ncpu
        exit 1
      }
      if (ncpu + 0 < 4) print "scaling: fewer than 4 CPUs, ratio is informational only"
    }
  ' "$scaleraw"
  rm -f "$scaleraw"
fi

# Interrupt-then-resume smoke test: a real SIGINT against the built binary
# must exit 130 with a valid partial archive, and -resume must finish the
# campaign to exactly the planned runs: one verdict row per run, no run
# twice, and measanalyze counting every run once with no errors. This
# exercises the signal handler and CLI resume path (torn-row cut, final-group
# cut, append) that the in-process chaos tests cannot, for the JSONL and the
# binary encoding.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/campaign" ./cmd/campaign
go build -o "$tmp/measanalyze" ./cmd/measanalyze
# verdict_runs FILE: the verdict rows of an archive (either encoding), as
# their run IDs.
verdict_runs() {
  "$tmp/measanalyze" filter -type verdict "$1" 2>/dev/null | grep -o '"run":"[0-9]*"'
}
for ext in jsonl bin; do
  "$tmp/campaign" -scenarios dns-poison -trials 500 -workers 2 \
    -out "$tmp/smoke.$ext" -sync-every 1 &
  pid=$!
  sleep 1
  kill -INT "$pid"
  rc=0
  wait "$pid" || rc=$?
  test "$rc" -eq 130
  test -s "$tmp/smoke.$ext"
  "$tmp/campaign" -resume -scenarios dns-poison -trials 500 -workers 2 \
    -out "$tmp/smoke.$ext"
  # 1 scenario x 3 techniques x 500 trials = 1500 runs
  test "$(verdict_runs "$tmp/smoke.$ext" | wc -l)" -eq 1500
  test "$(verdict_runs "$tmp/smoke.$ext" | LC_ALL=C sort -u | wc -l)" -eq 1500
  "$tmp/measanalyze" summarize "$tmp/smoke.$ext" | grep -q "1500 completed runs, 0 errors,"
done
# Both resumed archives hold the same rows, whatever the interrupt point.
"$tmp/measanalyze" convert -o "$tmp/smoke.bin.jsonl" "$tmp/smoke.bin"
LC_ALL=C sort "$tmp/smoke.jsonl" > "$tmp/smoke.sorted"
LC_ALL=C sort "$tmp/smoke.bin.jsonl" > "$tmp/smoke.bin.sorted"
cmp "$tmp/smoke.sorted" "$tmp/smoke.bin.sorted"

# Budget-abort-then-resume smoke: a 1ns per-run timeout fails every run, so
# the failure budget must abort the real process with exit 3 and a
# resumable partial archive; -resume with a sane timeout then re-runs the
# error records and the rest of the plan. The superseded error records stay
# in the file, but every run has exactly one verdict row and measanalyze
# counts no errors: a run's error-free record wins.
rc=0
"$tmp/campaign" -scenarios dns-poison -trials 50 -workers 2 -timeout 1ns \
  -fail-budget 0.5 -out "$tmp/budget.jsonl" > /dev/null 2>&1 || rc=$?
test "$rc" -eq 3
"$tmp/campaign" -resume -scenarios dns-poison -trials 50 -workers 2 \
  -out "$tmp/budget.jsonl" > /dev/null 2>&1
test "$(verdict_runs "$tmp/budget.jsonl" | wc -l)" -eq 150
test "$(verdict_runs "$tmp/budget.jsonl" | LC_ALL=C sort -u | wc -l)" -eq 150
"$tmp/measanalyze" summarize "$tmp/budget.jsonl" | grep -q "150 completed runs, 0 errors,"

# Stdout-archive smoke: with -out - stdout is the archive stream alone (the
# summary goes to stderr), so measanalyze must parse it whole.
"$tmp/campaign" -scenarios open -techniques overt-dns -trials 2 \
  -out - > "$tmp/stdout.jsonl" 2>/dev/null
"$tmp/measanalyze" summarize "$tmp/stdout.jsonl" | grep -q "completed runs, 0 errors,"
# -resume reads the archive it appends to, so stdout cannot be resumed.
rc=0
"$tmp/campaign" -resume -out - -scenarios open -trials 1 > /dev/null 2>&1 || rc=$?
test "$rc" -eq 2

# labbench smoke: E11 runs the campaign's default plan and ends with its
# four claim lines; an unknown -only id is a usage error, not a silent skip.
go build -o "$tmp/labbench" ./cmd/labbench
"$tmp/labbench" -only E11 > "$tmp/e11.txt"
test "$(grep -c '^claim: ' "$tmp/e11.txt")" -eq 4
rc=0
"$tmp/labbench" -only E3,E13 -quick > /dev/null 2>&1 || rc=$?
test "$rc" -eq 2

# Censor-behavior determinism smoke: a campaign sweeping every adversarial
# behavior preset must produce byte-identical sorted rows at workers 1 and
# 8 — the end-to-end form of the behavior-state-is-seed-derived claim.
"$tmp/campaign" -scenarios keyword-rst -censor-behavior all -trials 2 \
  -workers 1 -seed 5 -out "$tmp/bhv.w1.jsonl" > /dev/null
"$tmp/campaign" -scenarios keyword-rst -censor-behavior all -trials 2 \
  -workers 8 -seed 5 -out "$tmp/bhv.w8.jsonl" > /dev/null
LC_ALL=C sort "$tmp/bhv.w1.jsonl" > "$tmp/bhv.w1.sorted"
LC_ALL=C sort "$tmp/bhv.w8.jsonl" > "$tmp/bhv.w8.sorted"
cmp "$tmp/bhv.w1.sorted" "$tmp/bhv.w8.sorted"
grep -q '"behavior":"throttle"' "$tmp/bhv.w1.jsonl"

# Analysis-pipeline smoke: a second seeded campaign gives compare two real
# 1500-run inputs; its per-cell Wilson-CI delta table must be deterministic
# (two invocations, byte-identical output), and convert must round-trip the
# campaign's own archive JSONL -> binary -> JSONL byte-identically.
"$tmp/campaign" -scenarios dns-poison -trials 500 -workers 2 -seed 2 \
  -out "$tmp/smoke2.jsonl" > /dev/null
"$tmp/measanalyze" compare "$tmp/smoke.jsonl" "$tmp/smoke2.jsonl" > "$tmp/cmp1.txt"
"$tmp/measanalyze" compare "$tmp/smoke.jsonl" "$tmp/smoke2.jsonl" > "$tmp/cmp2.txt"
diff "$tmp/cmp1.txt" "$tmp/cmp2.txt"
grep -q "verdict" "$tmp/cmp1.txt"
"$tmp/measanalyze" convert -o "$tmp/smoke.obs.bin" "$tmp/smoke.jsonl"
"$tmp/measanalyze" convert -o "$tmp/smoke.obs.jsonl" "$tmp/smoke.obs.bin"
cmp "$tmp/smoke.jsonl" "$tmp/smoke.obs.jsonl"
ls -l "$tmp/smoke.jsonl" "$tmp/smoke.obs.bin" "$tmp/smoke.bin"
# Torn-tail tolerance: summarize must stream a live-append-shaped file
# (valid prefix + half a row) without erroring.
head -c "$(( $(wc -c < "$tmp/smoke.jsonl") - 40 ))" "$tmp/smoke.jsonl" > "$tmp/torn.jsonl"
"$tmp/measanalyze" summarize "$tmp/torn.jsonl" > /dev/null
# Behavior guard rails: summarize shows per-behavior marginals on a swept
# file, and compare refuses to diff files whose behavior sets differ.
"$tmp/measanalyze" summarize "$tmp/bhv.w1.jsonl" | grep -q "per-behavior"
if "$tmp/measanalyze" compare "$tmp/bhv.w1.jsonl" "$tmp/smoke.jsonl" 2> "$tmp/bhv.err"; then
  echo "compare accepted mismatched behavior sets" >&2
  exit 1
fi
grep -q "behavior mismatch" "$tmp/bhv.err"

# Service smoke test: start safemeasured on an ephemeral port, drive it with
# measload (50 concurrent clients; every client's third request repeats its
# first, so measload's -min-cache-hits and byte-identity checks prove the
# result cache serves duplicates byte-for-byte), then SIGTERM and assert a
# clean drain (exit 0 means nothing was abandoned).
go build -o "$tmp/safemeasured" ./cmd/safemeasured
go build -o "$tmp/measload" ./cmd/measload
"$tmp/safemeasured" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -workers 4 &
svcpid=$!
trap 'for p in "$svcpid" "${basepid:-}" "${crashpid:-}" "${recpid:-}"; do if [ -n "$p" ]; then kill "$p" 2>/dev/null || true; fi; done; rm -rf "$tmp"' EXIT
i=0
while [ ! -s "$tmp/addr" ] && [ "$i" -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
test -s "$tmp/addr"
"$tmp/measload" -addr "http://$(cat "$tmp/addr")" -clients 50 -requests 3 \
  -trials 2 -dup-every 2 -min-cache-hits 1
kill -TERM "$svcpid"
rc=0
wait "$svcpid" || rc=$?
test "$rc" -eq 0

# Crash-recovery smoke test: a journaled service killed with SIGKILL
# mid-campaign must, after a restart on the same files and a re-run of the
# same workload, end with an archive byte-identical to an uninterrupted
# baseline — every admitted run recovered, no run archived twice. This is
# the end-to-end (real process, real kill -9) counterpart of the in-process
# crash matrix in internal/measured.
wait_addr() {
  i=0
  while [ ! -s "$1" ] && [ "$i" -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
  done
  test -s "$1"
}

# Baseline: the same workload, uninterrupted.
"$tmp/safemeasured" -addr 127.0.0.1:0 -addr-file "$tmp/addr.base" -workers 4 \
  -journal "$tmp/base.wal" -archive "$tmp/base.obs.jsonl" &
basepid=$!
wait_addr "$tmp/addr.base"
"$tmp/measload" -addr "http://$(cat "$tmp/addr.base")" -clients 20 -requests 3 \
  -trials 120 -seed 9 -dup-every 2 -min-cache-hits 1
kill -TERM "$basepid"
rc=0
wait "$basepid" || rc=$?
test "$rc" -eq 0

# Crashed run: kill -9 as soon as results start landing in the archive.
"$tmp/safemeasured" -addr 127.0.0.1:0 -addr-file "$tmp/addr.crash" -workers 4 \
  -journal "$tmp/crash.wal" -archive "$tmp/crash.obs.jsonl" &
crashpid=$!
wait_addr "$tmp/addr.crash"
"$tmp/measload" -addr "http://$(cat "$tmp/addr.crash")" -clients 20 -requests 3 \
  -trials 120 -seed 9 -dup-every 2 &
loadpid=$!
i=0
while [ ! -s "$tmp/crash.obs.jsonl" ] && [ "$i" -lt 200 ]; do
  sleep 0.05
  i=$((i + 1))
done
test -s "$tmp/crash.obs.jsonl"
kill -9 "$crashpid"
wait "$loadpid" || true # the killed service fails measload's in-flight requests

# Restart on the wreckage and re-drive the identical workload: warm-started
# cells are cache hits, journaled-but-unfinished runs replay, the remainder
# re-admits — with 429/503 retries riding out any storage-recovery window.
"$tmp/safemeasured" -addr 127.0.0.1:0 -addr-file "$tmp/addr.rec" -workers 4 \
  -journal "$tmp/crash.wal" -archive "$tmp/crash.obs.jsonl" &
recpid=$!
wait_addr "$tmp/addr.rec"
"$tmp/measload" -addr "http://$(cat "$tmp/addr.rec")" -clients 20 -requests 3 \
  -trials 120 -seed 9 -dup-every 2 -min-cache-hits 1 -max-retries 5
kill -TERM "$recpid"
rc=0
wait "$recpid" || rc=$?
test "$rc" -eq 0 # a clean drain: every replayed run finished

# Byte-identical recovery: the archives hold the same rows (completion order
# differs across runs, so compare sorted) ...
LC_ALL=C sort "$tmp/base.obs.jsonl" > "$tmp/base.sorted"
LC_ALL=C sort "$tmp/crash.obs.jsonl" > "$tmp/crash.sorted"
cmp "$tmp/base.sorted" "$tmp/crash.sorted"
# ... and zero duplicate execution: no run's verdict row appears twice.
dups=$(grep '"type":"verdict"' "$tmp/crash.obs.jsonl" | grep -o '"run":"[0-9]*"' | LC_ALL=C sort | uniq -d)
test -z "$dups"
