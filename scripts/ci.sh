#!/usr/bin/env bash
# Local CI gate: build, test, format, lint, docs, accuracy — what a PR
# must pass.
set -euo pipefail
cd "$(dirname "$0")/.."

# Hermetic: an empty cargo home has no registry, so the build can only
# succeed while the workspace depends on nothing outside this tree.
CARGO_HOME=$(mktemp -d) cargo build --release --offline && cargo test -q --offline --workspace
cargo fmt --all --check
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# estbench is a workspace of its own, so a dve-core API change can break
# it without failing the build above. Build it hermetically, then run a
# one-second smoke of each workload. Each exits nonzero if one of its
# output checks fails: sanity clamp, JSON re-parse and cross-client bit
# identity (estimate_mix); HLL relative error and jobs=1 ≡ jobs=N spectra
# (column_profile); merged n/r, GEE bounds and HLL relative error after
# every incremental refresh (append_refresh).
CARGO_HOME=$(mktemp -d) cargo build --release --offline --manifest-path estbench/Cargo.toml
for workload in estimate_mix append_refresh column_profile; do
    "${CARGO_TARGET_DIR:-estbench/target}/release/estbench" \
        --workload "$workload" --seconds 1 --trace 0 >/dev/null
done

# Parallel determinism + wall-time gate: time the audit sweep, ANALYZE,
# spectrum ingest, and the mixed-encoding ingest/analyze scenarios at
# jobs=1 vs jobs=N (prints the comparison table, including the
# ingest_rows_per_sec throughput gauge), verify the parallel results
# are bit-identical to serial, and compare wall times against the
# committed baseline. The speedup assertion arms only on hosts with
# >= 4 cores; determinism is gated everywhere.
./target/release/dve bench --quick --check BENCH_perf.json

# Belt and braces for the determinism contract the bench relies on:
# the same audit grid at --jobs 1 and --jobs 4 must serialize
# byte-identically once wall times are zeroed.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
./target/release/dve audit --grid quick --deterministic --jobs 1 --out "$tmpdir/j1.json"
./target/release/dve audit --grid quick --deterministic --jobs 4 --out "$tmpdir/j4.json"
cmp "$tmpdir/j1.json" "$tmpdir/j4.json"

# Ingest fast-path byte-identity: tables whose chunks land on the RLE,
# dictionary, and Str encodings (sorted duplicates, low-cardinality
# ints, categorical strings) must ANALYZE byte-identically at --jobs 1
# and --jobs 4 — the encoding-aware counting fast paths, pre-sized
# open-addressing builders, and the absorb merge may not move a bit.
# `analyze --save` must print the same bytes, and the catalog stats it
# saves must not depend on --jobs either.
awk 'BEGIN{for(i=0;i<30000;i++)print int(i/64)}' >"$tmpdir/sorted.txt"
./target/release/dve import --type int64 --out "$tmpdir/rle.dvet" "$tmpdir/sorted.txt"
awk 'BEGIN{for(i=0;i<30000;i++)print (i*7919)%101}' >"$tmpdir/lowcard.txt"
./target/release/dve import --type int64 --out "$tmpdir/dict.dvet" "$tmpdir/lowcard.txt"
awk 'BEGIN{for(i=0;i<30000;i++)printf "cat%03d\n",(i*7)%57}' >"$tmpdir/cats.txt"
./target/release/dve import --type str --out "$tmpdir/strs.dvet" "$tmpdir/cats.txt"
for t in rle dict strs; do
    ./target/release/dve analyze --format json --fraction 0.2 --seed 11 --jobs 1 \
        "$tmpdir/$t.dvet" >"$tmpdir/$t-j1.json"
    ./target/release/dve analyze --format json --fraction 0.2 --seed 11 --jobs 4 \
        "$tmpdir/$t.dvet" >"$tmpdir/$t-j4.json"
    cmp "$tmpdir/$t-j1.json" "$tmpdir/$t-j4.json"
    for j in 1 4; do
        ./target/release/dve analyze --format json --fraction 0.2 --seed 11 --jobs "$j" \
            --save "$tmpdir/$t.dvet" >"$tmpdir/$t-save-j$j.json"
        ./target/release/dve stats show "$tmpdir/$t.dvet" >"$tmpdir/$t-stats-j$j.json"
    done
    cmp "$tmpdir/$t-j1.json" "$tmpdir/$t-save-j1.json"
    cmp "$tmpdir/$t-j4.json" "$tmpdir/$t-save-j4.json"
    cmp "$tmpdir/$t-stats-j1.json" "$tmpdir/$t-stats-j4.json"
done

# Serve smoke: boot the daemon on a private port, exercise every
# endpoint through real HTTP, lint the Prometheus exposition, then
# verify SIGTERM drains and exits 0 within the deadline.
serve_port=17171
./target/release/dve serve --addr "127.0.0.1:$serve_port" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT

for _ in $(seq 1 50); do
    if curl -sf "http://127.0.0.1:$serve_port/healthz" >"$tmpdir/healthz.json" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
grep -q '"status":"ok"' "$tmpdir/healthz.json"

curl -sf "http://127.0.0.1:$serve_port/v1/estimators" | grep -q '"GEE"'

curl -sf -X POST "http://127.0.0.1:$serve_port/v1/estimate" \
    -d '{"estimator":"GEE","n":10000,"spectrum":[40,30]}' >"$tmpdir/estimate.json"
grep -q '"estimate":430' "$tmpdir/estimate.json"
grep -q '"gee_interval":{"lower":70,"upper":4030}' "$tmpdir/estimate.json"

# Sharded estimation: two value-disjoint half-table shards merged
# server-side must answer byte-identically to the single merged
# spectrum above.
curl -sf -X POST "http://127.0.0.1:$serve_port/v1/estimate" \
    -d '{"estimator":"GEE","shards":[{"n":5000,"spectrum":[20,15]},{"n":5000,"spectrum":[20,15]}]}' \
    >"$tmpdir/shards.json"
cmp "$tmpdir/shards.json" "$tmpdir/estimate.json"

# Malformed input must produce the structured 4xx envelope, not a 5xx.
code="$(curl -s -o "$tmpdir/err.json" -w '%{http_code}' \
    -X POST "http://127.0.0.1:$serve_port/v1/estimate" -d '{nope')"
test "$code" = 400
grep -q '"code":"malformed_json"' "$tmpdir/err.json"

# Prometheus exposition lint: every non-comment line must be
# `name{labels} value` or `name value` — optionally carrying an
# OpenMetrics exemplar suffix (` # {labels} value`) — and every metric
# must carry both a HELP and a TYPE comment (summary `_count`/`_sum`
# and histogram `_bucket` samples inherit their family's comments);
# the serve.* family must be present.
lint_prom() {
    awk '
    /^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* / {
        if ($2 == "TYPE") typed[$3] = 1
        if ($2 == "HELP") helped[$3] = 1
        next
    }
    /^#/ { print "bad comment line: " $0; bad = 1; next }
    /^$/ { next }
    {
        line = $0
        if (line ~ / # /) {
            if (line !~ / # \{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\} -?[0-9][0-9.eE+-]*$/) {
                print "bad exemplar suffix: " line; bad = 1; next
            }
            sub(/ # .*$/, "", line)
        }
        if (line !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]/) {
            print "bad sample line: " line; bad = 1; next
        }
        name = line; sub(/[{ ].*/, "", name)
        base = name
        sub(/_(count|sum|bucket)$/, "", base)
        if (!(name in typed) && !(base in typed)) {
            print "sample without TYPE: " name; bad = 1
        }
        if (!(name in helped) && !(base in helped)) {
            print "sample without HELP: " name; bad = 1
        }
    }
    END { exit bad }
' "$1"
}
curl -sf "http://127.0.0.1:$serve_port/metrics" >"$tmpdir/metrics.prom"
lint_prom "$tmpdir/metrics.prom"
grep -q '^serve_requests_total' "$tmpdir/metrics.prom"
grep -q '^serve_shed_total' "$tmpdir/metrics.prom"
grep -q '^serve_queue_depth' "$tmpdir/metrics.prom"
grep -q '^trace_dropped_spans' "$tmpdir/metrics.prom"
grep -q '^trace_shard_occupancy{label="0"}' "$tmpdir/metrics.prom"

# Trace smoke: a traced request must yield a causally linked,
# Perfetto-loadable Chrome trace spanning the accept and worker
# threads. `dve trace-check` re-parses the JSON with the same
# dependency-free reader the gates use and asserts the span graph.
curl -sf -X POST "http://127.0.0.1:$serve_port/v1/estimate" \
    -H 'X-Dve-Trace-Id: c1c1c1c1' \
    -d '{"estimator":"GEE","n":10000,"spectrum":[40,30]}' >/dev/null
curl -sf "http://127.0.0.1:$serve_port/v1/traces/c1c1c1c1" >"$tmpdir/trace.json"
./target/release/dve trace-check "$tmpdir/trace.json" \
    --min-spans 5 --min-threads 2 --min-linked 4
curl -sf "http://127.0.0.1:$serve_port/v1/traces" | grep -q 'c1c1c1c1'
# The index respects ?limit=N (capped server-side at 100).
if curl -sf "http://127.0.0.1:$serve_port/v1/traces?limit=0" | grep -q 'c1c1c1c1'; then
    echo "ci.sh: /v1/traces?limit=0 still returned trace ids" >&2
    exit 1
fi

# The CLI profiler writes the same format; gate it through the same
# validator.
./target/release/dve estimate --fraction 0.5 --trace "$tmpdir/cli-trace.json" \
    "$tmpdir/j1.json" >/dev/null
./target/release/dve trace-check "$tmpdir/cli-trace.json" --min-spans 3 --min-linked 2

# Graceful shutdown: SIGTERM must drain and exit 0 within the deadline.
kill -TERM "$serve_pid"
serve_rc=0
for _ in $(seq 1 50); do
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
wait "$serve_pid" || serve_rc=$?
test "$serve_rc" = 0
trap 'rm -rf "$tmpdir"' EXIT

# SLO smoke: boot a daemon that shadow-samples every values-mode
# request, drive a mixed-estimator burst, and gate the guarantee
# monitor end to end — /v1/slo must be valid JSON with high interval
# coverage (`dve slo-check` parses it with the same dependency-free
# reader and enforces the thresholds), and the windowed/SLO Prometheus
# series must pass the exemplar-aware lint.
slo_port=17172
./target/release/dve serve --addr "127.0.0.1:$slo_port" --shadow-sample-rate 1.0 &
slo_pid=$!
trap 'kill "$slo_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for _ in $(seq 1 50); do
    if curl -sf "http://127.0.0.1:$slo_port/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done

# 400 rows over 101 distinct values: at fraction 0.5 every estimator's
# interval should cover the truth, so the error budget stays intact.
values="$(awk 'BEGIN{for(i=0;i<400;i++)printf "%s\"v%d\"",(i?",":""),i%101}')"
for est in GEE AE SHLOSSER GEE AE; do
    curl -sf -X POST "http://127.0.0.1:$slo_port/v1/estimate" \
        -d "{\"values\":[$values],\"estimator\":\"$est\",\"fraction\":0.5}" >/dev/null
done

curl -sf "http://127.0.0.1:$slo_port/v1/slo" >"$tmpdir/slo.json"
grep -q '"alert":"ok"' "$tmpdir/slo.json"
grep -q '"estimator":"GEE"' "$tmpdir/slo.json"
grep -q '"ratio_error_permille":{"p50":' "$tmpdir/slo.json"
./target/release/dve slo-check "http://127.0.0.1:$slo_port" \
    --max-burn-rate 1.0 --min-coverage 0.9

curl -sf "http://127.0.0.1:$slo_port/metrics" >"$tmpdir/slo-metrics.prom"
lint_prom "$tmpdir/slo-metrics.prom"
grep -q '^window_ratio_error_permille{label="GEE",window="1h",quantile="0.5"}' \
    "$tmpdir/slo-metrics.prom"
grep -q '^# TYPE slo_burn_rate gauge' "$tmpdir/slo-metrics.prom"
grep -q '^# HELP slo_alert_state ' "$tmpdir/slo-metrics.prom"
grep -q '^slo_alert_state 0' "$tmpdir/slo-metrics.prom"
grep -q ' # {trace_id="' "$tmpdir/slo-metrics.prom"

# A synthetically bad estimator (1% Bernoulli sample of an all-distinct
# table makes SAMPLE-D undercount ~100x) must burn both windows, flip
# the alert, and make the slo-check gate fail.
bad="$(awk 'BEGIN{for(i=0;i<2000;i++)printf "%s\"u%d\"",(i?",":""),i}')"
for seed in 1 2 3 4 5; do
    curl -sf -X POST "http://127.0.0.1:$slo_port/v1/estimate" \
        -d "{\"values\":[$bad],\"estimator\":\"SAMPLE-D\",\"fraction\":0.01,\"seed\":$seed}" \
        >/dev/null
done
curl -sf "http://127.0.0.1:$slo_port/v1/slo" | grep -q '"alert":"burning"'
slo_rc=0
./target/release/dve slo-check "http://127.0.0.1:$slo_port" \
    --max-burn-rate 1.0 >/dev/null || slo_rc=$?
test "$slo_rc" = 1

kill -TERM "$slo_pid"
slo_exit=0
wait "$slo_pid" || slo_exit=$?
test "$slo_exit" = 0
trap 'rm -rf "$tmpdir"' EXIT

# Cluster smoke: three value-disjoint segment files behind two worker
# daemons and a coordinator. Gate 1 (healthy): the distributed estimate
# at fraction 1.0, minus the additive "cluster" coverage object, must
# be byte-identical to single-node `dve estimate` on the concatenated
# table. Gate 2 (degraded): SIGKILL one worker and the next sweep must
# still answer 200, reporting the skipped worker and a retry — graceful
# degradation, not an error. Then the coordinator must drain cleanly.
awk 'BEGIN{for(i=0;i<4000;i++)printf "a%d\n",i%211}' >"$tmpdir/seg-a.txt"
awk 'BEGIN{for(i=0;i<3000;i++)printf "b%d\n",i%107}' >"$tmpdir/seg-b.txt"
awk 'BEGIN{for(i=0;i<5000;i++)printf "c%d\n",i%331}' >"$tmpdir/seg-c.txt"
cat "$tmpdir/seg-a.txt" "$tmpdir/seg-b.txt" "$tmpdir/seg-c.txt" >"$tmpdir/all.txt"

worker_a_port=17271
worker_b_port=17272
cluster_port=17173
./target/release/dve worker --addr "127.0.0.1:$worker_a_port" \
    --segments "$tmpdir/seg-a.txt,$tmpdir/seg-b.txt" &
worker_a_pid=$!
./target/release/dve worker --addr "127.0.0.1:$worker_b_port" \
    --segments "$tmpdir/seg-c.txt" &
worker_b_pid=$!
./target/release/dve serve --addr "127.0.0.1:$cluster_port" \
    --cluster "127.0.0.1:$worker_a_port,127.0.0.1:$worker_b_port" &
cluster_pid=$!
trap 'kill "$worker_a_pid" "$worker_b_pid" "$cluster_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT

for _ in $(seq 1 50); do
    if curl -sf "http://127.0.0.1:$cluster_port/healthz" >"$tmpdir/chealth.json" 2>/dev/null; then
        break
    fi
    sleep 0.1
done
grep -q '"cluster_workers":2' "$tmpdir/chealth.json"

# Healthy sweep (retried while the workers finish binding).
for _ in $(seq 1 50); do
    curl -s -X POST "http://127.0.0.1:$cluster_port/v1/estimate" \
        -d '{"cluster":true,"fraction":1.0,"seed":7,"estimator":"AE"}' \
        >"$tmpdir/cluster.json" 2>/dev/null || true
    if grep -q '"answered":2' "$tmpdir/cluster.json"; then
        break
    fi
    sleep 0.1
done
grep -q '"cluster":{"workers":2,"answered":2,"segments":3,"retries":0,"skipped":\[\]}' \
    "$tmpdir/cluster.json"

# Byte-identity: strip the additive coverage object, compare against
# the single-node CLI on the concatenated table (same fraction, seed,
# estimator, and — via the wor merge — the same sample design).
stripped="$(sed -E 's/,"cluster":\{.*$/}/' "$tmpdir/cluster.json")"
single="$(./target/release/dve estimate --estimator AE --fraction 1.0 --seed 7 \
    --format json "$tmpdir/all.txt")"
test "$stripped" = "$single"

# Degraded sweep: SIGKILL worker B mid-flight; the sweep must retry,
# skip it, and still answer with the surviving worker's segments.
kill -9 "$worker_b_pid"
wait "$worker_b_pid" 2>/dev/null || true
curl -s -X POST "http://127.0.0.1:$cluster_port/v1/estimate" \
    -d '{"cluster":true,"fraction":1.0,"seed":7,"estimator":"AE"}' >"$tmpdir/degraded.json"
grep -q '"workers":2,"answered":1,"segments":2,"retries":1' "$tmpdir/degraded.json"
grep -q "\"skipped\":\[{\"worker\":\"127.0.0.1:$worker_b_port\"" "$tmpdir/degraded.json"

# The retry is visible on the coordinator's metrics, and the cluster
# family passes the exposition lint.
curl -sf "http://127.0.0.1:$cluster_port/metrics" >"$tmpdir/cluster-metrics.prom"
lint_prom "$tmpdir/cluster-metrics.prom"
grep -q '^cluster_retries_total [1-9]' "$tmpdir/cluster-metrics.prom"
grep -q '^cluster_worker_failures_total' "$tmpdir/cluster-metrics.prom"

# Clean drain: coordinator and the surviving worker exit 0 on SIGTERM.
kill -TERM "$cluster_pid"
cluster_rc=0
wait "$cluster_pid" || cluster_rc=$?
test "$cluster_rc" = 0
kill -TERM "$worker_a_pid"
worker_rc=0
wait "$worker_a_pid" || worker_rc=$?
test "$worker_rc" = 0
trap 'rm -rf "$tmpdir"' EXIT

# Statistics-catalog smoke: the same rows analyzed through the CLI
# (`analyze --save` → sidecar → `stats show`) and through the daemon
# (`POST /v1/analyze?save=true` → `GET /v1/stats/{table}`) must yield
# byte-identical TableStats JSON. Then append rows, refresh
# incrementally, assert only the coverage fields moved, and drop.
awk 'BEGIN{for(i=0;i<1200;i++)printf "v%d\n",i%60}' >"$tmpdir/cat.txt"
./target/release/dve import --out "$tmpdir/cat.dvet" --column city --type str "$tmpdir/cat.txt"
./target/release/dve analyze "$tmpdir/cat.dvet" --save --table cat \
    --fraction 0.5 --seed 11 >/dev/null
./target/release/dve stats show "$tmpdir/cat.dvet" >"$tmpdir/stats-cli.json"
grep -q '"table":"cat"' "$tmpdir/stats-cli.json"
grep -q '"row_count":1200' "$tmpdir/stats-cli.json"
grep -q '"increments":0' "$tmpdir/stats-cli.json"

cat_port=17174
./target/release/dve serve --addr "127.0.0.1:$cat_port" &
cat_pid=$!
trap 'kill "$cat_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for _ in $(seq 1 50); do
    if curl -sf "http://127.0.0.1:$cat_port/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done

# A lookup before anything is saved must be a structured 404 miss.
miss_code="$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$cat_port/v1/stats/cat")"
test "$miss_code" = 404

cat_vals="$(awk 'BEGIN{for(i=0;i<1200;i++)printf "%s\"v%d\"",(i?",":""),i%60}')"
curl -sf -X POST "http://127.0.0.1:$cat_port/v1/analyze?save=true&table=cat" \
    -d "{\"columns\":[{\"name\":\"city\",\"values\":[$cat_vals]}],\"fraction\":0.5,\"seed\":11,\"estimator\":\"AE\"}" \
    | grep -q '"saved":"cat"'
curl -sf "http://127.0.0.1:$cat_port/v1/stats/cat" >"$tmpdir/stats-http.json"
test "$(cat "$tmpdir/stats-cli.json")" = "$(cat "$tmpdir/stats-http.json")"

# The catalog instruments its traffic, and the new families pass the
# exposition lint.
curl -sf "http://127.0.0.1:$cat_port/metrics" >"$tmpdir/catalog-metrics.prom"
lint_prom "$tmpdir/catalog-metrics.prom"
grep -q '^catalog_full_analyzes_total 1' "$tmpdir/catalog-metrics.prom"
grep -q '^catalog_saves_total 1' "$tmpdir/catalog-metrics.prom"
grep -q '^catalog_hits_total 1' "$tmpdir/catalog-metrics.prom"
grep -q '^catalog_misses_total 1' "$tmpdir/catalog-metrics.prom"

kill -TERM "$cat_pid"
cat_rc=0
wait "$cat_pid" || cat_rc=$?
test "$cat_rc" = 0
trap 'rm -rf "$tmpdir"' EXIT

# Append 300 brand-new values (stale ratio 0.2 < 0.5) and refresh: the
# increment must fold in without a resample.
awk 'BEGIN{for(i=0;i<300;i++)printf "w%d\n",i}' >"$tmpdir/cat-new.txt"
./target/release/dve import --out "$tmpdir/cat.dvet" --append "$tmpdir/cat-new.txt"
./target/release/dve stats refresh "$tmpdir/cat.dvet" >"$tmpdir/refresh.out"
grep -q 'incremental' "$tmpdir/refresh.out"
grep -q '1500 rows' "$tmpdir/refresh.out"
./target/release/dve stats show "$tmpdir/cat.dvet" >"$tmpdir/stats-cli2.json"
grep -q '"row_count":1500' "$tmpdir/stats-cli2.json"
grep -q '"increments":1' "$tmpdir/stats-cli2.json"
grep -q '"rows_at_full_analyze":1200' "$tmpdir/stats-cli2.json"

# The refresh may only move the coverage fields (row_count,
# last_analyzed, increments) and the per-column artifacts: with those
# normalized/stripped, the before and after JSON headers are identical
# (same table, anchor, fraction, estimator, seed).
normalize_stats_header() {
    sed -E -e 's/"(row_count|last_analyzed|increments)":[0-9]+/"\1":N/g' \
        -e 's/"columns":\[.*$//' "$1"
}
test "$(normalize_stats_header "$tmpdir/stats-cli.json")" \
    = "$(normalize_stats_header "$tmpdir/stats-cli2.json")"

# Drop removes the sidecar; show must then fail.
./target/release/dve stats drop "$tmpdir/cat.dvet"
test ! -e "$tmpdir/cat.dvet.stats.json"
if ./target/release/dve stats show "$tmpdir/cat.dvet" >/dev/null 2>&1; then
    echo "stats show succeeded after drop" >&2
    exit 1
fi

# Accuracy regression gate: re-run the audit sweep and compare against
# the committed baseline (tolerances absorb RNG-stream and machine
# noise; real estimator regressions move these numbers far more). It
# runs last so that a failure here cannot hide the verdicts of the
# gates above; it still fails the script.
./target/release/dve audit --check BENCH_accuracy.json
