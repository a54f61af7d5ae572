#!/bin/sh
# A/B comparison of the working tree against a base revision on one
# benchmark workload:
#
#   ci/ab.sh <base-rev> <workload> [pairs]     # pairs defaults to 10
#
# Extracts <base-rev> and the working tree (untracked files included,
# ignored ones left out) into two temporary checkouts, then runs
# `bash benchmark/run.sh --workload <workload> --trace 0` in each, pairs
# times, alternating which side runs first. For every end-to-end metric
# of BENCHMARK.json it prints each side's median and quartiles, how many
# pairs the change won (ties count for neither side), two readings, and
# then every pair's (base, change) values:
#
#   verdict  better when the change wins at least 9 of 10 pairs and its
#            median beats the base's by more than the base's interquartile
#            range; worse, symmetrically, when it loses that way; same
#            otherwise.
#   bound    over when the change's median is worse than the base's by
#            more than the metric's bound; unresolved when the base's own
#            interquartile range, relative to its median, is wider than
#            the bound and not every change run beats every base run;
#            within otherwise.
#
# Exits 1 when any metric reads worse or over. Run from anywhere inside
# the repository.
set -eu

usage() {
    echo "usage: ci/ab.sh <base-rev> <workload> [pairs]" >&2
    exit 2
}
[ $# -ge 2 ] && [ $# -le 3 ] || usage
base_rev=$1
workload=$2
pairs=${3:-10}
case $pairs in '' | *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage

root=$(git rev-parse --show-toplevel)
base_commit=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/base" "$tmp/change"
git -C "$root" archive "$base_commit" | tar -x -C "$tmp/base"
# Snapshot the working tree through a throwaway index, so the
# repository's own index is never touched.
GIT_INDEX_FILE="$tmp/index" git -C "$root" read-tree HEAD
GIT_INDEX_FILE="$tmp/index" git -C "$root" add -A
tree=$(GIT_INDEX_FILE="$tmp/index" git -C "$root" write-tree)
git -C "$root" archive "$tree" | tar -x -C "$tmp/change"

# run_side SIDE PAIR appends "SIDE PAIR metric value" lines, parsed from
# the JSON object the benchmark prints as its last line, to $tmp/samples.
run_side() {
    log="$tmp/$1-$2.log"
    if ! (cd "$tmp/$1" && bash benchmark/run.sh --workload "$workload" --trace 0) >"$log" 2>&1; then
        echo "ab: $1 run of pair $2 failed:" >&2
        tail -n 20 "$log" >&2
        exit 1
    fi
    tail -n 1 "$log" | awk -v side="$1" -v pair="$2" '
        /"correct":false/ { print "ab: " side " run of pair " pair " failed its correctness check" > "/dev/stderr" }
        {
            s = $0
            while (match(s, /"[A-Za-z0-9_]+":\{"value":[^,}]*/)) {
                m = substr(s, RSTART, RLENGTH)
                s = substr(s, RSTART + RLENGTH)
                name = m; sub(/^"/, "", name); sub(/".*/, "", name)
                val = m; sub(/.*"value":/, "", val)
                print side, pair, name, val
            }
        }' >>"$tmp/samples"
}

echo "ab: $workload, base $(git -C "$root" rev-parse --short "$base_commit") against the working tree, $pairs pairs"
: >"$tmp/samples"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        first=base second=change
    else
        first=change second=base
    fi
    echo "ab: pair $i/$pairs ($first first)"
    run_side "$first" "$i"
    run_side "$second" "$i"
    i=$((i + 1))
done

awk -v pairs="$pairs" '
    # Pass 1: BENCHMARK.json, the end_to_end entries only.
    FNR == NR {
        if ($0 ~ /"end_to_end"/) { in_e2e = 1; next }
        if (in_e2e && $0 ~ /^  "[a-z_]+": *\[/) in_e2e = 0
        if (!in_e2e) next
        if ($0 ~ /"name":/) { v = $0; sub(/.*"name": *"/, "", v); sub(/".*/, "", v); name = v; order[++nm] = v }
        if ($0 ~ /"better":/) { v = $0; sub(/.*"better": *"/, "", v); sub(/".*/, "", v); better[name] = v }
        if ($0 ~ /"bound":/) { v = $0; sub(/.*"bound": */, "", v); sub(/[ ,].*/, "", v); bound[name] = v + 0 }
        next
    }
    # Pass 2: samples.
    { val[$1, $3, $2] = $4 + 0; seen[$1, $3, $2] = 1 }

    function collect(side, m,    p, n) {
        n = 0
        for (p = 1; p <= pairs; p++)
            if ((side, m, p) in seen) xs[++n] = val[side, m, p]
        return n
    }
    function sort(n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && xs[j - 1] > xs[j]; j--) { t = xs[j]; xs[j] = xs[j - 1]; xs[j - 1] = t }
    }
    # Python statistics.quantiles(n=4) exclusive method, as the benchmark
    # computes its own quartiles.
    function cut(n, i,    m, j, d) {
        m = n + 1
        j = int(i * m / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        d = i * m - j * 4
        return (xs[j] * (4 - d) + xs[j + 1] * d) / 4
    }
    function stats(side, m,    n) {
        n = collect(side, m)
        if (n == 0) return 0
        sort(n)
        lo[side] = xs[1]; hi[side] = xs[n]
        med[side] = (n % 2) ? xs[(n + 1) / 2] : (xs[n / 2] + xs[n / 2 + 1]) / 2
        if (n == 1) { q1[side] = q3[side] = xs[1] } else { q1[side] = cut(n, 1); q3[side] = cut(n, 3) }
        return n
    }
    function abs(x) { return x < 0 ? -x : x }

    END {
        need = int((9 * pairs + 9) / 10)
        printf "%-14s %-6s  %-32s  %-32s  %5s  %-7s %s\n", "metric", "better", "base median [q1, q3]", "change median [q1, q3]", "wins", "verdict", "bound"
        bad = 0
        for (k = 1; k <= nm; k++) {
            m = order[k]
            if (!stats("base", m) || !stats("change", m)) {
                printf "%-14s (not reported)\n", m
                continue
            }
            sign = better[m] == "higher" ? 1 : -1
            wins = losses = 0
            for (p = 1; p <= pairs; p++) {
                if (!(("base", m, p) in seen) || !(("change", m, p) in seen)) continue
                d = sign * (val["change", m, p] - val["base", m, p])
                if (d > 0) wins++
                else if (d < 0) losses++
            }
            gain = sign * (med["change"] - med["base"])
            iqr = q3["base"] - q1["base"]
            verdict = "same"
            if (wins >= need && gain > iqr) verdict = "better"
            if (losses >= need && -gain > iqr) verdict = "worse"

            separated = sign > 0 ? lo["change"] > hi["base"] : hi["change"] < lo["base"]
            if (med["base"] != 0) { rel = -gain / abs(med["base"]); spread = iqr / abs(med["base"]) }
            else { rel = gain < 0 ? 1e300 : 0; spread = iqr > 0 ? 1e300 : 0 }
            reading = "within"
            if (rel > bound[m]) reading = "over"
            else if (spread > bound[m] && !separated) reading = "unresolved"
            if (verdict == "worse" || reading == "over") bad = 1

            pct = med["base"] != 0 ? 100 * (med["change"] - med["base"]) / abs(med["base"]) : 0
            printf "%-14s %-6s  %-32s  %-32s  %2d/%-2d  %-7s %s (median %+.1f%%, bound %.0f%%)\n", m, better[m],
                sprintf("%.4g [%.4g, %.4g]", med["base"], q1["base"], q3["base"]),
                sprintf("%.4g [%.4g, %.4g]", med["change"], q1["change"], q3["change"]),
                wins, pairs, verdict, reading, pct, 100 * bound[m]
        }
        print "\npairs (base, change):"
        for (k = 1; k <= nm; k++) {
            m = order[k]
            if (!stats("base", m) || !stats("change", m)) continue
            printf "%-14s", m
            for (p = 1; p <= pairs; p++)
                printf " (%.4g, %.4g)", val["base", m, p], val["change", m, p]
            printf "\n"
        }
        exit bad
    }' "$tmp/change/BENCHMARK.json" "$tmp/samples"
