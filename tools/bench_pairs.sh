#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark, with the
# verdict rule of the choosing-metrics guide (section 8).
#
#   tools/bench_pairs.sh <parent-rev> [--pairs 10] [--seconds 20]
#                        [--seed 42] [--workloads "ska_dense major_cycle"]
#
# "parent" is <parent-rev>, exported with `git archive`; "change" is the
# working tree this script is run from (commit or not, as it stands).
# Each side is built once into its own CARGO_TARGET_DIR and run through
# its *own* `benchmark/run.sh --workload W --seed S --seconds T --trace 0`;
# pair p runs the parent first when p is odd and the change first when it
# is even. Everything lands under target/bench_pairs/ (not committed):
# the parent export, the two target dirs, and every raw result line in
# runs/<stamp>/<workload>.<side>.jsonl (line p = pair p).
#
# Printed per workload x end-to-end metric (names, directions and bounds
# read from BENCHMARK.json): both medians with quartiles, the change of
# the median, pairs won, the bound and a verdict:
#   gain        change better in >= 9/10 of the pairs (ties count for
#               neither side) and the medians differ by more than the
#               distance between the parent's quartiles
#   unresolved  else: either side's run-to-run spread (quartile distance
#               / median / sqrt(n), as `benchmark --compare` takes it) is
#               wider than the bound, and not every change run beats
#               every parent run
#   regression  else: change median worse than the parent's by more than
#               the bound
#   flat        otherwise
# (no verdict under five pairs; a claim needs ten).
# Exit status: 0, or 1 if any run was not `correct` or any row reads
# `regression`.
set -euo pipefail

usage() {
    sed -n '2,8p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'
    exit 2
}

[[ $# -ge 1 && $1 != -* ]] || usage
parent_rev=$1
shift
pairs=10 seconds=20 seed=42 workloads=""
while [[ $# -gt 0 ]]; do
    case $1 in
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --seed) seed=$2 ;;
        --workloads) workloads=$2 ;;
        *) usage ;;
    esac
    shift 2
done

repo=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
cd "$repo"
rev=$(git rev-parse --short=12 "${parent_rev}^{commit}")
root="$repo/target/bench_pairs"
parent_src="$root/parent-$rev"
runs="$root/runs/$(date +%Y%m%dT%H%M%S)-$rev-seed$seed"
mkdir -p "$runs"

if [[ ! -d $parent_src ]]; then
    mkdir -p "$parent_src.tmp"
    git archive "$rev" | tar -x -C "$parent_src.tmp"
    mv "$parent_src.tmp" "$parent_src"
fi

# entries <array> <field>... : those fields of every entry of the array
# "<array>" in BENCHMARK.json, one entry per line (as the file has them)
entries() {
    awk -v key="\"$1\"" -v fields="${*:2}" '
        function val(name,    s) {
            s = $0
            if (!sub(".*\"" name "\": \"?", "", s)) return ""
            sub("[\",}].*", "", s)
            return s
        }
        $0 ~ key { on = 1; next }
        on && /^ *\]/ { on = 0 }
        on {
            n = split(fields, f, " ")
            for (i = 1; i <= n; i++) printf "%s%s", val(f[i]), i < n ? " " : "\n"
        }' BENCHMARK.json
}
[[ -n $workloads ]] || workloads=$(entries workloads name | tr '\n' ' ')
metrics=$(entries end_to_end name better bound)

side_src() { [[ $1 == parent ]] && echo "$parent_src" || echo "$repo"; }
side_run() { # side_run <side> <args...> : that side's run.sh, its own target dir
    local side=$1
    shift
    CARGO_TARGET_DIR="$root/target-$side" bash "$(side_src "$side")/benchmark/run.sh" "$@"
}

echo "parent $rev, change = working tree of $(git rev-parse --short=12 HEAD); nproc $(nproc)"
echo "pairs $pairs, --seconds $seconds, --seed $seed; raw lines in ${runs#"$repo"/}"
for side in parent change; do
    echo "building $side ..."
    side_run "$side" --list > /dev/null
done

printf '%-16s %-18s %30s %30s %8s %6s %6s  %s\n' workload metric \
    "parent median (q1-q3)" "change median (q1-q3)" change wins bound verdict
status=0
for w in $workloads; do
    for ((p = 1; p <= pairs; p++)); do
        if ((p % 2)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            line=$(side_run "$side" --workload "$w" --seed "$seed" --seconds "$seconds" \
                --trace 0 2> "$runs/$w.$side.stderr" | tail -n 1) || true
            echo "${line:-"{}"}" >> "$runs/$w.$side.jsonl"
        done
        echo "  $w: pair $p/$pairs done" >&2
    done

    for side in parent change; do
        bad=$(grep -vc '"correct": true, .*"failed": 0,' "$runs/$w.$side.jsonl" || true)
        if ((bad > 0)); then
            echo "$w: $bad $side run(s) not correct or with failed operations"
            status=1
        fi
    done

    echo "$metrics" | awk -v w="$w" -v pf="$runs/$w.parent.jsonl" -v cf="$runs/$w.change.jsonl" '
        function value(line, name,    s) {
            s = line
            if (!sub(".*\"" name "\": \\{\"value\": ", "", s)) return "nan"
            sub("[,}].*", "", s)
            return s + 0
        }
        # quartiles as Python statistics.quantiles(v, n=4) cuts them
        # (benchmark/src/stats.rs); v[1..n] sorted ascending
        function quart(v, n, i,    j, d) {
            if (n == 1) return v[1]
            j = int(i * (n + 1) / 4)
            if (j < 1) j = 1
            if (j > n - 1) j = n - 1
            d = i * (n + 1) - j * 4
            return (v[j] * (4 - d) + v[j + 1] * d) / 4
        }
        function sorted(src, n, dst,    i, j, x) {
            for (i = 1; i <= n; i++) {
                x = src[i]
                for (j = i - 1; j >= 1 && dst[j] > x; j--) dst[j + 1] = dst[j]
                dst[j + 1] = x
            }
        }
        BEGIN {
            while ((getline line < pf) > 0) praw[++np] = line
            while ((getline line < cf) > 0) craw[++nc] = line
            n = np < nc ? np : nc
        }
        {
            name = $1; lower = ($2 == "lower"); bound = $3 + 0
            wins = 0
            for (i = 1; i <= n; i++) {
                a[i] = value(praw[i], name); b[i] = value(craw[i], name)
                if (lower ? b[i] < a[i] : b[i] > a[i]) wins++
            }
            sorted(a, n, sa); sorted(b, n, sb)
            am = quart(sa, n, 2); bm = quart(sb, n, 2)
            aiqr = quart(sa, n, 3) - quart(sa, n, 1); biqr = quart(sb, n, 3) - quart(sb, n, 1)
            better = lower ? am - bm : bm - am          # > 0: change better
            worse_by = am != 0 ? -better / (am < 0 ? -am : am) : 0
            spread_a = am != 0 ? aiqr / (am < 0 ? -am : am) / sqrt(n) : 0
            spread_b = bm != 0 ? biqr / (bm < 0 ? -bm : bm) / sqrt(n) : 0
            all_better = lower ? sb[n] < sa[1] : sb[1] > sa[n]
            if (n < 5) verdict = "too-few-pairs"
            else if (better > 0 && wins >= 0.9 * n && better > aiqr) verdict = "gain"
            else if ((spread_a > bound || spread_b > bound) && !all_better) verdict = "unresolved"
            else if (worse_by > bound) verdict = "regression"
            else verdict = "flat"
            if (verdict == "regression") bad = 1
            printf "%-16s %-18s %12.4g (%7.4g-%-7.4g) %12.4g (%7.4g-%-7.4g) %+7.1f%% %3d/%-2d %6.2f  %s\n",
                w, name, am, quart(sa, n, 1), quart(sa, n, 3), bm, quart(sb, n, 1), quart(sb, n, 3),
                am != 0 ? 100 * (bm - am) / am : 0, wins, n, bound, verdict
        }
        END { exit bad }' || status=1
done
exit $status
