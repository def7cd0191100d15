#!/usr/bin/env bash
# Turn the pair tables of the EXPERIMENTS.md sections from "One grid
# per imaging run" to "A degrid pass reads only the footprints it uses"
# (the runs made before `--record` existed) into BENCH_trajectory.jsonl
# lines, in the layout `tools/bench_pairs.sh --record` writes, plus a
# "source" field naming the section.
#
#   tools/backfill_trajectory.sh [EXPERIMENTS.md] > backfill.jsonl
#
# A table row is a line of a ```text block that ends in a verdict. Its
# revs come from the block's `parent X, change = working tree of X`
# line (change_rev "X+dirty", as --record writes a working tree); a
# block without that line gets null revs. Seed and seconds come from the
# block's `pairs N, --seconds S, --seed K` line, else from the last seed
# and --seconds the section's prose named before the block (null if
# none). Pairs are the wins column's denominator. Older rows have no
# ratio column (10 fields, not 11): their ratio is null.
set -euo pipefail

awk '
    function jstr(s) { return s == "" ? "null" : "\"" s "\"" }
    function jnum(s) { return s == "" ? "null" : s }
    /^## / {
        title = substr($0, 4)
        if (title ~ /^One grid per imaging run/) inside = 1
        else if (last) inside = 0
        last = (title ~ /^A degrid pass reads only the footprints it uses/)
        ctx_seed = ""; ctx_secs = ""
        next
    }
    !inside { next }
    /^```text/ { inblock = 1; prev = ""; crev = ""; seed = ctx_seed; secs = ctx_secs; next }
    /^```/ { inblock = 0; next }
    !inblock {
        line = $0
        while (match(line, /[Ss]eed [0-9]+/)) {
            ctx_seed = substr(line, RSTART + 5, RLENGTH - 5); line = substr(line, RSTART + RLENGTH)
        }
        if (match($0, /--seconds [0-9]+/)) ctx_secs = substr($0, RSTART + 10, RLENGTH - 10)
        next
    }
    /^parent [0-9a-f]+, change = working tree of [0-9a-f]+;/ {
        prev = $2; sub(",", "", prev); crev = $8; sub(";", "", crev); crev = crev "+dirty"
        next
    }
    /^pairs [0-9]+, --seconds [0-9]+, --seed [0-9]+;/ {
        secs = $4; sub(",", "", secs); seed = $6; sub(";", "", seed)
        next
    }
    $NF ~ /^(gain|flat|regression|unresolved)$/ {
        row = $0; gsub(/[()]/, " ", row); n = split(row, f, " ")
        if (n != 10 && n != 11) next
        ratio_col = n - 10
        split(f[4], pq, "-"); split(f[6], cq, "-")
        split(f[8 + ratio_col], w, "/")
        printf "{\"workload\": \"%s\", \"metric\": \"%s\", \"parent_rev\": %s, " \
            "\"change_rev\": %s, \"seed\": %s, \"seconds\": %s, \"pairs\": %d, " \
            "\"parent\": {\"median\": %s, \"q1\": %s, \"q3\": %s}, " \
            "\"change\": {\"median\": %s, \"q1\": %s, \"q3\": %s}, " \
            "\"ratio\": %s, \"wins\": %d, \"bound\": %s, \"verdict\": \"%s\", \"source\": %s}\n",
            f[1], f[2], jstr(prev), jstr(crev), jnum(seed), jnum(secs), w[2],
            f[3], pq[1], pq[2], f[5], cq[1], cq[2], ratio_col ? f[8] : "null",
            w[1], f[9 + ratio_col], f[10 + ratio_col], jstr("EXPERIMENTS.md: " title)
    }
' "${1:-EXPERIMENTS.md}"
