#!/usr/bin/env bash
# Keeps BENCH_serve.json, the committed perf trajectory of the serve
# benchmark: one record per workload per change, holding the medians of the
# end-to-end metrics BENCHMARK.json gates (name, value, unit) plus the median
# `recover_s` (null where it was not recorded).
#
#   bash scripts/bench-trajectory.sh --pr N OUT ERR [OUT ERR ...]
#       Appends one record per workload, the medians over the given
#       servebench runs of that workload, with the short HEAD commit and
#       source "local". OUT is a run's standard output (its last line is
#       the JSON report), ERR its standard error (the readable report,
#       which names the workload and `recover_s`). Runs that were not
#       correct are refused.
#   bash scripts/bench-trajectory.sh --check
#       Validates every record: known workload, at most one record per
#       change, workload and source, and exactly the gated metrics of
#       BENCHMARK.json's `end_to_end`, each with its unit.
#
# The script only reads the output of runs made beforehand; it never builds
# or runs servebench. Needs jq.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
trajectory="$root/BENCH_serve.json"
benchmark="$root/BENCHMARK.json"

usage() {
    sed -n '7,17p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

# Prints one line per invalid record of the trajectory file given as $1.
problems() {
    jq -r --slurpfile bench "$benchmark" '
        ($bench[0].end_to_end | map({(.name): .unit}) | add) as $units
        | ($bench[0].workloads | map(.name)) as $workloads
        | (.records | to_entries[] | .key as $i | .value as $r
           | ($r.metrics // {}) as $m
           | (if ($r.pr | type) != "number" then "record \($i): pr is not a number" else empty end),
             (if ($r.commit | type) != "string" then "record \($i): commit is not a string" else empty end),
             (if ($r.source | type) != "string" then "record \($i): source is not a string" else empty end),
             (if ($workloads | index($r.workload)) == null
              then "record \($i): unknown workload \($r.workload)" else empty end),
             (if ($m | keys) != ($units | keys)
              then "record \($i): metrics \($m | keys) differ from the gated \($units | keys)" else empty end),
             ($m | to_entries[]
              | select($units[.key] != null and .value.unit != $units[.key])
              | "record \($i): \(.key) is in \(.value.unit), BENCHMARK.json says \($units[.key])"),
             ($m | to_entries[]
              | select((.value.value | type) != "number")
              | "record \($i): \(.key) has no numeric value"),
             (if $r.recover_s != null and ($r.recover_s | type) != "number"
              then "record \($i): recover_s is neither a number nor null" else empty end)),
          (.records | group_by([.pr, .workload, .source])[] | select(length > 1)
           | "PR \(.[0].pr) has \(length) \(.[0].source) records for \(.[0].workload)")
    ' "$1"
}

check() {
    local found
    found="$(problems "$1")"
    if [[ -n "$found" ]]; then
        echo "$found" >&2
        echo "$(basename "$1") fails the trajectory checks above." >&2
        return 1
    fi
}

if [[ "${1:-}" == "--check" ]]; then
    [[ $# -eq 1 ]] || usage
    check "$trajectory"
    echo "BENCH_serve.json: $(jq '.records | length' "$trajectory") records match BENCHMARK.json."
    exit 0
fi

[[ "${1:-}" == "--pr" && "${2:-}" =~ ^[0-9]+$ ]] || usage
pr="$2"
shift 2
[[ $# -gt 0 && $(($# % 2)) -eq 0 ]] || usage
commit="$(git -C "$root" rev-parse --short HEAD)"

# One object per run: its workload, its gated metrics and its recover_s.
runs="[]"
while [[ $# -gt 0 ]]; do
    out="$1" err="$2"
    shift 2
    [[ -f "$out" && -f "$err" ]] || usage
    report="$(grep -v '^[[:space:]]*$' "$out" | tail -n 1)"
    workload="$(sed -nE 's/^servebench: ([a-z_]+): .*/\1/p' "$err" | head -n 1)"
    recover="$(sed -nE 's/^servebench: [a-z_]+:? recover_s = ([0-9.eE+-]+) s.*/\1/p' "$err" | tail -n 1)"
    if [[ -z "$workload" ]]; then
        echo "$err: no 'servebench: <workload>:' report line" >&2
        exit 1
    fi
    run="$(jq -c -n --argjson report "$report" --slurpfile bench "$benchmark" \
        --arg workload "$workload" --arg recover "$recover" --arg out "$out" '
        if $report.correct != true or $report.failed != 0
        then error("\($out): the run was not correct (\($report.failed) failed)") else . end
        | if ($bench[0].workloads | map(.name) | index($workload)) == null
          then error("\($out): \($workload) is not a workload of BENCHMARK.json") else . end
        | {workload: $workload,
           metrics: ($bench[0].end_to_end
                     | map(.name as $n
                           | {($n): ($report.metrics[$n]
                                     // error("\($out): no \($n); was this a --trace 0 run?"))})
                     | add),
           recover_s: (if $recover == "" then null else ($recover | tonumber) end)}')"
    runs="$(jq -c --argjson run "$run" '. + [$run]' <<<"$runs")"
done

# One record per workload, in BENCHMARK.json's order, of the runs' medians.
records="$(jq -c -n --argjson runs "$runs" --slurpfile bench "$benchmark" \
    --argjson pr "$pr" --arg commit "$commit" '
    def median: sort | length as $n
        | if $n == 0 then null
          elif $n % 2 == 1 then .[($n - 1) / 2]
          else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
    [$bench[0].workloads[].name as $w
     | [$runs[] | select(.workload == $w)]
     | select(length > 0)
     | . as $of
     | {pr: $pr, commit: $commit, workload: $w, source: "local",
        metrics: ($of[0].metrics | keys_unsorted
                  | map(. as $n
                        | {($n): {value: ($of | map(.metrics[$n].value) | median),
                                  unit: $of[0].metrics[$n].unit}})
                  | add),
        recover_s: ($of | map(.recover_s | select(. != null)) | median)}]')"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
jq --argjson new "$records" '.records += $new' "$trajectory" > "$tmp"
check "$tmp"
mv "$tmp" "$trajectory"
trap - EXIT
echo "appended $(jq 'length' <<<"$records") records to BENCH_serve.json"
