#!/bin/sh
# Blocking perf gate. Runs the resoc benchmark (benchmark/README.md) for one
# second per workload and compares the rows that do not depend on the host:
# alloc_b_per_req, heap_peak_mb, sim_p50_cycles and sim_p99_cycles on all
# five workloads, against bench/perf_baseline.tsv. Exits 1 on any row that
# regressed or is unresolved, and on any baseline row the run lacks. Rows
# that improved past their bound are listed as a stale baseline, without
# failing the gate. des.events_per_req, on the four in-process workloads,
# must equal its baseline exactly: the simulation is deterministic, so an
# engine change that fires one event more or less per run fails the gate.
# Allocation counts are only comparable on one compiler version.
#
# Usage, from the repository root: sh bench/perf_gate.sh
# Refresh the baseline: cp _perf/current.tsv bench/perf_baseline.tsv
set -e
sh benchmark/run.sh --seconds 1
mkdir -p _perf
awk -F '\t' 'NR == 1 || $2 ~ /^(alloc_b_per_req|heap_peak_mb|sim_p50_cycles|sim_p99_cycles|des\.events_per_req)$/' \
  BENCH_RESULTS.tsv >_perf/current.tsv
status=0
./_build/default/benchmark/resoc_bench.exe --compare bench/perf_baseline.tsv _perf/current.tsv \
  >_perf/compare.txt || status=1
# A row that improved past its bound means the baseline is stale: it would
# let that metric grow back by as much unnoticed. List such rows under a
# note in the comparison (CI shows it in the job summary); this does not
# change the exit status.
stale=$(grep -E ' improved$' _perf/compare.txt || true)
if [ -n "$stale" ]; then
  printf '\nbaseline is stale; refresh it (cp _perf/current.tsv bench/perf_baseline.tsv):\n%s\n' \
    "$stale" >>_perf/compare.txt
fi
cat _perf/compare.txt
if grep -Eq ' (regressed|unresolved)$' _perf/compare.txt; then status=1; fi
# --compare skips baseline rows the current file lacks, so look for them here.
if ! awk -F '\t' 'NR == FNR { seen[$1 FS $2]; next }
    !(($1 FS $2) in seen) { print "missing from the current run: " $1 " " $2; bad = 1 }
    END { exit bad }' _perf/current.tsv bench/perf_baseline.tsv; then
  status=1
fi
# Exact rows: the value column must match the baseline's text.
if ! awk -F '\t' 'NR == FNR { value[$1 FS $2] = $3; next }
    $2 == "des.events_per_req" && ($1 FS $2) in value && value[$1 FS $2] != $3 {
      print "changed: " $1 " " $2 " " $3 " -> " value[$1 FS $2]; bad = 1 }
    END { exit bad }' _perf/current.tsv bench/perf_baseline.tsv; then
  status=1
fi
exit $status
