"""Append a trajectory entry: two interleaved sets of benchmark runs, each
with one traced run per workload, summarised against BENCHMARK.json.

Run from the repository root:
    python3 perfsuite/record_history.py perfsuite/history/NNNN-name.json "what changed" [RUNS]

RUNS (default 10) runs per workload per set; set A uses seeds 1..RUNS,
set B seeds RUNS+1..2*RUNS, and the two alternate run by run so both see
the same machine. For every metric a run prints (`workload metric value
unit` lines, bounded or not) the entry records the median, quartiles and
spread (interquartile range / median) per set. For the metrics of
BENCHMARK.json it records whether each set's spread stays within a third
of the bound and whether set B's median is within the bound of set A's.
Work counts must repeat exactly: `work_mdyn` across every run of a
workload, and the counts of the two traced runs (one per set) against each
other. The script exits non-zero if a count differs.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

# Per-layer metrics that count work and must repeat exactly.
COUNTS = ("golden.dyn_instr", "eqclass.classes", "prover.proved",
          "replay.injections", "replay.work_mdyn", "sensitivity.work_mdyn",
          "knapsack.items", "knapsack.dp_cells", "store.appended", "work_mdyn")


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct") or result.get("failed"):
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr[-2000:]}")
    values = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            try:
                values[fields[1]] = float(fields[2])
            except ValueError:
                pass
    values.update({name: m["value"] for name, m in result["metrics"].items()})
    return values


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    path, note = sys.argv[1], sys.argv[2]
    runs = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    raw = {s: {w: [] for w in workloads} for s in "AB"}
    for k in range(1, runs + 1):
        for w in workloads:
            for s, seed in (("A", k), ("B", runs + k)):
                raw[s][w].append(run(bench, w, seed, 0))
                print(f"set {s} {w} seed {seed} done", flush=True)
    sets = {
        s: {w: {m: summary([r[m] for r in raw[s][w]]) for m in sorted(raw[s][w][0])}
            for w in workloads}
        for s in "AB"
    }
    checks, mismatches = {}, []
    for w in workloads:
        for m in bench["end_to_end"]:
            a, b = sets["A"][w][m["name"]], sets["B"][w][m["name"]]
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            checks[f"{w} {m['name']}"] = {
                "bound": m["bound"], "spread_A": a["spread"], "spread_B": b["spread"],
                "steady": max(a["spread"], b["spread"]) < m["bound"] / 3,
                "change": worse, "within": worse <= m["bound"]}
        work = {r["work_mdyn"] for s in "AB" for r in raw[s][w]}
        if len(work) != 1:
            mismatches.append(f"{w} work_mdyn: {sorted(work)}")
    trace = {s: {w: run(bench, w, seed, 1) for w in workloads}
             for s, seed in (("A", 1), ("B", runs + 1))}
    for w in workloads:
        for c in COUNTS:
            if trace["A"][w][c] != trace["B"][w][c]:
                mismatches.append(f"{w} {c}: {trace['A'][w][c]} vs {trace['B'][w][c]}")
    entry = {
        "note": note,
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "run_seconds": bench["run_seconds"],
        "runs_per_set": runs,
        "sets": sets,
        "checks": checks,
        "count_mismatches": mismatches,
        "trace": trace,
    }
    with open(path, "w") as f:
        json.dump(entry, f, indent=1, sort_keys=True)
        f.write("\n")
    unsteady = [k for k, v in checks.items() if not v["steady"]]
    outside = [k for k, v in checks.items() if not v["within"]]
    print(f"wrote {path}")
    print(f"spread not below a third of the bound: {unsteady or 'none'}")
    print(f"set B median worse than set A's by more than the bound: {outside or 'none'}")
    print(f"counts that did not repeat: {mismatches or 'none'}")
    sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
