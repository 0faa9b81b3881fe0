#!/usr/bin/env python3
"""Compare two sets of perfbench runs: a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py run PARENT_DIR CHANGE_DIR OUT_DIR [--workload W ...]

A result file holds the standard output of one or more benchmark runs.
The tool reads each run's `{"record": ...}` line, and the
`{"failed_run": ...}` line that `run` writes after a run that exited
non-zero or printed no record. Runs are paired by (workload, seed); `run`
makes ten pairs per workload on seeds 0..9, with BENCHMARK.json's
`run_seconds`, alternating which side goes first.

Each (workload, end-to-end metric) is reported as
  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own quartile gap;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own quartile gap is wider than the bound and
              not every change run beats every parent run;
  unchanged   otherwise.
A run that failed, or a seed one side ran and the other has no record
of, counts as a failed run of that side. A workload whose change has
more failed runs, or fails more operations, than the parent is reported
as worse, and no gain counts on it. The exit code is 1 when any row is
worse or any workload of BENCHMARK.json has no pair.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def runs(path):
    """Per (workload, seed): the run's record, or None for a failed run."""
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith('{"record"'):
            rec = json.loads(line)["record"]
            out.setdefault((rec["workload"], rec["seed"]), rec)
        elif line.startswith('{"failed_run"'):
            f = json.loads(line)["failed_run"]
            out[(f["workload"], f["seed"])] = None
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(parent, change, bound, better):
    """Verdict for one (workload, metric) from paired per-run values."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gap = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > gap:
        return "improved", wins
    if -gain > bound * abs(p_med):
        return "worse", wins
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if gap > bound * abs(p_med) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(parent_path, change_path):
    bench = load_benchmark()
    parent, change = runs(parent_path), runs(change_path)
    worse = unpaired = False
    print(f"{'workload':<18} {'metric':<18} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>7}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        seeds = sorted({s for (n, s) in parent.keys() | change.keys() if n == name})
        p_failed = sum(1 for s in seeds if parent.get((name, s)) is None)
        c_failed = sum(1 for s in seeds if change.get((name, s)) is None)
        paired = [s for s in seeds if parent.get((name, s)) and change.get((name, s))]
        p_runs = [parent[(name, s)] for s in paired]
        c_runs = [change[(name, s)] for s in paired]
        n = len(paired)
        p_fail = sum(r["failed_frac"] for r in p_runs)
        c_fail = sum(r["failed_frac"] for r in c_runs)
        more_failures = c_failed > p_failed or c_fail > p_fail
        for m in bench["end_to_end"] if n else []:
            metric = m["name"]
            p = [r["end_to_end"][metric]["value"] for r in p_runs]
            c = [r["end_to_end"][metric]["value"] for r in c_runs]
            verdict, wins = judge(p, c, m["bound"], m["better"])
            if more_failures and verdict == "improved":
                verdict = "unchanged"
            worse |= verdict == "worse"
            pq, cq = quartiles(p), quartiles(c)
            print(f"{name:<18} {metric:<18} "
                  f"{pq[1]:>14.6g} [{pq[0]:.6g}, {pq[2]:.6g}] "
                  f"{cq[1]:>14.6g} [{cq[0]:.6g}, {cq[2]:.6g}] "
                  f"{wins:>3}/{n:<3}  {verdict}")
        worse |= more_failures
        print(f"{name:<18} {'failed runs':<18} {p_failed:>34} {c_failed:>34} "
              f"{'':>7}  {'worse' if c_failed > p_failed else 'unchanged'}")
        if n:
            print(f"{name:<18} {'failed_frac':<18} {p_fail / n:>34.6g} "
                  f"{c_fail / n:>34.6g} {'':>7}  "
                  f"{'worse' if c_fail > p_fail else 'unchanged'}")
        if n == 0:
            unpaired = True
            print(f"{name:<18} no pair of runs on the same seed")
        elif n < MIN_PAIRS:
            print(f"{name:<18} only {n} pairs: no gain can be claimed below {MIN_PAIRS}")
    return 1 if worse or unpaired else 0


def run(parent_dir, change_dir, out_dir, workloads):
    """Alternating pairs: pair i runs both sides on seed i, parent first
    on even pairs and the change first on odd ones."""
    bench = load_benchmark()
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {side: open(out_dir / f"{side}.jsonl", "w") for side in ("parent", "change")}
    sides = {"parent": parent_dir, "change": change_dir}
    for i in range(MIN_PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                cmd = bench["command"] + ["--workload", w, "--seed", str(i),
                                          "--seconds", str(bench["run_seconds"]),
                                          "--trace", "0"]
                p = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
                files[side].write(p.stdout)
                if p.returncode != 0 or '{"record"' not in p.stdout:
                    failed = {"workload": w, "seed": i, "exit": p.returncode}
                    files[side].write(json.dumps({"failed_run": failed}) + "\n")
                files[side].flush()
                print(f"pair {i} {w} {side}: exit {p.returncode}", file=sys.stderr)
    for f in files.values():
        f.close()
    return compare(out_dir / "parent.jsonl", out_dir / "change.jsonl")


def main(argv):
    if len(argv) >= 4 and argv[0] == "run":
        rest, workloads = argv[4:], []
        while rest:
            if rest[0] != "--workload" or len(rest) < 2:
                sys.exit(__doc__)
            workloads.append(rest[1])
            rest = rest[2:]
        return run(argv[1], argv[2], argv[3], workloads)
    if len(argv) == 2:
        return compare(argv[0], argv[1])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
