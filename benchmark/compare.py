#!/usr/bin/env python3
"""Compare two sets of benchmark results files (benchmark/run.sh output).

Each argument is a results file or a directory of them.  For every
(workload, end-to-end metric) the script prints each set's median and
quartiles and a verdict, using the bounds and directions in BENCHMARK.json:

  worse          the new median is worse than the base median by more
                 than the metric's bound (a regression);
  better         the new set wins at least 9 of every 10 pairs (runs
                 paired by seed, else by order) and the medians differ by
                 more than the base set's interquartile range;
  unresolved     neither, and the run-to-run spread of a set exceeds the
                 bound, so "unchanged" cannot be told apart from noise;
  within bound   otherwise.

Traced results (--trace 1 runs) get their per-layer medians printed side by
side without a verdict.  The script exits 1 on any regression, on any rise
in a workload's error rate, or when two runs of one workload and seed
disagree on the output digest.  stdlib only, like scripts/gen_trace.py:

  benchmark/compare.py base-results/ new-results/
  benchmark/compare.py --json summary.json base-results/ new-results/
"""

import argparse
import json
import os
import statistics
import sys

CATALOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "BENCHMARK.json")


def load_results(path):
    files = []
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))
                 if f.endswith(".json")]
    else:
        files = [path]
    runs = []
    for name in files:
        with open(name) as f:
            run = json.load(f)
        run["_file"] = name
        runs.append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def paired(base, new):
    """Pairs runs by seed when both sets ran the same seeds, else by order."""
    base_seeds = [r["seed"] for r in base]
    new_seeds = [r["seed"] for r in new]
    if sorted(base_seeds) == sorted(new_seeds) and \
            len(set(base_seeds)) == len(base_seeds):
        by_seed = {r["seed"]: r for r in new}
        return [(b, by_seed[b["seed"]]) for b in base]
    return list(zip(base, new))


def verdict(metric, base, new):
    """Returns (verdict, summary dict) for one metric over paired runs."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    b_vals = [r["metrics"][name]["value"] for r in base]
    n_vals = [r["metrics"][name]["value"] for r in new]
    b_q1, b_med, b_q3 = quartiles(b_vals)
    n_q1, n_med, n_q3 = quartiles(n_vals)
    gain = sign * (n_med - b_med) / b_med  # > 0 means the new set is better
    pairs = paired(base, new)
    wins = sum(1 for b, n in pairs
               if sign * (n["metrics"][name]["value"] -
                          b["metrics"][name]["value"]) > 0)
    spread = max((b_q3 - b_q1) / b_med, (n_q3 - n_q1) / n_med)
    all_better = all(sign * (n - b) > 0 for n in n_vals for b in b_vals)
    if gain < -bound:
        result = "worse"
    elif gain > 0 and wins >= 0.9 * len(pairs) and \
            abs(n_med - b_med) > (b_q3 - b_q1):
        result = "better"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "within bound"
    summary = {
        "base": {"values": b_vals, "median": b_med, "q1": b_q1, "q3": b_q3,
                 "rel_iqr": (b_q3 - b_q1) / b_med},
        "new": {"values": n_vals, "median": n_med, "q1": n_q1, "q3": n_q3,
                "rel_iqr": (n_q3 - n_q1) / n_med},
        "change": gain, "wins": wins, "pairs": len(pairs),
        "bound": bound, "verdict": result,
    }
    return result, summary


def error_rate(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def group(runs, traced):
    out = {}
    for r in runs:
        if r["traced"] == traced:
            out.setdefault(r["workload"], []).append(r)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="results file or directory (parent)")
    parser.add_argument("new", help="results file or directory (change)")
    parser.add_argument("--json", help="also write the comparison here")
    args = parser.parse_args()

    with open(CATALOG) as f:
        catalog = json.load(f)
    base_runs, new_runs = load_results(args.base), load_results(args.new)
    report = {"workloads": {}}
    for label, runs in (("base", base_runs), ("new", new_runs)):
        stamps = sorted({json.dumps(r["environment"], sort_keys=True)
                         for r in runs})
        report[label + "_environment"] = [json.loads(e) for e in stamps]
        for e in report[label + "_environment"]:
            commit = e["commit"][:12] + \
                ("-dirty" if e["commit"].endswith("-dirty") else "")
            print(f"{label}: commit {commit}, {e['cpu']}, "
                  f"{e['nproc']} cpus, {e['compiler']}, {e['build_type']}, "
                  f"work dir on {e['work_fs']}")
    failed = False

    digests = {}
    for r in base_runs + new_runs:
        if not r["traced"]:
            key = (r["workload"], r["seed"], r["smoke"])
            digests.setdefault(key, set()).add(r["output_digest"])
    for (workload, seed, _), seen in sorted(digests.items()):
        if len(seen) > 1:
            print(f"DIGEST MISMATCH {workload} seed {seed}: {sorted(seen)}")
            failed = True

    base, new = group(base_runs, False), group(new_runs, False)
    for workload in sorted(set(base) & set(new)):
        b_runs = sorted(base[workload], key=lambda r: r["_file"])
        n_runs = sorted(new[workload], key=lambda r: r["_file"])
        print(f"{workload}  ({len(b_runs)} base runs, {len(n_runs)} new runs)")
        print(f"  {'metric':<18} {'base median [q1, q3]':>36}  "
              f"{'new median [q1, q3]':>36}  {'change':>7}  {'bound':>5}  verdict")
        entry = {}
        for metric in catalog["end_to_end"]:
            result, s = verdict(metric, b_runs, n_runs)
            entry[metric["name"]] = s
            b, n = s["base"], s["new"]
            print(f"  {metric['name']:<18} "
                  f"{b['median']:>11.5g} [{b['q1']:>10.5g}, {b['q3']:>10.5g}]  "
                  f"{n['median']:>11.5g} [{n['q1']:>10.5g}, {n['q3']:>10.5g}]  "
                  f"{s['change']:>+7.1%}  {s['bound']:>5.0%}  {result} "
                  f"({s['wins']}/{s['pairs']} pairs better)")
            failed |= result == "worse"
        b_err, n_err = error_rate(b_runs), error_rate(n_runs)
        print(f"  {'error_rate':<18} {b_err:>11.5g}{'':>27}{n_err:>11.5g}")
        if n_err > b_err:
            print("  ERROR RATE ROSE")
            failed = True
        entry["error_rate"] = {"base": b_err, "new": n_err}
        report["workloads"][workload] = entry

    base_t, new_t = group(base_runs, True), group(new_runs, True)
    for workload in sorted(set(base_t) & set(new_t)):
        print(f"{workload} per-layer medians (traced)")
        for metric in catalog["per_layer"]:
            name = metric["name"]
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in base_t[workload])
            n = statistics.median(r["metrics"][name]["value"]
                                  for r in new_t[workload])
            print(f"  {name:<36} {b:>14.6g} {n:>14.6g} {metric['unit']}")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
