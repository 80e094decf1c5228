#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark (parent vs change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of run records as perfbench/run.py writes them
(<build dir>/results/<workload>/*.json; span logs are skipped). For each
workload and metric it prints each side's median and quartiles, the
change's win share over pairs of runs, and a verdict:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither side), at least 10 pairs ran, and the medians differ
              by more than the parent's own quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread is wider than the bound (and not
              every change run beats every parent run), too few pairs for
              a claim, or a per-layer metric (no bound) without a clear win
              either way;
  unchanged   none of the above: within the bound;
  invalid     a change run failed its output checks, or the change runs
              failed more operations than the parent runs they pair with:
              no figure of that workload counts, gain or not.

Runs pair up by seed when both sides ran the same seeds, otherwise in
order, so alternate parent and change runs when recording them. Metrics
and bounds come from BENCHMARK.json at the root of the checkout. Exit
code 1 when any metric is worse or invalid.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """Python's statistics.quantiles(n=4); a single value is its own
    quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def load_runs(path):
    """{(workload, trace): [record, ...]} in recording order."""
    runs = {}
    files = []
    for dirpath, _, names in os.walk(path):
        files += [os.path.join(dirpath, n) for n in names
                  if n.endswith(".json") and not n.endswith("-spans.json")]
    records = []
    for p in sorted(files):
        with open(p) as f:
            rec = json.load(f)
        if "metrics" in rec and "workload" in rec:
            records.append(rec)
    # Stable sort: runs recorded in the same second keep file-name order.
    records.sort(key=lambda r: r.get("provenance", {}).get("recorded_at", ""))
    for rec in records:
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def pair_up(parent, change):
    """Pairs of (parent, change) records: by seed when the seed sets match,
    else in recording order."""
    ps = {r["seed"]: r for r in parent}
    cs = {r["seed"]: r for r in change}
    if len(ps) == len(parent) and len(cs) == len(change) and set(ps) == set(cs):
        return [(ps[s], cs[s]) for s in sorted(ps)]
    return list(zip(parent, change))


def failed_ops(record):
    """Operations a run attempted and did not complete (refused, expired
    or failed), as run.py's summary counts them."""
    return sum(p["attempted"] - p["succeeded"] for p in record["phases"])


def invalid_reason(pairs):
    """Why a workload's change runs cannot be judged, or None."""
    if any(not c["checks"]["correct"] for _, c in pairs):
        return "a change run failed its output checks"
    parent_failed = sum(failed_ops(p) for p, _ in pairs)
    change_failed = sum(failed_ops(c) for _, c in pairs)
    if change_failed > parent_failed:
        return "change runs failed %d operations, parent runs %d" % (
            change_failed, parent_failed)
    return None


def win_share(pairs, better):
    """Share of pairs the change wins; ties count for neither side."""
    if not pairs:
        return 0.0
    wins = 0
    for p, c in pairs:
        if (c < p) if better == "lower" else (c > p):
            wins += 1
    return wins / len(pairs)


def verdict(parent, change, pairs, better, bound):
    """One metric's verdict from its parent and change values."""
    pmed, cmed = statistics.median(parent), statistics.median(change)
    pq = quartiles(parent)
    spread = pq[2] - pq[0]
    sign = -1 if better == "lower" else 1
    gain = sign * (cmed - pmed)  # > 0: the change is better
    wins = win_share(pairs, better)
    losses = win_share([(c, p) for p, c in pairs], better)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    claim = len(pairs) >= MIN_PAIRS and abs(cmed - pmed) > spread
    if bound is None:
        if claim and wins >= WIN_SHARE:
            return "improved"
        if claim and losses >= WIN_SHARE:
            return "worse"
        return "unresolved"
    if pmed != 0 and -gain > bound * abs(pmed):
        return "worse"
    if claim and wins >= WIN_SHARE:
        return "improved"
    if pmed != 0 and spread > bound * abs(pmed) and not all_better:
        return "unresolved"
    return "unchanged"


def compare(parent_runs, change_runs, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: dict(m, bound=None) for m in spec["per_layer"]})
    rows = []
    for key in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[key], change_runs[key]
        pairs_all = pair_up(parent, change)
        invalid = invalid_reason(pairs_all)
        shared = set.intersection(*(set(r["metrics"]) for r in parent + change))
        for name in sorted(shared):
            m = metrics.get(name)
            if m is None:
                continue
            pv = [r["metrics"][name]["value"] for r in parent]
            cv = [r["metrics"][name]["value"] for r in change]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in pairs_all]
            rows.append({
                "workload": key[0], "trace": key[1], "metric": name,
                "unit": m["unit"], "better": m["better"],
                "bound": m.get("bound"),
                "parent": {"n": len(pv), "median": statistics.median(pv),
                           "quartiles": quartiles(pv)},
                "change": {"n": len(cv), "median": statistics.median(cv),
                           "quartiles": quartiles(cv)},
                "pairs": len(pairs),
                "win_share": win_share(pairs, m["better"]),
                "verdict": "invalid" if invalid else verdict(
                    pv, cv, pairs, m["better"], m.get("bound")),
                "invalid": invalid,
            })
    return rows


def print_table(rows):
    last = None
    for r in rows:
        if (r["workload"], r["trace"]) != last:
            last = (r["workload"], r["trace"])
            mode = "per-layer" if r["trace"] else "end-to-end"
            print("\n== %s (%s)" % (r["workload"], mode))
            if r["invalid"]:
                print("invalid: %s" % r["invalid"])
            print("%-36s %-30s %-30s %7s %5s  %s" % (
                "metric", "parent median [q1, q3]", "change median [q1, q3]",
                "delta", "wins", "verdict"))
        p, c = r["parent"], r["change"]
        delta = ((c["median"] - p["median"]) / p["median"] * 100
                 if p["median"] else 0.0)
        fmt = lambda s: "%.4g [%.4g, %.4g]" % (s["median"], s["quartiles"][0],
                                               s["quartiles"][2])
        print("%-36s %-30s %-30s %+6.1f%% %4.0f%%  %s" % (
            "%s (%s)" % (r["metric"], r["unit"]), fmt(p), fmt(c), delta,
            r["win_share"] * 100, r["verdict"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    print_table(rows)
    return 1 if any(r["verdict"] in ("worse", "invalid") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
