#!/usr/bin/env python3
"""Compare two sets of fitbench results, or show the spread of one set.

    python3 fitbench/compare.py parent.jsonl change.jsonl
    python3 fitbench/compare.py results.jsonl

Inputs are the JSON-lines files run.py --out appends to. Runs are matched
by workload and seed, since the seed changes the inputs: a seed's value on
one side is the median of that side's runs of the seed. Each seed common to
both files gives the change's loss against the parent, (change - parent) /
parent, negated where higher is better. With two files the script prints,
for each workload and metric, both sides' median and quartiles over seeds,
the median loss with its quartiles, the metric's bound from BENCHMARK.json
and a verdict.

Exact metrics (the modeled ledger and computed counts) repeat bit for bit
for a seed, so any difference is real:

  unchanged   every seed reads the same on both sides;
  improved    no seed got worse; regressed  no seed got better;
  unresolved  some seeds got better and some worse.

Measured metrics:

  improved    the change wins at least 9 in 10 seeds (ties count for
              neither) and its median gain exceeds the quartile distance
              of the losses;
  regressed   the median loss exceeds the bound (metrics without a bound:
              the change loses 9 in 10 seeds and the median loss exceeds
              that quartile distance);
  unresolved  fewer than 3 seeds in common, or the quartile distance of
              the losses exceeds the bound and not every seed got better;
  unchanged   otherwise.

With one file it prints each metric's quartile spread over seeds as a
share of its median, next to a third of its bound (the steadiness target)
for end-to-end metrics, and the same spread of runs within a seed where a
seed ran more than once. Both modes flag exact metrics that differ between
runs of one seed, and print each workload's wall.fit_s against
baseline.serial_lloyd_s (traced runs).
"""

import argparse
import json
import math
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
EXACT_PREFIXES = ("modeled_", "model.")
EXACT_NAMES = {"checkpoint.bytes", "kernel.bytes_per_sample",
               "kernel.flops_per_byte", "gate.prune_rate",
               "coll.calls_per_iter", "coll.bytes_per_iter"}


def is_exact(name):
    return name.startswith(EXACT_PREFIXES) or name in EXACT_NAMES


def load(path):
    """{(workload, metric): {seed: [values]}} plus the unit of each metric."""
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                values[(rec["workload"], name)][rec["seed"]].append(m["value"])
                units[name] = m["unit"]
    return values, units


def per_seed(by_seed):
    """{seed: median of the seed's runs}."""
    return {seed: statistics.median(vals) for seed, vals in by_seed.items()}


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def drift(path, values):
    """Exact metrics must repeat for a seed; print any that drift."""
    found = False
    for (workload, name), by_seed in sorted(values.items()):
        if not is_exact(name):
            continue
        for seed, vals in sorted(by_seed.items()):
            if len(set(vals)) > 1:
                found = True
                print(f"DRIFT {path}: {workload} {name} seed {seed}: "
                      f"{sorted(set(vals))}")
    return found


def serial_ratios(path, values):
    for w in sorted({w for (w, _) in values}):
        fit = per_seed(values.get((w, "wall.fit_s"), {}))
        serial = per_seed(values.get((w, "baseline.serial_lloyd_s"), {}))
        if fit and serial:
            f = statistics.median(fit.values())
            s = statistics.median(serial.values())
            note = "slower than serial" if f > s else "faster than serial"
            print(f"{path}: {w}: wall.fit_s {f:.4g} s / serial_lloyd_s "
                  f"{s:.4g} s = {f / s:.3f} ({note})")


def losses(parent, change, better):
    """Relative loss of the change against the parent, one per common seed."""
    sign = 1 if better == "lower" else -1
    out = []
    for seed in sorted(set(parent) & set(change)):
        p, c = parent[seed], change[seed]
        if p == c:
            out.append(0.0)
        elif p == 0:
            out.append(math.copysign(math.inf, sign * (c - p)))
        else:
            out.append(sign * (c - p) / abs(p))
    return out


def verdict(loss, exact, bound):
    if not loss:
        return "unresolved"
    worse = sum(1 for x in loss if x > 0)
    better = sum(1 for x in loss if x < 0)
    if exact:
        if not worse and not better:
            return "unchanged"
        if not worse:
            return "improved"
        if not better:
            return "regressed"
        return "unresolved"
    if len(loss) < 3:
        return "unresolved"
    q1, med, q3 = quartiles(loss)
    spread = q3 - q1
    if better >= 0.9 * len(loss) and -med > spread:
        return "improved"
    if bound is not None:
        if med > bound:
            return "regressed"
        if spread > bound and better < len(loss):
            return "unresolved"
    elif worse >= 0.9 * len(loss) and med > spread:
        return "regressed"
    return "unchanged"


def within_seed_spread(by_seed):
    """Quartile distance of run / seed median, pooled over repeated seeds."""
    ratios = [v / statistics.median(vals)
              for vals in by_seed.values() if len(vals) > 1
              for v in vals if statistics.median(vals)]
    if len(ratios) < 2:
        return None
    q1, _, q3 = quartiles(ratios)
    return q3 - q1


def steadiness(values, bounds):
    print(f"{'workload':16} {'metric':36} {'seeds':>5} {'median':>12} "
          f"{'spread':>8} {'target':>8} {'within':>8}")
    for (w, name), by_seed in sorted(values.items()):
        q1, med, q3 = quartiles(list(per_seed(by_seed).values()))
        share = (q3 - q1) / abs(med) if med else 0.0
        within = within_seed_spread(by_seed)
        within = f"{within:8.4f}" if within is not None else f"{'-':>8}"
        target = f"{'-':>8}"
        mark = ""
        if name in bounds:
            target = f"{bounds[name] / 3:8.4f}"
            mark = "" if share < bounds[name] / 3 else "  WIDE"
        print(f"{w:16} {name:36} {len(by_seed):5d} {med:12.6g} "
              f"{share:8.4f} {target} {within}{mark}")


def main():
    ap = argparse.ArgumentParser(description="Compare fitbench results.")
    ap.add_argument("files", nargs="+", help="one or two JSON-lines files")
    ap.add_argument("--benchmark", default=DEFAULT_SPEC,
                    help="BENCHMARK.json with the metrics' bounds")
    args = ap.parse_args()
    if len(args.files) > 2:
        ap.error("give one or two result files")
    with open(args.benchmark, encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}

    sets = [load(p) for p in args.files]
    drifted = False
    for path, (values, _) in zip(args.files, sets):
        drifted |= drift(path, values)
        serial_ratios(path, values)

    if len(sets) == 1:
        steadiness(sets[0][0], bounds)
        return 1 if drifted else 0

    (parent, units), (change, _) = sets
    print(f"{'workload':16} {'metric':36} {'parent med [q1,q3]':>32} "
          f"{'change med [q1,q3]':>32} {'loss med [q1,q3]':>26} "
          f"{'bound':>6}  verdict")
    for key in sorted(set(parent) | set(change)):
        w, name = key
        if key not in parent or key not in change:
            print(f"{w:16} {name:36} present on one side only")
            continue
        p_seed, c_seed = per_seed(parent[key]), per_seed(change[key])
        cols = []
        for side in (p_seed, c_seed):
            q1, med, q3 = quartiles(list(side.values()))
            cols.append(f"{med:.5g} [{q1:.5g},{q3:.5g}]")
        loss = losses(p_seed, c_seed, better.get(name, "lower"))
        if loss:
            q1, med, q3 = quartiles(loss)
            cols.append(f"{med:+.3f} [{q1:+.3f},{q3:+.3f}]")
        else:
            cols.append("no common seed")
        bound = bounds.get(name)
        v = verdict(loss, is_exact(name), bound)
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"{w:16} {name:36} {cols[0]:>32} {cols[1]:>32} {cols[2]:>26} "
              f"{b:>6}  {v}  ({units.get(name, '')})")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
