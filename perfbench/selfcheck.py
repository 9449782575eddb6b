#!/usr/bin/env python3
"""Self-check of perfbench: do its checks fire, and is it steady?

    python3 perfbench/selfcheck.py [--runs 10] [--gap 60]

Run from the repository root. Three steps:

1. Broken inputs: a codec wire with one flipped payload bit and a wrong
   closed-form byte count must each make a run report failed operations.
2. Tracing: the traced run (--trace 1) must report the same digest of
   simulated outputs as the timed run (--trace 0) for every workload.
3. Two sets of timed runs of every workload in BENCHMARK.json, made
   --gap seconds apart at its run_seconds. Each set runs the same seeds,
   1 to --runs, so the two sets differ only in when they ran. For every
   workload and end-to-end metric it prints each set's median and
   quartiles and checks, against the bounds in BENCHMARK.json, that each
   set's quartile spread (Q3-Q1 over the median) stays within the bound,
   that the second median is no worse than the first by more than the
   bound, and that the share of failed operations is the same in both
   sets. setup_s is exempt from the spread test only: it is one cold
   set-up per run, not a statistic over passes, so its spread is printed
   but only its median is held to the bound.

Exits 0 when every check holds. Raw results go to
$CARGO_TARGET_DIR/perfbench/selfcheck.json (.bench_build by default).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(spec, workload, seed, seconds, trace, inject=None):
    """One benchmark run: (result dict or None, stderr text)."""
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr
    return json.loads(lines[-1]), proc.stderr


def digest(stderr):
    m = re.search(r"digest ([0-9a-f]+)", stderr)
    return m.group(1) if m else None


def check_broken_inputs(spec):
    ok = True
    for workload, inject in (("train_hdc_b10", "codec-bitflip"),
                             ("lp_fattree_ring", "lp-bytes"),
                             ("lp_fattree_star", "lp-bytes")):
        result, _ = run(spec, workload, 1, 1, 0, inject)
        fired = (result is not None and result["failed"] > 0
                 and not result["correct"])
        print("broken input %-14s on %-18s: %s" %
              (inject, workload, "check fired" if fired else "NOT CAUGHT"))
        ok &= fired
    return ok


def check_trace_identity(spec, workloads):
    ok = True
    for workload in workloads:
        plain, err0 = run(spec, workload, 1, 1, 0)
        traced, err1 = run(spec, workload, 1, 1, 1)
        d0, d1 = digest(err0), digest(err1)
        same = plain and traced and d0 is not None and d0 == d1
        names = sorted(traced["metrics"]) if traced else []
        expected = sorted(m["name"] for m in spec["per_layer"])
        print("trace identity %-18s: digest %s / %s, %d per-layer metrics%s"
              % (workload, d0, d1, len(names),
                 "" if names == expected else " (MISSING SOME)"))
        ok &= bool(same) and names == expected
    return ok


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(spec, workloads, seeds):
    results = {w: [] for w in workloads}
    for seed in seeds:  # seed-major, so load drift hits every workload
        for workload in workloads:
            result, err = run(spec, workload, seed, spec["run_seconds"], 0)
            if result is None:
                sys.exit("run failed: %s seed %d\n%s" % (workload, seed, err))
            results[workload].append(result)
    return results


def compare(spec, workloads, set_a, set_b):
    ok = True
    print("\n| workload | metric | bound | set | median | Q1 | Q3 | spread |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for label, runs in (("A", set_a[workload]), ("B", set_b[workload])):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2
                medians.append(q2)
                exempt = name == "setup_s"
                steady = exempt or spread <= bound
                ok &= steady
                note = "" if spread <= bound else (
                    " (exempt)" if exempt else " WIDE")
                print("| %s | %s | %.2f | %s | %.6g | %.6g | %.6g | %.3f%s |"
                      % (workload, name, bound, label, q2, q1, q3, spread,
                         note))
            worse = medians[1] - medians[0]
            if metric["better"] == "higher":
                worse = -worse
            shift = worse / medians[0]
            agree = shift <= bound
            ok &= agree
            print("| %s | %s | %.2f | B vs A | %+.3f | | | %s |"
                  % (workload, name, bound, shift,
                     "agree" if agree else "DISAGREE"))
        shares = [sum(r["failed"] for r in s[workload]) /
                  sum(r["attempted"] for r in s[workload])
                  for s in (set_a, set_b)]
        same = shares[0] == shares[1]
        ok &= same
        print("| %s | failed share | | A, B | %g, %g | | | %s |"
              % (workload, shares[0], shares[1], "same" if same else "DIFFER"))
    return ok


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per workload in each set")
    ap.add_argument("--gap", type=float, default=60,
                    help="seconds between the two sets")
    args = ap.parse_args()

    ok = check_broken_inputs(spec)
    ok &= check_trace_identity(spec, workloads)

    seeds = range(1, args.runs + 1)
    t0 = time.time()
    set_a = run_set(spec, workloads, seeds)
    time.sleep(args.gap)
    set_b = run_set(spec, workloads, seeds)
    ok &= compare(spec, workloads, set_a, set_b)
    print("\nsets took %.0f s; self-check %s"
          % (time.time() - t0, "PASSED" if ok else "FAILED"))

    out = os.path.join(os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build"), "perfbench")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "selfcheck.json"), "w") as f:
        json.dump({"A": set_a, "B": set_b}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
