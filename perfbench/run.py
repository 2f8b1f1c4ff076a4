#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One run, as BENCHMARK.json's "command" invokes it from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/main.exe with dune, runs it, checks that its result names
exactly the metrics BENCHMARK.json declares, and forwards its output; the
last stdout line is the JSON result.  ``--workload all`` runs every workload,
untraced and traced, from one command, and checks every result.

Result sets and their comparison:

    python3 perfbench/run.py record --out FILE --workload NAME --seeds 1-10 \
        [--seconds S] [--trace 0|1]
    python3 perfbench/run.py compare A B

``record`` appends one JSON line per run to FILE.  ``compare`` prints, per
(workload, end-to-end metric), each side's median and quartiles, the change
and a verdict, and exits 1 on a regression beyond the metric's bound or on
more failed transactions.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (SPEC, e))


def build():
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run_exe(workload, seed, seconds, trace):
    """Run one pass; return (exit code, stdout lines)."""
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print("perfbench: %s exit %d, max RSS %.0f MiB" % (workload, proc.returncode, rss_mib),
          file=sys.stderr)
    return proc.returncode, proc.stdout.splitlines()


def check_result(spec, line, trace):
    """Parse the result line and check it names the declared metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: %r" % line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    if not result["correct"]:
        return result
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s, "
             "unit mismatch %s" % (missing, extra, wrong))
    return result


def single(spec, args):
    build()
    code, lines = run_exe(args.workload, args.seed, args.seconds, args.trace)
    if args.workload == "all":
        print("\n".join(lines))
        # One result per workload and pass, untraced then traced, in the
        # order BENCHMARK.json lists the workloads.
        results = [line for line in lines if line.startswith("{")]
        if code == 0 and len(results) != 2 * len(spec["workloads"]):
            fail("expected %d results, got %d"
                 % (2 * len(spec["workloads"]), len(results)))
        ok = all(check_result(spec, line, i % 2)["correct"]
                 for i, line in enumerate(results))
        sys.exit(code if code != 0 else (0 if ok else 1))
    if not lines:
        fail("no output", code or 1)
    result = check_result(spec, lines[-1], args.trace)
    print("\n".join(lines))
    sys.exit(code if code != 0 else (0 if result["correct"] else 1))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(spec, args):
    build()
    names = ([w["name"] for w in spec["workloads"]]
             if args.workload == "all" else [args.workload])
    ok = True
    with open(args.out, "a") as out:
        for name in names:
            for seed in parse_seeds(args.seeds):
                code, lines = run_exe(name, seed, args.seconds, args.trace)
                result = check_result(spec, lines[-1], args.trace) if lines else None
                ok = ok and code == 0 and result is not None and result["correct"]
                out.write(json.dumps({"workload": name, "seed": seed,
                                      "trace": args.trace, "result": result}) + "\n")
                out.flush()
                print("%s seed=%d exit=%d" % (name, seed, code), file=sys.stderr)
    sys.exit(0 if ok else 1)


def read_set(path):
    """{workload: [(seed, result)]} of the untraced runs in a result set."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                if row["trace"] == 0:
                    runs.setdefault(row["workload"], []).append((row["seed"], row["result"]))
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, a, b):
    """Compare two samples of one metric by the rule in README.md."""
    qa1, ma, qa3 = summary(a)
    qb1, mb, qb3 = summary(b)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = (mb - ma) / ma
    worse_by = sign * change
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    if max(sign * x for x in b) < min(sign * x for x in a):
        v = "better"
    elif spread > metric["bound"]:
        v = "unresolved"
    elif worse_by > metric["bound"]:
        v = "worse"
    elif -worse_by > (qa3 - qa1) / ma:
        v = "better"
    else:
        v = "same"
    return (qa1, ma, qa3), (qb1, mb, qb3), change, v


def failed_frac(result):
    return 1.0 - result["metrics"]["commit_frac"]["value"]


def compare(spec, args):
    a, b = read_set(args.a), read_set(args.b)
    bad = False
    print("%-18s %-14s %-32s %-32s %8s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "change", "verdict"))
    for workload in sorted(set(a) & set(b)):
        ra, rb = a[workload], b[workload]
        if not all(r and r["correct"] for _, r in ra + rb):
            print("%-18s incorrect run in a result set" % workload)
            bad = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for _, r in ra]
            vb = [r["metrics"][name]["value"] for _, r in rb]
            sa, sb, change, v = verdict(metric, va, vb)
            bad = bad or v == "worse"
            print("%-18s %-14s %10.5g [%.5g, %.5g]  %10.5g [%.5g, %.5g]  %+7.1f%%  %s" % (
                workload, name, sa[1], sa[0], sa[2], sb[1], sb[0], sb[2],
                100.0 * change, v))
        # Simulated outcomes repeat exactly per seed, so a seed run on both
        # sides compares exactly; across other seeds the commit_frac
        # verdict above is the check.
        fa = {s: failed_frac(r) for s, r in ra}
        fb = {s: failed_frac(r) for s, r in rb}
        more = [s for s in sorted(set(fa) & set(fb)) if fb[s] > fa[s]]
        if more:
            print("%-18s failed_frac larger in B at seeds %s" % (workload, more))
            bad = True
        if sum(r["failed"] for _, r in rb) > sum(r["failed"] for _, r in ra):
            print("%-18s more undecided transactions in B" % workload)
            bad = True
    sys.exit(1 if bad else 0)


def main():
    spec_args = sys.argv[1:]
    if spec_args[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        compare(load_spec(), p.parse_args(spec_args[1:]))
    elif spec_args[:1] == ["record"]:
        p = argparse.ArgumentParser(prog="run.py record")
        p.add_argument("--out", required=True)
        p.add_argument("--workload", required=True)
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--seconds", type=int, default=None)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        spec = load_spec()
        args = p.parse_args(spec_args[1:])
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        record(spec, args)
    else:
        p = argparse.ArgumentParser(prog="run.py")
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=int, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        single(load_spec(), p.parse_args(spec_args))


if __name__ == "__main__":
    main()
