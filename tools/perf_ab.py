#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark: a base revision vs the
working tree, in alternating pairs.

    python3 tools/perf_ab.py --base HEAD~1 --workload trace-cls-coord \\
        --pairs 10 --seconds 30 --seed 100

The base revision is exported (git archive) into its own directory under
--work-dir and builds its own .bench_build there; the working tree builds
into its usual .bench_build. Each pair runs perfbench/run.py once on each
side with the same seed (pair i uses seed + i), and the side that starts
alternates from pair to pair, so a host that speeds up or slows down over
minutes hurts both sides alike. For every end-to-end metric in
BENCHMARK.json the report gives each side's median and quartiles, the
change's win share over the pairs, and whether the change's median beats
the base's by more than the base's quartile spread. It also checks that
both sides print the same `perfbench-shapes` line for every seed.

Exit status: 0 when every run succeeded and every seed's shapes match,
1 otherwise. The numbers are evidence, not a gate: read them.
"""

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                         check=True)
    return out.stdout


def export_base(rev, work_dir):
    """Exports `rev` into work_dir/<sha>, once; returns the directory."""
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    target = work_dir / sha[:12]
    if not (target / "perfbench" / "run.py").is_file():
        target.mkdir(parents=True, exist_ok=True)
        archive = git("archive", "--format=tar", sha)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # The "data" filter exists from Python 3.11.4 / 3.12 on.
            if hasattr(tarfile, "data_filter"):
                tar.extractall(target, filter="data")
            else:
                tar.extractall(target)
    return sha, target


def run_side(checkout, workload, seed, seconds):
    """One perfbench run; returns (result dict or None, shapes line)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    shapes = next((l for l in lines if l.startswith("perfbench-shapes ")),
                  "")
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None, shapes
    return json.loads(lines[-1]), shapes


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(workload, pairs, metrics_spec):
    """Per-metric medians, quartiles and the change's win share."""
    rows = []
    for spec in metrics_spec:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        bq = quartiles(base)
        cq = quartiles(change)
        wins = sum((c > b) if higher else (c < b)
                   for b, c in zip(base, change))
        spread = bq[2] - bq[0]
        gain = (cq[1] - bq[1]) if higher else (bq[1] - cq[1])
        rows.append({
            "workload": workload,
            "metric": name,
            "unit": spec["unit"],
            "better": spec["better"],
            "base_median": bq[1], "base_q1": bq[0], "base_q3": bq[2],
            "change_median": cq[1], "change_q1": cq[0], "change_q3": cq[2],
            "ratio": cq[1] / bq[1] if bq[1] else None,
            "wins": wins,
            "pairs": len(pairs),
            "beats_base_spread": gain > spread,
        })
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree to")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1,
                        help="pair i runs seed + i on both sides")
    parser.add_argument("--work-dir", default=str(ROOT / ".perf_ab"),
                        help="where the base revision is exported")
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sha, base_dir = export_base(args.base, Path(args.work_dir).resolve())
    sides = {"base": base_dir, "change": ROOT}
    print(f"base {sha} in {base_dir}; change = working tree {ROOT}")

    ok = True
    summary = {"base": sha, "seconds": args.seconds, "rows": [],
               "shapes": []}
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            results, shapes = {}, {}
            for side in order:
                results[side], shapes[side] = run_side(
                    sides[side], workload, seed, args.seconds)
            same = shapes["base"] == shapes["change"] and shapes["base"]
            digest = hashlib.sha256(shapes["base"].encode()).hexdigest()[:12]
            summary["shapes"].append({"workload": workload, "seed": seed,
                                      "base": digest, "match": bool(same)})
            failed = [s for s in order
                      if results[s] is None or not results[s]["correct"]]
            line = (f"{workload} seed {seed} first={order[0]} shapes "
                    f"{digest} {'match' if same else 'DIFFER'}")
            for side in ("base", "change"):
                if results[side] is not None:
                    value = results[side]["metrics"]["accepted_per_s"]
                    line += f" {side}={value['value']:.4g}/s"
            print(line, flush=True)
            if failed or not same:
                ok = False
                print(f"  failed runs: {failed}" if failed else
                      "  perfbench-shapes differ", flush=True)
                continue
            pairs.append(results)
        if not pairs:
            continue
        rows = summarize(workload, pairs, spec["end_to_end"])
        summary["rows"] += rows
        print(f"\n{workload}: {len(pairs)} pairs, {args.seconds} s each")
        print("| metric | base median [q1, q3] | change median [q1, q3] "
              "| ratio | change wins | beats base spread |")
        print("|---|---|---|---|---|---|")
        for r in rows:
            ratio = f"{r['ratio']:.3f}" if r["ratio"] is not None else "-"
            print(f"| {r['metric']} ({r['unit']}) "
                  f"| {r['base_median']:.4g} [{r['base_q1']:.4g}, "
                  f"{r['base_q3']:.4g}] "
                  f"| {r['change_median']:.4g} [{r['change_q1']:.4g}, "
                  f"{r['change_q3']:.4g}] "
                  f"| {ratio} | {r['wins']}/{r['pairs']} "
                  f"| {'yes' if r['beats_base_spread'] else 'no'} |")
        print(flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
