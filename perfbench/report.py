"""Run every workload once and print all end-to-end metrics by name and unit.

    python3 perfbench/report.py --seed 1 --seconds 30

Each workload runs in its own process through run.py (so peak memory is per
workload), one after the other.  The hard checks run inside each; the
combined table is written to .perfbench/report.json.  Exits non-zero if any
workload fails to run or fails a hard check.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)
    combined, ok = {}, True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        lines = proc.stdout.rstrip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        manifest = json.loads((run.OUT_DIR / f"{name}-seed{args.seed}-trace0.json").read_text())
        combined[name] = {"correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": manifest["results"]["report"],
                          "claim_tail": manifest["results"]["claim_tail"]}
        ok = ok and result["correct"]
    run.OUT_DIR.mkdir(exist_ok=True)
    (run.OUT_DIR / "report.json").write_text(json.dumps(combined, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
