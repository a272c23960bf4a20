"""Rewrite reference.json: the reference seed's records for every workload.

Usage: python3 perfbench/record_reference.py   (from the root of a checkout)

Run it only when a change moves the machine output on purpose, and say so
in that change; run.py compares every run with the reference seed against
this file.
"""

import json
import sys

import run
import workloads


def main() -> int:
    error = run.load_program(in_process=True)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    out = {"seed": run.REFERENCE_SEED, "workloads": {}}
    for name in workloads.NAMES:
        bench = run.Bench(name, run.REFERENCE_SEED, tiny=False, seconds=0)
        dumps = [i for i, inv in enumerate(bench.invocations) if inv["dump"]]
        for i in dumps:
            bench.invoke(i, "dump")
        if bench.ledger.problems:
            print("\n".join(bench.ledger.problems), file=sys.stderr)
            return 1
        entry = {"batches": [json.loads(line) for inv in bench.invocations for line in inv["lines"]]}
        if bench.dump_sha is not None:
            entry["dump_sha256"] = bench.dump_sha
        out["workloads"][name] = entry
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
