"""A workload's set-up in a fresh interpreter, and optionally its first run.

Usage: probe.py WORKLOAD SEED [--tiny] [--run]   (with dbasim's src/ on PYTHONPATH)

Imports what the workload uses and builds and validates its configs; the
caller times the whole process, interpreter start-up included.  With
``--run`` it also runs every batch once and prints the canonical JSON lines
of each invocation as one JSON list, so that a caller can check CLI output
without importing dbasim itself.
"""

import json
import sys

import workloads

w = workloads.build(sys.argv[1], int(sys.argv[2]), tiny="--tiny" in sys.argv[3:])
if "--run" in sys.argv[3:]:
    print(json.dumps(workloads.first_run(w)))
