"""Byte sweeps: one sha256 over every output of a fixed grid of configurations.

Two sets, each hashed on its own:

- ``sweep``: 5 sender x 6 receiver strategies (the package tables' order) x
  8 controlled sets x bribed none/all (distributors 10 and 11, p=0.75) x
  decide rules literal/merged = 960 configurations; participants 9, d=2,
  m=12, 10 trials, master seed = configuration index.
- ``wide``: 6 receiver strategies x 3 adversaries ({2} unbribed; {2,17,33}
  with both distributors bribed at p=0.5; {1,2} unbribed), sender strategy
  equivocate, participants 33, d=2, m=60, 6 trials, master seed = case
  index: 18 configurations, each with a controlled relayer at n >= 32.

Per configuration the hash takes ``run_batch``'s canonical JSON, then that
of the report summed from every trial in order in this process, then every
transcribed trial record (``json.dumps`` of ``to_record``, sorted keys),
concatenated without separators.  This is the recipe of the byte-equality
record in ``BENCH_pr16.json``, and it prints the digests recorded there.  A change
meant to move no output byte must leave both digests as they are;
``tests/test_bytesweep.py`` pins them.

Run ``PYTHONPATH=src python tests/bytesweep.py`` to print one line per set:
the set's name, its configuration count and its digest.
"""

import hashlib
import itertools
import json
from typing import Iterator

from dbasim.adversary import RECEIVER_STRATEGIES, SENDER_STRATEGIES
from dbasim.harness import SimConfig, _batch_report, _tally, run_batch, run_trial, trial_plan
from dbasim.protocol import DECIDE_RULES

SWEEP_CONTROLLED = ((), (1,), (2,), (9,), (1, 4), (2, 9), (3, 5, 7), (1, 6, 7, 8, 9))
WIDE_ADVERSARIES = (((2,), ()), ((2, 17, 33), (34, 35)), ((1, 2), ()))


def sweep_configs() -> Iterator[SimConfig]:
    grid = itertools.product(SENDER_STRATEGIES, RECEIVER_STRATEGIES, SWEEP_CONTROLLED, ((), (10, 11)), DECIDE_RULES)
    for seed, (sender, receiver, controlled, bribed, rule) in enumerate(grid):
        yield SimConfig(
            participants=9,
            distributors=2,
            segment_length=12,
            controlled=frozenset(controlled),
            bribed=frozenset(bribed),
            disclosure_probability=0.75,
            sender_strategy=sender,
            receiver_strategy=receiver,
            trials=10,
            master_seed=seed,
            decide_rule=rule,
        )


def wide_configs() -> Iterator[SimConfig]:
    grid = itertools.product(RECEIVER_STRATEGIES, WIDE_ADVERSARIES)
    for seed, (receiver, (controlled, bribed)) in enumerate(grid):
        yield SimConfig(
            participants=33,
            distributors=2,
            segment_length=60,
            controlled=frozenset(controlled),
            bribed=frozenset(bribed),
            disclosure_probability=0.5,
            sender_strategy="equivocate",
            receiver_strategy=receiver,
            trials=6,
            master_seed=seed,
        )


def digest(configs: Iterator[SimConfig]) -> tuple[int, str]:
    """The number of configurations and the sha256 over all their outputs."""
    h = hashlib.sha256()
    count = 0
    for cfg in configs:
        plan = trial_plan(cfg)
        h.update(run_batch(cfg).canonical_json().encode())
        h.update(_batch_report(plan, _tally(plan, range(cfg.trials))).canonical_json().encode())
        for t in range(cfg.trials):
            h.update(json.dumps(run_trial(plan, t, capture_transcript=True).to_record(), sort_keys=True).encode())
        count += 1
    return count, h.hexdigest()


SETS = {"sweep": sweep_configs, "wide": wide_configs}


if __name__ == "__main__":
    for name, configs in SETS.items():
        count, sha = digest(configs())
        print(name, count, sha)
