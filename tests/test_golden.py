"""Byte-for-byte guard on machine output.

``golden/outputs.jsonl`` holds, one line each and in this order: the
canonical batch JSON of every sweep point of the built-in scenarios, of three
extra configurations, the per-trial records (with transcripts) of the first
trials of two of those configurations, and one per-trial record for every
sender x receiver strategy pair.  Changes meant to keep output
identical, such as speed-ups and list-representation refactors, must leave
every byte of it unchanged.

After a deliberate output change, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py --write`` and say so in the
change log.
"""

import json
import sys
from pathlib import Path

from dbasim.cli import BUILTIN_SCENARIOS, build_config, load_builtin_scenario
from dbasim.harness import SimConfig, run_batch, run_trial, trial_plan

GOLDEN = Path(__file__).parent / "golden" / "outputs.jsonl"
SEED = 7
TRIALS = 200

EXTRA_CONFIGS = {
    "all-honest n=32 d=2 m=60": SimConfig(
        participants=32, distributors=2, segment_length=60, trials=TRIALS, master_seed=SEED
    ),
    "random-junk sender, forging receivers": SimConfig(
        participants=5,
        distributors=1,
        segment_length=12,
        controlled=frozenset({1, 4}),
        sender_strategy="random-junk",
        receiver_strategy="forge",
        trials=TRIALS,
        master_seed=SEED,
    ),
    "equivocate sender, merged rule": SimConfig(
        participants=5,
        distributors=2,
        segment_length=12,
        controlled=frozenset({1}),
        sender_strategy="equivocate",
        trials=TRIALS,
        master_seed=SEED,
        decide_rule="merged",
    ),
}

TRANSCRIPT_CONFIGS = ("random-junk sender, forging receivers", "equivocate sender, merged rule")
TRANSCRIPT_TRIALS = range(5)

#: every strategy name, spelled out so the pinned pairs do not follow the
#: order of the package's tables
SENDER_NAMES = ("honest-mimic", "silent", "random-junk", "equivocate", "flag-always")
RECEIVER_NAMES = ("honest-mimic", "silent", "random-junk", "forge", "omniscient-forge", "flag-always")


def pair_config(sender: str, receiver: str) -> SimConfig:
    """Sender and receiver 4 controlled, both distributors bribed.

    At p = 0.75 and seed 7 both segments leak in most trials, so
    ``omniscient-forge`` reaches its attack in some of the pinned trials and
    relays honestly in others.
    """
    return SimConfig(
        participants=5,
        distributors=2,
        segment_length=12,
        controlled=frozenset({1, 4}),
        bribed=frozenset({6, 7}),
        disclosure_probability=0.75,
        sender_strategy=sender,
        receiver_strategy=receiver,
        trials=TRIALS,
        master_seed=SEED,
    )


def strategy_pairs() -> list[tuple[str, str]]:
    return [(s, r) for s in SENDER_NAMES for r in RECEIVER_NAMES]


def golden_lines() -> list[tuple[str, str]]:
    """(label, output line) for every guarded output, in file order."""
    out = []
    for name in BUILTIN_SCENARIOS:
        scenario = load_builtin_scenario(name, {"trials": TRIALS, "seed": SEED})
        for i, point in enumerate(scenario.points()):
            out.append((f"{name} point {i}", run_batch(build_config(point)).canonical_json()))
    for label, cfg in EXTRA_CONFIGS.items():
        out.append((label, run_batch(cfg).canonical_json()))
    for label in TRANSCRIPT_CONFIGS:
        for t in TRANSCRIPT_TRIALS:
            record = run_trial(trial_plan(EXTRA_CONFIGS[label]), t, capture_transcript=True).to_record()
            out.append((f"{label} trial {t}", json.dumps(record, sort_keys=True, separators=(",", ":"))))
    for t, (sender, receiver) in enumerate(strategy_pairs()):  # pair i pins trial i
        record = run_trial(trial_plan(pair_config(sender, receiver)), t, capture_transcript=True).to_record()
        label = f"{sender} sender, {receiver} receivers trial {t}"
        out.append((label, json.dumps(record, sort_keys=True, separators=(",", ":"))))
    return out


def render(lines: list[tuple[str, str]]) -> bytes:
    return "".join(f"{line}\n" for _, line in lines).encode("utf-8")


def test_machine_output_matches_golden_bytes():
    lines = golden_lines()
    want = GOLDEN.read_bytes()
    for (label, line), expected in zip(lines, want.decode("utf-8").splitlines()):
        assert line == expected, f"output changed for {label}"
    assert render(lines) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_bytes(render(golden_lines()))
