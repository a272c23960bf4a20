"""The package's records: immutable, and built by keyword with their defaults."""

import pytest

from dbasim.adversary import Knowledge
from dbasim.cli import parse_config
from dbasim.harness import BatchReport, SimConfig, TrialReport, run_batch, run_trial, trial_plan
from dbasim.listgen import Segment
from dbasim.protocol import ABORT, Claim, Decision

RECORDS = {
    "Segment": lambda: Segment(length=6, sender_zeros=0b11, sender_ones=0b1100, receiver_ones={2: 0b11100}),
    "Claim": lambda: Claim(1, 0b101),
    "Decision": lambda: Decision(0),
    "Knowledge": lambda: Knowledge(segment_length=6, distributors=(5,), disclosed={}, own_lists={}),
    "SimConfig": SimConfig,
    "TrialReport": lambda: run_trial(trial_plan(SimConfig(trials=1)), 0),
    "BatchReport": lambda: run_batch(SimConfig(trials=2)),
    "TrialPlan": lambda: trial_plan(SimConfig()),
    "Scenario": lambda: parse_config({}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_every_record_rejects_attribute_assignment(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_keyword_construction_fills_every_default():
    cfg = SimConfig(controlled=frozenset({4}), receiver_strategy="forge", trials=5)
    assert cfg == SimConfig(4, 2, 12, 1, frozenset({4}), frozenset(), 0.5, "honest-mimic", "forge", 5, 42, "literal")
    assert SimConfig()[4:9] == (frozenset(), frozenset(), 0.5, "honest-mimic", "honest-mimic")
    report = TrialReport(
        trial=0,
        plan=trial_plan(SimConfig(participants=3, distributors=1)),
        disclosed=(False,),
        classes=[((2, 3), Decision(1))],
        agreement=True,
        validity=True,
        honest_success=True,
        forge_attempts=0,
        forge_successes=0,
        full_knowledge=False,
    )
    assert report.transcript is None
    assert report.decisions == {1: Decision(1), 2: Decision(1), 3: Decision(1)}
    batch = BatchReport(cfg, *[0] * 10)
    assert batch.forge_oracle is None and batch.trials == 5
    assert Decision(None) == ABORT and ABORT.aborted
    with pytest.raises(TypeError):
        SimConfig(receivers=3)
    with pytest.raises(TypeError):
        Claim(bit=1)



def test_the_config_record_has_exactly_the_config_fields():
    assert set(SimConfig._fields) == set(SimConfig().to_record())
    cfg = SimConfig(participants=6, controlled=frozenset({5, 2}), bribed=frozenset({8, 7}))
    assert cfg.to_record() == {**cfg._asdict(), "controlled": [2, 5], "bribed": [7, 8]}
