"""The package's records: immutable, and built by keyword with their defaults."""

import pytest

from dbasim.adversary import AdversarySpec, Knowledge
from dbasim.cli import parse_config
from dbasim.harness import BatchReport, SimConfig, TrialReport, run_batch, run_trial
from dbasim.listgen import Segment
from dbasim.protocol import ABORT, Claim, Decision

RECORDS = {
    "Segment": lambda: Segment(length=6, sender_zeros=0b11, sender_ones=0b1100, receiver_ones={2: 0b11100}),
    "Claim": lambda: Claim(1, 0b101),
    "Decision": lambda: Decision(0),
    "AdversarySpec": AdversarySpec,
    "Knowledge": lambda: Knowledge(segment_length=6, distributors=(5,), disclosed={}, own_lists={}),
    "SimConfig": SimConfig,
    "TrialReport": lambda: run_trial(SimConfig(trials=1), 0),
    "BatchReport": lambda: run_batch(SimConfig(trials=2)),
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
    spec = AdversarySpec(controlled=frozenset({4}), receiver_strategy="forge")
    assert spec == AdversarySpec(frozenset({4}), frozenset(), 0.5, "honest-mimic", "forge")
    cfg = SimConfig(trials=5, adversary=spec)
    assert cfg == SimConfig(4, 2, 12, 1, spec, 5, 42, "literal")
    assert SimConfig().adversary == AdversarySpec()
    report = TrialReport(
        trial=0,
        controlled=(),
        disclosed=(False,),
        decisions={1: Decision(1)},
        agreement=True,
        validity=True,
        honest_success=True,
        forge_attempts=0,
        forge_successes=0,
        full_knowledge=False,
    )
    assert report.transcript is None
    batch = BatchReport(cfg, *[0] * 10)
    assert batch.forge_oracle is None and batch.trials == 5
    assert Decision(None) == ABORT and ABORT.aborted
    with pytest.raises(TypeError):
        SimConfig(receivers=3)
    with pytest.raises(TypeError):
        Claim(bit=1)

