"""Trial execution, decision predicates, batch aggregation, determinism."""

import gc
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import dbasim
import dbasim.harness
import dbasim.listgen
import dbasim.protocol
from dbasim.adversary import RECEIVER_STRATEGIES, SENDER_STRATEGIES, Knowledge
from dbasim.harness import (
    BatchReport,
    SimConfig,
    TrialReport,
    derive_rng,
    run_batch,
    run_trial,
    trial_plan,
    wilson_interval,
)
from dbasim.listgen import CoinStore, Segment, combined_lists_from_segments, generate_segment, mask_of, mask_positions
from dbasim.protocol import ABORT, BOT, Claim, Decision
from binomial import binom_interval
from symbols import bits, reference_decide


def _cfg(**kw):
    return SimConfig(**{k: frozenset(v) if k in ("controlled", "bribed") else v for k, v in kw.items()})


# --- randomness streams -------------------------------------------------------


def test_derived_streams_are_reproducible_and_distinct():
    a = derive_rng(42, 0, "segment", 5)
    b = derive_rng(42, 0, "segment", 5)
    assert [a.random() for _ in range(4)] == [b.random() for _ in range(4)]
    c = derive_rng(42, 0, "segment", 6)
    d = derive_rng(43, 0, "segment", 5)
    first = derive_rng(42, 0, "segment", 5).random()
    assert c.random() != first
    assert d.random() != first


def test_label_boundaries_do_not_collide():
    assert derive_rng(1, "ab", "c").random() != derive_rng(1, "a", "bc").random()


def test_derived_seeds_equal_the_hashlib_sha256_reference():
    # harness hashes with the interpreter's built-in sha256 where there is
    # one; every seed, and so every output byte, must be hashlib's
    for master_seed in (0, 1, 42, 7919, 2**63 + 5, -3):
        for labels in [(), (0,), (0, "segment", 5), (999, "adversary", 1), (17, "bribes"), ("perturb", 6, 0.5)]:
            material = "|".join([str(master_seed), *map(str, labels)]).encode()
            seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
            assert derive_rng(master_seed, *labels).getstate() == random.Random(seed).getstate(), (master_seed, labels)


@pytest.mark.parametrize(
    "kw, bribe_streams",
    [
        (dict(), 0),
        (dict(controlled={4}, receiver_strategy="forge"), 0),
        (dict(controlled={4}, receiver_strategy="forge", bribed={6}), 1),
        (dict(bribed={5, 6}), 1),
    ],
)
def test_the_bribery_stream_is_derived_only_when_a_distributor_is_bribed(monkeypatch, kw, bribe_streams):
    purposes = []
    real = dbasim.harness.derive_rng

    def recording(master_seed, trial, purpose, *labels):
        purposes.append(purpose)
        return real(master_seed, trial, purpose, *labels)

    monkeypatch.setattr(dbasim.harness, "derive_rng", recording)
    run_trial(trial_plan(_cfg(participants=4, **kw)), 0)
    assert purposes.count("bribes") == bribe_streams
    assert purposes.count("segment") == 2


# --- config validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(participants=2), "participants must be at least 3"),
        (dict(distributors=0), "distributors must be at least 1"),
        (dict(segment_length=7), "multiple of 6, got 7"),
        (dict(segment_length=0), "multiple of 6, got 0"),
        (dict(sender_input=2), "sender input must be 0 or 1"),
        (dict(trials=0), "trials must be at least 1"),
        (dict(decide_rule="loose"), "decide rule must be"),
        (dict(sender_input=True), "sender_input must be an integer, got True"),
        (dict(participants=False), "participants must be an integer, got False"),
        (dict(distributors=2.0), "distributors must be an integer, got 2.0"),
        (dict(segment_length=12.0), "segment_length must be an integer, got 12.0"),
        (dict(trials="5"), "trials must be an integer, got '5'"),
        (dict(master_seed=1.5), "master_seed must be an integer, got 1.5"),
        (dict(master_seed=True), "master_seed must be an integer, got True"),
        (
            dict(participants=5, controlled=frozenset({True}), sender_strategy="equivocate"),
            "controlled must be a frozenset of integers, got frozenset({True})",
        ),
        (dict(participants=5, controlled=frozenset({4.0})), "controlled must be a frozenset of integers, got frozenset({4.0})"),
        (
            dict(participants=5, bribed=frozenset({6}), disclosure_probability="0.5"),
            "disclosure_probability must be a number, got '0.5'",
        ),
        (dict(participants=5, controlled=[4]), "controlled must be a frozenset of integers, got [4]"),
        (dict(participants=5, sender_strategy=["x"]), "sender_strategy must be a string, got ['x']"),
        (dict(participants=5, bribed=frozenset({6.0})), "bribed must be a frozenset of integers, got frozenset({6.0})"),
        # a long bad value is echoed as a short prefix and its length
        (
            dict(participants=5, controlled=frozenset(map(float, range(100000)))),
            "controlled must be a frozenset of integers, got frozenset({",
        ),
        (dict(participants=5, controlled=frozenset(range(10, 100010))), "controlled indices [10, 11, 12,"),
        (dict(participants=5, bribed=frozenset(range(10, 100010))), "bribed indices [10, 11, 12,"),
        (dict(sender_strategy="x" * 100000), "unknown sender strategy 'xxx"),
        (dict(receiver_strategy="x" * 100000), "unknown receiver strategy 'xxx"),
        (dict(decide_rule="x" * 100000), "decide rule must be one of ('literal', 'merged'), got 'xxx"),
    ],
)
def test_config_validation_names_the_offending_field(kw, message):
    cfg = SimConfig(**kw)
    for entry in (SimConfig.validate, trial_plan, run_batch):
        with pytest.raises(ValueError, match=re.escape(message)) as error:
            entry(cfg)
        assert len(str(error.value)) < 200


def test_config_validation_covers_the_adversary():
    cfg = SimConfig(controlled=frozenset({9}))
    with pytest.raises(ValueError, match="controlled indices"):
        cfg.validate()


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(bribed={99}), "bribed indices"),
        (dict(bribed={5}, disclosure_probability=1.5), "disclosure probability"),
        (dict(controlled={2, 3}), "at least 3 honest participants"),
        (dict(controlled={9}), "controlled indices"),
        (dict(controlled={4}, receiver_strategy="bogus"), "unknown receiver strategy"),
    ],
    ids=["bribed-outside", "p-above-one", "too-few-honest", "controlled-outside", "unknown-strategy"],
)
def test_a_trial_run_alone_rejects_what_its_batch_rejects(kw, message):
    # building the plan validates the config, so a trial run without a
    # batch, or a plan built by hand, fails exactly as run_batch does
    cfg = _cfg(participants=4, **kw)
    with pytest.raises(ValueError, match=message) as from_batch:
        run_batch(cfg)
    starts = [
        lambda: trial_plan(cfg),
        lambda: run_trial(trial_plan(cfg), 0),
        lambda: run_trial(trial_plan(cfg), 0, capture_transcript=True),
    ]
    for start in starts:
        with pytest.raises(ValueError) as alone:
            start()
        assert str(alone.value) == str(from_batch.value)


def test_config_derived_layout():
    plan = trial_plan(SimConfig(participants=4, distributors=3, segment_length=12))
    assert plan.receivers == (2, 3, 4)
    assert plan.distributors == (5, 6, 7)


def test_a_trial_takes_its_config_only_from_its_plan():
    # a config beside a plan could disagree with it: this config has two
    # honest participants, which validation rejects, and the plan has none
    # controlled, so a trial of both would report parties 2 and 3 as honest
    cfg = _cfg(participants=4, controlled={2, 3})
    with pytest.raises(TypeError):
        run_trial(cfg, 0, plan=trial_plan(SimConfig(participants=4)))


# --- the paper's properties -----------------------------------------------------


def _decide_as(monkeypatch, *outcomes):
    """Patch run_trial's decide to return ``outcomes`` in call order, the last one from then on."""
    calls = []

    def scripted(relays, own_list, rule="literal"):
        calls.append(own_list)
        return outcomes[min(len(calls), len(outcomes)) - 1]

    monkeypatch.setattr(dbasim.harness, "decide", scripted)
    return calls


@pytest.mark.parametrize(
    "decided, holds",
    [(Decision(1), True), (ABORT, False), (Decision(0), False)],
    ids=["input", "abort", "other-bit"],
)
def test_an_honest_sender_splits_from_receivers_that_miss_its_input(monkeypatch, decided, holds):
    # the honest sender outputs its input, so receivers deciding anything
    # else break agreement and, where they apply, validity and honest success
    calls = _decide_as(monkeypatch, decided)
    rep = run_trial(trial_plan(SimConfig(sender_input=1)), 0)
    assert len(calls) == 1 and rep.classes[0][1] == decided
    assert rep.agreement is holds and rep.validity is holds and rep.honest_success is holds
    rep = run_trial(trial_plan(_cfg(participants=5, controlled={5}, receiver_strategy="silent")), 0)
    assert rep.agreement is holds and rep.validity is None and rep.honest_success is holds


@pytest.mark.parametrize(
    "outcomes, agreement",
    [
        ((ABORT, Decision(1)), False),
        ((Decision(1), Decision(0)), False),
        ((Decision(0), Decision(0), ABORT), False),
        ((ABORT,), True),
        ((Decision(0),), True),
    ],
    ids=["abort-then-decide", "two-bits", "late-abort", "all-abort", "one-bit"],
)
def test_a_controlled_senders_receivers_agree_only_on_one_value(monkeypatch, outcomes, agreement):
    # a junk-sending relayer gives every honest receiver its own inbox, so
    # each of the four decides alone and the scripted decisions can split
    calls = _decide_as(monkeypatch, *outcomes)
    rep = run_trial(trial_plan(_cfg(participants=6, controlled={1, 6}, receiver_strategy="random-junk")), 0)
    assert len(calls) == len(rep.classes) == 4
    assert rep.agreement is agreement
    assert rep.validity is None and rep.honest_success is None


@pytest.mark.parametrize(
    "kw, decided, counts",
    [
        (dict(), ABORT, (0, 0, 0, 5, 0, 5, 0)),
        (dict(), Decision(1), (5, 0, 5, 5, 5, 5, 5)),
        (dict(controlled={4}, receiver_strategy="silent"), Decision(0), (0, 0, 0, 0, 0, 5, 0)),
        (dict(controlled={1}, sender_strategy="silent"), ABORT, (5, 5, 0, 0, 0, 0, 0)),
        (dict(controlled={1}, sender_strategy="silent"), Decision(0), (5, 0, 5, 0, 0, 0, 0)),
    ],
    ids=["honest-abort", "honest-input", "controlled-receiver", "controlled-sender-abort", "controlled-sender-bit"],
)
def test_batch_counts_follow_the_trials_and_the_config(monkeypatch, kw, decided, counts):
    # (agreement, all abort, common value, validity applicable and held,
    # honest success applicable and held) over five trials
    _decide_as(monkeypatch, decided)
    rep = run_batch(_cfg(trials=5, **kw))
    assert counts == (
        rep.agreement_count,
        rep.all_abort_count,
        rep.common_value_count,
        rep.validity_applicable,
        rep.validity_count,
        rep.honest_success_applicable,
        rep.honest_success_count,
    )


# --- single trials ---------------------------------------------------------------


def test_all_honest_trial_decides_the_input_everywhere():
    rep = run_trial(trial_plan(SimConfig(sender_input=1)), 0)
    assert rep.decisions == {1: Decision(1), 2: Decision(1), 3: Decision(1), 4: Decision(1)}
    assert rep.agreement and rep.validity and rep.honest_success
    assert rep.forge_attempts == 0 and not rep.full_knowledge
    rep = run_trial(trial_plan(SimConfig(sender_input=0)), 3)
    assert rep.decisions[2] == Decision(0)


def test_equivocating_sender_forces_all_receivers_to_abort():
    cfg = _cfg(controlled={1}, sender_strategy="equivocate")
    for t in range(5):
        rep = run_trial(trial_plan(cfg), t)
        assert rep.decisions[1] is None  # controlled party outputs nothing
        assert rep.decisions[2] is ABORT and rep.decisions[3] is ABORT and rep.decisions[4] is ABORT
        assert rep.agreement
        assert rep.validity is None and rep.honest_success is None


def test_silent_receiver_still_lets_honest_parties_decide():
    cfg = _cfg(controlled={4}, receiver_strategy="silent")
    rep = run_trial(trial_plan(cfg), 1, capture_transcript=True)
    assert rep.decisions[2] == Decision(1) and rep.decisions[3] == Decision(1)
    assert rep.agreement and rep.honest_success
    assert rep.validity is None
    # the silent receiver's outgoing slots are recorded as silence
    assert "2 4 2 SILENT" in rep.transcript


def test_silent_sender_aborts_everywhere():
    cfg = _cfg(controlled={1}, sender_strategy="silent")
    rep = run_trial(trial_plan(cfg), 0)
    assert rep.decisions[2] is ABORT and rep.decisions[3] is ABORT and rep.decisions[4] is ABORT
    assert rep.agreement


def test_trials_are_deterministic_and_self_contained():
    cfg = _cfg(controlled={4}, receiver_strategy="forge", distributors=1, segment_length=6, trials=10)
    a = run_trial(trial_plan(cfg), 7, capture_transcript=True)
    b = run_trial(trial_plan(cfg), 7, capture_transcript=True)
    assert a == b
    kept = []
    run_batch(cfg, on_trial=kept.append)
    assert kept[7] == run_trial(trial_plan(cfg), 7, capture_transcript=True)


def test_transcript_covers_both_rounds():
    rep = run_trial(trial_plan(SimConfig(segment_length=6, distributors=1)), 0, capture_transcript=True)
    round1 = [ln for ln in rep.transcript if ln.startswith("1 ")]
    round2 = [ln for ln in rep.transcript if ln.startswith("2 ")]
    assert len(round1) == 3  # sender to each receiver
    assert len(round2) == 9  # every receiver to every receiver
    assert rep.transcript == round1 + round2  # round barrier: no interleaving


def _record_renders(monkeypatch):
    """Patch run_trial's render_message to keep every message it renders."""
    rendered = []
    real = dbasim.harness.render_message

    def recording(msg):
        rendered.append(msg)
        return real(msg)

    monkeypatch.setattr(dbasim.harness, "render_message", recording)
    return rendered


def _renders(rendered, cfg, trial):
    """How many messages one transcribed trial renders, each object at most once."""
    rendered.clear()
    rep = run_trial(trial_plan(cfg), trial, capture_transcript=True)
    assert len(rep.transcript) == (cfg.participants - 1) * cfg.participants
    # the rendered objects are kept alive in ``rendered``, so equal ids mean one object
    assert len({id(msg) for msg in rendered}) == len(rendered), "an object was rendered twice"
    return len(rendered)


def test_an_all_honest_transcript_renders_its_one_claim_once(monkeypatch):
    # the sender's claim is every line of both rounds; one line per render
    # would be 62 at n=32
    rendered = _record_renders(monkeypatch)
    cfg = SimConfig(participants=32, distributors=2, segment_length=60)
    assert [_renders(rendered, cfg, trial) for trial in range(3)] == [1, 1, 1]


def test_an_equivocating_senders_transcript_renders_its_two_claims_once(monkeypatch):
    rendered = _record_renders(monkeypatch)
    cfg = _cfg(participants=32, distributors=2, segment_length=60, controlled={1}, sender_strategy="equivocate")
    assert [_renders(rendered, cfg, trial) for trial in range(3)] == [2, 2, 2]


def test_a_forging_transcript_renders_each_distinct_object_once(monkeypatch):
    # each forger sends every other receiver its own claim and itself the
    # flag; the honest receivers relay the sender's one claim
    rendered = _record_renders(monkeypatch)
    sent = []
    real_act = dbasim.harness.adversary_act

    def recording(*args):
        out = real_act(*args)
        sent.append(out[0])
        return out

    monkeypatch.setattr(dbasim.harness, "adversary_act", recording)
    forgers = {5, 6, 7, 8}
    cfg = _cfg(participants=8, segment_length=60, controlled=forgers, receiver_strategy="forge", bribed={9, 10}, disclosure_probability=0.5)
    for trial in range(4):
        sent.clear()
        count = _renders(rendered, cfg, trial)
        assert len(sent) == len(forgers)
        assert count == 1 + len({id(msg) for messages in sent for msg in messages.values()}) == 2 + 6 * len(forgers)


def test_trial_report_serialization_round_trip_fields():
    rep = run_trial(trial_plan(_cfg(controlled={1}, sender_strategy="silent")), 2, capture_transcript=True)
    rec = rep.to_record()
    assert rec["schema_version"] == 1 and rec["record"] == "trial"
    assert rec["decisions"]["1"] == "NA"
    assert rec["decisions"]["2"] == "ABORT"
    assert rec["transcript"][0].startswith("1 1 2 ")


# --- the grouped relay round against a full n x n inbox -----------------------------


def _parse_message(text):
    """A transcript message back as a message; silence reads as the flag, as decide consumes it."""
    if text in ("BOT", "SILENT"):
        return BOT
    bit, _, positions = text.partition(":")
    return Claim(int(bit), bits(int(p) for p in positions.strip("[]").split(",") if p))


# (participants, controlled): the sender alone, the sender with receivers, and
# receivers alone, at n = 4..7; and at n = 9 no one (one decision shared by
# every receiver) and the sender alone (a random-junk sender's claims make
# each receiver decide from its own list)
_CONTROLLED_SETS = ((4, {1}), (5, {1, 5}), (6, {1, 2, 6}), (7, {1, 6, 7}), (7, {5, 6, 7}), (9, set()), (9, {1}))


@pytest.mark.parametrize("rule", ["literal", "merged"])
@pytest.mark.parametrize("receiver_strategy", sorted(RECEIVER_STRATEGIES))
@pytest.mark.parametrize("sender_strategy", sorted(SENDER_STRATEGIES))
def test_grouped_decisions_match_the_full_inbox_reference(sender_strategy, receiver_strategy, rule):
    for participants, controlled in _CONTROLLED_SETS:
        cfg = _cfg(
            participants=participants,
            distributors=1,
            segment_length=6,
            controlled=controlled,
            bribed={participants + 1},
            sender_strategy=sender_strategy,
            receiver_strategy=receiver_strategy,
            decide_rule=rule,
            master_seed=participants,
        )
        cfg.validate()
        for trial in range(4):
            _assert_reference_decisions(cfg, trial, run_trial(trial_plan(cfg), trial, capture_transcript=True))


def _reference_decisions(cfg, trial, rep):
    """Every party's decision, party by party: None for a controlled party, the honest sender's input,
    and ``reference_decide`` on each honest receiver's full round-2 inbox, read from ``rep``'s transcript."""
    plan = trial_plan(cfg)
    inboxes = {k: {} for k in plan.receivers}
    for line in rep.transcript:
        stage, j, k, text = line.split()
        if stage == "2":
            inboxes[int(k)][int(j)] = _parse_message(text)
    segments = [
        generate_segment(cfg.segment_length, cfg.participants - 1, derive_rng(cfg.master_seed, trial, "segment", dist))
        for dist in plan.distributors
    ]
    lists = combined_lists_from_segments(segments)
    controlled = cfg.controlled
    reference = dict.fromkeys(range(1, cfg.participants + 1))
    if 1 not in controlled:
        reference[1] = Decision(cfg.sender_input)
    for k in plan.receivers:
        if k not in controlled:
            reference[k] = reference_decide(inboxes[k], lists[k], cfg.decide_rule)
    return reference


def _assert_reference_decisions(cfg, trial, rep):
    """Every party's decision in ``rep`` equals :func:`_reference_decisions`."""
    assert rep.decisions == _reference_decisions(cfg, trial, rep), (cfg.participants, cfg.controlled, trial)


# (participants, controlled): controlled receivers after the last honest one
# (forge-heavy's shape at n=8, the last receiver at n=9, and with a
# controlled sender), and none after it ({3, 5, 7} leaves receiver 9 honest)
_AUDIENCE_SETS = ((8, {5, 6, 7, 8}), (9, {2, 9}), (9, {1, 6, 7, 8, 9}), (9, {3, 5, 7}))


def _audience_cfg(participants, controlled, receiver_strategy, bribed):
    cfg = _cfg(
        participants=participants,
        distributors=2,
        segment_length=12,
        controlled=controlled,
        bribed={participants + 1, participants + 2} if bribed else set(),
        disclosure_probability=0.75,
        receiver_strategy=receiver_strategy,
        master_seed=participants + len(controlled),
    )
    cfg.validate()
    return cfg


@pytest.mark.parametrize("bribed", [False, True], ids=["bribed-none", "bribed-all"])
@pytest.mark.parametrize("receiver_strategy", sorted(RECEIVER_STRATEGIES))
def test_trials_without_a_transcript_equal_trials_with_one(receiver_strategy, bribed):
    # without a transcript the controlled relayers address only the
    # receivers up to the last honest one; every field a trial reports
    # must stay what the full audience gives
    attempts = 0
    for participants, controlled in _AUDIENCE_SETS:
        cfg = _audience_cfg(participants, controlled, receiver_strategy, bribed)
        for trial in range(6):
            full = run_trial(trial_plan(cfg), trial, capture_transcript=True)
            assert full.transcript
            assert run_trial(trial_plan(cfg), trial) == full._replace(transcript=None), (participants, controlled, trial)
            attempts += full.forge_attempts
    if receiver_strategy == "forge" or (receiver_strategy == "omniscient-forge" and bribed):
        assert attempts


@pytest.mark.parametrize("receiver_strategy", ["forge", "random-junk", "omniscient-forge"])
def test_round2_strategies_address_receivers_up_to_the_last_honest_one(monkeypatch, receiver_strategy):
    audiences = []
    real = dbasim.harness.adversary_act

    def recording(cfg, party, incoming, know, receivers, rng):
        if party != 1:
            audiences.append(tuple(receivers))
        return real(cfg, party, incoming, know, receivers, rng)

    monkeypatch.setattr(dbasim.harness, "adversary_act", recording)
    for participants, controlled in _AUDIENCE_SETS:
        cfg = _audience_cfg(participants, controlled, receiver_strategy, bribed=True)
        receivers = trial_plan(cfg).receivers
        last_honest = max(k for k in receivers if k not in controlled)
        relayers = len(controlled - {1})
        audiences.clear()
        run_batch(cfg._replace(trials=4))
        assert audiences == [tuple(range(2, last_honest + 1))] * (4 * relayers)
        audiences.clear()
        run_batch(cfg._replace(trials=4), on_trial=lambda rep: None)
        assert audiences == [receivers] * (4 * relayers)


@pytest.mark.parametrize("sender_strategy", ["honest-mimic", "equivocate", "random-junk"])
@pytest.mark.parametrize("controlled", [{1}, {1, 6}])
@pytest.mark.parametrize("shape", ["copies", "one-object"])
def test_equal_but_distinct_round1_objects_give_the_reference_decisions(monkeypatch, sender_strategy, controlled, shape):
    # classes go by object identity.  A controlled sender that sends every
    # receiver its own copy of a claim makes one class per receiver, which
    # must not change any decision.  One that sends every receiver the same
    # object makes one class, which a random-junk claim fails against the
    # sender's list, so its members relay from their own lists.  Either way
    # each decision stays the per-receiver reference's.
    cfg = _cfg(
        participants=7,
        distributors=1,
        segment_length=6,
        controlled=controlled,
        sender_strategy=sender_strategy,
        master_seed=11,
    )
    cfg.validate()
    unchanged = [run_trial(trial_plan(cfg), trial, capture_transcript=True) for trial in range(16)]
    real = dbasim.harness.adversary_act

    def reshaped(cfg, party, incoming, know, receivers, rng):
        messages, forged = real(cfg, party, incoming, know, receivers, rng)
        if party == 1 and shape == "copies":
            messages = {k: Claim(msg.bit, msg.mask) if isinstance(msg, Claim) else msg for k, msg in messages.items()}
        elif party == 1:
            messages = dict.fromkeys(messages, messages[receivers[0]])
        return messages, forged

    classed = []
    real_class_relay = dbasim.harness.class_relay

    def counting_class_relay(received, sender_list):
        classed.append(received)
        return real_class_relay(received, sender_list)

    monkeypatch.setattr(dbasim.harness, "adversary_act", reshaped)
    monkeypatch.setattr(dbasim.harness, "class_relay", counting_class_relay)
    honest_receivers = [k for k in trial_plan(cfg).receivers if k not in controlled]
    split = 0  # trials where one class's members relayed differently
    for trial in range(16):
        classed.clear()
        rep = run_trial(trial_plan(cfg), trial, capture_transcript=True)
        _assert_reference_decisions(cfg, trial, rep)
        if shape == "copies":
            # the receivers decide in classes of one, to the same per-party decisions
            assert rep._replace(classes=()) == unchanged[trial]._replace(classes=())
            assert rep.decisions == unchanged[trial].decisions
            assert len(classed) == len(honest_receivers)  # one class per receiver
        else:
            assert len(classed) == 1
            relays = {ln.split()[3] for ln in rep.transcript if ln.startswith("2 ") and int(ln.split()[1]) in honest_receivers}
            split += len(relays) > 1
    if shape == "one-object" and sender_strategy == "random-junk":
        assert split


def _record_decide_sizes(monkeypatch):
    """Patch run_trial's decide to record how many (message, count) pairs each call gets."""
    sizes = []
    real = dbasim.harness.decide

    def recording(relays, own_list, rule="literal"):
        relays = list(relays)
        sizes.append(len(relays))
        return real(relays, own_list, rule=rule)

    monkeypatch.setattr(dbasim.harness, "decide", recording)
    return sizes


def test_all_honest_decide_calls_get_at_most_two_pairs(monkeypatch):
    # the 31 honest receivers share one decision per trial, made from one
    # pair per distinct relay (the sender's claim, or the flag), not one per
    # relayer, which would be 31 here
    sizes = _record_decide_sizes(monkeypatch)
    run_batch(SimConfig(participants=32, distributors=2, segment_length=60, trials=3))
    assert len(sizes) == 3
    assert max(sizes) <= 2


def test_forging_decide_calls_get_one_pair_per_distinct_honest_relay_and_forger(monkeypatch):
    sizes = _record_decide_sizes(monkeypatch)
    forgers = {5, 6, 7, 8}
    cfg = _cfg(
        participants=8,
        segment_length=60,
        controlled=forgers,
        receiver_strategy="forge",
        bribed={9, 10},
        disclosure_probability=0.5,
    )
    for trial in range(6):
        sizes.clear()
        rep = run_trial(trial_plan(cfg), trial, capture_transcript=True)
        honest_relays = {ln.split()[3] for ln in rep.transcript if ln.startswith("2 ") and int(ln.split()[1]) not in forgers}
        assert len(sizes) == 3
        assert max(sizes) <= len(honest_relays) + len(forgers) < cfg.participants - 1


@pytest.fixture
def built(monkeypatch):
    """The party of every list ``listgen.combine_segments`` builds, in order."""
    made = []
    real_combine = dbasim.listgen.combine_segments

    def combine(party, segments):
        made.append(party)
        return real_combine(party, segments)

    monkeypatch.setattr(dbasim.listgen, "combine_segments", combine)
    return made


def test_all_honest_trials_make_no_receiver_list_at_any_size(monkeypatch, built):
    # an all-honest trial reads only the sender's list, so the one list
    # built per trial is the sender's, and the check and decide calls per
    # trial do not grow with the party count
    calls = {}
    real_check = dbasim.protocol.check_claim
    real_decide = dbasim.harness.decide

    def counting_check(claim, own_list):
        calls["check_claim"] += 1
        return real_check(claim, own_list)

    def counting_decide(relays, own_list, rule="literal"):
        calls["decide"] += 1
        return real_decide(relays, own_list, rule=rule)

    monkeypatch.setattr(dbasim.protocol, "check_claim", counting_check)
    monkeypatch.setattr(dbasim.harness, "check_claim", counting_check)
    monkeypatch.setattr(dbasim.harness, "decide", counting_decide)
    per_size = {}
    for participants in (32, 200):
        built.clear()
        calls.update(check_claim=0, decide=0)
        report = run_batch(SimConfig(participants=participants, distributors=2, segment_length=60, trials=3))
        assert report.agreement_count == report.validity_count == 3
        assert built == [1, 1, 1]
        per_size[participants] = dict(calls)
    assert per_size[32] == per_size[200] == {"check_claim": 6, "decide": 3}


@pytest.mark.parametrize("receiver_strategy", ["honest-mimic", "silent", "flag-always", "omniscient-forge"])
def test_inboxes_of_relayed_claims_are_decided_on_the_senders_list(built, receiver_strategy):
    # the controlled relayer sends each honest receiver nothing but the flag,
    # silence or a claim the honest receivers relay too, so every honest
    # decision is made on the sender's list: the lists built per trial are
    # the sender's and the controlled relayer's own
    cfg = _cfg(participants=32, distributors=2, segment_length=12, controlled={2}, receiver_strategy=receiver_strategy, trials=4)
    assert run_batch(cfg).agreement_count == 4
    assert built == [1, 2] * 4


@pytest.mark.parametrize("rule", ["literal", "merged"])
@pytest.mark.parametrize("receiver_strategy", ["random-junk", "forge"])
def test_inboxes_with_claims_no_honest_receiver_relayed_are_decided_on_own_lists(receiver_strategy, rule):
    # m=6 makes a junk or forged claim that fails against the sender's list
    # pass at about a third of the receivers' own lists
    cfg = _cfg(
        participants=32,
        distributors=1,
        segment_length=6,
        controlled={2},
        receiver_strategy=receiver_strategy,
        decide_rule=rule,
    )
    cfg.validate()
    for trial in range(4):
        _assert_reference_decisions(cfg, trial, run_trial(trial_plan(cfg), trial, capture_transcript=True))


@pytest.mark.parametrize(
    "kw",
    [
        dict(receiver_strategy="honest-mimic"),
        dict(receiver_strategy="silent"),
        dict(receiver_strategy="flag-always"),
        dict(receiver_strategy="omniscient-forge"),
        dict(receiver_strategy="omniscient-forge", controlled={7}, bribed={8, 9}, disclosure_probability=0.9),
    ],
    ids=["honest-mimic", "silent", "flag-always", "omniscient-honest", "omniscient-forging"],
)
def test_controlled_relays_merge_into_the_groups_by_identity(monkeypatch, kw):
    # a controlled relayer's message counts in the group of the very object
    # it relays, as an honest one does: each decide gets the sender's claim
    # and at most one other message (the flag, silence, or the forged claim
    # to the victim), where one pair per controlled relayer's message would
    # make three for the first four cases and, for everyone but the victim,
    # two for the last; and each distinct inbox is decided once, so a trial
    # makes one call, plus one for the victim when there is one
    sizes = _record_decide_sizes(monkeypatch)
    cfg = _cfg(participants=7, trials=8, **{"controlled": {6, 7}, **kw})
    reports = []
    run_batch(cfg, on_trial=reports.append)
    assert len(sizes) == sum(1 + bool(rep.forge_attempts) for rep in reports)
    assert max(sizes) <= 2
    if "bribed" in kw:
        # the victim alone sees the forged claim beside the shared one
        assert any(rep.forge_attempts for rep in reports)
        assert sizes.count(2) == sum(rep.forge_attempts for rep in reports)



@pytest.mark.parametrize(
    "controlled, receiver_strategy",
    [({2}, "silent"), ({2}, "honest-mimic"), ({2}, "flag-always"), ({2}, "omniscient-forge"), ({2, 3}, "silent"), ({2}, "forge")],
    ids=["silent", "honest-mimic", "flag-always", "omniscient-honest", "two-silent", "forge"],
)
def test_one_decide_per_distinct_honest_inbox_at_any_size(monkeypatch, controlled, receiver_strategy):
    # honest receivers that got the same controlled messages share an inbox
    # and one decision; a forger sends each honest receiver its own claim
    sizes = _record_decide_sizes(monkeypatch)
    for participants in (32, 200):
        sizes.clear()
        cfg = _cfg(
            participants=participants,
            distributors=2,
            segment_length=60,
            controlled=controlled,
            receiver_strategy=receiver_strategy,
            trials=2,
        )
        run_batch(cfg)
        per_trial = participants - 1 - len(controlled) if receiver_strategy == "forge" else 1
        assert len(sizes) == 2 * per_trial

# --- the trial plan ---------------------------------------------------------------


@pytest.mark.parametrize("bribed", [(), (9, 10)], ids=["unbribed", "bribed"])
@pytest.mark.parametrize("receiver_strategy", sorted(RECEIVER_STRATEGIES))
@pytest.mark.parametrize("sender_strategy", sorted(SENDER_STRATEGIES))
def test_a_trial_run_alone_equals_the_record_its_batch_streams(sender_strategy, receiver_strategy, bribed):
    # run_batch builds the plan once and hands it to every trial; a trial
    # run alone builds its own, with or without a transcript
    for seed, controlled in enumerate([{1, 5, 7}, {8}, {1}]):
        cfg = _cfg(
            participants=8,
            controlled=controlled,
            bribed=bribed,
            disclosure_probability=0.75,
            sender_strategy=sender_strategy,
            receiver_strategy=receiver_strategy,
            trials=4,
            master_seed=seed,
        )
        streamed = []
        run_batch(cfg, on_trial=lambda rep: streamed.append(rep.to_record()))
        reports = [run_trial(trial_plan(cfg), t, capture_transcript=True) for t in range(cfg.trials)]
        assert [rep.to_record() for rep in reports] == streamed
        assert all(rep.plan.config == cfg for rep in reports)
        for t, rep in enumerate(reports):  # the classes expand to the per-party reference
            assert rep.decisions == _reference_decisions(cfg, t, rep)
        untranscribed = [{k: v for k, v in rec.items() if k != "transcript"} for rec in streamed]
        assert [run_trial(trial_plan(cfg), t).to_record() for t in range(cfg.trials)] == untranscribed


@pytest.mark.parametrize("participants, distributors, segment_length", [(200, 2, 60), (997, 1, 6)])
def test_an_all_honest_trial_holds_one_decided_class(participants, distributors, segment_length):
    cfg = _cfg(participants=participants, distributors=distributors, segment_length=segment_length, trials=2)
    plan = trial_plan(cfg)
    for trial in range(cfg.trials):
        rep = run_trial(plan, trial)
        assert len(rep.classes) == 1
        members, decision = rep.classes[0]
        assert list(members) == list(range(2, participants + 1)) and decision == Decision(1)
        assert rep.plan is plan  # shared, not copied per trial
        assert rep.decisions == dict.fromkeys(range(1, participants + 1), Decision(1))


@pytest.mark.parametrize(
    "kw, resolved_per_trial",
    [
        (dict(), 0),
        (dict(participants=32, distributors=2, segment_length=60, sender_input=0), 0),
        (dict(controlled={4}, receiver_strategy="silent"), 1),
        (dict(controlled={1}, sender_strategy="equivocate"), 1),
        (dict(bribed={5, 6}), 1),
    ],
    ids=["all-honest", "honest-wide", "controlled-receiver", "controlled-sender", "bribed-only"],
)
def test_only_a_batch_with_an_adversary_resolves_bribes(monkeypatch, kw, resolved_per_trial):
    calls = []
    real = dbasim.harness.resolve_bribes

    def counting(cfg, rng, segments, lists):
        calls.append(cfg)
        return real(cfg, rng, segments, lists)

    monkeypatch.setattr(dbasim.harness, "resolve_bribes", counting)
    cfg = _cfg(trials=6, **kw)
    records = []
    report = run_batch(cfg, on_trial=lambda rep: records.append(rep.to_record()))
    assert len(calls) == resolved_per_trial * cfg.trials
    if not cfg.bribed:
        assert all(rec["disclosed"] == [False] * cfg.distributors for rec in records)
        assert not any(rec["full_knowledge"] for rec in records)
        assert report.full_knowledge_count == 0
    if not kw.get("controlled"):
        assert report.agreement_count == report.validity_count == cfg.trials


# --- lazy coins -------------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        SimConfig(participants=32, distributors=2, segment_length=60, trials=3),
        SimConfig(participants=5, distributors=3, segment_length=6, trials=6, sender_input=0),
        _cfg(controlled={1}, sender_strategy="equivocate", trials=6),
        _cfg(participants=9, distributors=1, segment_length=18, controlled={1}, sender_strategy="equivocate", trials=6),
    ],
    ids=["honest-wide", "honest-small", "equivocate", "equivocate-wide"],
)
def test_trials_whose_claims_stay_on_agreement_positions_shuffle_once_per_segment(monkeypatch, cfg):
    # every claim is a full honest claim, so no receiver's coins are ever
    # read: the only shuffle per segment is the sender's
    shuffles = []
    real = dbasim.listgen.shuffle

    def counting(x, rng):
        shuffles.append(len(x))
        real(x, rng)

    monkeypatch.setattr(dbasim.listgen, "shuffle", counting)
    run_batch(cfg)
    assert shuffles == [cfg.segment_length] * (cfg.distributors * cfg.trials)


# --- batches ---------------------------------------------------------------------


def test_batch_counts_add_up_and_intervals_attach():
    cfg = _cfg(controlled={4}, receiver_strategy="forge", distributors=1, segment_length=6, trials=300)
    rep = run_batch(cfg)
    assert rep.agreement_count == rep.all_abort_count + rep.common_value_count
    assert 0 <= rep.agreement_rate <= 1
    assert rep.forge_attempts == 600
    lo, hi = wilson_interval(rep.forge_successes, rep.forge_attempts)
    assert 0 <= lo <= rep.forge_success_rate <= hi <= 1
    assert rep.forge_oracle is not None
    rec = rep.to_record()
    assert rec["schema_version"] == 1 and rec["record"] == "batch"
    assert rec["config"]["trials"] == 300
    assert rec["forge_oracle"] == "2/3"


def test_single_trial_batch_matches_the_trial_report():
    cfg = SimConfig(trials=1)
    kept = []
    batch = run_batch(cfg, on_trial=kept.append)
    [trial] = kept
    assert batch.agreement_count == int(trial.agreement)
    assert batch.validity_applicable == 1
    assert batch.validity_count == int(trial.validity)
    assert batch.honest_success_count == int(trial.honest_success)


def test_all_honest_batch_is_perfect():
    rep = run_batch(SimConfig(trials=150))
    assert rep.agreement_rate == 1.0
    assert rep.validity_rate == 1.0
    assert rep.honest_success_rate == 1.0
    assert rep.all_abort_count == 0 and rep.common_value_count == 150


def test_merged_rule_is_accepted_end_to_end():
    rep = run_batch(SimConfig(trials=50, decide_rule="merged"))
    assert rep.agreement_rate == 1.0 and rep.validity_rate == 1.0


def test_forge_violation_rate_tracks_the_exact_oracle():
    # with one forger and two honest receivers, agreement survives only when
    # both forged claims fail: (1 - q)^2 with q = 2/3 at this size
    cfg = _cfg(controlled={4}, receiver_strategy="forge", distributors=1, segment_length=6, trials=2500)
    rep = run_batch(cfg)
    q = float(rep.forge_oracle)
    expect = (1 - q) ** 2
    lo, hi = binom_interval(0.999, cfg.trials, expect)
    assert lo <= rep.agreement_count <= hi
    # forge empirics also track the per-attempt rate
    lo, hi = binom_interval(0.999, rep.forge_attempts, q)
    assert lo <= rep.forge_successes <= hi


def test_two_controlled_receivers_with_junk_keep_agreement():
    cfg = SimConfig(
        participants=5,
        segment_length=60,
        controlled=frozenset({4, 5}),
        receiver_strategy="random-junk",
        trials=200,
    )
    rep = run_batch(cfg)
    assert rep.agreement_rate == 1.0
    assert rep.honest_success_rate == 1.0


def test_wilson_interval_edge_cases():
    assert wilson_interval(0, 0) is None
    lo, hi = wilson_interval(0, 20)
    assert lo == 0.0 and 0 < hi < 0.25
    lo, hi = wilson_interval(20, 20)
    assert 0.75 < lo < 1 and hi == 1.0


_SUCCESSES_AND_TOTAL = st.integers(1, 10**6).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n)))


@settings(max_examples=1000, deadline=None)
@given(case=_SUCCESSES_AND_TOTAL)
@example(case=(0, 1))
@example(case=(1, 1))
@example(case=(0, 37))
@example(case=(37, 37))
@example(case=(0, 10**6))
@example(case=(10**6, 10**6))
def test_wilson_interval_equals_scipy_bit_for_bit(case):
    # the machine output's *_ci floats were first recorded with scipy, so the
    # stdlib form must agree exactly, not approximately
    binomtest = pytest.importorskip("scipy.stats").binomtest
    k, n = case
    ci = binomtest(k, n).proportion_ci(method="wilson")
    assert wilson_interval(k, n) == (ci.low, ci.high)


def test_importing_the_cli_leaves_out_scipy_dataclasses_and_fractions():
    # a fresh interpreter, so a transitive import anywhere in the package
    # shows, and -S, so a site .pth hook cannot load a module first;
    # importlib.resources is checked because on 3.12+ it imports inspect.
    # fractions loads only for a forge reference, which a forging run
    # still prints; _hashlib (OpenSSL) stays out because derive_rng takes
    # the interpreter's built-in sha256
    src = os.path.dirname(os.path.dirname(dbasim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, dbasim.cli\n"
        "print(sorted(m for m in ('scipy', 'dataclasses', 'inspect', 'importlib.resources', 'fractions', '_hashlib') if m in sys.modules))\n"
        "dbasim.cli.main(['--scenario', 'forging-receiver', '--trials', '20', '--output', 'machine'])\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    loaded, *batches = out.stdout.splitlines()
    assert loaded == "[]"
    assert [json.loads(line)["forge_oracle"] for line in batches] == ["2/5"]


def test_expected_full_knowledge_needs_every_distributor_bribed():
    full = _cfg(controlled={4}, bribed={5, 6}, disclosure_probability=0.5, trials=1)
    assert run_batch(full).expected_full_knowledge == 0.25
    partial = _cfg(controlled={4}, bribed={5}, disclosure_probability=0.5, trials=1)
    assert run_batch(partial).expected_full_knowledge == 0.0


# --- confidentiality: the adversary only sees Knowledge ---------------------------


def _run_redrawn(monkeypatch, cfg, trial, salts):
    """``run_trial`` with honest receivers' discord bits redrawn after generation.

    ``salts`` maps distributor index -> salt.  Each listed distributor's
    segment gets its honest receivers' discord bits redrawn from the
    ``(seed, trial, "perturb", dist, salt)`` stream, ascending by receiver;
    everything else stays put.  ``run_trial`` generates one segment per
    distributor in the plan's ``distributors`` order, which is how the
    wrapper tells which distributor a call is for.
    """
    plan = trial_plan(cfg)
    honest_receivers = sorted(k for k in plan.receivers if k not in cfg.controlled)
    dists = iter(plan.distributors)

    def redrawn(m, receiver_count, rng):
        seg = generate_segment(m, receiver_count, rng)
        dist = next(dists)
        if dist not in salts:
            return seg
        perturb = derive_rng(cfg.master_seed, trial, "perturb", dist, salts[dist])
        discord = mask_positions(((1 << m) - 1) & ~(seg.sender_zeros | seg.sender_ones))
        sixth = len(discord) // 2
        ones = dict(seg.receiver_ones)
        for k in honest_receivers:
            coins = [0] * sixth + [1] * sixth
            perturb.shuffle(coins)
            ones[k] = seg.sender_ones | mask_of((pos for pos, coin in zip(discord, coins) if coin), m)
        return seg._replace(receiver_ones=ones)

    with monkeypatch.context() as patch:
        patch.setattr(dbasim.harness, "generate_segment", redrawn)
        report = run_trial(trial_plan(cfg), trial, capture_transcript=True)
    assert next(dists, None) is None, "run_trial generated fewer segments than there are distributors"
    return report


def _adversary_lines(report, controlled):
    return [ln for ln in report.transcript if ln.split()[0] == "2" and int(ln.split()[1]) in controlled] + [
        ln for ln in report.transcript if ln.split()[0] == "1" and 1 in controlled
    ]


def test_adversary_messages_ignore_undisclosed_discord_values(monkeypatch):
    # no bribery: every segment is undisclosed, so redrawing honest receivers'
    # hidden bits must leave all adversary traffic untouched
    cfg = _cfg(controlled={4}, receiver_strategy="forge", trials=1)
    for trial in range(6):
        base = run_trial(trial_plan(cfg), trial, capture_transcript=True)
        shuffled = _run_redrawn(monkeypatch, cfg, trial, {5: 1, 6: 2})
        assert _adversary_lines(base, {4}) == _adversary_lines(shuffled, {4})


def test_adversary_messages_ignore_undisclosed_segments_under_bribery(monkeypatch):
    cfg = _cfg(controlled={4}, bribed={5, 6}, disclosure_probability=0.5, receiver_strategy="omniscient-forge", trials=1)
    checked = 0
    for trial in range(20):
        base = run_trial(trial_plan(cfg), trial, capture_transcript=True)
        hidden = [dist for dist, leaked in zip((5, 6), base.disclosed) if not leaked]
        if not hidden:
            continue
        shuffled = _run_redrawn(monkeypatch, cfg, trial, {d: 9 for d in hidden})
        assert _adversary_lines(base, {4}) == _adversary_lines(shuffled, {4})
        assert base.disclosed == shuffled.disclosed
        checked += 1
    assert checked >= 5


def test_full_reports_survive_redraws_when_claims_do_not_touch_discord(monkeypatch):
    # equivocation sends full honest claims, consistent no matter how the
    # hidden bits fall, so even the honest side's outcome is unchanged
    cfg = _cfg(controlled={1}, sender_strategy="equivocate", trials=1)
    for trial in range(5):
        base = run_trial(trial_plan(cfg), trial, capture_transcript=True)
        shuffled = _run_redrawn(monkeypatch, cfg, trial, {5: 3, 6: 4})
        assert base.decisions == shuffled.decisions
        assert base.agreement == shuffled.agreement
        assert _adversary_lines(base, {1}) == _adversary_lines(shuffled, {1})


def _reachable(root):
    """Every object reachable from ``root`` through ``gc.get_referents``, classes left out."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if not isinstance(ref, type) and id(ref) not in seen:
                seen[id(ref)] = ref
                stack.append(ref)
    return list(seen.values())


def _check_closed(know):
    """Assert that ``know`` reaches no undisclosed segment, no coin store and no rng."""
    reached = _reachable(know)
    disclosed = {id(seg) for seg in know.disclosed.values()}
    stray = [type(obj).__name__ for obj in reached if isinstance(obj, (CoinStore, random.Random))]
    stray += ["undisclosed Segment" for obj in reached if isinstance(obj, Segment) and id(obj) not in disclosed]
    assert not stray, stray


@pytest.mark.parametrize(
    "kw",
    [
        dict(controlled={4}, receiver_strategy="forge"),
        dict(participants=8, controlled={5, 6, 7, 8}, receiver_strategy="forge", bribed={9, 10}),
        dict(controlled={4}, receiver_strategy="omniscient-forge", bribed={5, 6}),
        dict(participants=6, controlled={1, 3}, sender_strategy="equivocate", receiver_strategy="random-junk", bribed={7}),
    ],
    ids=["forge", "forge-bribed", "omniscient-bribed", "sender-and-receiver"],
)
def test_knowledge_reaches_no_undisclosed_segment_coin_store_or_rng(monkeypatch, kw):
    # walked the moment resolve_bribes hands it over, before any strategy
    # or honest check has drawn coins
    real = dbasim.harness.resolve_bribes
    handed = []

    def walking(cfg, rng, segments, lists):
        know = real(cfg, rng, segments, lists)
        _check_closed(know)
        handed.append(know)
        return know

    monkeypatch.setattr(dbasim.harness, "resolve_bribes", walking)
    cfg = _cfg(trials=12, **kw)
    run_batch(cfg)
    assert len(handed) == 12 and all(isinstance(know, Knowledge) for know in handed)
    if cfg.bribed:
        assert any(know.disclosed for know in handed)
    # walked again once the trial's forgers have filled its known positions
    for know in handed:
        _check_closed(know)
    if cfg.receiver_strategy == "forge":
        assert all(know.known for know in handed)
