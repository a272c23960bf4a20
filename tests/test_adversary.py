"""Corruption model, bribery knowledge, forging, and the exact-rate oracles."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dbasim.adversary import (
    FORGING_RECEIVER_STRATEGIES,
    Knowledge,
    RECEIVER_STRATEGIES,
    SENDER_STRATEGIES,
    adversary_act,
    forge_claim,
    forge_heuristic,
    forge_success_closed_form,
    resolve_bribes,
)
from dbasim.harness import SimConfig, run_batch
from dbasim.listgen import combined_lists_from_segments, generate_segment, mask_positions
from dbasim.protocol import BOT, Claim, check_claim, make_claim
from forgeoracle import ORACLE_ENUMERATION_BOUND, forge_success_enumerated, forge_success_oracle
from symbols import bits, claimed, combined, entries


def _setup(m=12, d=2, receivers=3, seed=0):
    rng = random.Random(seed)
    segs = {dist: generate_segment(m, receivers, rng) for dist in range(receivers + 2, receivers + 2 + d)}
    lists = combined_lists_from_segments([segs[k] for k in sorted(segs)])
    return segs, lists


def _knowledge(segs, disclosed=(), controlled=()):
    """The Knowledge :func:`resolve_bribes` builds when exactly the ``disclosed`` distributors leak."""
    lists = combined_lists_from_segments([segs[k] for k in sorted(segs)])
    cfg = SimConfig(controlled=frozenset(controlled), bribed=frozenset(segs))
    coins = SimpleNamespace(random=iter([0.0 if k in disclosed else 1.0 for k in sorted(segs)]).__next__)
    return resolve_bribes(cfg, coins, segs, lists)


# --- the adversary's fields of SimConfig ---------------------------------------


def test_spec_validation_accepts_the_defaults():
    SimConfig().validate()


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_spec_rejects_degenerate_disclosure_probability(p):
    with pytest.raises(ValueError, match="0 < p < 1"):
        SimConfig(disclosure_probability=p).validate()


def test_spec_rejects_out_of_range_indices():
    with pytest.raises(ValueError, match=r"controlled indices \[5\]"):
        SimConfig(controlled=frozenset({5})).validate()
    with pytest.raises(ValueError, match=r"bribed indices \[4\]"):
        SimConfig(bribed=frozenset({4})).validate()
    with pytest.raises(ValueError, match=r"bribed indices \[8\]"):
        SimConfig(bribed=frozenset({8})).validate()


def test_spec_requires_three_honest_participants():
    with pytest.raises(ValueError, match="at least 3 honest"):
        SimConfig(controlled=frozenset({1, 2})).validate()
    SimConfig(participants=5, controlled=frozenset({1, 2})).validate()


def test_spec_rejects_unknown_strategy_names():
    with pytest.raises(ValueError, match="unknown sender strategy"):
        SimConfig(sender_strategy="mystery").validate()
    with pytest.raises(ValueError, match="unknown receiver strategy"):
        SimConfig(receiver_strategy="mystery").validate()


# --- bribery and knowledge ---------------------------------------------------


def test_no_bribes_yields_only_own_data():
    segs, lists = _setup()
    cfg = SimConfig(controlled=frozenset({4}))
    know = resolve_bribes(cfg, random.Random(0), segs, lists)
    assert know.disclosed == {}
    assert not know.full_disclosure
    assert list(know.own_lists) == [4]
    assert know.own_lists[4] is lists[4]
    assert know.known_positions(2, 0) == 0 and know.known_positions(2, 1) == 0
    assert know.covered == 0
    # each trial's forgers share a fresh view, never one from another trial
    again = resolve_bribes(cfg, random.Random(0), segs, lists)
    assert know.known == {} == again.known and know.known is not again.known


def test_unbribed_distributors_never_leak():
    segs, lists = _setup(d=3)
    cfg = SimConfig(bribed=frozenset({5}), disclosure_probability=0.9)
    for seed in range(200):
        know = resolve_bribes(cfg, random.Random(seed), segs, lists)
        assert set(know.disclosed) <= {5}


def test_full_knowledge_frequency_tracks_the_coin_product():
    segs, lists = _setup(d=3)
    cfg = SimConfig(controlled=frozenset({4}), bribed=frozenset({5, 6, 7}), disclosure_probability=0.5)
    hits = sum(resolve_bribes(cfg, random.Random(seed), segs, lists).full_disclosure for seed in range(4000))
    assert abs(hits / 4000 - 0.125) < 0.02


def test_disclosed_segments_reveal_every_party_exactly():
    segs, lists = _setup(m=6, d=2)
    know = _knowledge(segs, disclosed=sorted(segs))
    assert know.full_disclosure
    assert know.covered == (1 << 12) - 1
    # the 0- and 1-masks pin each party's value everywhere, the sender's
    # discord entries too: they are the positions in neither mask
    for party in (1, 2, 3, 4):
        for bit in (0, 1):
            assert know.known_positions(party, bit) == lists[party].mask(bit)


def test_partial_disclosure_covers_only_that_segment():
    segs, lists = _setup(m=6, d=2)
    first = sorted(segs)[0]
    know = _knowledge(segs, disclosed=[first])
    assert know.covered == (1 << 6) - 1
    for bit in (0, 1):
        assert know.known_positions(2, bit) == lists[2].mask(bit) & know.covered


# --- forging ------------------------------------------------------------------


def test_forge_success_two_thirds_by_hand_enumeration():
    # One explicit tiny instance, checked against the real claim checker:
    # sender (0,1,2,0,1,2), forger holds 1 at discord position 2 and 0 at 5,
    # sender announced 0, forged bit 1.  Candidates: {1, 4} guaranteed, {2}
    # discord.  The target holds 1 on exactly one of the discord positions.
    sender = (0, 1, 2, 0, 1, 2)
    forger_bits = (0, 1, 1, 0, 1, 0)
    sender_claimed = tuple(j for j, v in enumerate(sender) if v == 0)
    candidates = [x for x in range(6) if forger_bits[x] == 1 and x not in sender_claimed]
    assert candidates == [1, 2, 4]
    good = total = 0
    for target_one in ((2,), (5,)):
        target = combined(tuple(1 if (sender[j] == 1 or j in target_one) else 0 for j in range(6)))
        for pair in itertools.combinations(candidates, 2):
            total += 1
            good += check_claim(Claim(1, bits(pair)), target)
    assert Fraction(good, total) == Fraction(2, 3)
    assert forge_success_oracle(6, 1) == Fraction(2, 3)


def test_oracle_matches_closed_form_on_every_feasible_size():
    sizes = [(m, d) for m in range(6, ORACLE_ENUMERATION_BOUND + 1, 6) for d in range(1, ORACLE_ENUMERATION_BOUND // m + 1)]
    assert len(sizes) == 8
    for m, d in sizes:
        assert forge_success_oracle(m, d) == forge_success_closed_form(m, d), (m, d)


def test_closed_form_equals_the_sum_over_every_tuple_of_discord_picks():
    for m, d in [*((m, d) for m in (6, 12, 18, 24) for d in range(1, 7)), (60, 1), (60, 2), (60, 3)]:
        assert forge_success_closed_form(m, d) == forge_success_enumerated(m, d), (m, d)


def test_oracle_success_decays_with_length():
    assert forge_success_oracle(12, 1) < forge_success_oracle(6, 1)
    assert forge_success_closed_form(18, 1) < forge_success_closed_form(12, 1)
    assert forge_success_closed_form(60, 2) < Fraction(1, 10000)


def test_oracle_full_disclosure_is_certainty():
    assert forge_success_oracle(6, 1, [True]) == 1
    assert forge_success_oracle(12, 2, [True, True]) == 1


def test_oracle_is_monotone_in_disclosure():
    none = forge_success_oracle(12, 2)
    partial = forge_success_oracle(12, 2, [True, False])
    assert none < partial < 1


def test_oracle_ignores_which_segment_leaked():
    assert forge_success_oracle(12, 2, [True, False]) == forge_success_oracle(12, 2, [False, True])
    assert forge_success_oracle(6, 2, [True, False]) == forge_success_oracle(6, 2, [False, True])


def test_oracle_rejects_oversized_instances_and_bad_patterns():
    with pytest.raises(ValueError, match="too large"):
        forge_success_oracle(30, 1)
    with pytest.raises(ValueError, match="too large"):
        forge_success_oracle(12, 3)
    with pytest.raises(ValueError, match="pattern"):
        forge_success_oracle(12, 2, [True])
    with pytest.raises(ValueError, match="multiple of 6"):
        forge_success_oracle(8, 1)


def test_heuristic_is_the_power_of_one_half():
    assert forge_heuristic(6, 1) == 0.25
    assert forge_heuristic(12, 1) == 0.0625
    assert forge_heuristic(12, 2) == 0.5**8


def _forge_one(bit, own, sender_claim, know, target, rng):
    return forge_claim(bit, own, sender_claim, know, (target,), rng)[target]


def test_forged_claim_is_wellformed_and_on_candidates():
    segs, lists = _setup(m=12, d=2)
    know = _knowledge(segs, controlled=(4,))
    sender_claim = make_claim(0, lists[1])
    for seed in range(30):
        claim = _forge_one(1, lists[4], sender_claim, know, 2, random.Random(seed))
        assert claim.bit == 1
        assert len(claimed(claim)) == 8
        assert not claim.mask & ~lists[4].ones  # every position holds 1 on the forger's list
        assert not claim.mask & sender_claim.mask


def test_forge_with_full_knowledge_always_passes():
    for seed in range(20):
        segs, lists = _setup(m=12, d=2, seed=seed)
        know = _knowledge(segs, disclosed=sorted(segs), controlled=(4,))
        claim = _forge_one(1, lists[4], make_claim(0, lists[1]), know, 2, random.Random(seed))
        assert check_claim(claim, lists[2])
        # the lowest eight of the target's twelve known 1-positions
        assert claimed(claim) == tuple(mask_positions(lists[2].ones)[:8])


def test_forge_uses_known_positions_before_guessing():
    segs, lists = _setup(m=6, d=2)
    first = sorted(segs)[0]
    know = _knowledge(segs, disclosed=[first], controlled=(4,))
    claim = _forge_one(1, lists[4], make_claim(0, lists[1]), know, 2, random.Random(1))
    known_good = know.known_positions(2, 1)
    # every known-good position is used (3 available, 4 needed)
    assert known_good.bit_count() == 3
    assert not known_good & ~claim.mask
    assert all(x >= 6 for x in mask_positions(claim.mask & ~known_good))


def test_forge_is_deterministic_in_the_stream():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(4,))
    a = forge_claim(1, lists[4], None, know, (2, 3), rng=random.Random(9))
    b = forge_claim(1, lists[4], None, know, (2, 3), rng=random.Random(9))
    assert a == b


def test_forge_draws_cover_all_candidate_subsets():
    # m=6, d=1: exactly three 2-subsets of the candidate set exist
    segs, lists = _setup(m=6, d=1)
    know = _knowledge(segs, controlled=(4,))
    sender_claim = make_claim(0, lists[1])
    seen = {claimed(_forge_one(1, lists[4], sender_claim, know, 2, random.Random(s))) for s in range(200)}
    assert len(seen) == 3


def test_knowledge_with_nothing_leaked_knows_no_position(monkeypatch):
    segs, lists = _setup(d=3)
    monkeypatch.setattr("dbasim.adversary.concat_masks", lambda masks, m: pytest.fail("built masks with nothing leaked"))
    know = _knowledge(segs, controlled=(4,))
    assert know.covered == 0
    assert all(know.known_positions(party, bit) == 0 for party in (1, 2, 3, 4) for bit in (0, 1))


def test_forge_stays_wellformed_when_candidates_run_dry():
    own = combined((1, 1, 0, 0, 1, 0))
    nothing_leaked = Knowledge(segment_length=6, distributors=(6,), disclosed={}, own_lists={4: own}, covered=0, known={})
    starving = Claim(0, bits((0, 1, 4)))  # covers every position the forger holds 1 on
    claims = forge_claim(1, own, starving, nothing_leaked, (2, 3), rng=random.Random(3))
    for claim in claims.values():
        assert claim.bit == 1
        assert len(claimed(claim)) == 2
        assert all(0 <= x < 6 for x in claimed(claim))


def _reference_forge(bit, own_entries, sender_claim, know, target_entries, rng):
    """The forging rule for one target, position by position, as the reference for forge_claim."""
    total = len(own_entries)
    need = total // 3
    m = know.segment_length
    covered = {i for i, dist in enumerate(know.distributors) if dist in know.disclosed}
    picked = [x for x in range(total) if x // m in covered and target_entries[x] == bit][:need]
    if len(picked) < need:
        excluded = set(claimed(sender_claim)) if sender_claim is not None else set()
        pool = [x for x in range(total) if x // m not in covered and own_entries[x] == bit and x not in excluded]
        fill = need - len(picked)
        take = min(fill, len(pool))
        picked += rng.sample(pool, take)
        if take < fill:
            picked += rng.sample([x for x in range(total) if x not in picked], fill - take)
    return Claim(bit, bits(picked))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([6, 12]),
    d=st.integers(1, 3),
    leaked=st.lists(st.booleans(), min_size=3, max_size=3),
    sender=st.sampled_from(["honest-0", "honest-1", "none", "starving"]),
    targets=st.lists(st.sampled_from([2, 3, 5, 6]), min_size=1, max_size=4, unique=True),
)
def test_one_forge_call_equals_a_loop_of_single_target_calls(seed, m, d, leaked, sender, targets):
    segs, lists = _setup(m=m, d=d, receivers=5, seed=seed)
    know = _knowledge(segs, disclosed=[k for k, leak in zip(sorted(segs), leaked) if leak], controlled=(4,))
    bit = 0 if sender == "honest-1" else 1
    sender_claim = {
        "honest-0": make_claim(0, lists[1]),
        "honest-1": make_claim(1, lists[1]),
        "none": None,
        # every position of the forged bit on the forger's list: the pool runs dry
        "starving": Claim(0, lists[4].mask(1)),
    }[sender]
    together = random.Random(seed)
    claims = forge_claim(bit, lists[4], sender_claim, know, targets, together)
    one_by_one = random.Random(seed)
    singles = {k: _forge_one(bit, lists[4], sender_claim, know, k, one_by_one) for k in sorted(targets)}
    by_position = random.Random(seed)
    own_entries = entries(lists[4])
    reference = {
        k: _reference_forge(bit, own_entries, sender_claim, know, entries(lists[k]), by_position) for k in sorted(targets)
    }
    assert claims == singles == reference
    assert together.getstate() == one_by_one.getstate() == by_position.getstate()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([6, 12, 60]),
    leaked=st.sampled_from([(), (0,), (1,), (0, 1)]),
    sender=st.sampled_from(["none", "honest", "junk"]),
)
def test_forgers_sharing_one_knowledge_forge_as_with_one_each(seed, m, leaked, sender):
    # the trial's forgers 5-8 aim at 2-4, two of them at the opposite bit
    segs, lists = _setup(m=m, d=2, receivers=7, seed=seed)
    dists = sorted(segs)
    shared = _knowledge(segs, disclosed=[dists[i] for i in leaked], controlled=(5, 6, 7, 8))
    total = lists[1].length
    junk = random.Random(seed)
    sender_claim = {
        "none": None,
        "honest": make_claim(0, lists[1]),
        "junk": Claim(0, sum(1 << x for x in junk.sample(range(total), total // 3))),
    }[sender]
    for forger, bit in ((5, 1), (6, 0), (7, 1), (8, 0)):
        alone, together = (random.Random(seed + forger) for _ in range(2))
        want = forge_claim(bit, lists[forger], sender_claim, shared._replace(known={}), (2, 3, 4), alone)
        assert forge_claim(bit, lists[forger], sender_claim, shared, (2, 3, 4), together) == want
        assert together.getstate() == alone.getstate()
    assert set(shared.known) == {(k, bit) for k in (2, 3, 4) for bit in (0, 1)}


def test_a_forge_heavy_trial_finds_each_known_part_once(monkeypatch):
    # n=8, forgers 5-8 aim at 2-4, both distributors bribed: 3 distinct
    # (target, bit) known parts per trial, not 12
    calls = 0
    real = Knowledge.known_positions

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return real(self, *args)

    monkeypatch.setattr(Knowledge, "known_positions", counted)
    cfg = SimConfig(
        participants=8,
        distributors=2,
        segment_length=60,
        controlled=frozenset({5, 6, 7, 8}),
        bribed=frozenset({9, 10}),
        disclosure_probability=0.5,
        receiver_strategy="forge",
        trials=40,
    )
    rep = run_batch(cfg)
    assert rep.forge_attempts == 40 * 4 * 3
    assert calls == 40 * 3


# --- strategy dispatch ---------------------------------------------------------


def _act(cfg, party, incoming, know, seed=0, receivers=(2, 3, 4)):
    return adversary_act(cfg, party, incoming, know, receivers, random.Random(seed))


def test_honest_mimic_sender_matches_the_honest_claim():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(1,))
    cfg = SimConfig(controlled=frozenset({1}), sender_strategy="honest-mimic")
    messages, forged = _act(cfg, 1, 1, know)
    honest = make_claim(1, lists[1])
    assert messages == {2: honest, 3: honest, 4: honest}
    assert forged == ()


def test_silent_and_flag_strategies():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(1, 4))
    cfg = SimConfig(controlled=frozenset({1, 4}), sender_strategy="silent", receiver_strategy="flag-always")
    assert _act(cfg, 1, 0, know) == ({2: None, 3: None, 4: None}, ())
    assert _act(cfg, 4, None, know) == ({2: BOT, 3: BOT, 4: BOT}, ())


def test_random_junk_claims_have_the_right_shape():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(1,))
    cfg = SimConfig(controlled=frozenset({1}), sender_strategy="random-junk")
    messages, _ = _act(cfg, 1, 0, know, seed=4)
    for msg in messages.values():
        assert isinstance(msg, Claim)
        assert msg.bit in (0, 1)
        assert len(claimed(msg)) == 8


def test_bit_draws_equal_a_getrandbits_rejection_draw():
    # random-junk and forge draw a bit with rng.randrange(2), so the output
    # bytes rest on it being getrandbits(2) redrawn until below 2, as the
    # draw kernels' picks are; same bits, same final state on this Python
    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(200):
            bit = ours.getrandbits(2)
            while bit >= 2:
                bit = ours.getrandbits(2)
            assert theirs.randrange(2) == bit
        assert ours.getstate() == theirs.getstate()


def test_equivocate_splits_the_receivers():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(1,))
    cfg = SimConfig(controlled=frozenset({1}), sender_strategy="equivocate")
    messages, _ = _act(cfg, 1, 1, know)
    assert [messages[k].bit for k in (2, 3, 4)] == [1, 1, 0]
    for k in (2, 3, 4):
        assert check_claim(messages[k], lists[k])


def test_split_claims_are_individually_consistent_everywhere():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(1,))
    cfg = SimConfig(controlled=frozenset({1}), sender_strategy="equivocate")
    messages, _ = _act(cfg, 1, 0, know)
    assert messages[2] == messages[3] == make_claim(0, lists[1])
    assert messages[4] == make_claim(1, lists[1])
    for claim in messages.values():
        for k in (2, 3, 4):
            assert check_claim(claim, lists[k])


def test_honest_mimic_receiver_relays():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(4,))
    cfg = SimConfig(controlled=frozenset({4}))
    claim = make_claim(1, lists[1])
    assert _act(cfg, 4, claim, know) == ({2: claim, 3: claim, 4: claim}, ())


def test_forge_strategy_targets_every_other_receiver():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(4,))
    cfg = SimConfig(controlled=frozenset({4}), receiver_strategy="forge")
    messages, forged = _act(cfg, 4, make_claim(0, lists[1]), know)
    assert forged == (2, 3)
    assert messages[4] is BOT
    for k in (2, 3):
        assert isinstance(messages[k], Claim) and messages[k].bit == 1


def test_omniscient_forge_is_honest_without_full_knowledge():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(4,))
    cfg = SimConfig(controlled=frozenset({4}), receiver_strategy="omniscient-forge")
    claim = make_claim(1, lists[1])
    assert _act(cfg, 4, claim, know) == ({2: claim, 3: claim, 4: claim}, ())


def test_omniscient_forge_attacks_one_victim_under_full_knowledge():
    segs, lists = _setup()
    know = _knowledge(segs, disclosed=sorted(segs), controlled=(4,))
    cfg = SimConfig(controlled=frozenset({4}), receiver_strategy="omniscient-forge")
    claim = make_claim(1, lists[1])
    messages, forged = _act(cfg, 4, claim, know)
    assert forged == (2,)
    assert messages[2].bit == 0
    assert check_claim(messages[2], lists[2])  # guaranteed hit, every position known
    assert messages[3] is claim


def test_omniscient_forge_spares_fellow_controlled_receivers():
    segs, lists = _setup()
    know = _knowledge(segs, disclosed=sorted(segs), controlled=(2, 4))
    cfg = SimConfig(controlled=frozenset({2, 4}), receiver_strategy="omniscient-forge")
    messages, forged = _act(cfg, 4, make_claim(1, lists[1]), know)
    assert forged == (3,)
    assert messages[3].bit == 0


def test_adversary_act_picks_the_table_by_party():
    # honest-mimic in both tables: party 1 builds a claim from its input
    # bit, any other party relays the message it received
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(1, 4))
    cfg = SimConfig(controlled=frozenset({1, 4}))
    sent, _ = _act(cfg, 1, 0, know)
    assert set(sent.values()) == {make_claim(0, lists[1])}
    relayed, _ = _act(cfg, 4, sent[4], know)
    assert all(msg is sent[4] for msg in relayed.values())
    # the receiver table ignores the bit a sender would build from: a bit
    # is no claim, so the honest relay is the flag
    assert _act(cfg, 4, 0, know) == ({2: BOT, 3: BOT, 4: BOT}, ())


def test_strategy_tables_mark_forging_capability():
    assert FORGING_RECEIVER_STRATEGIES == {"forge", "omniscient-forge"}
    assert FORGING_RECEIVER_STRATEGIES <= set(RECEIVER_STRATEGIES)
    assert "equivocate" in SENDER_STRATEGIES and "equivocate" not in RECEIVER_STRATEGIES


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([6, 12]), bit=st.sampled_from([0, 1]))
def test_forged_claims_never_reference_out_of_range_positions(seed, m, bit):
    segs, lists = _setup(m=m, d=1, seed=seed)
    know = _knowledge(segs, controlled=(4,))
    claim = _forge_one(bit, lists[4], None, know, 3, random.Random(seed))
    total = lists[4].length
    assert len(claimed(claim)) == total // 3
    assert all(0 <= x < total for x in claimed(claim))
