"""Corruption model, bribery knowledge, forging, and the exact-rate oracles."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dbasim.adversary import (
    ActContext,
    AdversarySpec,
    FORGING_RECEIVER_STRATEGIES,
    Knowledge,
    RECEIVER_STRATEGIES,
    SENDER_STRATEGIES,
    adversary_act,
    forge_claim,
    forge_heuristic,
    forge_success_closed_form,
    forge_success_oracle,
    resolve_bribes,
    split_sender_claims,
)
from dbasim.listgen import CombinedList, combined_lists_from_segments, generate_segment
from dbasim.protocol import BOT, Claim, check_claim, make_claim


def _setup(m=12, d=2, receivers=3, seed=0):
    rng = random.Random(seed)
    segs = {dist: generate_segment(m, receivers, rng) for dist in range(receivers + 2, receivers + 2 + d)}
    lists = combined_lists_from_segments([segs[k] for k in sorted(segs)])
    return segs, lists


def _knowledge(segs, disclosed=(), controlled=(), m=None):
    distributors = tuple(sorted(segs))
    m = m if m is not None else segs[distributors[0]].length
    ordered = [segs[k] for k in distributors]
    own = {}
    for party in controlled:
        own[party] = combined_lists_from_segments(ordered)[party]
    return Knowledge(
        segment_length=m,
        distributors=distributors,
        disclosed={k: segs[k] for k in disclosed},
        own_lists=own,
    )


# --- AdversarySpec -----------------------------------------------------------


def test_spec_validation_accepts_the_defaults():
    AdversarySpec().validate(4, 2)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_spec_rejects_degenerate_disclosure_probability(p):
    with pytest.raises(ValueError, match="0 < p < 1"):
        AdversarySpec(disclosure_probability=p).validate(4, 2)


def test_spec_rejects_out_of_range_indices():
    with pytest.raises(ValueError, match=r"controlled indices \[5\]"):
        AdversarySpec(controlled=frozenset({5})).validate(4, 2)
    with pytest.raises(ValueError, match=r"bribed indices \[4\]"):
        AdversarySpec(bribed=frozenset({4})).validate(4, 2)
    with pytest.raises(ValueError, match=r"bribed indices \[8\]"):
        AdversarySpec(bribed=frozenset({8})).validate(4, 2)


def test_spec_requires_three_honest_participants():
    with pytest.raises(ValueError, match="at least 3 honest"):
        AdversarySpec(controlled=frozenset({1, 2})).validate(4, 2)
    AdversarySpec(controlled=frozenset({1, 2})).validate(5, 2)


def test_spec_rejects_unknown_strategy_names():
    with pytest.raises(ValueError, match="unknown sender strategy"):
        AdversarySpec(sender_strategy="mystery").validate(4, 2)
    with pytest.raises(ValueError, match="unknown receiver strategy"):
        AdversarySpec(receiver_strategy="mystery").validate(4, 2)


# --- bribery and knowledge ---------------------------------------------------


def test_no_bribes_yields_only_own_data():
    segs, lists = _setup()
    spec = AdversarySpec(controlled=frozenset({4}))
    know = resolve_bribes(spec, random.Random(0), segs)
    assert know.disclosed == {}
    assert not know.full_disclosure
    assert list(know.own_lists) == [4]
    assert know.own_lists[4] == lists[4]
    assert know.known_positions(2, 0) == [] and know.known_positions(2, 1) == []


def test_unbribed_distributors_never_leak():
    segs, _ = _setup(d=3)
    spec = AdversarySpec(bribed=frozenset({5}), disclosure_probability=0.9)
    for seed in range(200):
        know = resolve_bribes(spec, random.Random(seed), segs)
        assert set(know.disclosed) <= {5}


def test_full_knowledge_frequency_tracks_the_coin_product():
    segs, _ = _setup(d=3)
    spec = AdversarySpec(controlled=frozenset({4}), bribed=frozenset({5, 6, 7}), disclosure_probability=0.5)
    hits = sum(resolve_bribes(spec, random.Random(seed), segs).full_disclosure for seed in range(4000))
    assert abs(hits / 4000 - 0.125) < 0.02


def test_disclosed_segments_reveal_every_party_exactly():
    segs, lists = _setup(m=6, d=2)
    know = _knowledge(segs, disclosed=sorted(segs))
    assert know.full_disclosure
    # the three symbols' positions together cover every position, so this
    # pins each party's value everywhere, the sender's discord entries too
    for party in (1, 2, 3, 4):
        for bit in (0, 1, 2):
            expected = [x for x in range(12) if lists[party].entries[x] == bit]
            assert know.known_positions(party, bit) == expected


def test_partial_disclosure_covers_only_that_segment():
    segs, lists = _setup(m=6, d=2)
    first = sorted(segs)[0]
    know = _knowledge(segs, disclosed=[first])
    assert know.covered_ordinals() == frozenset({0})
    for bit in (0, 1):
        assert know.known_positions(2, bit) == [x for x in range(6) if lists[2].entries[x] == bit]


# --- controlled-sender claim splitting ----------------------------------------


def test_split_claims_are_individually_consistent_everywhere():
    segs, lists = _setup()
    claims = split_sender_claims(lists[1], {2: 0, 3: 1, 4: 0})
    assert claims[2] == make_claim(0, lists[1])
    assert claims[3] == make_claim(1, lists[1])
    for claim in claims.values():
        for k in (2, 3, 4):
            assert check_claim(claim, lists[k])


def test_split_claim_with_none_forces_a_length_failure():
    segs, lists = _setup()
    claims = split_sender_claims(lists[1], {2: None})
    assert len(claims[2].positions) == len(lists[1].entries) // 3 - 1
    for k in (2, 3, 4):
        assert not check_claim(claims[2], lists[k])


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
        bits = tuple(1 if (sender[j] == 1 or j in target_one) else 0 for j in range(6))
        target = CombinedList(party=3, entries=bits)
        for pair in itertools.combinations(candidates, 2):
            total += 1
            good += check_claim(Claim(1, tuple(sorted(pair))), target)
    assert Fraction(good, total) == Fraction(2, 3)
    assert forge_success_oracle(6, 1) == Fraction(2, 3)


def test_oracle_matches_closed_form_on_every_feasible_size():
    for m, d in [(6, 1), (12, 1), (18, 1), (24, 1), (6, 2), (12, 2), (6, 3), (6, 4)]:
        assert forge_success_oracle(m, d) == forge_success_closed_form(m, d), (m, d)


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


def test_forged_claim_is_wellformed_and_on_candidates():
    segs, lists = _setup(m=12, d=2)
    know = _knowledge(segs, controlled=(4,))
    sender_claim = make_claim(0, lists[1])
    for seed in range(30):
        claim = forge_claim(1, lists[4], sender_claim, know, target=2, rng=random.Random(seed))
        assert claim.bit == 1
        assert len(claim.positions) == 8
        assert len(set(claim.positions)) == 8
        assert all(lists[4].entries[x] == 1 for x in claim.positions)
        assert not set(claim.positions) & set(sender_claim.positions)


def test_forge_with_full_knowledge_always_passes():
    for seed in range(20):
        segs, lists = _setup(m=12, d=2, seed=seed)
        know = _knowledge(segs, disclosed=sorted(segs), controlled=(4,))
        claim = forge_claim(1, lists[4], make_claim(0, lists[1]), know, target=2, rng=random.Random(seed))
        assert check_claim(claim, lists[2])


def test_forge_uses_known_positions_before_guessing():
    segs, lists = _setup(m=6, d=2)
    first = sorted(segs)[0]
    know = _knowledge(segs, disclosed=[first], controlled=(4,))
    claim = forge_claim(1, lists[4], make_claim(0, lists[1]), know, target=2, rng=random.Random(1))
    known_good = set(know.known_positions(2, 1))
    # every known-good position is used (3 available, 4 needed)
    assert known_good <= set(claim.positions)
    assert all(x >= 6 for x in set(claim.positions) - known_good)


def test_forge_is_deterministic_in_the_stream():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(4,))
    a = forge_claim(1, lists[4], None, know, target=2, rng=random.Random(9))
    b = forge_claim(1, lists[4], None, know, target=2, rng=random.Random(9))
    assert a == b


def test_forge_draws_cover_all_candidate_subsets():
    # m=6, d=1: exactly three 2-subsets of the candidate set exist
    segs, lists = _setup(m=6, d=1)
    know = _knowledge(segs, controlled=(4,))
    sender_claim = make_claim(0, lists[1])
    seen = {forge_claim(1, lists[4], sender_claim, know, 2, random.Random(s)).positions for s in range(200)}
    assert len(seen) == 3


def test_forge_stays_wellformed_when_candidates_run_dry():
    own = CombinedList(party=4, entries=(1, 1, 0, 0, 1, 0))
    starving = Claim(0, (0, 1, 4))  # covers every position the forger holds 1 on
    claim = forge_claim(1, own, starving, None, target=2, rng=random.Random(3))
    assert claim.bit == 1
    assert len(claim.positions) == 2
    assert len(set(claim.positions)) == 2
    assert all(0 <= x < 6 for x in claim.positions)


# --- strategy dispatch ---------------------------------------------------------


def _context(party, lists, know, received=None, sender_input=None, receivers=(2, 3, 4)):
    return ActContext(
        party=party,
        receivers=receivers,
        own_list=lists[party] if party in lists else know.own_lists[party],
        knowledge=know,
        sender_input=sender_input,
        received=received,
    )


def test_honest_mimic_sender_matches_the_honest_claim():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(1,))
    spec = AdversarySpec(controlled=frozenset({1}), sender_strategy="honest-mimic")
    result = adversary_act("sender", _context(1, lists, know, sender_input=1), spec, random.Random(0))
    honest = make_claim(1, lists[1])
    assert result.messages == {2: honest, 3: honest, 4: honest}
    assert result.forged == ()


def test_silent_and_flag_strategies():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(1, 4))
    spec = AdversarySpec(controlled=frozenset({1, 4}), sender_strategy="silent", receiver_strategy="flag-always")
    sent = adversary_act("sender", _context(1, lists, know, sender_input=0), spec, random.Random(0))
    assert sent.messages == {2: None, 3: None, 4: None}
    relayed = adversary_act("receiver", _context(4, lists, know), spec, random.Random(0))
    assert relayed.messages == {2: BOT, 3: BOT, 4: BOT}


def test_random_junk_claims_have_the_right_shape():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(1,))
    spec = AdversarySpec(controlled=frozenset({1}), sender_strategy="random-junk")
    result = adversary_act("sender", _context(1, lists, know, sender_input=0), spec, random.Random(4))
    for msg in result.messages.values():
        assert isinstance(msg, Claim)
        assert msg.bit in (0, 1)
        assert len(msg.positions) == 8


def test_equivocate_splits_the_receivers():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(1,))
    spec = AdversarySpec(controlled=frozenset({1}), sender_strategy="equivocate")
    result = adversary_act("sender", _context(1, lists, know, sender_input=1), spec, random.Random(0))
    bits = [result.messages[k].bit for k in (2, 3, 4)]
    assert bits == [1, 1, 0]
    for k in (2, 3, 4):
        assert check_claim(result.messages[k], lists[k])


def test_honest_mimic_receiver_relays():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(4,))
    spec = AdversarySpec(controlled=frozenset({4}))
    claim = make_claim(1, lists[1])
    result = adversary_act("receiver", _context(4, lists, know, received=claim), spec, random.Random(0))
    assert result.messages == {2: claim, 3: claim, 4: claim}


def test_forge_strategy_targets_every_other_receiver():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(4,))
    spec = AdversarySpec(controlled=frozenset({4}), receiver_strategy="forge")
    claim = make_claim(0, lists[1])
    result = adversary_act("receiver", _context(4, lists, know, received=claim), spec, random.Random(0))
    assert result.forged == (2, 3)
    assert result.messages[4] is BOT
    for k in (2, 3):
        forged = result.messages[k]
        assert isinstance(forged, Claim) and forged.bit == 1


def test_omniscient_forge_is_honest_without_full_knowledge():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(4,))
    spec = AdversarySpec(controlled=frozenset({4}), receiver_strategy="omniscient-forge")
    claim = make_claim(1, lists[1])
    result = adversary_act("receiver", _context(4, lists, know, received=claim), spec, random.Random(0))
    assert result.messages == {2: claim, 3: claim, 4: claim}
    assert result.forged == ()


def test_omniscient_forge_attacks_one_victim_under_full_knowledge():
    segs, lists = _setup()
    know = _knowledge(segs, disclosed=sorted(segs), controlled=(4,))
    spec = AdversarySpec(controlled=frozenset({4}), receiver_strategy="omniscient-forge")
    claim = make_claim(1, lists[1])
    result = adversary_act("receiver", _context(4, lists, know, received=claim), spec, random.Random(0))
    assert result.forged == (2,)
    forged = result.messages[2]
    assert forged.bit == 0
    assert check_claim(forged, lists[2])  # guaranteed hit, every position known
    assert result.messages[3] is claim


def test_adversary_act_rejects_unknown_roles_and_strategies():
    segs, lists = _setup()
    know = _knowledge(segs, controlled=(4,))
    spec = AdversarySpec(controlled=frozenset({4}))
    with pytest.raises(ValueError, match="role must be"):
        adversary_act("distributor", _context(4, lists, know), spec, random.Random(0))
    bogus = AdversarySpec(controlled=frozenset({4}), receiver_strategy="mystery")
    with pytest.raises(ValueError, match="unknown receiver strategy"):
        adversary_act("receiver", _context(4, lists, know), bogus, random.Random(0))


def test_strategy_tables_mark_forging_capability():
    assert FORGING_RECEIVER_STRATEGIES == {"forge", "omniscient-forge"}
    assert FORGING_RECEIVER_STRATEGIES <= set(RECEIVER_STRATEGIES)
    assert "equivocate" in SENDER_STRATEGIES and "equivocate" not in RECEIVER_STRATEGIES


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([6, 12]), bit=st.sampled_from([0, 1]))
def test_forged_claims_never_reference_out_of_range_positions(seed, m, bit):
    segs, lists = _setup(m=m, d=1, seed=seed)
    know = _knowledge(segs, controlled=(4,))
    claim = forge_claim(bit, lists[4], None, know, target=3, rng=random.Random(seed))
    total = len(lists[4].entries)
    assert len(claim.positions) == total // 3
    assert all(0 <= x < total for x in claim.positions)
