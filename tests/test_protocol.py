"""Claim checking, relaying, the decision rule, and transcript rendering."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dbasim.listgen import combine_segments, combined_lists_from_segments, generate_segment, mask_positions
from dbasim.protocol import (
    ABORT,
    BOT,
    Claim,
    Decision,
    check_claim,
    class_relay,
    decide,
    make_claim,
    relay_step,
    render_decision,
    render_message,
)
from listprops import reference_segment
from symbols import bits, claimed, combined, entries, reference_decide, relays

# two positions per bit, four distinct consistent claims available
OWN = combined((0, 1, 0, 1, 0, 1))


def at(bit, *positions):
    """The claim of ``bit`` at the given distinct positions."""
    return Claim(bit, bits(positions))


GOOD_1 = at(1, 1, 3)
GOOD_0 = at(0, 0, 2)
BAD_1 = at(1, 0, 1)  # position 0 holds 0


def test_make_claim_lists_every_position_of_the_bit():
    lists = combined_lists_from_segments([generate_segment(12, 3, random.Random(2)) for _ in range(2)])
    claim = make_claim(1, lists[1])
    assert claim.bit == 1
    assert claimed(claim) == tuple(x for x, v in enumerate(entries(lists[1])) if v == 1)
    assert len(claimed(claim)) == 8
    # honest claims are consistent at every receiver
    for k in (2, 3, 4):
        assert check_claim(claim, lists[k])


def test_check_claim_accepts_exact_match():
    assert check_claim(GOOD_1, OWN)
    assert check_claim(GOOD_0, OWN)


def test_check_claim_rejects_wrong_values():
    assert not check_claim(BAD_1, OWN)


def test_check_claim_rejects_wrong_length():
    # one bit too few or one too many, every claimed position holding the bit
    assert not check_claim(at(1, 1), OWN)
    assert not check_claim(at(1, 1, 3, 5), OWN)
    assert not check_claim(at(1), OWN)


def test_check_claim_rejects_positions_beyond_the_list():
    assert not check_claim(at(1, 1, 6), OWN)
    assert not check_claim(at(1, 3, 70), OWN)


def test_check_claim_rejects_non_bits():
    assert not check_claim(Claim(2, GOOD_1.mask), OWN)


def reference_check_claim(bit, positions, own_entries):
    """The rule spelled out position by position, as the reference for check_claim."""
    if bit not in (0, 1):
        return False
    total = len(own_entries)
    if len(positions) != total // 3 or len(set(positions)) != len(positions):
        return False
    if any(x < 0 or x >= total for x in positions):
        return False
    return all(own_entries[x] == bit for x in positions)


OWN3 = combined((0, 1, 0))
EMPTY = combined(())
SENDER6 = combined((2, 0, 2, 1, 0, 1))


@pytest.mark.parametrize(
    "claim, own, expected",
    [
        # one position on a length-3 list
        (at(1, 1), OWN3, True),
        (at(0, 0), OWN3, True),
        (at(0, 1), OWN3, False),
        # an empty list asks for no positions, so only the empty claim fits
        (at(0), EMPTY, True),
        (at(0, 0), EMPTY, False),
        # one bit too many, though both claimed positions hold the bit
        (at(0, 0, 2), OWN3, False),
        # a position equal to the list length
        (at(0, 3), OWN3, False),
        # bit 2 fails even against a list holding 2 at every claimed position
        (at(2, 0, 2), SENDER6, False),
        (at(1, 3, 5), SENDER6, True),
        # one bit too few, and a position far beyond the list's end
        (at(1), OWN3, False),
        (at(0, 64), OWN3, False),
    ],
)
def test_check_claim_edge_cases(claim, own, expected):
    assert check_claim(claim, own) is expected
    assert reference_check_claim(claim.bit, claimed(claim), entries(own)) is expected


@settings(max_examples=300, deadline=None)
@given(data=st.data(), total=st.sampled_from([0, 1, 3, 6, 12]), bit=st.integers(-1, 2))
def test_check_claim_matches_the_positionwise_reference(data, total, bit):
    own_entries = tuple(data.draw(st.lists(st.integers(0, 2), min_size=total, max_size=total)))
    own = combined(own_entries)
    assert entries(own) == own_entries
    size = data.draw(st.integers(max(0, total // 3 - 1), total // 3 + 1))
    positions = tuple(sorted(data.draw(st.sets(st.integers(0, total + 1), min_size=size, max_size=size))))
    claim = at(bit, *positions)
    assert claimed(claim) == positions
    assert check_claim(claim, own) == reference_check_claim(bit, positions, own_entries)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    m=st.sampled_from([6, 12, 18]),
    d=st.integers(1, 3),
    party=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    bit=st.integers(-1, 2),
)
def test_check_claim_on_looked_up_lists_matches_the_positionwise_reference(data, m, d, party, seed, bit):
    # a list looked up from lazily drawn segments, against the list combined
    # from eagerly drawn reference segments of the same streams
    own = combined_lists_from_segments([generate_segment(m, 3, random.Random(seed + i)) for i in range(d)])[party]
    expected = combine_segments(party, [reference_segment(m, 3, random.Random(seed + i)) for i in range(d)])
    sender = combine_segments(1, [reference_segment(m, 3, random.Random(seed + i)) for i in range(d)])
    total = d * m
    # start from the sender's positions of the bit (an honest claim), swap
    # some for other positions, then maybe add or drop one
    agreed = mask_positions(sender.mask(bit if bit in (0, 1) else 1))
    others = [x for x in range(total + 2) if x not in agreed]
    swap = data.draw(st.integers(0, len(agreed)))
    positions = set(data.draw(st.permutations(agreed))[swap:]) | set(data.draw(st.permutations(others))[:swap])
    resize = data.draw(st.sampled_from(["keep", "add", "drop"]))
    if resize == "add":
        positions.add(data.draw(st.sampled_from(others)))
    elif resize == "drop" and positions:
        positions.discard(data.draw(st.sampled_from(sorted(positions))))
    positions = tuple(sorted(positions))
    assert check_claim(at(bit, *positions), own) == reference_check_claim(bit, positions, entries(expected))
    assert own == expected


def test_relay_passes_consistent_claims_and_flags_the_rest():
    assert relay_step(GOOD_1, OWN) is GOOD_1
    assert relay_step(BAD_1, OWN) is BOT
    assert relay_step(None, OWN) is BOT
    assert relay_step(BOT, OWN) is BOT


# --- the decision rule -------------------------------------------------------


def test_decide_needs_two_consistent_claims():
    assert decide(relays({2: GOOD_1, 3: BOT, 4: BOT}), OWN) is ABORT
    assert decide(relays({2: BOT, 3: BOT, 4: BOT}), OWN) is ABORT


def test_decide_aborts_on_conflicting_consistent_bits():
    # conflict wins even when a third consistent claim agrees with one side
    assert decide(relays({2: GOOD_1, 3: GOOD_0, 4: GOOD_1}), OWN) is ABORT
    assert decide(relays({2: GOOD_1, 3: GOOD_0, 4: BOT}), OWN) is ABORT


def test_decide_accepts_unanimous_with_failing_claim_complement():
    assert decide(relays({2: GOOD_1, 3: GOOD_1, 4: BAD_1}), OWN) == Decision(1)


def test_decide_accepts_unanimous_with_flag_complement():
    assert decide(relays({2: GOOD_1, 3: GOOD_1, 4: BOT}), OWN) == Decision(1)
    assert decide(relays({2: GOOD_0, 3: BOT, 4: GOOD_0}), OWN) == Decision(0)


def test_decide_accepts_unanimous_with_empty_complement():
    assert decide(relays({2: GOOD_1, 3: GOOD_1, 4: GOOD_1}), OWN) == Decision(1)


def test_decide_mixed_complement_aborts_unless_merged():
    inbox = {2: GOOD_1, 3: GOOD_1, 4: BAD_1, 5: BOT}
    assert decide(relays(inbox), OWN, rule="literal") is ABORT
    assert decide(relays(inbox), OWN, rule="merged") == Decision(1)


def test_decide_merged_still_aborts_on_conflict_and_thin_evidence():
    assert decide(relays({2: GOOD_1, 3: GOOD_0, 4: BOT}), OWN, rule="merged") is ABORT
    assert decide(relays({2: GOOD_1, 3: BOT, 4: BAD_1}), OWN, rule="merged") is ABORT


def test_decide_reads_silence_as_the_flag():
    assert decide([(GOOD_1, 2), (None, 1)], OWN) == Decision(1)
    assert decide([(GOOD_1, 2), (BAD_1, 1), (None, 1)], OWN, rule="literal") is ABORT
    assert decide([(GOOD_1, 2), (BAD_1, 1), (None, 1)], OWN, rule="merged") == Decision(1)


def test_decide_rejects_unknown_rule():
    with pytest.raises(ValueError, match="unknown decide rule"):
        decide(relays({2: GOOD_1, 3: GOOD_1}), OWN, rule="lenient")


_messages = st.sampled_from([GOOD_1, GOOD_0, BAD_1, at(0, 1, 3), at(1, 0, 5), BOT])


@settings(max_examples=200, deadline=None)
@given(
    inbox=st.dictionaries(st.integers(2, 6), _messages, min_size=1, max_size=5),
    rule=st.sampled_from(["literal", "merged"]),
)
def test_decide_is_total_over_arbitrary_inboxes(inbox, rule):
    out = decide(relays(inbox), OWN, rule=rule)
    assert out in (ABORT, Decision(0), Decision(1))
    consistent_bits = {m.bit for m in inbox.values() if isinstance(m, Claim) and check_claim(m, OWN)}
    if len(consistent_bits) != 1:
        assert out is ABORT  # conflicting or thin evidence can never decide
    elif not out.aborted:
        assert out.value in consistent_bits


@settings(max_examples=60, deadline=None)
@given(bit=st.sampled_from([0, 1]), size=st.integers(2, 5))
def test_unanimous_consistent_inbox_decides_that_bit(bit, size):
    claim = GOOD_1 if bit else GOOD_0
    inbox = {k: claim for k in range(2, 2 + size)}
    assert decide(relays(inbox), OWN) == Decision(bit)


def _claim_from(rng, own_list, bit, wrong=0):
    """A claim for ``bit`` with ``wrong`` positions that do not carry it on ``own_list``."""
    need = own_list.length // 3
    right = mask_positions(own_list.mask(bit))
    other = mask_positions(own_list.mask(1 - bit))
    return at(bit, *rng.sample(right, need - wrong), *rng.sample(other, wrong))


# what each relayer forwards: the shared claim object, a fresh object equal to
# it, the shared opposite-bit claim or a fresh copy of it, a failing claim, or
# the flag
_RELAY_KINDS = ("shared", "copy", "shared-other", "copy-other", "failing", "flag")


def _inbox(rng, own, kinds):
    shared = _claim_from(rng, own, 1)
    shared_other = _claim_from(rng, own, 0)
    make = {
        "shared": lambda: shared,
        "copy": lambda: Claim(shared.bit, shared.mask),
        "shared-other": lambda: shared_other,
        "copy-other": lambda: Claim(shared_other.bit, shared_other.mask),
        "failing": lambda: _claim_from(rng, own, rng.randrange(2), wrong=1),
        "flag": lambda: BOT,
    }
    return {j: make[kind]() for j, kind in enumerate(kinds, start=2)}


_inbox_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([6, 12]),
    d=st.integers(1, 2),
    kinds=st.lists(st.sampled_from(_RELAY_KINDS), min_size=1, max_size=12),
    rule=st.sampled_from(["literal", "merged"]),
)


@settings(max_examples=300, deadline=None)
@given(**_inbox_cases)
def test_decide_matches_the_recheck_everything_reference(seed, m, d, kinds, rule):
    rng = random.Random(seed)
    own = combined_lists_from_segments([generate_segment(m, 2, rng) for _ in range(d)])[2]
    inbox = _inbox(rng, own, kinds)
    assert decide(relays(inbox), own, rule=rule) == reference_decide(inbox, own, rule)


@settings(max_examples=300, deadline=None)
@given(**_inbox_cases)
def test_decide_ignores_how_relays_are_grouped(seed, m, d, kinds, rule):
    # split each count into positive parts, give some parts an equal copy of
    # the claim instead of the shared object, and shuffle the pairs
    rng = random.Random(seed)
    own = combined_lists_from_segments([generate_segment(m, 2, rng) for _ in range(d)])[2]
    pairs = relays(_inbox(rng, own, kinds))
    regrouped = []
    for msg, count in pairs:
        while count:
            part = rng.randint(1, count)
            count -= part
            copy = isinstance(msg, Claim) and rng.random() < 0.5
            regrouped.append((Claim(msg.bit, msg.mask) if copy else msg, part))
    rng.shuffle(regrouped)
    assert decide(regrouped, own, rule=rule) == decide(pairs, own, rule=rule)


# --- honest receivers as one class ---------------------------------------------------

_class_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([6, 12]),
    d=st.integers(1, 2),
)


@settings(max_examples=300, deadline=None)
@given(**_class_cases, bit=st.sampled_from([0, 1]), off_sender=st.integers(0, 2))
def test_class_relay_is_every_receivers_relay_or_none(seed, m, d, bit, off_sender):
    # a claim with ``off_sender`` positions on the sender's discord positions,
    # which pass exactly at the receivers whose coins there match ``bit``
    rng = random.Random(seed)
    lists = combined_lists_from_segments([generate_segment(m, 5, rng) for _ in range(d)])
    sender = lists[1]
    need = sender.length // 3
    discord = mask_positions(((1 << sender.length) - 1) & ~sender.mask(0) & ~sender.mask(1))
    claim = at(bit, *rng.sample(mask_positions(sender.mask(bit)), need - off_sender), *rng.sample(discord, off_sender))
    shared = class_relay(claim, sender)
    if off_sender:
        assert shared is None
    else:
        assert shared is claim
        assert all(relay_step(claim, lists[k]) is claim for k in range(2, 7))
    for msg in (None, BOT):
        assert class_relay(msg, sender) is BOT


@settings(max_examples=300, deadline=None)
@given(**_class_cases, kinds=st.lists(st.sampled_from([k for k in _RELAY_KINDS if k != "failing"]), min_size=1, max_size=12))
def test_one_decision_on_the_senders_list_serves_every_receiver(seed, m, d, kinds):
    # every claim in the inbox is consistent with the sender's list
    rng = random.Random(seed)
    lists = combined_lists_from_segments([generate_segment(m, 4, rng) for _ in range(d)])
    pairs = relays(_inbox(rng, lists[1], kinds))
    for rule in ("literal", "merged"):
        shared = decide(pairs, lists[1], rule=rule)
        assert all(decide(pairs, lists[k], rule=rule) == shared for k in range(2, 6))


def test_decide_checks_each_distinct_claim_object_once(monkeypatch):
    import dbasim.protocol as protocol

    checked = []

    def counting_check(claim, own_list):
        checked.append(id(claim))
        return check_claim(claim, own_list)

    monkeypatch.setattr(protocol, "check_claim", counting_check)
    copies = [Claim(GOOD_1.bit, GOOD_1.mask) for _ in range(2)]
    inbox = {j: GOOD_1 for j in range(2, 12)}
    inbox.update({12: copies[0], 13: copies[1], 14: BAD_1, 15: BOT, 16: BAD_1})
    assert decide(relays(inbox), OWN, rule="merged") == Decision(1)
    assert sorted(checked) == sorted({id(GOOD_1), id(copies[0]), id(copies[1]), id(BAD_1)})


def test_decide_stops_at_the_first_conflicting_pair(monkeypatch):
    import dbasim.protocol as protocol

    checked = []

    def counting_check(claim, own_list):
        checked.append(claim)
        return check_claim(claim, own_list)

    monkeypatch.setattr(protocol, "check_claim", counting_check)
    # the flag comes first and is not checked; a failing claim, silence and
    # more consistent claims come after the conflict and are never read
    pairs = [(BOT, 2), (GOOD_1, 1), (GOOD_0, 1), (BAD_1, 3), (at(1, 1, 3), 4), (None, 1), (GOOD_0, 2)]
    for rule in ("literal", "merged"):
        checked.clear()
        assert decide(pairs, OWN, rule=rule) is ABORT
        assert checked == [GOOD_1, GOOD_0]


@settings(max_examples=300, deadline=None)
@given(**_inbox_cases)
def test_decide_reads_up_to_the_first_conflict_and_matches_the_reference(seed, m, d, kinds, rule):
    import dbasim.protocol as protocol

    rng = random.Random(seed)
    own = combined_lists_from_segments([generate_segment(m, 2, rng) for _ in range(d)])[2]
    inbox = _inbox(rng, own, kinds)
    pairs = relays(inbox)
    # the claims decide must check: every one up to the first consistent
    # claim whose bit differs from an earlier consistent claim's, or all
    expected = []
    first_bit = None
    for msg, _ in pairs:
        if isinstance(msg, Claim):
            expected.append(msg)
            if check_claim(msg, own):
                if first_bit is None:
                    first_bit = msg.bit
                elif msg.bit != first_bit:
                    break
    with mock.patch.object(protocol, "check_claim", wraps=check_claim) as spy:
        assert decide(pairs, own, rule=rule) == reference_decide(inbox, own, rule)
    assert [call.args[0] for call in spy.call_args_list] == expected


def test_render_message_forms():
    assert render_message(at(1, 4, 0)) == "1:[0,4]"
    assert render_message(at(0)) == "0:[]"
    assert render_message(BOT) == "BOT"
    assert render_message(None) == "SILENT"


def test_render_decision_forms():
    assert render_decision(Decision(0)) == "0"
    assert render_decision(Decision(1)) == "1"
    assert render_decision(ABORT) == "ABORT"
    assert render_decision(None) == "NA"
