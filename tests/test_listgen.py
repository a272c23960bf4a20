"""Reference-list generation and composition, checked against the six list properties."""

import gc
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dbasim import listgen
from dbasim.listgen import (
    DISCORD,
    Segment,
    combine_segments,
    combined_lists_from_segments,
    generate_segment,
    mask_of,
    mask_positions,
)
from listprops import reference_segment, verify_segment
from symbols import bits, entries

LENGTHS = st.sampled_from([6, 12, 18, 24, 30, 60])


@settings(max_examples=80, deadline=None)
@given(m=LENGTHS, receivers=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_generated_segment_passes_every_check(m, receivers, seed):
    seg = generate_segment(m, receivers, random.Random(seed))
    assert verify_segment(seg) == []
    assert list(seg.receiver_ones) == list(range(2, receivers + 2))


def _discord(seg):
    """The sender's discord positions, ascending."""
    return mask_positions(((1 << seg.length) - 1) & ~(seg.sender_zeros | seg.sender_ones))


def _symbols(seg, party):
    """``party``'s list in ``seg``, one symbol per position."""
    zeros, ones = seg.party_masks(party)
    return tuple(0 if zeros >> j & 1 else 1 if ones >> j & 1 else DISCORD for j in range(seg.length))


def test_generated_segment_structure():
    seg = generate_segment(12, 3, random.Random(7))
    sender = _symbols(seg, 1)
    for v in (0, 1, DISCORD):
        assert sender.count(v) == 4
    for k in sorted(seg.receiver_ones):
        row = _symbols(seg, k)
        assert set(row) <= {0, 1}
        assert seg.receiver_ones[k] >> 12 == 0
        # fixed entries copied, discord entries balanced
        for j, v in enumerate(sender):
            if v in (0, 1):
                assert row[j] == v
        discord_bits = [row[j] for j in _discord(seg)]
        assert discord_bits.count(0) == 2 and discord_bits.count(1) == 2


def test_generation_is_deterministic_in_the_seed():
    a = generate_segment(18, 4, random.Random(123))
    b = generate_segment(18, 4, random.Random(123))
    assert a == b
    c = generate_segment(18, 4, random.Random(124))
    assert a != c


def test_receivers_draw_independent_discord_bits():
    # across many seeds, two receivers' discord bits must differ sometimes
    differ = 0
    for seed in range(50):
        seg = generate_segment(12, 3, random.Random(seed))
        differ += bool(bits(_discord(seg)) & (seg.receiver_ones[2] ^ seg.receiver_ones[3]))
    assert differ > 25


@pytest.mark.parametrize("bad_m", [0, -6, 5, 7, 9, 10])
def test_generate_rejects_bad_lengths(bad_m):
    with pytest.raises(ValueError, match="multiple of 6"):
        generate_segment(bad_m, 3, random.Random(0))


def test_generate_rejects_too_few_receivers():
    with pytest.raises(ValueError, match="at least 2 receivers"):
        generate_segment(6, 1, random.Random(0))


def _valid_segment():
    return generate_segment(6, 2, random.Random(5))


def test_verify_reports_length_mismatch():
    seg = _valid_segment()
    # a declared length that is no multiple of 6
    broken = Segment(7, seg.sender_zeros, seg.sender_ones, seg.receiver_ones)
    assert 1 in {v.prop for v in verify_segment(broken)}
    # a sender position at the declared length, one past the list's end
    broken = Segment(6, seg.sender_zeros, seg.sender_ones | 1 << 6, seg.receiver_ones)
    assert 1 in {v.prop for v in verify_segment(broken)}


def test_verify_reports_unbalanced_sender_symbols():
    seg = _valid_segment()
    i0 = mask_positions(seg.sender_zeros)[0]
    i1 = mask_positions(seg.sender_ones)[0]
    # one sender 0 turned into a 1, receivers following
    fixed = {k: r | 1 << i0 for k, r in seg.receiver_ones.items()}
    broken = Segment(6, seg.sender_zeros & ~(1 << i0), seg.sender_ones | 1 << i0, fixed)
    assert 2 in {v.prop for v in verify_segment(broken)}
    # one position holding both 0 and 1
    broken = Segment(6, seg.sender_zeros | 1 << i1, seg.sender_ones, seg.receiver_ones)
    assert 2 in {v.prop for v in verify_segment(broken)}


def test_verify_reports_receiver_symbol_outside_bits():
    seg = _valid_segment()
    for bad in (seg.receiver_ones[2] | 1 << 6, -1):
        broken = Segment(6, seg.sender_zeros, seg.sender_ones, {2: bad, 3: seg.receiver_ones[3]})
        assert 3 in {v.prop for v in verify_segment(broken)}


def test_verify_reports_fixed_entry_mismatch():
    seg = _valid_segment()
    j = mask_positions(seg.sender_zeros)[0]
    broken = Segment(6, seg.sender_zeros, seg.sender_ones, {2: seg.receiver_ones[2] | 1 << j, 3: seg.receiver_ones[3]})
    assert 4 in {v.prop for v in verify_segment(broken)}


def test_verify_reports_unbalanced_discord_bits():
    seg = _valid_segment()
    d = _discord(seg)
    broken = Segment(6, seg.sender_zeros, seg.sender_ones, {2: seg.sender_ones | bits(d), 3: seg.receiver_ones[3]})
    assert 6 in {v.prop for v in verify_segment(broken)}


def _handcrafted(m, sender, receivers):
    """A Segment from symbol tuples: the sender's over {0, 1, 2}, each receiver's over {0, 1}."""
    return Segment(
        length=m,
        sender_zeros=bits(j for j, v in enumerate(sender) if v == 0),
        sender_ones=bits(j for j, v in enumerate(sender) if v == 1),
        receiver_ones={k: bits(j for j, v in enumerate(row) if v == 1) for k, row in receivers.items()},
    )


def test_verify_accepts_handcrafted_valid_segment():
    seg = _handcrafted(6, (0, 1, 2, 0, 1, 2), {2: (0, 1, 0, 0, 1, 1), 3: (0, 1, 1, 0, 1, 0)})
    assert seg.receiver_ones == {2: bits((1, 4, 5)), 3: bits((1, 2, 4))}
    assert verify_segment(seg) == []


def test_combine_segments_concatenates_in_order():
    first = _handcrafted(6, (0, 1, 2, 0, 1, 2), {2: (0, 1, 0, 0, 1, 1), 3: (0, 1, 1, 0, 1, 0)})
    second = _handcrafted(6, (1, 1, 2, 0, 2, 0), {2: (1, 1, 0, 0, 1, 0), 3: (1, 1, 1, 0, 0, 0)})
    combined = combine_segments(2, [first, second])
    assert combined.party == 2
    assert entries(combined) == (0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0)
    assert combined.length == 12
    assert entries(combine_segments(1, [first, second])) == (0, 1, 2, 0, 1, 2, 1, 1, 2, 0, 2, 0)


def test_combine_segments_rejects_mismatched_lengths_and_empty():
    with pytest.raises(ValueError, match="share one length"):
        combine_segments(1, [generate_segment(6, 2, random.Random(1)), generate_segment(12, 2, random.Random(2))])
    with pytest.raises(ValueError, match="at least one"):
        combine_segments(1, [])


def test_combined_lists_cover_every_party():
    segs = [generate_segment(6, 3, random.Random(s)) for s in (1, 2)]
    lists = combined_lists_from_segments(segs)
    assert sorted(lists) == [1, 2, 3, 4] and len(lists) == 4
    assert entries(lists[1]) == _symbols(segs[0], 1) + _symbols(segs[1], 1)
    assert entries(lists[3]) == _symbols(segs[0], 3) + _symbols(segs[1], 3)
    assert lists[3] is lists[3]
    for absent in (0, 5):
        with pytest.raises(KeyError):
            lists[absent]


def test_combined_lists_reject_disagreeing_receiver_sets():
    a = generate_segment(6, 2, random.Random(1))
    b = generate_segment(6, 3, random.Random(2))
    with pytest.raises(ValueError, match="disagree on receiver indices"):
        combined_lists_from_segments([a, b])
    # the same receivers in another order agree
    c = b._replace(receiver_ones=dict(reversed(dict(b.receiver_ones).items())))
    assert sorted(combined_lists_from_segments([b, c])) == [1, 2, 3, 4]


@settings(max_examples=40, deadline=None)
@given(m=LENGTHS, d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_sender_bit_positions_always_cover_a_third(m, d, seed):
    rng = random.Random(seed)
    segs = [generate_segment(m, 2, rng) for _ in range(d)]
    sender = combined_lists_from_segments(segs)[1]
    total = d * m
    for bit in (0, 1):
        pos = mask_positions(sender.mask(bit))
        assert len(pos) == total // 3
        assert pos == [x for x, v in enumerate(entries(sender)) if v == bit]


def test_mask_rejects_bad_bits():
    lists = combined_lists_from_segments([generate_segment(6, 2, random.Random(3))])
    for party in (1, 2):
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            lists[party].mask(2)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), length=st.integers(0, 300))
def test_masks_and_positions_convert_both_ways(data, length):
    positions = data.draw(st.sets(st.integers(0, max(length - 1, 0)), max_size=length))
    mask = mask_of(positions, length)
    assert mask == bits(positions)
    assert mask_positions(mask) == sorted(positions)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), length=st.integers(0, 200))
def test_the_or_loop_and_the_digit_string_build_the_same_mask(data, length):
    # mask_of picks one of the two by length; both must agree on either side
    positions = data.draw(st.lists(st.integers(0, max(length - 1, 0)), max_size=length if length else 0))
    assert listgen._or_mask(positions) == listgen._digit_mask(positions, length) == bits(set(positions))


# --- draw kernels against the standard library ------------------------------------

SEEDS = st.integers(0, 2**32 - 1)


def _stdlib_setsize(k):
    """The population size above which ``Random.sample`` tracks picks in a set (its own rule, restated)."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def _same_sample(population, k, seed):
    """``listgen.sample`` and ``Random.sample`` on one seed: same picks, same final state."""
    ours, theirs = random.Random(seed), random.Random(seed)
    assert listgen.sample(population, k, ours) == theirs.sample(population, k)
    assert ours.getstate() == theirs.getstate()


def test_shuffle_equals_the_stdlib_at_every_length_up_to_300():
    for n in range(301):
        ours, theirs = random.Random(n), random.Random(n)
        x, y = list(range(n)), list(range(n))
        listgen.shuffle(x, ours)
        theirs.shuffle(y)
        assert x == y, n
        assert ours.getstate() == theirs.getstate(), n


@settings(max_examples=200, deadline=None)
@given(items=st.lists(st.integers(0, 2)), seed=SEEDS)
def test_shuffle_equals_the_stdlib_on_repeated_items(items, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    x, y = items.copy(), items.copy()
    listgen.shuffle(x, ours)
    theirs.shuffle(y)
    assert x == y
    assert ours.getstate() == theirs.getstate()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 300), as_range=st.booleans(), seed=SEEDS)
def test_sample_equals_the_stdlib_for_any_size(data, n, as_range, seed):
    k = data.draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    _same_sample(range(n) if as_range else list(range(100, 100 + n)), k, seed)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), few=st.booleans(), as_range=st.booleans(), seed=SEEDS)
def test_sample_equals_the_stdlib_on_its_set_branch(data, few, as_range, seed):
    if few:  # at most five picks from more than 21
        k, n = data.draw(st.integers(0, 5)), data.draw(st.integers(22, 300))
    else:  # more than five picks, from more than three times as many and beyond the set size
        k = data.draw(st.integers(6, 60))
        n = data.draw(st.integers(_stdlib_setsize(k) + 1, _stdlib_setsize(k) + 200))
    _same_sample(range(n) if as_range else list(range(n)), k, seed)


def test_sample_equals_the_stdlib_on_both_sides_of_the_branch_boundary():
    for k in range(0, 80):
        for n in range(_stdlib_setsize(k) - 1, _stdlib_setsize(k) + 2):
            if k <= n:
                _same_sample(range(n), k, k * 1000 + n)
                _same_sample(list(range(n)), k, k * 1000 + n)


def test_sample_rejects_what_the_stdlib_rejects():
    for population, k in ((range(3), 4), ([1, 2], -1), ([], 1)):
        with pytest.raises(ValueError):
            random.Random(0).sample(population, k)
        with pytest.raises(ValueError):
            listgen.sample(population, k, random.Random(0))


# --- lazy coins against the eager reference ---------------------------------------


class CountingRandom(random.Random):
    """A Random whose ``shuffles`` counts the ``listgen.shuffle`` calls drawing from it, under ``counting_shuffles``."""

    shuffles = 0


@pytest.fixture
def counting_shuffles(monkeypatch):
    real = listgen.shuffle

    def counting(x, rng):
        if isinstance(rng, CountingRandom):
            rng.shuffles += 1
        real(x, rng)

    monkeypatch.setattr(listgen, "shuffle", counting)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=LENGTHS, receivers=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_lazy_segment_matches_the_eager_reference_in_any_read_order(data, m, receivers, seed):
    lazy_rng, eager_rng = random.Random(seed), random.Random(seed)
    seg = generate_segment(m, receivers, lazy_rng)
    ref = reference_segment(m, receivers, eager_rng)
    assert seg.party_masks(1) == ref.party_masks(1)
    indices = range(2, receivers + 2)
    # some reads, repeats allowed, then every receiver in some order
    reads = data.draw(st.lists(st.sampled_from(indices), max_size=10)) + data.draw(st.permutations(indices))
    for k in reads:
        assert seg.party_masks(k) == ref.party_masks(k)
    assert lazy_rng.getstate() == eager_rng.getstate()
    assert dict(seg.receiver_ones) == ref.receiver_ones
    assert seg == ref


def test_receivers_are_drawn_on_first_read_in_ascending_order(counting_shuffles):
    rng = CountingRandom(3)
    seg = generate_segment(12, 5, rng)
    coins = seg.receiver_ones
    assert rng.shuffles == 1  # the sender's trits only
    # keys, length and membership never draw; neither do absent receivers
    assert list(coins) == [2, 3, 4, 5, 6] and len(coins) == 5 and 4 in coins and 7 not in coins
    # neither does the receiver-set check across segments
    assert list(combined_lists_from_segments([seg, seg])) == [1, 2, 3, 4, 5, 6]
    for absent in (1, 7):
        with pytest.raises(KeyError):
            coins[absent]
    assert rng.shuffles == 1
    coins[4]  # draws receivers 2, 3 and 4
    assert rng.shuffles == 4
    coins[2]
    coins[4]
    assert rng.shuffles == 4
    assert any(isinstance(obj, random.Random) for obj in gc.get_referents(coins))
    assert len(dict(coins)) == 5 and rng.shuffles == 6
    # every receiver drawn: the store lets go of its rng
    assert not any(isinstance(obj, random.Random) for obj in gc.get_referents(coins))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=LENGTHS, d=st.integers(1, 3), receivers=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_lazy_lists_match_lists_combined_from_reference_segments(data, m, d, receivers, seed):
    lazy = combined_lists_from_segments([generate_segment(m, receivers, random.Random(seed + i)) for i in range(d)])
    refs = [reference_segment(m, receivers, random.Random(seed + i)) for i in range(d)]
    # before any read, every receiver's agreement masks are the sender's
    assert all(lazy[k].agreed == lazy[1].agreed for k in range(2, receivers + 2))
    for party in data.draw(st.permutations(range(1, receivers + 2))):
        expected = combine_segments(party, refs)
        assert lazy[party] == expected
        assert entries(lazy[party]) == entries(expected)
        # once built, a list's agreement masks are its own
        assert lazy[party].agreed == (expected.mask(0), expected.mask(1))
