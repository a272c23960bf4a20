"""Reference-list generation, verification, composition."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dbasim.listgen import (
    DISCORD,
    Segment,
    combine_segments,
    combined_lists_from_segments,
    generate_segment,
    positions_of,
    verify_segment,
)

LENGTHS = st.sampled_from([6, 12, 18, 24, 30, 60])


@settings(max_examples=80, deadline=None)
@given(m=LENGTHS, receivers=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_generated_segment_passes_every_check(m, receivers, seed):
    seg = generate_segment(m, receivers, random.Random(seed))
    assert verify_segment(seg) == []
    assert seg.receiver_indices == tuple(range(2, receivers + 2))


def test_generated_segment_structure():
    seg = generate_segment(12, 3, random.Random(7))
    assert len(seg.sender_list) == 12
    for v in (0, 1, DISCORD):
        assert seg.sender_list.count(v) == 4
    for k, bits in seg.receiver_lists.items():
        assert set(bits) <= {0, 1}
        # fixed entries copied, discord entries balanced
        for j, v in enumerate(seg.sender_list):
            if v in (0, 1):
                assert bits[j] == v
        discord_bits = [bits[j] for j in seg.discord_positions]
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
        d = seg.discord_positions
        differ += any(seg.receiver_lists[2][j] != seg.receiver_lists[3][j] for j in d)
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
    broken = Segment(length=12, sender_list=seg.sender_list, receiver_lists=seg.receiver_lists)
    props = {v.prop for v in verify_segment(broken)}
    assert 1 in props


def test_verify_reports_unbalanced_sender_symbols():
    seg = _valid_segment()
    entries = list(seg.sender_list)
    i0 = entries.index(0)
    i1 = entries.index(1)
    entries[i0] = 1
    fixed = {k: tuple(1 if j == i0 else v for j, v in enumerate(bits)) for k, bits in seg.receiver_lists.items()}
    broken = Segment(length=6, sender_list=tuple(entries), receiver_lists=fixed)
    assert 2 in {v.prop for v in verify_segment(broken)}
    entries[i0] = 0
    entries[i1] = 9
    broken = Segment(length=6, sender_list=tuple(entries), receiver_lists=seg.receiver_lists)
    assert 2 in {v.prop for v in verify_segment(broken)}


def test_verify_reports_receiver_symbol_outside_bits():
    seg = _valid_segment()
    bits = list(seg.receiver_lists[2])
    bits[0] = DISCORD
    broken = Segment(length=6, sender_list=seg.sender_list, receiver_lists={2: tuple(bits), 3: seg.receiver_lists[3]})
    assert 3 in {v.prop for v in verify_segment(broken)}


def test_verify_reports_fixed_entry_mismatch():
    seg = _valid_segment()
    j = seg.sender_list.index(0)
    bits = list(seg.receiver_lists[2])
    bits[j] = 1
    broken = Segment(length=6, sender_list=seg.sender_list, receiver_lists={2: tuple(bits), 3: seg.receiver_lists[3]})
    assert 4 in {v.prop for v in verify_segment(broken)}


def test_verify_reports_unbalanced_discord_bits():
    seg = _valid_segment()
    d = seg.discord_positions
    bits = list(seg.receiver_lists[2])
    bits[d[0]] = bits[d[1]]  # both discord bits equal -> unbalanced
    broken = Segment(length=6, sender_list=seg.sender_list, receiver_lists={2: tuple(bits), 3: seg.receiver_lists[3]})
    assert 6 in {v.prop for v in verify_segment(broken)}


def test_verify_accepts_handcrafted_valid_segment():
    seg = Segment(
        length=6,
        sender_list=(0, 1, 2, 0, 1, 2),
        receiver_lists={2: (0, 1, 0, 0, 1, 1), 3: (0, 1, 1, 0, 1, 0)},
    )
    assert verify_segment(seg) == []


def test_combine_segments_concatenates_in_order():
    combined = combine_segments(2, [(0, 1, 0, 0, 1, 1), (1, 1, 0, 0, 1, 0)])
    assert combined.party == 2
    assert combined.entries == (0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0)
    assert len(combined) == 12


def test_combine_segments_allows_discord_only_for_the_sender():
    combine_segments(1, [(0, 1, 2, 0, 1, 2)])
    with pytest.raises(ValueError, match="domain"):
        combine_segments(2, [(0, 1, 2, 0, 1, 2)])


def test_combine_segments_rejects_mismatched_lengths_and_empty():
    with pytest.raises(ValueError, match="share one length"):
        combine_segments(1, [(0, 1, 2, 0, 1, 2), (0, 1, 2)])
    with pytest.raises(ValueError, match="at least one"):
        combine_segments(1, [])


def test_combined_lists_cover_every_party():
    segs = [generate_segment(6, 3, random.Random(s)) for s in (1, 2)]
    lists = combined_lists_from_segments(segs)
    assert sorted(lists) == [1, 2, 3, 4]
    assert lists[1].entries == segs[0].sender_list + segs[1].sender_list
    assert lists[3].entries == segs[0].receiver_lists[3] + segs[1].receiver_lists[3]


def test_combined_lists_reject_disagreeing_receiver_sets():
    a = generate_segment(6, 2, random.Random(1))
    b = generate_segment(6, 3, random.Random(2))
    with pytest.raises(ValueError, match="disagree on receiver indices"):
        combined_lists_from_segments([a, b])


@settings(max_examples=40, deadline=None)
@given(m=LENGTHS, d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_sender_bit_positions_always_cover_a_third(m, d, seed):
    rng = random.Random(seed)
    segs = [generate_segment(m, 2, rng) for _ in range(d)]
    sender = combined_lists_from_segments(segs)[1]
    total = d * m
    for bit in (0, 1):
        pos = positions_of(sender, bit)
        assert len(pos) == total // 3
        assert list(pos) == sorted(pos)
        assert all(sender.entries[x] == bit for x in pos)


def test_positions_of_rejects_non_sender_lists_and_bad_bits():
    lists = combined_lists_from_segments([generate_segment(6, 2, random.Random(3))])
    with pytest.raises(ValueError, match="sender"):
        positions_of(lists[2], 1)
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        positions_of(lists[1], 2)
