"""Correlated reference lists: generation, verification, composition.

In the setup stage every distributor privately hands each participant one
list of a correlated family.  The sender's list is a balanced arrangement
over {0, 1, 2}; each receiver's list is over {0, 1} and copies the sender's
0/1 entries exactly.  Wherever the sender holds 2 (a discord position) each
receiver instead holds its own balanced coin flips, drawn independently of
every other receiver.  That per-receiver uncertainty is what position claims
are checked against later, so it must survive composition untouched.

Lists are integer bitmasks: bit j of a mask is set when position j holds
that mask's symbol.  The sender has a 0-mask and a 1-mask, and its discord
positions are the list positions in neither.  A receiver has a 1-mask, and
its 0-mask is every other list position.  Since a receiver differs from the
sender only at discord positions, its 1-mask is the sender's 1-mask OR its
own coin positions.  Positions are 0-based throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence

SENDER = 1
DISCORD = 2

# Masks convert to and from symbols through binary digit strings, in time
# linear in the list length; OR-ing one bit at a time would be quadratic.
_ZEROS = bytes.maketrans(b"\x00\x01\x02", b"100")
_ONES = bytes.maketrans(b"\x00\x01\x02", b"010")
_BITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def mask_positions(mask: int) -> list[int]:
    """The set bits of a non-negative ``mask``, ascending."""
    return list(compress(range(mask.bit_length()), bin(mask)[:1:-1].encode().translate(_DIGITS)))


def mask_of(positions: Iterable[int], length: int) -> int:
    """The mask with exactly ``positions`` set, each below ``length``."""
    digits = bytearray(length)
    for x in positions:
        digits[x] = 1
    return int(digits[::-1].translate(_BITS), 2) if length else 0


@dataclass(frozen=True)
class Segment:
    """One distributor's output: the sender's 0- and 1-masks plus one 1-mask per receiver.

    ``receiver_ones`` maps the receiver's party index (2 and up) to its
    1-mask; all lists share ``length``.
    """

    length: int
    sender_zeros: int
    sender_ones: int
    receiver_ones: Mapping[int, int]

    @property
    def receiver_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.receiver_ones))

    def party_masks(self, party: int) -> tuple[int, int]:
        """The 0-mask and 1-mask this segment gives to ``party`` (1 is the sender)."""
        if party == SENDER:
            return self.sender_zeros, self.sender_ones
        ones = self.receiver_ones[party]
        return ((1 << self.length) - 1) & ~ones, ones


@dataclass(frozen=True)
class Violation:
    """One failed structural property, as found by :func:`verify_segment`."""

    prop: int
    message: str


@dataclass(frozen=True)
class CombinedList:
    """A party's concatenation of its per-distributor lists, in distributor order.

    Segment i occupies bits ``i*m`` to ``i*m + m - 1`` of each mask.
    """

    party: int
    length: int
    zeros: int
    ones: int

    def __len__(self) -> int:
        return self.length

    def mask(self, bit: int) -> int:
        """The positions holding ``bit`` (0 or 1)."""
        if bit == 0:
            return self.zeros
        if bit == 1:
            return self.ones
        raise ValueError(f"bit must be 0 or 1, got {bit}")


def generate_segment(m: int, receiver_count: int, rng: random.Random) -> Segment:
    """Draw one distributor's segment uniformly at random.

    The sender arrangement is a uniform shuffle of m/3 copies each of 0, 1
    and 2.  Every receiver copies the 0/1 positions and gets an independent
    uniform balanced assignment (m/6 zeros, m/6 ones) on the discord
    positions, ascending.  Receivers are drawn in ascending party order, so
    a fixed rng state reproduces the segment exactly.
    """
    if m <= 0 or m % 6 != 0:
        raise ValueError(f"segment length must be a positive multiple of 6, got {m}")
    if receiver_count < 2:
        raise ValueError(f"need at least 2 receivers, got {receiver_count}")
    third, sixth = m // 3, m // 6
    trits = [0] * third + [1] * third + [DISCORD] * third
    rng.shuffle(trits)
    digits = bytes(trits)[::-1]
    zeros, ones = int(digits.translate(_ZEROS), 2), int(digits.translate(_ONES), 2)
    discord = [j for j, v in enumerate(trits) if v == DISCORD]
    receiver_ones: dict[int, int] = {}
    for k in range(2, receiver_count + 2):
        coins = [0] * sixth + [1] * sixth
        rng.shuffle(coins)
        receiver_ones[k] = ones | mask_of(compress(discord, coins), m)
    return Segment(length=m, sender_zeros=zeros, sender_ones=ones, receiver_ones=receiver_ones)


def verify_segment(seg: Segment) -> list[Violation]:
    """Check every structural property; an empty report means a valid segment.

    Properties, by number, with s0/s1 the sender's masks, r a receiver's
    1-mask and discord the list positions in neither s0 nor s1:
      1. the declared length m is a positive multiple of 6 and the sender's
         masks hold no position outside 0..m-1
      2. s0 and s1 are disjoint and hold m/3 positions each, so the
         discord positions number m/3 too
      3. r holds no position outside 0..m-1, so every entry is a bit
      4. receivers copy the sender's 0/1 entries: r & (s0 | s1) == s1
      5. every receiver holds a bit wherever the sender holds 2; a 1-mask
         over 0..m-1 gives every position a bit, so 3 implies it
      6. each receiver's discord bits are balanced:
         (r & discord).bit_count() == m/6

    Malformed input is reported, never raised; verification runs on data
    that arrives over a channel.
    """
    out: list[Violation] = []
    m = seg.length
    full = (1 << max(m, 0)) - 1
    s0, s1 = seg.sender_zeros, seg.sender_ones
    if m <= 0 or m % 6 != 0:
        out.append(Violation(1, f"declared length {m} is not a positive multiple of 6"))
    for name, mask in (("0-mask", s0), ("1-mask", s1)):
        if mask < 0 or mask & ~full:
            out.append(Violation(1, f"sender {name} {mask:#x} reaches outside positions 0..{m - 1}"))

    s0, s1 = s0 & full, s1 & full  # positional properties only make sense on the list
    if s0 & s1:
        out.append(Violation(2, f"sender holds both 0 and 1 at positions {mask_positions(s0 & s1)}"))
    elif m > 0 and m % 6 == 0 and (s0.bit_count(), s1.bit_count()) != (m // 3, m // 3):
        out.append(Violation(2, f"sender counts 0/1 are {s0.bit_count()}/{s1.bit_count()}, expected {m // 3} each"))

    discord = full & ~(s0 | s1)
    for k, r in sorted(seg.receiver_ones.items()):
        if r < 0 or r & ~full:
            out.append(Violation(3, f"receiver {k} 1-mask {r:#x} reaches outside positions 0..{m - 1}"))
        if r & (s0 | s1) != s1:
            mismatched = mask_positions((r ^ s1) & (s0 | s1))
            out.append(Violation(4, f"receiver {k} disagrees with the sender's fixed entries at {mismatched}"))
        ones = (r & discord).bit_count()
        if ones != m // 6:
            zeros = discord.bit_count() - ones
            out.append(Violation(6, f"receiver {k} discord bits are {zeros} zeros / {ones} ones, expected equal counts"))
    return out


def concat_masks(masks: Sequence[int], m: int) -> int:
    """One mask from per-segment masks of ``m`` bits each, mask i at bits ``i*m`` and up."""
    out = 0
    for i, mask in enumerate(masks):
        out |= mask << (i * m)
    return out


def combine_segments(party: int, segments: Sequence[Segment]) -> CombinedList:
    """Concatenate one party's lists from ``segments``, first distributor first.

    Rejects empty input and segments of different lengths.
    """
    if not segments:
        raise ValueError("need at least one segment")
    lengths = {seg.length for seg in segments}
    if len(lengths) != 1:
        raise ValueError(f"segments must share one length, got {sorted(lengths)}")
    m = segments[0].length
    total = m * len(segments)
    if party == SENDER:
        zeros = concat_masks([seg.sender_zeros for seg in segments], m)
        ones = concat_masks([seg.sender_ones for seg in segments], m)
    else:
        ones = concat_masks([seg.receiver_ones[party] for seg in segments], m)
        zeros = ((1 << total) - 1) ^ ones
    return CombinedList(party=party, length=total, zeros=zeros, ones=ones)


def combined_lists_from_segments(segments: Sequence[Segment]) -> dict[int, CombinedList]:
    """Every party's combined list, from segments already in distributor order."""
    if not segments:
        raise ValueError("need at least one segment")
    first = segments[0].receiver_indices
    for seg in segments[1:]:
        if seg.receiver_indices != first:
            raise ValueError(f"segments disagree on receiver indices: {first} vs {seg.receiver_indices}")
    parties = (SENDER, *first)
    return {p: combine_segments(p, segments) for p in parties}


def positions_of(sender_list: CombinedList, bit: int) -> int:
    """The mask of every position of ``bit`` on the sender's combined list."""
    if sender_list.party != SENDER:
        raise ValueError(f"expected the sender's combined list, got party {sender_list.party}")
    return sender_list.mask(bit)
