"""Correlated reference lists: generation, verification, composition.

In the setup stage every distributor privately hands each participant one
list of a correlated family.  The sender's list is a balanced arrangement
over {0, 1, 2}; each receiver's list is over {0, 1} and copies the sender's
0/1 entries exactly.  Wherever the sender holds 2 (a discord position) each
receiver instead holds its own balanced coin flips, drawn independently of
every other receiver.  That per-receiver uncertainty is what position claims
are checked against later, so it must survive composition untouched.

Positions are 0-based throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

SENDER = 1
DISCORD = 2


@dataclass(frozen=True)
class Segment:
    """One distributor's output: a sender list plus one bit list per receiver.

    ``receiver_lists`` maps the receiver's party index (2 and up) to its
    list; all lists share ``length``.
    """

    length: int
    sender_list: tuple[int, ...]
    receiver_lists: Mapping[int, tuple[int, ...]]

    @property
    def receiver_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.receiver_lists))

    def party_slice(self, party: int) -> tuple[int, ...]:
        """The list this segment gives to ``party`` (1 is the sender)."""
        if party == SENDER:
            return self.sender_list
        return self.receiver_lists[party]

    @property
    def discord_positions(self) -> tuple[int, ...]:
        return tuple(j for j, v in enumerate(self.sender_list) if v == DISCORD)


@dataclass(frozen=True)
class Violation:
    """One failed structural property, as found by :func:`verify_segment`."""

    prop: int
    message: str


@dataclass(frozen=True)
class CombinedList:
    """A party's concatenation of its per-distributor lists, in distributor order."""

    party: int
    entries: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)


def generate_segment(m: int, receiver_count: int, rng: random.Random) -> Segment:
    """Draw one distributor's segment uniformly at random.

    The sender arrangement is a uniform shuffle of m/3 copies each of 0, 1
    and 2.  Every receiver copies the 0/1 positions and gets an independent
    uniform balanced assignment (m/6 zeros, m/6 ones) on the discord
    positions.  Receivers are drawn in ascending party order, so a fixed rng
    state reproduces the segment exactly.
    """
    if m <= 0 or m % 6 != 0:
        raise ValueError(f"segment length must be a positive multiple of 6, got {m}")
    if receiver_count < 2:
        raise ValueError(f"need at least 2 receivers, got {receiver_count}")
    third, sixth = m // 3, m // 6
    trits = [0] * third + [1] * third + [DISCORD] * third
    rng.shuffle(trits)
    discord = [j for j, v in enumerate(trits) if v == DISCORD]
    receiver_lists: dict[int, tuple[int, ...]] = {}
    for k in range(2, receiver_count + 2):
        coins = [0] * sixth + [1] * sixth
        rng.shuffle(coins)
        bits = list(trits)
        for pos, coin in zip(discord, coins):
            bits[pos] = coin
        receiver_lists[k] = tuple(bits)
    return Segment(length=m, sender_list=tuple(trits), receiver_lists=receiver_lists)


def verify_segment(seg: Segment) -> list[Violation]:
    """Check every structural property; an empty report means a valid segment.

    Properties, by number:
      1. all lists share the declared length, a positive multiple of 6
      2. sender symbols lie in {0,1,2} with exactly m/3 of each
      3. receiver symbols lie in {0,1}
      4. receivers copy the sender's 0/1 entries exactly
      5. every receiver holds a bit wherever the sender holds 2
      6. each receiver's discord bits are balanced: m/6 zeros and m/6 ones

    Malformed input is reported, never raised; verification runs on data
    that arrives over a channel.
    """
    out: list[Violation] = []
    m = seg.length
    if m <= 0 or m % 6 != 0:
        out.append(Violation(1, f"declared length {m} is not a positive multiple of 6"))
    if len(seg.sender_list) != m:
        out.append(Violation(1, f"sender list has length {len(seg.sender_list)}, expected {m}"))
    for k, bits in sorted(seg.receiver_lists.items()):
        if len(bits) != m:
            out.append(Violation(1, f"receiver {k} list has length {len(bits)}, expected {m}"))

    bad = [j for j, v in enumerate(seg.sender_list) if v not in (0, 1, DISCORD)]
    if bad:
        out.append(Violation(2, f"sender list holds non-trit symbols at positions {bad}"))
    elif m > 0 and m % 6 == 0 and len(seg.sender_list) == m:
        counts = [seg.sender_list.count(v) for v in (0, 1, DISCORD)]
        if counts != [m // 3] * 3:
            out.append(
                Violation(2, f"sender counts 0/1/2 are {counts[0]}/{counts[1]}/{counts[2]}, expected {m // 3} each")
            )

    for k, bits in sorted(seg.receiver_lists.items()):
        bad = [j for j, v in enumerate(bits) if v not in (0, 1)]
        if bad:
            out.append(Violation(3, f"receiver {k} holds non-bit symbols at positions {bad}"))

    # Positional properties only make sense where both lists have an entry.
    for k, bits in sorted(seg.receiver_lists.items()):
        span = min(len(seg.sender_list), len(bits))
        mismatched = [j for j in range(span) if seg.sender_list[j] in (0, 1) and bits[j] != seg.sender_list[j]]
        if mismatched:
            out.append(Violation(4, f"receiver {k} disagrees with the sender's fixed entries at {mismatched}"))
        discord = [j for j in range(span) if seg.sender_list[j] == DISCORD]
        nonbit = [j for j in discord if bits[j] not in (0, 1)]
        if nonbit:
            out.append(Violation(5, f"receiver {k} holds no bit at discord positions {nonbit}"))
        else:
            zeros = sum(1 for j in discord if bits[j] == 0)
            ones = len(discord) - zeros
            if zeros != ones:
                out.append(Violation(6, f"receiver {k} discord bits are {zeros} zeros / {ones} ones, expected equal counts"))
    return out


def combine_segments(party: int, slices: Sequence[Sequence[int]]) -> CombinedList:
    """Concatenate one party's per-distributor slices, first distributor first.

    Rejects empty input, mismatched slice lengths, and symbols outside the
    party's domain ({0,1,2} for the sender, {0,1} for receivers).
    """
    if not slices:
        raise ValueError("need at least one segment slice")
    lengths = {len(s) for s in slices}
    if len(lengths) != 1:
        raise ValueError(f"slices must share one length, got {sorted(lengths)}")
    allowed = {0, 1, DISCORD} if party == SENDER else {0, 1}
    for i, s in enumerate(slices):
        bad = sorted(set(s) - allowed)
        if bad:
            raise ValueError(f"slice {i} holds symbols {bad} outside party {party}'s domain {sorted(allowed)}")
    return CombinedList(party=party, entries=tuple(v for s in slices for v in s))


def combined_lists_from_segments(segments: Sequence[Segment]) -> dict[int, CombinedList]:
    """Every party's combined list, from segments already in distributor order."""
    if not segments:
        raise ValueError("need at least one segment")
    first = segments[0].receiver_indices
    for seg in segments[1:]:
        if seg.receiver_indices != first:
            raise ValueError(f"segments disagree on receiver indices: {first} vs {seg.receiver_indices}")
    parties = (SENDER, *first)
    return {p: combine_segments(p, [seg.party_slice(p) for seg in segments]) for p in parties}


def positions_of(sender_list: CombinedList, bit: int) -> tuple[int, ...]:
    """All positions of ``bit`` on the sender's combined list, ascending."""
    if sender_list.party != SENDER:
        raise ValueError(f"expected the sender's combined list, got party {sender_list.party}")
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    return tuple(j for j, v in enumerate(sender_list.entries) if v == bit)
