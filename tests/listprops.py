"""The paper's six structural list properties, as the tests' reference checker, and the eager reference generator."""

from dataclasses import dataclass
from itertools import compress

from dbasim.listgen import DISCORD, Segment, mask_of, mask_positions


def reference_segment(m, receiver_count, rng):
    """The segment ``generate_segment`` draws, drawn eagerly into a plain dict.

    The sender's trits are one shuffle of m/3 each of 0, 1 and 2; then each
    receiver, ascending, gets one shuffle of m/6 zeros and m/6 ones laid over
    the discord positions.  This is the stream layout the lazy generator
    must reproduce value for value and draw for draw.
    """
    third, sixth = m // 3, m // 6
    trits = [0] * third + [1] * third + [DISCORD] * third
    rng.shuffle(trits)
    zeros = mask_of((j for j, v in enumerate(trits) if v == 0), m)
    ones = mask_of((j for j, v in enumerate(trits) if v == 1), m)
    discord = [j for j, v in enumerate(trits) if v == DISCORD]
    receiver_ones = {}
    for k in range(2, receiver_count + 2):
        coins = [0] * sixth + [1] * sixth
        rng.shuffle(coins)
        receiver_ones[k] = ones | mask_of(compress(discord, coins), m)
    return Segment(length=m, sender_zeros=zeros, sender_ones=ones, receiver_ones=receiver_ones)


@dataclass(frozen=True)
class Violation:
    """One failed structural property, as found by :func:`verify_segment`."""

    prop: int
    message: str


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

    Malformed input is reported, never raised, so one call lists every
    property a broken segment fails.
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
