"""Correlated reference lists: generation and composition.

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

Receivers' coins are drawn lazily.  A segment keeps its rng and draws a
receiver's coin set the first time anything reads it, a receiver's
combined list is made the first time anything looks it up, and it builds
its own masks the first time anything reads them.
Until then a list answers from the positions every list of the family
shares with the sender (its agreement positions), which is all an honest
claim ever touches.

Lists are drawn with :func:`shuffle`, and the adversary's picks with
:func:`sample`.  Both equal ``Random.shuffle`` and ``Random.sample`` draw
for draw, so what they draw rests only on the rng's ``getrandbits`` words.
"""

from __future__ import annotations

import random
from itertools import compress
from math import ceil, log
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

SENDER = 1
DISCORD = 2

# Masks convert to and from symbols through binary digit strings, in time
# linear in the list length.  OR-ing one bit at a time is quadratic but has
# no fixed cost, so :func:`mask_of` ORs for lists up to _OR_MAX_LENGTH
# positions long: at length 60 the OR loop took 1.0 us against the digit
# string's 1.5 us with a sixth of the positions set, and tied with a third
# set; at 72 the digit string won with a third set (CPython 3.11, ``timeit``).
_OR_MAX_LENGTH = 64
_ZEROS = bytes.maketrans(b"\x00\x01\x02", b"100")
_ONES = bytes.maketrans(b"\x00\x01\x02", b"010")
_BITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def mask_positions(mask: int) -> list[int]:
    """The set bits of a non-negative ``mask``, ascending."""
    return list(compress(range(mask.bit_length()), bin(mask)[:1:-1].encode().translate(_DIGITS)))


def mask_of(positions: Iterable[int], length: int) -> int:
    """The mask with exactly ``positions`` set, each below ``length``."""
    if length <= _OR_MAX_LENGTH:
        return _or_mask(positions)
    return _digit_mask(positions, length)


def _or_mask(positions: Iterable[int]) -> int:
    mask = 0
    for x in positions:
        mask |= 1 << x
    return mask


def _digit_mask(positions: Iterable[int], length: int) -> int:
    digits = bytearray(length)
    for x in positions:
        digits[x] = 1
    return int(digits[::-1].translate(_BITS), 2) if length else 0


def shuffle(x: list, rng: random.Random) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` does.

    Same result, same final rng state: each swap index is drawn by the
    ``getrandbits`` rejection loop of ``Random._randbelow``, inlined.
    """
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def sample(population: Sequence, k: int, rng: random.Random) -> list:
    """``k`` distinct picks from ``population`` exactly as ``rng.sample(population, k)`` makes them.

    Same result, same final rng state: both branches of ``Random.sample``
    (a shrinking pool, or a set of indices already taken when the set is
    the smaller, by the same size rule) with ``Random._randbelow`` inlined.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    result = []
    if n <= setsize:
        pool = list(population)
        for size in range(n, n - k, -1):
            bits = size.bit_length()
            j = getrandbits(bits)
            while j >= size:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[size - 1]
    else:
        bits = n.bit_length()
        selected: set[int] = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            result.append(population[j])
    return result


class CoinStore(Mapping[int, int]):
    """The receivers' 1-masks of one segment, each receiver's coins drawn on first read.

    Reading receiver k draws, in ascending order, every receiver up to k
    still undrawn, each as one :func:`shuffle` of a balanced coin list laid
    over the discord positions.  So every value is the one an eager draw in
    ascending receiver order would give, whatever the order of reads, and
    once the last receiver is drawn the rng stands where that eager draw
    would have left it; the store then lets go of it.  The discord
    positions and the coin list are made from the discord mask on the
    first draw, so a store nothing reads costs no per-position work.
    Iteration, ``len`` and ``in`` see every receiver without drawing;
    ``dict(store)``, ``==`` and ``items()`` draw whatever is still undrawn.
    """

    __slots__ = ("_rng", "_discord", "_positions", "_coins", "_ones", "_length", "_keys", "_drawn")

    def __init__(self, rng: random.Random, discord: int, ones: int, length: int, receiver_count: int):
        self._rng: Optional[random.Random] = rng
        self._discord = discord
        self._positions: Optional[list[int]] = None
        self._coins: Optional[list[int]] = None
        self._ones = ones
        self._length = length
        self._keys = range(2, receiver_count + 2)
        self._drawn: dict[int, int] = {}

    def __getitem__(self, k: int) -> int:
        drawn = self._drawn
        if k in drawn:
            return drawn[k]
        if k not in self._keys:
            raise KeyError(k)
        if self._positions is None:
            self._positions = mask_positions(self._discord)
            half = len(self._positions) // 2
            self._coins = [0] * half + [1] * half
        rng, discord, template, ones, m = self._rng, self._positions, self._coins, self._ones, self._length
        for j in range(len(drawn) + 2, k + 1):
            coins = template.copy()
            shuffle(coins, rng)
            drawn[j] = ones | mask_of(compress(discord, coins), m)
        if len(drawn) == len(self._keys):
            self._rng = None
        return drawn[k]

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, k: object) -> bool:
        return k in self._keys


class Segment(NamedTuple):
    """One distributor's output: the sender's 0- and 1-masks plus one 1-mask per receiver.

    ``receiver_ones`` maps the receiver's party index (2 and up) to its
    1-mask; all lists share ``length``.  A generated segment's
    ``receiver_ones`` is a :class:`CoinStore`; any mapping will do.
    """

    length: int
    sender_zeros: int
    sender_ones: int
    receiver_ones: Mapping[int, int]

    def party_masks(self, party: int) -> tuple[int, int]:
        """The 0-mask and 1-mask this segment gives to ``party`` (1 is the sender)."""
        if party == SENDER:
            return self.sender_zeros, self.sender_ones
        ones = self.receiver_ones[party]
        return ((1 << self.length) - 1) & ~ones, ones


class CombinedList:
    """A party's concatenation of its per-distributor lists, in distributor order.

    Segment i occupies bits ``i*m`` to ``i*m + m - 1`` of each mask.
    ``agreed`` is a (0-mask, 1-mask) pair of positions known to hold that
    bit on this list: a receiver's list still unbuilt shares the sender's
    masks there, since every list of the family copies the sender's 0/1
    entries; a built list holds its own masks.  A built list references
    nothing but its masks.
    """

    __slots__ = ("party", "length", "agreed", "_masks", "_segments")

    def __init__(self, party: int, length: int, zeros: int, ones: int):
        self.party = party
        self.length = length
        self.agreed = self._masks = (zeros, ones)
        self._segments: Optional[Sequence[Segment]] = None

    @classmethod
    def unbuilt(cls, party: int, segments: Sequence[Segment], agreed: tuple[int, int]) -> CombinedList:
        """Receiver ``party``'s list over ``segments``, with the sender's masks ``agreed``; built on first read."""
        lst = cls.__new__(cls)
        lst.party = party
        lst.length = segments[0].length * len(segments)
        lst.agreed = agreed
        lst._masks = None
        lst._segments = segments
        return lst

    def build(self) -> CombinedList:
        """Build the list's own masks now if they are not built yet, drawing its coins; returns the list."""
        segments = self._segments
        if segments is not None:
            ones = concat_masks([seg.receiver_ones[self.party] for seg in segments], segments[0].length)
            self.agreed = self._masks = (((1 << self.length) - 1) ^ ones, ones)
            self._segments = None
        return self

    def mask(self, bit: int) -> int:
        """The positions holding ``bit`` (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        masks = self._masks
        return (masks if masks is not None else self.build()._masks)[bit]

    @property
    def zeros(self) -> int:
        return self.mask(0)

    @property
    def ones(self) -> int:
        return self.mask(1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CombinedList):
            return NotImplemented
        return (self.party, self.length, self.zeros, self.ones) == (other.party, other.length, other.zeros, other.ones)

    def __repr__(self) -> str:
        return f"CombinedList(party={self.party}, length={self.length}, zeros={self.zeros:#x}, ones={self.ones:#x})"


class PartyLists(Mapping[int, CombinedList]):
    """Every party's combined list, keyed by party; a receiver's list is made on first lookup.

    The sender's list is built at once.  A receiver's list is made unbuilt
    (:meth:`CombinedList.unbuilt`, sharing the sender's masks as ``agreed``)
    the first time it is looked up, and kept, so a trial that reads only
    the sender's list makes no receiver's.  Iteration and ``len`` see every
    party without making a list; iteration gives the sender, then the
    receivers in the first segment's order.
    """

    __slots__ = ("_made", "_segments")

    def __init__(self, sender: CombinedList, segments: tuple[Segment, ...]):
        self._made = {SENDER: sender}
        self._segments = segments

    def __getitem__(self, party: int) -> CombinedList:
        made = self._made
        if party in made:
            return made[party]
        if party not in self._segments[0].receiver_ones:
            raise KeyError(party)
        lst = made[party] = CombinedList.unbuilt(party, self._segments, made[SENDER].agreed)
        return lst

    def __iter__(self) -> Iterator[int]:
        yield SENDER
        yield from self._segments[0].receiver_ones

    def __len__(self) -> int:
        return len(self._segments[0].receiver_ones) + 1


def generate_segment(m: int, receiver_count: int, rng: random.Random) -> Segment:
    """Draw one distributor's segment uniformly at random.

    The sender arrangement is a uniform shuffle of m/3 copies each of 0, 1
    and 2, drawn at once.  Every receiver copies the 0/1 positions and gets
    an independent uniform balanced assignment (m/6 zeros, m/6 ones) on the
    discord positions, ascending; those are drawn on first read by the
    segment's :class:`CoinStore`, in ascending receiver order whatever the
    order of reads.  The segment owns ``rng`` from here on: given a stream
    nothing else draws from, a fixed rng state reproduces the segment
    exactly, and it ends in the state an eager draw of every receiver would
    leave once all receivers are read.
    """
    if m <= 0 or m % 6 != 0:
        raise ValueError(f"segment length must be a positive multiple of 6, got {m}")
    if receiver_count < 2:
        raise ValueError(f"need at least 2 receivers, got {receiver_count}")
    third = m // 3
    trits = [0] * third + [1] * third + [DISCORD] * third
    shuffle(trits, rng)
    digits = bytes(trits)[::-1]
    zeros, ones = int(digits.translate(_ZEROS), 2), int(digits.translate(_ONES), 2)
    coins = CoinStore(rng, ((1 << m) - 1) ^ zeros ^ ones, ones, m, receiver_count)
    return Segment(length=m, sender_zeros=zeros, sender_ones=ones, receiver_ones=coins)


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


def combined_lists_from_segments(segments: Sequence[Segment]) -> PartyLists:
    """Every party's combined list, from segments already in distributor order.

    The sender's list is built at once, and its masks are every receiver's
    ``agreed`` masks; a receiver's list is made on first lookup and builds
    its own masks, drawing its coins, on first read.  Rejects empty input
    and segments that disagree on the receivers.
    """
    if not segments:
        raise ValueError("need at least one segment")
    segments = tuple(segments)
    receivers = segments[0].receiver_ones
    for seg in segments[1:]:
        if set(seg.receiver_ones) != set(receivers):
            raise ValueError(
                f"segments disagree on receiver indices: {sorted(receivers)} vs {sorted(seg.receiver_ones)}"
            )
    return PartyLists(combine_segments(SENDER, segments), segments)
