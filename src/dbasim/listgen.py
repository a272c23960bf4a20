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

The sender-list invariant: a claim consistent with the sender's list is
consistent with every receiver's, since it claims a third of the positions,
each carrying its bit on the sender's list and so none a discord position,
and every receiver copies the sender's 0/1 entries.  Only a claim failing
there can pass at one receiver and fail at another.  So a relay or a
decision that sees only claims passing there is made once, for everyone.

A receiver's coins are drawn (:class:`CoinStore`), and its combined list
built (:class:`PartyLists`), the first time anything reads them.  By the
invariant, a trial that needs no receiver's own list never draws its coins.

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

# :func:`shuffle` walks one cached tuple of ``(i, i + 1, (i + 1).bit_length())``
# steps, and :func:`generate_segment` copies one cached trit list, per length
# up to _CACHE_MAX_LENGTH (README, "Determinism", gives the memory).  Past it
# the plain loop runs: steps built per call were 40-55% slower.
_CACHE_MAX_LENGTH = 1024
_STEPS: dict[int, tuple[tuple[int, int, int], ...]] = {}
_TRITS: dict[int, list[int]] = {}


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
    length = len(x)
    if length > _CACHE_MAX_LENGTH:
        for i in reversed(range(1, length)):
            n = i + 1
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        return
    steps = _STEPS.get(length)
    if steps is None:
        steps = _STEPS[length] = tuple((i, i + 1, (i + 1).bit_length()) for i in reversed(range(1, length)))
    for i, n, k in steps:
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
    would have left it; the store then lets go of it.  Iteration, ``len``
    and ``in`` see every receiver without drawing; ``dict(store)``, ``==``
    and ``items()`` draw whatever is still undrawn.
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


class CombinedList(NamedTuple):
    """A party's concatenation of its per-distributor lists, in distributor order.

    Segment i occupies bits ``i*m`` to ``i*m + m - 1`` of each mask.
    """

    length: int
    zeros: int
    ones: int

    def mask(self, bit: int) -> int:
        """The positions holding ``bit`` (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        return self.ones if bit else self.zeros


class PartyLists(dict):
    """Every party's combined list, keyed by party: the sender's made at once, a receiver's on first lookup.

    A lookup of a party the segments do not hold makes nothing: the first
    segment's store raises ``KeyError`` before it draws.
    """

    __slots__ = ("_segments",)

    def __init__(self, sender: CombinedList, segments: tuple[Segment, ...]):
        self[SENDER] = sender
        self._segments = segments

    def __missing__(self, party: int) -> CombinedList:
        lst = self[party] = combine_segments(party, self._segments)
        return lst


def generate_segment(m: int, receiver_count: int, rng: random.Random) -> Segment:
    """Draw one distributor's segment uniformly at random.

    The sender arrangement is a uniform shuffle of m/3 copies each of 0, 1
    and 2, drawn at once.  Every receiver copies the 0/1 positions and gets
    an independent uniform balanced assignment (m/6 zeros, m/6 ones) on the
    discord positions, drawn by the segment's :class:`CoinStore`.  The
    segment owns ``rng`` from here on: given a stream nothing else draws
    from, a fixed rng state reproduces the segment exactly.
    """
    if m <= 0 or m % 6 != 0:
        raise ValueError(f"segment length must be a positive multiple of 6, got {m}")
    if receiver_count < 2:
        raise ValueError(f"need at least 2 receivers, got {receiver_count}")
    template = _TRITS.get(m)
    if template is None:
        template = [0] * (m // 3) + [1] * (m // 3) + [DISCORD] * (m // 3)
        if m <= _CACHE_MAX_LENGTH:
            _TRITS[m] = template
    trits = template.copy()
    shuffle(trits, rng)
    digits = bytes(trits)[::-1]
    zeros, ones = int(digits.translate(_ZEROS), 2), int(digits.translate(_ONES), 2)
    coins = CoinStore(rng, ((1 << m) - 1) ^ zeros ^ ones, ones, m, receiver_count)
    return Segment(length=m, sender_zeros=zeros, sender_ones=ones, receiver_ones=coins)


def concat_masks(masks: Sequence[int], m: int) -> int:
    """One mask from per-segment masks of ``m`` bits each, mask i at bits ``i*m`` and up."""
    return sum(mask << (i * m) for i, mask in enumerate(masks))  # the masks share no bit


def combine_segments(party: int, segments: Sequence[Segment]) -> CombinedList:
    """Concatenate one party's lists from ``segments``, first distributor first, in one pass.

    Rejects empty input and segments of different lengths.
    """
    if not segments:
        raise ValueError("need at least one segment")
    m = segments[0].length
    zeros = ones = shift = 0
    for seg in segments:
        if seg.length != m:
            raise ValueError(f"segments must share one length, got {sorted({seg.length for seg in segments})}")
        seg_zeros, seg_ones = seg.party_masks(party)
        zeros |= seg_zeros << shift
        ones |= seg_ones << shift
        shift += m
    return CombinedList(shift, zeros, ones)


def combined_lists_from_segments(segments: Sequence[Segment]) -> PartyLists:
    """Every party's combined list as :class:`PartyLists`, from segments in distributor order.

    Rejects what :func:`combine_segments` rejects, and segments that disagree
    on the receivers; generated segments compare their receiver ranges, in
    constant time.
    """
    segments = tuple(segments)
    sender = combine_segments(SENDER, segments)
    receivers = segments[0].receiver_ones
    for seg in segments[1:]:
        got = seg.receiver_ones
        same = got._keys == receivers._keys if type(got) is type(receivers) is CoinStore else got.keys() == receivers.keys()
        if not same:
            raise ValueError(
                f"segments disagree on receiver indices: {sorted(receivers)} vs {sorted(seg.receiver_ones)}"
            )
    return PartyLists(sender, segments)
