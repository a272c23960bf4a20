"""Position-by-position views of the mask lists, for tests that spell lists out."""

from dbasim.listgen import CombinedList


def bits(positions):
    """The mask with the given distinct positions set, one bit at a time."""
    return sum(1 << x for x in positions)


def combined(party, entries):
    """The CombinedList whose position j holds ``entries[j]``: 0, 1, or 2 for the sender's discord."""
    zeros = bits(j for j, v in enumerate(entries) if v == 0)
    ones = bits(j for j, v in enumerate(entries) if v == 1)
    return CombinedList(party=party, length=len(entries), zeros=zeros, ones=ones)


def entries(lst):
    """The symbol at each position of ``lst``: 0, 1, or 2 where neither mask holds the position."""
    return tuple(0 if lst.zeros >> j & 1 else 1 if lst.ones >> j & 1 else 2 for j in range(lst.length))
