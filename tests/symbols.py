"""Position-by-position views of the mask lists, and the decide rule over full inboxes, for tests that spell them out."""

from dbasim.listgen import CombinedList, mask_positions
from dbasim.protocol import ABORT, BOT, Claim, Decision, check_claim


def bits(positions):
    """The mask with the given distinct positions set, one bit at a time."""
    return sum(1 << x for x in positions)


def claimed(claim):
    """The positions ``claim`` claims, ascending, as transcripts show them."""
    return tuple(mask_positions(claim.mask))


def combined(entries):
    """The CombinedList whose position j holds ``entries[j]``: 0, 1, or 2 for the sender's discord."""
    zeros = bits(j for j, v in enumerate(entries) if v == 0)
    ones = bits(j for j, v in enumerate(entries) if v == 1)
    return CombinedList(length=len(entries), zeros=zeros, ones=ones)


def entries(lst):
    """The symbol at each position of ``lst``: 0, 1, or 2 where neither mask holds the position."""
    return tuple(0 if lst.zeros >> j & 1 else 1 if lst.ones >> j & 1 else 2 for j in range(lst.length))


def relays(inbox):
    """An inbox {relayer: message} as decide's (message, count) pairs, one per distinct message object."""
    groups = {}
    for msg in inbox.values():
        groups.setdefault(id(msg), [msg, 0])[1] += 1
    return [tuple(group) for group in groups.values()]


def reference_decide(inbox, own_list, rule):
    """The decision rule over a full {relayer: message} inbox with every message checked on its own."""
    consistent = {j: m for j, m in inbox.items() if isinstance(m, Claim) and check_claim(m, own_list)}
    if len(consistent) < 2:
        return ABORT
    bits = {c.bit for c in consistent.values()}
    if len(bits) > 1:
        return ABORT
    complement = [m for j, m in inbox.items() if j not in consistent]
    if rule == "merged" or all(isinstance(m, Claim) for m in complement) or all(m is BOT for m in complement):
        return Decision(bits.pop())
    return ABORT
