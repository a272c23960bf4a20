"""Claim exchange and the decision rule.

The agreement stage runs in synchronous rounds: the sender announces a bit
together with every position that bit occupies on its combined list; each
receiver checks the claim against its own list and either relays it or
reports an inconsistency; finally each receiver decides from the full set of
round-two messages.  Decisions are detectable-agreement outputs: a bit, or
an explicit abort.

A claim is a bit plus a position mask (bit j set: position j is claimed),
so the paper's check, claimed positions inside the receiver's own positions
of that bit, is one AND against the receiver's mask for the bit.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Union

from .listgen import CombinedList, mask_positions


class Claim(NamedTuple):
    """A bit plus the mask of the positions said to carry it on the sender's list."""

    bit: int
    mask: int


class Bot:
    """The inconsistency flag a receiver relays instead of a bad claim; use :data:`BOT`."""

    def __repr__(self) -> str:
        return "BOT"


BOT = Bot()

Message = Union[Claim, Bot]


class Decision(NamedTuple):
    """A party's final output: ``value`` is the agreed bit, or None on abort."""

    value: Optional[int]

    @property
    def aborted(self) -> bool:
        return self.value is None


ABORT = Decision(None)

DECIDE_RULES = ("literal", "merged")


def make_claim(bit: int, sender_list: CombinedList) -> Claim:
    """The honest sender's claim for ``bit``: every position of it on the sender's list."""
    return Claim(bit, sender_list.mask(bit))


def check_claim(claim: Claim, own_list: CombinedList) -> bool:
    """True iff ``claim`` is consistent with ``own_list``.

    Consistency requires exactly len/3 claimed positions, every one of them
    carrying the claimed bit on ``own_list``; a position at or beyond the
    list's end carries no bit.  Honest claims always have exactly len/3
    positions, so the count rule rejects padding and truncation without ever
    rejecting an honest claim; in particular an empty claim is not vacuously
    consistent.
    """
    bit = claim.bit
    if bit not in (0, 1):
        return False
    mask = claim.mask
    return mask.bit_count() == own_list.length // 3 and not mask & ~own_list.mask(bit)


def relay_step(received: Optional[Message], own_list: CombinedList) -> Message:
    """An honest receiver's relay round: the claim if consistent, else the flag.

    Anything short of a consistent claim (a failing claim, a flag, or no
    message at all) is relayed as the flag.  ``Claim`` and ``Bot`` are
    always truthy, so only the None of a failing claim becomes the flag.
    """
    return class_relay(received, own_list) or BOT


def class_relay(received: Optional[Message], sender_list: CombinedList) -> Optional[Message]:
    """What every honest receiver relays on ``received``, or None when that depends on its own list.

    By the sender-list invariant (see :mod:`dbasim.listgen`), a claim
    consistent with ``sender_list`` is relayed as-is by every receiver, and
    anything short of a claim is relayed as the flag.  A claim failing there
    needs :func:`relay_step` per receiver.
    """
    if not isinstance(received, Claim):
        return BOT
    return received if check_claim(received, sender_list) else None


def decide(
    relays: Iterable[tuple[Optional[Message], int]],
    own_list: CombinedList,
    rule: str = "literal",
) -> Decision:
    """Decide from the relay round, given as (message, count) pairs.

    Each pair stands for ``count`` receivers, self included, that relayed
    ``message`` to this party; the counts are positive.  Only the message's
    value counts: two pairs of equal messages decide as one pair with the
    summed count.  Silence (None) is consumed as the inconsistency flag.
    Each pair is checked once, so one claim value relayed by many costs one
    check, and the pairs after the first consistent claim for a second bit
    are not read at all.

    Let H be the receivers whose message is a claim consistent with
    ``own_list``.  With fewer than two members the evidence is too thin and
    the decision is abort.  Otherwise:

      (a) two members of H claim different bits                  -> abort
      (b) H is unanimous and every receiver outside H sent a
          claim (necessarily a failing one)                      -> the bit
      (c) H is unanimous and every receiver outside H flagged    -> the bit
      (d) anything else                                          -> abort

    Both (b) and (c) hold vacuously when H covers everyone.  Under the
    literal rule a complement mixing failing claims with flags falls to (d);
    the merged rule accepts that mix and decides.

    When every claim in ``relays`` passes against the sender's list, one
    call on the sender's list decides for every receiver that got those
    relays (the sender-list invariant, see :mod:`dbasim.listgen`).
    """
    if rule not in DECIDE_RULES:
        raise ValueError(f"unknown decide rule {rule!r}, expected one of {DECIDE_RULES}")

    members = 0
    bit: Optional[int] = None
    failing = flagged = False
    for msg, count in relays:
        if not isinstance(msg, Claim):
            flagged = True
        elif check_claim(msg, own_list):
            if bit is None:
                bit = msg.bit
            elif msg.bit != bit:  # (a): H has two members, nothing read later changes that
                return ABORT
            members += count
        else:
            failing = True
    if members < 2:  # too thin
        return ABORT
    if failing and flagged and rule == "literal":  # (d)
        return ABORT
    return Decision(bit)  # (b), (c), or the merged mix


def render_message(msg: Optional[Message]) -> str:
    """Transcript form: ``bit:[p1,p2,...]``, ``BOT``, or ``SILENT`` for None."""
    if msg is None:
        return "SILENT"
    if isinstance(msg, Bot):
        return "BOT"
    return f"{msg.bit}:[{','.join(map(str, mask_positions(msg.mask)))}]"


def render_decision(decision: Optional[Decision]) -> str:
    """``0``/``1``, ``ABORT``, or ``NA`` for parties that output nothing."""
    if decision is None:
        return "NA"
    if decision.aborted:
        return "ABORT"
    return str(decision.value)
