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

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .listgen import CombinedList, mask_positions


@dataclass(frozen=True)
class Claim:
    """A bit plus the mask of the positions said to carry it on the sender's list."""

    bit: int
    mask: int

    @property
    def positions(self) -> tuple[int, ...]:
        """The claimed positions, ascending, as transcripts show them."""
        return tuple(mask_positions(self.mask))


class Bot:
    """The inconsistency flag a receiver relays instead of a bad claim; use :data:`BOT`."""

    def __repr__(self) -> str:
        return "BOT"


BOT = Bot()

Message = Union[Claim, Bot]


@dataclass(frozen=True)
class Decision:
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
    if claim.bit not in (0, 1):
        return False
    mask = claim.mask
    return mask.bit_count() == own_list.length // 3 and not mask & ~own_list.mask(claim.bit)


def relay_step(received: Optional[Message], own_list: CombinedList) -> Message:
    """An honest receiver's relay round: the claim if consistent, else the flag.

    Anything short of a consistent claim (a failing claim, a flag, or no
    message at all) is relayed as the flag.
    """
    if isinstance(received, Claim) and check_claim(received, own_list):
        return received
    return BOT


def sender_decision(bit: int) -> Decision:
    """The honest sender simply outputs its own input."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    return Decision(bit)


def decide(
    inbox: Mapping[int, Message],
    own_list: CombinedList,
    rule: str = "literal",
) -> Decision:
    """Decide from the relay-round messages of every receiver, self included.

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
    """
    if rule not in DECIDE_RULES:
        raise ValueError(f"unknown decide rule {rule!r}, expected one of {DECIDE_RULES}")

    # Relayers usually forward one shared claim object, so each distinct
    # object is checked once; equal claims in distinct objects are simply
    # checked again.  Every message lives as long as the inbox, so ids are
    # unique for the whole call.
    verdicts: dict[int, bool] = {}
    consistent: dict[int, Claim] = {}
    for j, msg in inbox.items():
        if isinstance(msg, Claim):
            ok = verdicts.get(id(msg))
            if ok is None:
                ok = verdicts[id(msg)] = check_claim(msg, own_list)
            if ok:
                consistent[j] = msg
    if len(consistent) < 2:
        return ABORT
    bits = {c.bit for c in consistent.values()}
    if len(bits) > 1:  # (a)
        return ABORT
    complement = [msg for j, msg in inbox.items() if j not in consistent]
    claims_only = all(isinstance(msg, Claim) for msg in complement)
    flags_only = all(isinstance(msg, Bot) for msg in complement)
    if claims_only or flags_only:  # (b) or (c)
        return Decision(bits.pop())
    if rule == "merged":
        return Decision(bits.pop())
    return ABORT  # (d)


def render_message(msg: Optional[Message]) -> str:
    """Transcript form: ``bit:[p1,p2,...]``, ``BOT``, or ``SILENT`` for None."""
    if msg is None:
        return "SILENT"
    if isinstance(msg, Bot):
        return "BOT"
    return f"{msg.bit}:[{','.join(str(p) for p in msg.positions)}]"


def render_decision(decision: Optional[Decision]) -> str:
    """``0``/``1``, ``ABORT``, or ``NA`` for parties that output nothing."""
    if decision is None:
        return "NA"
    if decision.aborted:
        return "ABORT"
    return str(decision.value)
