"""Static Byzantine adversary: corruption model, bribery knowledge, forging.

The adversary controls a fixed set of participants chosen before execution
and may bribe distributors, each of which independently leaks its full
segment with a fixed probability.  Everything a strategy does is computed
from a :class:`Knowledge` value (leaked segments plus whatever the
controlled parties legitimately hold), never from ground-truth lists, so
undisclosed discord bits stay out of reach by construction.  Who is
controlled, who is bribed and how each behaves are fields of the batch's
:class:`~dbasim.harness.SimConfig`.

The forging attack and its exact success probability
(:func:`forge_success_closed_form`) live here too.
"""

from __future__ import annotations

from math import comb
from random import Random
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence

from .listgen import SENDER, CombinedList, Segment, concat_masks, mask_of, mask_positions, sample
from .protocol import BOT, Claim, Message, make_claim, relay_step

if TYPE_CHECKING:
    from fractions import Fraction

    from .harness import SimConfig

#: receiver strategies that aim fabricated claims at chosen targets and count them as forging attempts
FORGING_RECEIVER_STRATEGIES = frozenset({"forge", "omniscient-forge"})
#: the strategies that cannot break agreement: with only these controlled, every trial agrees.
#: ``random-junk`` can: a blind claim passes wherever the target holds its bit at every claimed position
AGREEMENT_SAFE_STRATEGIES = frozenset({"honest-mimic", "silent", "flag-always", "equivocate"})


class Knowledge(NamedTuple):
    """Everything the adversary can see in one trial.

    A disclosing distributor reveals every list it generated, so a covered
    position is known for every party.  ``own_lists`` holds the controlled
    parties' combined lists, so it also names the controlled set.  Positions
    are masks over the combined list, segment i at bits ``i*m`` and up.
    Nothing else is representable: own lists hold only masks and leaked
    segments plain dicts, so no undrawn coin or rng is reachable.
    ``covered`` is the mask of every position inside a leaked segment, and
    ``known`` maps ``(party, bit)`` to the known positions that every forger
    of the trial shares (see :func:`forge_claim`).
    """

    segment_length: int
    distributors: tuple[int, ...]
    disclosed: dict[int, Segment]
    own_lists: dict[int, CombinedList]
    covered: int
    known: dict[tuple[int, int], tuple[int, int]]

    @property
    def full_disclosure(self) -> bool:
        return len(self.disclosed) == len(self.distributors)

    def known_positions(self, party: int, bit: int) -> int:
        """The mask of every position where ``party`` is known to hold ``bit`` (0 or 1)."""
        if not self.disclosed:
            return 0
        masks = [self.disclosed[d].party_masks(party)[bit] if d in self.disclosed else 0 for d in self.distributors]
        return concat_masks(masks, self.segment_length)


def resolve_bribes(
    cfg: SimConfig,
    rng: Optional[Random],
    segments: Mapping[int, Segment],
    lists: Mapping[int, CombinedList],
) -> Knowledge:
    """Flip each of ``cfg``'s bribed distributors' disclosure coins and assemble one trial's Knowledge.

    Coins are independent, one per bribed distributor, drawn in ascending
    distributor order so a fixed rng state reproduces the outcome.  Unbribed
    distributors never leak, and ``rng`` may be None when none is bribed.
    Only the controlled parties' lists in ``lists`` go into the Knowledge,
    and a leaked segment goes in with its coins drawn into a plain dict.
    Each Knowledge gets a fresh ``known``, shared by the trial's forgers.
    """
    distributors = tuple(sorted(segments))
    m = segments[distributors[0]].length
    disclosed: dict[int, Segment] = {}
    for dist in distributors:
        if dist in cfg.bribed and rng.random() < cfg.disclosure_probability:
            seg = segments[dist]
            disclosed[dist] = Segment(seg.length, seg.sender_zeros, seg.sender_ones, dict(seg.receiver_ones))
    return Knowledge(
        segment_length=m,
        distributors=distributors,
        disclosed=disclosed,
        own_lists={party: lists[party] for party in sorted(cfg.controlled)},
        covered=concat_masks([(1 << m) - 1 if d in disclosed else 0 for d in distributors], m) if disclosed else 0,
        known={},
    )


def forge_claim(
    target_bit: int,
    own_list: CombinedList,
    sender_claim: Optional[Claim],
    know: Knowledge,
    targets: Sequence[int],
    rng: Random,
) -> dict[int, Claim]:
    """Fabricate a claim for ``target_bit`` aimed at each target's list.

    Per target, positions the leaked segments show to carry ``target_bit``
    on the target's list are used first, lowest first.  The remainder is
    drawn uniformly from the candidate pool: positions of ``target_bit`` on
    the forger's own list, outside the sender's claimed positions, in
    unleaked segments.  Guaranteed-agreement candidates and discord
    candidates look identical to the forger, and the discord ones only match
    the target's hidden bit half the time; that is the whole exposure.  The
    pool is the same for every target, so it is built once; targets draw
    from it in ascending order, each with its own :func:`~dbasim.listgen.sample`.
    The known part, capped to ``need`` positions, is the same for every forger
    of the trial, so it is made once, in ``know.known``.

    Always returns well-formed claims (right size, in range).  If the pool
    runs dry, which needs a sender claim overlapping the forger's own
    ``target_bit`` positions, the remainder is drawn from whatever positions
    are left; those picks are expected to fail checking.
    """
    total = own_list.length
    need = total // 3
    known = know.known
    pool: Optional[list[int]] = None
    out: dict[int, Claim] = {}
    for target in sorted(targets):
        hit = known.get((target, target_bit))
        if hit is None:
            picked = know.known_positions(target, target_bit)
            if picked.bit_count() > need:
                picked &= (1 << mask_positions(picked)[need]) - 1  # the lowest ``need`` positions
            hit = known[target, target_bit] = (picked, picked.bit_count())
        picked, count = hit
        if count < need:
            if pool is None:
                excluded = know.covered | (0 if sender_claim is None else sender_claim.mask)
                pool = mask_positions(own_list.mask(target_bit) & ~excluded)
            fill = need - count
            take = min(fill, len(pool))
            picked |= mask_of(sample(pool, take, rng), total)
            if take < fill:
                leftovers = mask_positions(((1 << total) - 1) & ~picked)
                picked |= mask_of(sample(leftovers, fill - take, rng), total)
        out[target] = Claim(bit=target_bit, mask=picked)
    return out


def forge_success_closed_form(m: int, d: int) -> Fraction:
    """Exact forging success with no disclosure and one checker, closed form.

    The forger draws M/3 positions uniformly from its candidate set: d*m/3
    guaranteed-agreement positions plus m/6 discord positions per segment.
    Conditioned on drawing j discord candidates in a segment, the checker's
    balanced hidden bits match all j of them with probability
    C(m/3 - j, m/6 - j) / C(m/3, m/6).  The segments' weights multiply, so
    the sum over the multivariate hypergeometric draw is one polynomial
    P(x) = sum_j C(m/6, j) C(m/3 - j, m/6 - j) x^j raised to the d-th power:
    its coefficient of x^s weighs the draws of s discord candidates in all,
    each completed by C(d*m/3, d*m/3 - s) agreement picks.  The tests pin it
    to the exhaustive enumeration on every instance small enough for that.
    """
    from fractions import Fraction  # only batches with a forge reference need it

    if m <= 0 or m % 6 != 0:
        raise ValueError(f"segment length must be a positive multiple of 6, got {m}")
    if d < 1:
        raise ValueError(f"need at least one distributor, got {d}")
    third, sixth = m // 3, m // 6
    agreement = d * third  # also the number of positions drawn
    segment = [comb(sixth, j) * comb(third - j, sixth - j) for j in range(sixth + 1)]
    power = [1]  # P(x)^0, then P(x)^1 ... P(x)^d, lowest coefficient first
    for _ in range(d):
        product = [0] * (len(power) + sixth)
        for i, a in enumerate(power):
            for j, b in enumerate(segment):
                product[i + j] += a * b
        power = product
    ways = sum(c * comb(agreement, agreement - s) for s, c in enumerate(power))
    return Fraction(ways, comb(third, sixth) ** d * comb(agreement + d * sixth, agreement))


def forge_heuristic(m: int, d: int) -> float:
    """The coarse all-discord estimate (1/2)^(M/3), reported next to exact rates."""
    return 0.5 ** (d * m // 3)


# --- strategies -------------------------------------------------------------
#
# Every strategy is ``strategy(party, incoming, know, receivers, rng)`` and
# returns ``(messages, forged)``: one message per receiver, None meaning
# silence, and the targets that were sent a fabricated claim, which the
# harness counts as forging attempts.  ``incoming`` is the sender's input
# bit in round 1 and the received round-1 message in round 2.  The party's
# own list is ``know.own_lists[party]``.  Strategies that act the same from
# either role sit in both tables below.
#
# ``receivers`` is the audience, in ascending order, and a strategy draws
# from ``rng`` per receiver in that order.  Whatever it draws before the
# first receiver does not depend on the audience, and a victim is chosen
# among the honest receivers.  So the messages to a prefix of the audience
# that holds every honest receiver do not depend on what follows it, and
# the harness may end a round-2 audience at the last honest receiver when
# nobody reads the messages to the controlled receivers after it.

Outgoing = tuple[dict[int, Optional[Message]], tuple[int, ...]]


def _silent(party: int, incoming: object, know: Knowledge, receivers: Sequence[int], rng: Random) -> Outgoing:
    return {k: None for k in receivers}, ()


def _flag_always(party: int, incoming: object, know: Knowledge, receivers: Sequence[int], rng: Random) -> Outgoing:
    return {k: BOT for k in receivers}, ()


def _random_junk(party: int, incoming: object, know: Knowledge, receivers: Sequence[int], rng: Random) -> Outgoing:
    total = know.own_lists[party].length
    msgs: dict[int, Optional[Message]] = {}
    for k in receivers:  # ascending, so the rng stream is reproducible
        bit = rng.randrange(2)
        msgs[k] = Claim(bit, mask_of(sample(range(total), total // 3, rng), total))
    return msgs, ()


def _sender_honest(party: int, bit: int, know: Knowledge, receivers: Sequence[int], rng: Random) -> Outgoing:
    claim = make_claim(bit, know.own_lists[party])
    return {k: claim for k in receivers}, ()


def _sender_equivocate(party: int, bit: int, know: Knowledge, receivers: Sequence[int], rng: Random) -> Outgoing:
    """Split the receivers: first half get the input, the rest its negation.

    Each receiver gets the full honest claim for its bit, so every claim is
    individually consistent everywhere and the split only surfaces when
    receivers compare relays and hit the conflicting-bits criterion.  The
    harness classes receivers by message value, so each half is one class;
    that each half also shares one claim object only spares equality tests.
    """
    own = know.own_lists[party]
    half = (len(receivers) + 1) // 2
    first, second = make_claim(bit, own), make_claim(1 - bit, own)
    return {k: first if i < half else second for i, k in enumerate(receivers)}, ()


def _receiver_honest(
    party: int, received: Optional[Message], know: Knowledge, receivers: Sequence[int], rng: Random
) -> Outgoing:
    msg = relay_step(received, know.own_lists[party])
    return {k: msg for k in receivers}, ()


def _receiver_forge(
    party: int, received: Optional[Message], know: Knowledge, receivers: Sequence[int], rng: Random
) -> Outgoing:
    """Fabricate a claim for the opposite bit, separately per fellow receiver.

    Each target gets its own draw; the claims only check out where the
    target's hidden discord bits happen to cooperate.
    """
    if isinstance(received, Claim):
        bit = 1 - received.bit
        sender_claim: Optional[Claim] = received
    else:
        bit = rng.randrange(2)
        sender_claim = None
    targets = tuple(k for k in receivers if k != party)
    forged = forge_claim(bit, know.own_lists[party], sender_claim, know, targets, rng)
    return {k: forged.get(k, BOT) for k in receivers}, targets


def _receiver_omniscient_forge(
    party: int, received: Optional[Message], know: Knowledge, receivers: Sequence[int], rng: Random
) -> Outgoing:
    """Forge only on full disclosure, against a single chosen victim.

    With every segment leaked the fabricated opposite-bit claim is built
    from known-good positions and passes the victim's check with certainty;
    everyone else gets the honest relay, so the victim aborts on conflicting
    consistent bits while the rest decide.  Without full disclosure this
    behaves exactly like an honest receiver.
    """
    honest_peers = [k for k in receivers if k not in know.own_lists]
    if not know.full_disclosure or not isinstance(received, Claim) or not honest_peers:
        return _receiver_honest(party, received, know, receivers, rng)
    victim = honest_peers[0]
    own = know.own_lists[party]
    honest_msg = relay_step(received, own)
    msgs: dict[int, Optional[Message]] = {k: honest_msg for k in receivers}
    msgs.update(forge_claim(1 - received.bit, own, received, know, (victim,), rng))
    return msgs, (victim,)


SENDER_STRATEGIES = {
    "honest-mimic": _sender_honest,
    "silent": _silent,
    "random-junk": _random_junk,
    "equivocate": _sender_equivocate,
    "flag-always": _flag_always,
}

RECEIVER_STRATEGIES = {
    "honest-mimic": _receiver_honest,
    "silent": _silent,
    "random-junk": _random_junk,
    "forge": _receiver_forge,
    "omniscient-forge": _receiver_omniscient_forge,
    "flag-always": _flag_always,
}


def adversary_act(
    cfg: SimConfig, party: int, incoming: object, know: Knowledge, receivers: Sequence[int], rng: Random
) -> Outgoing:
    """One controlled party's round: ``cfg``'s sender strategy for party 1, its receiver strategy otherwise.

    ``cfg`` must have passed :meth:`~dbasim.harness.SimConfig.validate`,
    which rejects unknown strategy names.
    """
    if party == SENDER:
        strategy = SENDER_STRATEGIES[cfg.sender_strategy]
    else:
        strategy = RECEIVER_STRATEGIES[cfg.receiver_strategy]
    return strategy(party, incoming, know, receivers, rng)
