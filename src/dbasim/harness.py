"""Seeded Monte Carlo execution of full protocol instances.

One trial is: distributors issue segments, bribery coins resolve, the sender
announces, receivers relay, receivers decide.  Rounds are synchronous and
every message of round r is delivered before round r+1 starts.  All
randomness flows from a master seed through labeled sha256-derived streams,
so any trial can be replayed bit-for-bit in isolation and batches are
reproducible regardless of execution order.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import sqrt
from typing import TYPE_CHECKING, AbstractSet, Callable, Iterable, NamedTuple, Optional

from .adversary import (
    AdversarySpec,
    FORGING_RECEIVER_STRATEGIES,
    adversary_act,
    forge_heuristic,
    forge_success_closed_form,
    resolve_bribes,
)
from .listgen import SENDER, combined_lists_from_segments, generate_segment
from .protocol import (
    BOT,
    DECIDE_RULES,
    Decision,
    Message,
    check_claim,
    class_relay,
    decide,
    make_claim,
    relay_step,
    render_decision,
    render_message,
    sender_decision,
)

if TYPE_CHECKING:
    from fractions import Fraction

SCHEMA_VERSION = 1

#: two-sided 95% normal quantile, the double ``scipy.special.ndtri(0.975)``
#: returns; ``statistics.NormalDist().inv_cdf(0.975)`` is one ulp lower and
#: would move the last bits of every interval in the machine output
WILSON_Z_95 = 1.959963984540054


def derive_rng(master_seed: int, *labels: object) -> random.Random:
    """An independent stream keyed by (master seed, labels).

    sha256 over the joined labels gives well-mixed 64-bit seeds, so streams
    with different labels are effectively independent and adding a stream
    never shifts any other stream's draws.
    """
    material = "|".join([str(master_seed), *map(str, labels)]).encode()
    seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
    return random.Random(seed)


class SimConfig(NamedTuple):
    """Everything one batch needs: sizes, input, adversary, seed, rule."""

    participants: int = 4
    distributors: int = 2
    segment_length: int = 12
    sender_input: int = 1
    adversary: AdversarySpec = AdversarySpec()
    trials: int = 1000
    master_seed: int = 42
    decide_rule: str = "literal"

    @property
    def receivers(self) -> tuple[int, ...]:
        return tuple(range(2, self.participants + 1))

    @property
    def distributor_indices(self) -> tuple[int, ...]:
        return tuple(range(self.participants + 1, self.participants + 1 + self.distributors))

    def validate(self) -> None:
        if self.participants < 3:
            raise ValueError(f"participants must be at least 3 (one sender, two receivers), got {self.participants}")
        if self.distributors < 1:
            raise ValueError(f"distributors must be at least 1, got {self.distributors}")
        if self.segment_length <= 0 or self.segment_length % 6 != 0:
            raise ValueError(f"segment length must be a positive multiple of 6, got {self.segment_length}")
        if self.sender_input not in (0, 1):
            raise ValueError(f"sender input must be 0 or 1, got {self.sender_input}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.decide_rule not in DECIDE_RULES:
            raise ValueError(f"decide rule must be one of {DECIDE_RULES}, got {self.decide_rule!r}")
        self.adversary.validate(self.participants, self.distributors)

    def to_record(self) -> dict:
        """The flat config record: every field, the adversary's inlined, index sets sorted."""
        return _flat_record(self)


def _flat_record(obj: NamedTuple) -> dict:
    rec = {}
    for name, value in zip(obj._fields, obj):
        if isinstance(value, AdversarySpec):
            rec.update(_flat_record(value))
        else:
            rec[name] = sorted(value) if isinstance(value, frozenset) else value
    return rec


class TrialReport(NamedTuple):
    """One trial's outcome: who was corrupt, what leaked, who decided what."""

    trial: int
    controlled: tuple[int, ...]
    disclosed: tuple[bool, ...]
    decisions: dict[int, Optional[Decision]]
    agreement: bool
    validity: Optional[bool]
    honest_success: Optional[bool]
    forge_attempts: int
    forge_successes: int
    full_knowledge: bool
    transcript: Optional[list[str]] = None

    def to_record(self) -> dict:
        rec = {
            "schema_version": SCHEMA_VERSION,
            "record": "trial",
            "trial": self.trial,
            "controlled": list(self.controlled),
            "disclosed": list(self.disclosed),
            "decisions": {str(p): render_decision(d) for p, d in sorted(self.decisions.items())},
            "agreement": self.agreement,
            "validity": self.validity,
            "honest_success": self.honest_success,
            "forge_attempts": self.forge_attempts,
            "forge_successes": self.forge_successes,
            "full_knowledge": self.full_knowledge,
        }
        if self.transcript is not None:
            rec["transcript"] = list(self.transcript)
        return rec


def eval_agreement(values: AbstractSet[Optional[int]]) -> bool:
    """All honest parties abort, or all decide the same value.

    ``values`` is the set of the honest parties' decision values, None
    standing for an abort, so each distinct decision counts once.
    """
    return len(values) <= 1


def eval_validity(values: AbstractSet[Optional[int]], all_honest: bool, sender_input: int) -> Optional[bool]:
    """With no corruption at all, everyone must output the sender's input."""
    if not all_honest:
        return None
    return values == {sender_input}


def eval_honest_success(values: AbstractSet[Optional[int]], sender_honest: bool, sender_input: int) -> Optional[bool]:
    """With an honest sender, every honest party must output its input."""
    if not sender_honest:
        return None
    return values == {sender_input}


def run_trial(cfg: SimConfig, trial: int, capture_transcript: bool = False) -> TrialReport:
    """Execute one protocol instance, deterministically in (master_seed, trial).

    List generation, bribery coins, and each adversary party draw from
    independent derived streams, so changing one stream's consumption never
    disturbs the others; the bribery stream is derived only when a
    distributor is bribed, since nothing else reads it.  ``cfg`` must have
    passed :meth:`SimConfig.validate`, as :func:`run_batch` ensures.

    Honest receivers are handled per class, the receivers that got the same
    round-1 object, from relaying to tallying.  A receiver's list is made
    only where something reads it: a relay of a claim failing against the
    sender's list, a forge check, a per-receiver decision, or a controlled
    party's knowledge.
    """
    spec = cfg.adversary
    receivers = cfg.receivers
    controlled = spec.controlled
    honest_receivers = [k for k in receivers if k not in controlled] if controlled else receivers

    distributors = cfg.distributor_indices
    ordered = [
        generate_segment(cfg.segment_length, cfg.participants - 1, derive_rng(cfg.master_seed, trial, "segment", dist))
        for dist in distributors
    ]
    segments = dict(zip(distributors, ordered))
    lists = combined_lists_from_segments(ordered)
    sender_list = lists[SENDER]

    bribe_rng = derive_rng(cfg.master_seed, trial, "bribes") if spec.bribed else None
    knowledge = resolve_bribes(spec, bribe_rng, segments, lists)

    # Round 1: the sender announces one claim per receiver.  The honest
    # receivers that got one object form a class; an honest sender's
    # receivers are all one class.
    transcript: Optional[list[str]] = [] if capture_transcript else None
    if SENDER in controlled:
        rng = derive_rng(cfg.master_seed, trial, "adversary", SENDER)
        round1, _ = adversary_act(spec, SENDER, cfg.sender_input, knowledge, receivers, rng)
        classes: dict[int, tuple[Optional[Message], list[int]]] = {}
        for j in honest_receivers:
            got = round1.get(j)
            classes.setdefault(id(got), (got, []))[1].append(j)
    else:
        claim = make_claim(cfg.sender_input, sender_list)
        round1 = dict.fromkeys(receivers, claim)
        classes = {id(claim): (claim, honest_receivers)}
    if transcript is not None:
        transcript.extend(f"1 1 {k} {render_message(round1.get(k))}" for k in receivers)

    # Round 2: every receiver relays to every receiver, itself included.  An
    # honest relayer sends one message to all, so honest relays are kept as
    # one [message, count] group per distinct object; a controlled relayer
    # keeps its per-target messages.  Every receiver's list copies the
    # sender's 0/1 entries, so each class is classed once, against the
    # sender's list, and counted by its size; only a claim failing there is
    # relayed per member, from the member's own list.  Only honest inboxes
    # are read after this round, so without a transcript a controlled
    # relayer addresses the receivers up to the last honest one: strategies
    # draw per receiver in ascending order, so the cut leaves every message
    # to an honest receiver as it was.
    forge_attempts = 0
    forge_successes = 0
    relayed: Optional[dict[int, Message]] = {} if transcript is not None else None
    groups: dict[int, list] = {}
    own_claims = False  # some relayed claim fails against the sender's list
    for got, members in classes.values():
        msg = class_relay(got, sender_list)
        if msg is not None:
            groups.setdefault(id(msg), [msg, 0])[1] += len(members)
            if relayed is not None:
                relayed.update(dict.fromkeys(members, msg))
            continue
        for j in members:
            msg = relay_step(got, lists[j])
            own_claims |= msg is not BOT
            groups.setdefault(id(msg), [msg, 0])[1] += 1
            if relayed is not None:
                relayed[j] = msg
    targeted: dict[int, dict[int, Optional[Message]]] = {}
    audience = receivers
    if controlled and transcript is None:
        audience = receivers[: receivers.index(honest_receivers[-1]) + 1]
    for j in sorted(controlled.difference((SENDER,))):
        rng = derive_rng(cfg.master_seed, trial, "adversary", j)
        targeted[j], forged = adversary_act(spec, j, round1.get(j), knowledge, audience, rng)
        for k in forged:
            if k not in controlled:
                forge_attempts += 1
                forge_successes += check_claim(targeted[j][k], lists[k])
    if transcript is not None:
        for j in receivers:
            if j in controlled:
                transcript.extend(f"2 {j} {k} {render_message(targeted[j].get(k))}" for k in receivers)
            else:
                text = render_message(relayed[j])
                transcript.extend(f"2 {j} {k} {text}" for k in receivers)

    # With no controlled relayer every honest receiver gets the same groups,
    # and if each claim in them is consistent with the sender's list it is
    # consistent with every receiver's list: one decision serves them all.
    # Otherwise each honest receiver decides from the groups with the
    # controlled relayers' messages to it merged in by identity, so it
    # checks every distinct object in its inbox once.  The trial's
    # predicates read only the distinct honest decision values.
    decisions: dict[int, Optional[Decision]] = dict.fromkeys(range(1, cfg.participants + 1))
    if not targeted and not own_claims:
        shared = decide(groups.values(), sender_list, rule=cfg.decide_rule)
        decisions.update(dict.fromkeys(honest_receivers, shared))
        values = {shared.value}
    else:
        values = set()
        shared_groups = list(groups.values())
        for k in honest_receivers:
            inbox: Iterable[list] = shared_groups
            if targeted:
                merged = {key: [msg, count] for key, (msg, count) in groups.items()}
                for sent in targeted.values():
                    msg = sent.get(k)
                    merged.setdefault(id(msg), [msg, 0])[1] += 1
                inbox = merged.values()
            decision = decisions[k] = decide(inbox, lists[k], rule=cfg.decide_rule)
            values.add(decision.value)
    if SENDER not in controlled:
        decisions[SENDER] = sender_decision(cfg.sender_input)
        values.add(cfg.sender_input)

    disclosed = tuple(dist in knowledge.disclosed for dist in distributors)
    return TrialReport(
        trial=trial,
        controlled=tuple(sorted(controlled)),
        disclosed=disclosed,
        decisions=decisions,
        agreement=eval_agreement(values),
        validity=eval_validity(values, not controlled, cfg.sender_input),
        honest_success=eval_honest_success(values, SENDER not in controlled, cfg.sender_input),
        forge_attempts=forge_attempts,
        forge_successes=forge_successes,
        full_knowledge=knowledge.full_disclosure and bool(knowledge.disclosed),
        transcript=transcript,
    )


def wilson_interval(successes: int, total: int) -> Optional[tuple[float, float]]:
    """Wilson 95% score interval for a binomial proportion; None when total is 0.

    Newcombe's (1998) closed form, with the operations in the order scipy's
    ``binomtest(...).proportion_ci(method="wilson")`` uses, so both give the
    same doubles.  The ends are pinned to 0 and 1 at ``successes`` 0 and
    ``total``.
    """
    if total == 0:
        return None
    z = WILSON_Z_95
    p = successes / total
    q = 1 - p
    denom = 2 * (total + z**2)
    center = (2 * total * p + z**2) / denom
    delta = z / denom * sqrt(4 * total * p * q + z**2)
    lo = 0.0 if successes == 0 else center - delta
    hi = 1.0 if successes == total else center + delta
    return (lo, hi)


class BatchReport(NamedTuple):
    """Aggregated counts over one batch, with the exact references alongside.

    ``forge_oracle`` is the exact per-attempt success rate when the
    configuration matches the oracle's model (plain forging, no bribery);
    ``expected_full_knowledge`` is the exact chance that every segment leaks.
    """

    config: SimConfig
    agreement_count: int
    all_abort_count: int
    common_value_count: int
    validity_applicable: int
    validity_count: int
    honest_success_applicable: int
    honest_success_count: int
    forge_attempts: int
    forge_successes: int
    full_knowledge_count: int
    forge_oracle: Optional[Fraction] = None

    @property
    def trials(self) -> int:
        return self.config.trials

    @property
    def agreement_rate(self) -> float:
        return self.agreement_count / self.trials

    @property
    def all_abort_rate(self) -> float:
        return self.all_abort_count / self.trials

    @property
    def validity_rate(self) -> Optional[float]:
        return self.validity_count / self.validity_applicable if self.validity_applicable else None

    @property
    def honest_success_rate(self) -> Optional[float]:
        return self.honest_success_count / self.honest_success_applicable if self.honest_success_applicable else None

    @property
    def forge_success_rate(self) -> Optional[float]:
        return self.forge_successes / self.forge_attempts if self.forge_attempts else None

    @property
    def full_knowledge_rate(self) -> float:
        return self.full_knowledge_count / self.trials

    @property
    def expected_full_knowledge(self) -> float:
        adv = self.config.adversary
        if len(adv.bribed) == self.config.distributors:
            return adv.disclosure_probability ** self.config.distributors
        return 0.0

    @property
    def forge_heuristic(self) -> Optional[float]:
        if self.forge_oracle is None:
            return None
        return forge_heuristic(self.config.segment_length, self.config.distributors)

    def to_record(self) -> dict:
        cfg = self.config
        rec = {
            "schema_version": SCHEMA_VERSION,
            "record": "batch",
            "config": cfg.to_record(),
            "agreement_count": self.agreement_count,
            "agreement_rate": self.agreement_rate,
            "agreement_ci": wilson_interval(self.agreement_count, self.trials),
            "all_abort_count": self.all_abort_count,
            "all_abort_rate": self.all_abort_rate,
            "common_value_count": self.common_value_count,
            "validity_applicable": self.validity_applicable,
            "validity_count": self.validity_count,
            "validity_rate": self.validity_rate,
            "validity_ci": wilson_interval(self.validity_count, self.validity_applicable),
            "honest_success_applicable": self.honest_success_applicable,
            "honest_success_count": self.honest_success_count,
            "honest_success_rate": self.honest_success_rate,
            "honest_success_ci": wilson_interval(self.honest_success_count, self.honest_success_applicable),
            "forge_attempts": self.forge_attempts,
            "forge_successes": self.forge_successes,
            "forge_success_rate": self.forge_success_rate,
            "forge_success_ci": wilson_interval(self.forge_successes, self.forge_attempts),
            "full_knowledge_count": self.full_knowledge_count,
            "full_knowledge_rate": self.full_knowledge_rate,
            "expected_full_knowledge": self.expected_full_knowledge,
            "forge_oracle": str(self.forge_oracle) if self.forge_oracle is not None else None,
            "forge_oracle_float": float(self.forge_oracle) if self.forge_oracle is not None else None,
            "forge_heuristic": self.forge_heuristic,
        }
        return rec

    def canonical_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True, separators=(",", ":"))


def run_batch(cfg: SimConfig, on_trial: Optional[Callable[[TrialReport], object]] = None) -> BatchReport:
    """Run every trial of a batch and aggregate; trials share nothing but the seed.

    ``on_trial``, when given, receives each trial's report, transcript
    included, as soon as the trial finishes; the batch keeps only counts.
    """
    cfg.validate()
    agreement = all_abort = common_value = 0
    validity_app = validity_ok = 0
    honest_app = honest_ok = 0
    attempts = successes = 0
    full_know = 0
    # under agreement every honest party holds the same decision, so one of them tells
    first_honest = min(p for p in range(1, cfg.participants + 1) if p not in cfg.adversary.controlled)
    for t in range(cfg.trials):
        rep = run_trial(cfg, t, capture_transcript=on_trial is not None)
        agreement += rep.agreement
        if rep.agreement:
            if rep.decisions[first_honest].aborted:
                all_abort += 1
            else:
                common_value += 1
        if rep.validity is not None:
            validity_app += 1
            validity_ok += rep.validity
        if rep.honest_success is not None:
            honest_app += 1
            honest_ok += rep.honest_success
        attempts += rep.forge_attempts
        successes += rep.forge_successes
        full_know += rep.full_knowledge
        if on_trial is not None:
            on_trial(rep)

    oracle: Optional[Fraction] = None
    adv = cfg.adversary
    forging_receivers = [k for k in adv.controlled if k in cfg.receivers]
    if adv.receiver_strategy in FORGING_RECEIVER_STRATEGIES and forging_receivers and not adv.bribed:
        oracle = forge_success_closed_form(cfg.segment_length, cfg.distributors)

    return BatchReport(
        config=cfg,
        agreement_count=agreement,
        all_abort_count=all_abort,
        common_value_count=common_value,
        validity_applicable=validity_app,
        validity_count=validity_ok,
        honest_success_applicable=honest_app,
        honest_success_count=honest_ok,
        forge_attempts=attempts,
        forge_successes=successes,
        full_knowledge_count=full_know,
        forge_oracle=oracle,
    )
