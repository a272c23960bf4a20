"""Seeded Monte Carlo execution of full protocol instances.

One trial is: distributors issue segments, bribery coins resolve, the sender
announces, receivers relay, receivers decide.  Rounds are synchronous and
every message of round r is delivered before round r+1 starts.  All
randomness flows from a master seed through labeled sha256-derived streams,
so any trial can be replayed bit-for-bit in isolation and batches are
reproducible regardless of execution order.
"""

from __future__ import annotations

import json
import os
import random
import sys
from math import sqrt
from typing import IO, TYPE_CHECKING, NamedTuple, NoReturn, Optional, Sequence

from .adversary import (
    FORGING_RECEIVER_STRATEGIES,
    RECEIVER_STRATEGIES,
    SENDER_STRATEGIES,
    adversary_act,
    forge_heuristic,
    forge_success_closed_form,
    resolve_bribes,
)
from .listgen import SENDER, combined_lists_from_segments, generate_segment
from .protocol import (
    BOT,
    DECIDE_RULES,
    Claim,
    Decision,
    Message,
    check_claim,
    class_relay,
    decide,
    make_claim,
    relay_step,
    render_decision,
    render_message,
)

try:  # the interpreter's own sha256, as random.py takes sha512: hashlib loads OpenSSL
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:
    from fractions import Fraction

SCHEMA_VERSION = 1

#: two-sided 95% normal quantile, the double ``scipy.special.ndtri(0.975)``
#: returns; ``statistics.NormalDist().inv_cdf(0.975)`` is one ulp lower and
#: would move the last bits of every interval in the machine output
WILSON_Z_95 = 1.959963984540054


#: the one JSON spelling of every record dbasim writes: sorted keys, no spaces
encode_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def derive_rng(master_seed: int, *labels: object) -> random.Random:
    """An independent stream keyed by (master seed, labels).

    sha256 over the joined labels gives well-mixed 64-bit seeds, so streams
    with different labels are effectively independent and adding a stream
    never shifts any other stream's draws.
    """
    material = "|".join([str(master_seed), *map(str, labels)]).encode()
    seed = int.from_bytes(sha256(material).digest()[:8], "big")
    return random.Random(seed)


#: the most characters of a bad value that an error message echoes
ECHO_CHARS = 40


def clip(text: str) -> str:
    """``text``, or its first :data:`ECHO_CHARS` characters and its full length when longer."""
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def _huge(value: object) -> bool:
    return is_int(value) and abs(value) >= 10**ECHO_CHARS


def echo(value: object) -> str:
    """How an error message shows a bad value: ``repr(value)`` through :func:`clip`, but an int
    of more than :data:`ECHO_CHARS` digits by its size, bare or in a list or frozenset of
    indices, as Python prints no int past 4300 digits."""
    if _huge(value):
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    if isinstance(value, (list, frozenset)) and any(map(_huge, value)):
        items = ", ".join(map(echo, value))
        return clip(f"[{items}]" if isinstance(value, list) else f"frozenset({{{items}}})")
    return clip(repr(value))


def is_int(value: object) -> bool:
    """An int and not a bool: the type test of every integer field, here and in scenario files."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: each type test, how an error names it, and the fields it covers;
#: ``decide_rule`` is checked by name alone
_FIELD_TYPES = (
    (is_int, "an integer", ("participants", "distributors", "segment_length", "sender_input", "trials", "master_seed")),
    (lambda v: isinstance(v, frozenset) and all(map(is_int, v)), "a frozenset of integers", ("controlled", "bribed")),
    (is_real, "a number", ("disclosure_probability",)),
    (lambda v: isinstance(v, str), "a string", ("sender_strategy", "receiver_strategy")),
)


class SimConfig(NamedTuple):
    """Everything one batch needs: sizes, input, adversary, seed, rule; its fields are its record's keys.

    ``controlled`` holds participant indices (the sender is 1), ``bribed``
    distributor indices, each leaking with ``disclosure_probability``.
    """

    participants: int = 4
    distributors: int = 2
    segment_length: int = 12
    sender_input: int = 1
    controlled: frozenset[int] = frozenset()
    bribed: frozenset[int] = frozenset()
    disclosure_probability: float = 0.5
    sender_strategy: str = "honest-mimic"
    receiver_strategy: str = "honest-mimic"
    trials: int = 1000
    master_seed: int = 42
    decide_rule: str = "literal"

    def validate(self) -> None:
        for test, expected, fields in _FIELD_TYPES:
            for field in fields:
                value = getattr(self, field)
                if not test(value):
                    raise ValueError(f"{field} must be {expected}, got {echo(value)}")
        if self.participants < 3:
            raise ValueError(f"participants must be at least 3 (one sender, two receivers), got {echo(self.participants)}")
        if self.distributors < 1:
            raise ValueError(f"distributors must be at least 1, got {echo(self.distributors)}")
        if self.segment_length <= 0 or self.segment_length % 6 != 0:
            raise ValueError(f"segment length must be a positive multiple of 6, got {echo(self.segment_length)}")
        if self.sender_input not in (0, 1):
            raise ValueError(f"sender input must be 0 or 1, got {echo(self.sender_input)}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {echo(self.trials)}")
        if self.decide_rule not in DECIDE_RULES:
            raise ValueError(f"decide rule must be one of {DECIDE_RULES}, got {echo(self.decide_rule)}")
        p = self.disclosure_probability
        if not 0.0 < p < 1.0:
            raise ValueError(f"disclosure probability must satisfy 0 < p < 1, got {echo(p)}")
        n = self.participants
        bad = sorted(i for i in self.controlled if not 1 <= i <= n)
        if bad:
            raise ValueError(f"controlled indices {echo(bad)} fall outside participants 1..{echo(n)}")
        lo, hi = n + 1, n + self.distributors
        bad = sorted(i for i in self.bribed if not lo <= i <= hi)
        if bad:
            raise ValueError(f"bribed indices {echo(bad)} fall outside distributors {echo(lo)}..{echo(hi)}")
        honest = n - len(self.controlled)
        if honest < 3:
            raise ValueError(f"need at least 3 honest participants, have {honest} of {n}")
        for role, name, known in (
            ("sender", self.sender_strategy, SENDER_STRATEGIES),
            ("receiver", self.receiver_strategy, RECEIVER_STRATEGIES),
        ):
            if name not in known:
                raise ValueError(f"unknown {role} strategy {echo(name)}; known: {sorted(known)}")

    def to_record(self) -> dict:
        """The ``config`` record: every field, index sets sorted."""
        return {**self._asdict(), "controlled": sorted(self.controlled), "bribed": sorted(self.bribed)}


class TrialReport(NamedTuple):
    """One trial of ``plan``; ``classes`` holds one ``(members, decision)`` pair per decided class of
    honest receivers, and :attr:`decisions` lays them out per party."""

    trial: int
    plan: TrialPlan
    disclosed: tuple[bool, ...]
    classes: Sequence[tuple[Sequence[int], Decision]]
    agreement: bool
    validity: Optional[bool]
    honest_success: Optional[bool]
    forge_attempts: int
    forge_successes: int
    full_knowledge: bool
    transcript: Optional[list[str]] = None

    @property
    def decisions(self) -> dict[int, Optional[Decision]]:
        """Every party's decision: None for a controlled party, each class's for its members."""
        cfg = self.plan.config
        decisions: dict[int, Optional[Decision]] = dict.fromkeys(range(1, cfg.participants + 1))
        if SENDER not in cfg.controlled:
            decisions[SENDER] = Decision(cfg.sender_input)  # the honest sender outputs its own input
        return {**decisions, **{k: decision for members, decision in self.classes for k in members}}

    def to_record(self) -> dict:
        rec = {
            **self._asdict(),
            "schema_version": SCHEMA_VERSION,
            "record": "trial",
            "controlled": sorted(self.plan.config.controlled),
            "disclosed": list(self.disclosed),
            "decisions": {str(p): render_decision(d) for p, d in sorted(self.decisions.items())},
        }
        del rec["plan"], rec["classes"]  # written as "controlled" and "decisions"
        if self.transcript is None:
            del rec["transcript"]
        return rec


class TrialPlan(NamedTuple):
    """What every trial of a batch takes from its ``config`` alone; :func:`trial_plan` builds it.

    ``relayers`` are the controlled receivers, ascending, and ``audience``
    whom they address without a transcript.
    """

    config: SimConfig
    distributors: tuple[int, ...]
    receivers: tuple[int, ...]
    honest_receivers: tuple[int, ...]
    relayers: tuple[int, ...]
    audience: tuple[int, ...]


def trial_plan(cfg: SimConfig) -> TrialPlan:
    """The plan of every trial of ``cfg``, after :meth:`SimConfig.validate` has accepted it.

    Only honest inboxes are read after round 2, and strategies draw per
    receiver in ascending order, so the audience ends at the last honest
    receiver without changing any message to an honest receiver.
    """
    cfg.validate()
    controlled, receivers = cfg.controlled, tuple(range(2, cfg.participants + 1))
    honest = tuple(k for k in receivers if k not in controlled)
    return TrialPlan(
        config=cfg,
        distributors=tuple(range(cfg.participants + 1, cfg.participants + 1 + cfg.distributors)),
        receivers=receivers,
        honest_receivers=honest,
        relayers=tuple(sorted(controlled.difference((SENDER,)))),
        audience=receivers[: receivers.index(honest[-1]) + 1],
    )


def run_trial(plan: TrialPlan, trial: int, capture_transcript: bool = False) -> TrialReport:
    """Execute one protocol instance of ``plan``, deterministically in (master_seed, trial).

    List generation, bribery coins, and each adversary party draw from
    independent derived streams, so changing one stream's consumption never
    disturbs the others; the bribery stream is derived only when a
    distributor is bribed, since nothing else reads it.  The adversary's
    Knowledge is built only when some party is controlled or some
    distributor bribed; honest receivers relay and decide per class.
    """
    cfg = plan.config
    controlled = cfg.controlled
    receivers, honest_receivers = plan.receivers, plan.honest_receivers

    ordered = [
        generate_segment(cfg.segment_length, cfg.participants - 1, derive_rng(cfg.master_seed, trial, "segment", dist))
        for dist in plan.distributors
    ]
    lists = combined_lists_from_segments(ordered)
    sender_list = lists[SENDER]
    knowledge = None
    if controlled or cfg.bribed:
        bribe_rng = derive_rng(cfg.master_seed, trial, "bribes") if cfg.bribed else None
        knowledge = resolve_bribes(cfg, bribe_rng, dict(zip(plan.distributors, ordered)), lists)

    # Round 1: the sender announces one claim per receiver.  The honest
    # receivers that got one message value form a class; an honest sender's
    # receivers are all one class, and every receiver gets ``default``.
    if SENDER in controlled:
        rng = derive_rng(cfg.master_seed, trial, "adversary", SENDER)
        round1, _ = adversary_act(cfg, SENDER, cfg.sender_input, knowledge, receivers, rng)
        default = None
        round1_classes: dict[Optional[Message], list[int]] = {}
        for j in honest_receivers:
            round1_classes.setdefault(round1.get(j), []).append(j)
    else:
        round1 = {}
        default = make_claim(cfg.sender_input, sender_list)
        round1_classes = {default: honest_receivers}

    # Round 2: every receiver relays to every receiver, itself included.
    # Honest relays are kept as (members, message) pairs, then as one
    # message -> count group per distinct message; a controlled relayer's as
    # per-target messages.  Each class is relayed once, on the sender's list
    # (the sender-list invariant, see dbasim.listgen); only a claim failing
    # there is relayed per member.
    forge_attempts = 0
    forge_successes = 0
    relays: list[tuple[Sequence[int], Message]] = []
    own_claims = False  # some relayed claim fails against the sender's list
    for got, members in round1_classes.items():
        msg = class_relay(got, sender_list)
        if msg is not None:
            relays.append((members, msg))
            continue
        for j in members:
            msg = relay_step(got, lists[j])
            own_claims |= msg is not BOT
            relays.append(((j,), msg))
    groups: dict[Message, int] = {}
    for members, msg in relays:
        groups[msg] = groups.get(msg, 0) + len(members)
    targeted: dict[int, dict[int, Optional[Message]]] = {}
    audience = receivers if capture_transcript else plan.audience
    for j in plan.relayers:
        rng = derive_rng(cfg.master_seed, trial, "adversary", j)
        targeted[j], forged = adversary_act(cfg, j, round1.get(j, default), knowledge, audience, rng)
        for k in forged:
            if k not in controlled:
                forge_attempts += 1
                forge_successes += check_claim(targeted[j][k], lists[k])
    transcript: Optional[list[str]] = None
    if capture_transcript:  # every receiver was addressed; each distinct message is rendered once
        round2 = (msg for sent in targeted.values() for msg in sent.values())
        text = {msg: render_message(msg) for msg in {*(round1.values() if round1 else (default,)), *groups, *round2}}
        relayed = {j: text[msg] for members, msg in relays for j in members}
        transcript = [f"1 1 {k} {text[round1.get(k, default)]}" for k in receivers]
        for j in receivers:
            if j in controlled:
                transcript.extend(f"2 {j} {k} {text[targeted[j][k]]}" for k in receivers)
            else:
                transcript.extend(f"2 {j} {k} {relayed[j]}" for k in receivers)

    # Honest receivers that got equal controlled messages, in relayer order,
    # share one inbox: the honest groups with those messages merged in.
    # Messages group by value; one shared object only makes a lookup
    # cheaper.  With no controlled relayer every honest receiver is in the
    # one class ().  An inbox is decided once, on the sender's list, unless
    # it holds a claim no honest receiver relayed or some honest relay came
    # from an own list; then each member decides it on its own list.
    inboxes: dict[tuple, list[int]] = {(): list(honest_receivers)}
    for sent in targeted.values():
        refined: dict[tuple, list[int]] = {}
        for key, members in inboxes.items():
            if len(members) == 1:  # a class of one cannot split
                refined[key] = members
                continue
            for k in members:
                refined.setdefault((*key, sent.get(k)), []).append(k)
        inboxes = refined
    classes: list[tuple[Sequence[int], Decision]] = []
    for members in inboxes.values():
        inbox = dict(groups)
        own = own_claims
        for sent in targeted.values():
            msg = sent.get(members[0])
            own = own or msg not in inbox and isinstance(msg, Claim)  # a claim no honest receiver relayed
            inbox[msg] = inbox.get(msg, 0) + 1
        if own:
            classes += [((k,), decide(inbox.items(), lists[k], rule=cfg.decide_rule)) for k in members]
        else:
            classes.append((members, decide(inbox.items(), sender_list, rule=cfg.decide_rule)))
    # The paper's properties over the distinct honest values, None for an
    # abort: agreement, at most one value; validity (nothing controlled) and
    # honest success (an honest sender), the sender's input as the only
    # value, each None where it does not apply.
    values = {decision.value for _, decision in classes}
    if SENDER not in controlled:
        values.add(cfg.sender_input)
    valid = values == {cfg.sender_input}
    disclosed = tuple(d in knowledge.disclosed for d in plan.distributors) if cfg.bribed else (False,) * cfg.distributors

    return TrialReport(
        trial=trial,
        plan=plan,
        disclosed=disclosed,
        classes=classes,
        agreement=len(values) <= 1,
        validity=None if controlled else valid,
        honest_success=None if SENDER in controlled else valid,
        forge_attempts=forge_attempts,
        forge_successes=forge_successes,
        full_knowledge=all(disclosed),
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

    The ten counts from ``agreement_count`` to ``full_knowledge_count`` are
    each a sum over the batch's trials, in the order :func:`_tally` returns
    them.  ``forge_oracle`` is the exact per-attempt success rate when the
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
    expected_full_knowledge: float = 0.0

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
    def forge_heuristic(self) -> Optional[float]:
        if self.forge_oracle is None:
            return None
        return forge_heuristic(self.config.segment_length, self.config.distributors)

    def to_record(self) -> dict:
        return {
            **self._asdict(),
            "schema_version": SCHEMA_VERSION,
            "record": "batch",
            "config": self.config.to_record(),
            "agreement_rate": self.agreement_rate,
            "agreement_ci": wilson_interval(self.agreement_count, self.trials),
            "all_abort_rate": self.all_abort_rate,
            "validity_rate": self.validity_rate,
            "validity_ci": wilson_interval(self.validity_count, self.validity_applicable),
            "honest_success_rate": self.honest_success_rate,
            "honest_success_ci": wilson_interval(self.honest_success_count, self.honest_success_applicable),
            "forge_success_rate": self.forge_success_rate,
            "forge_success_ci": wilson_interval(self.forge_successes, self.forge_attempts),
            "full_knowledge_rate": self.full_knowledge_rate,
            "forge_oracle": str(self.forge_oracle) if self.forge_oracle is not None else None,
            "forge_oracle_float": float(self.forge_oracle) if self.forge_oracle is not None else None,
            "forge_heuristic": self.forge_heuristic,
        }

    def canonical_json(self) -> str:
        return encode_canonical(self.to_record())


def _tally(plan: TrialPlan, trials: range, out: Optional[IO[bytes]] = None, batch: int = 0) -> list[int]:
    """:class:`BatchReport`'s ten counts, in its field order, over ``trials`` of ``plan``; with
    ``out``, each trial's ``--dump-trials`` record, of batch ``batch``, is written to it as one line
    as soon as the trial finishes.

    Each is a sum over the trials, so the counts of consecutive slices add
    up to those of their union.  A trial counts toward validity or honest
    success where :func:`run_trial` gave it a value, not None.
    """
    agree = all_abort = valid_n = valid_ok = honest_n = honest_ok = attempts = successes = full_know = 0
    for t in trials:
        rep = run_trial(plan, t, capture_transcript=out is not None)
        agree += rep.agreement
        if rep.agreement and rep.classes[0][1].aborted:  # every honest party holds the one distinct value
            all_abort += 1
        valid_n += rep.validity is not None
        valid_ok += rep.validity is True
        honest_n += rep.honest_success is not None
        honest_ok += rep.honest_success is True
        attempts += rep.forge_attempts
        successes += rep.forge_successes
        full_know += rep.full_knowledge
        if out is not None:
            out.write(encode_canonical({"batch": batch, **rep.to_record()}).encode() + b"\n")
    return [agree, all_abort, agree - all_abort, valid_n, valid_ok, honest_n, honest_ok, attempts, successes, full_know]


def _batch_report(plan: TrialPlan, counts: Sequence[int]) -> BatchReport:
    """The report of every trial of ``plan`` from their summed :func:`_tally` counts; every exact
    reference a batch prints is decided here, from the config alone."""
    cfg = plan.config
    forging = cfg.receiver_strategy in FORGING_RECEIVER_STRATEGIES and plan.relayers and not cfg.bribed
    every_leak = len(cfg.bribed) == cfg.distributors
    return BatchReport(
        cfg,
        *counts,
        forge_oracle=forge_success_closed_form(cfg.segment_length, cfg.distributors) if forging else None,
        expected_full_knowledge=cfg.disclosure_probability ** cfg.distributors if every_leak else 0.0,
    )


def run_batch(cfg: SimConfig) -> BatchReport:
    """Run every trial of a batch and aggregate, split across CPUs by :func:`run_batches` from
    :data:`SPLIT_MIN_TRIALS` trials on; trials share nothing but the seed."""
    return run_batches([cfg])[0]


#: the trials at which splitting a :func:`run_batches` call across two
#: processes starts to pay; a split gives each process at least half of
#: them.  Forking, pinning and reaping a worker takes about 1-1.5 ms, so on
#: the cheapest trial shape, n=4 all honest with d=2 and m=12, two processes
#: broke even at about 200 trials: 3.3-3.4 ms serial against 3.8-4.8 ms split
#: at 100 trials, 6.7-7.0 ms against 6.3-7.3 ms at 200 and 9.7-10.1 ms
#: against 7.4-9.4 ms at 300 (CPython 3.11, 2 vCPUs, medians of 40 runs in a
#: process that imported ``dbasim.cli``).  Every other shape's trial costs more.
SPLIT_MIN_TRIALS = 200


def _split_cpus(trials: int) -> list[int]:
    """The CPUs that :func:`run_batches` splits ``trials`` trials across, one process each: the
    usable ones, the one this process runs on first, then lowest first, but no more than one per
    half :data:`SPLIT_MIN_TRIALS` trials.

    Each worker pins itself to one of the others.  A forked child starts on
    its parent's CPU, where a 2-vCPU VM's scheduler left both for a whole
    sweep, so no worker may pin itself there.  Fewer than two is the serial
    path: below :data:`SPLIT_MIN_TRIALS`, with one usable CPU, without CPU
    affinity (and so without ``os.fork``), and while another thread runs,
    since a forked child gets no copy of it and may find a lock it held
    still taken.
    """
    if trials < SPLIT_MIN_TRIALS or not hasattr(os, "sched_setaffinity"):
        return []
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return []
    try:  # this process's CPU is field 39 of /proc/self/stat, after the parenthesized command name
        with open("/proc/self/stat", "rb") as fh:
            here = int(fh.read().rsplit(b")", 1)[1].split()[36])
    except OSError:  # no /proc: lowest first
        here = None
    return sorted(os.sched_getaffinity(0), key=lambda cpu: (cpu != here, cpu))[: trials * 2 // SPLIT_MIN_TRIALS]


def _slice(trials: int, i: int, parts: int) -> range:
    """The ``i``-th of ``parts`` contiguous slices of ``range(trials)``, as even as they can be."""
    return range(trials * i // parts, trials * (i + 1) // parts)


def _work(plans: Sequence[TrialPlan], i: int, parts: int, cpu: int, pipe: int, out: Optional[IO[bytes]]) -> NoReturn:
    """A forked worker of :func:`run_batches`: pinned to ``cpu``, it tallies slice ``i`` of each plan
    in turn, writing its trial records to ``out`` when given, and reports each batch as soon as it is
    tallied, as one line on ``pipe`` of decimal integers: the ten counts, then the start and end
    offsets of that batch's records in ``out``, flushed before the line is sent.  It then exits; a
    line that never comes is the one sign that something failed."""
    try:
        os.sched_setaffinity(0, {cpu})
        lines = open(pipe, "w", encoding="ascii", buffering=1)  # each line is sent whole, at its end
        end = 0
        for b, plan in enumerate(plans):
            start = end
            counts = _tally(plan, _slice(plan.config.trials, i, parts), out, b)
            if out is not None:
                out.flush()
                end = out.tell()
            lines.write(" ".join(map(str, [*counts, start, end])) + "\n")
    finally:  # never return into the caller's stack, nor flush buffers it shares with the parent
        os._exit(0)


def run_batches(configs: Sequence[SimConfig], dump: Optional[IO[bytes]] = None) -> list[BatchReport]:
    """Run every trial of each config and aggregate each into its report, on every usable CPU once
    the configs hold :data:`SPLIT_MIN_TRIALS` trials in all; with ``dump``, a writable binary file,
    each trial's record is written to it as one line, batch by batch and in trial order.

    Every trial draws only from its own (seed, trial) streams and a report
    is built from sums, so any split of the trials gives the same reports.
    One forked worker per further CPU of :func:`_split_cpus` tallies one
    contiguous slice of every batch's trials, pinned to its own CPU, and
    reports each batch through a pipe as it finishes it (see :func:`_work`).
    With a dump, a worker writes its records to its own unlinked file,
    beside the dump when the dump has a path.  This process takes the
    batches in order, and each batch's slices in order.  A slice whose
    worker's line came is summed, and its records are copied into the dump.
    Any other slice runs here, straight into the dump: the first slice
    always, and a slice whose file or fork was refused or whose worker
    failed or died.  So every record is written once, and a trial that
    raises, raises here as it would in a serial run, after the records a
    serial run writes before it.  No worker outlives the call.
    """
    plans = [trial_plan(cfg) for cfg in configs]  # every config is checked before any trial runs
    cpus = _split_cpus(sum(cfg.trials for cfg in configs))
    parts = max(len(cpus), 1)
    pids: list[int] = []
    pipes: dict[int, IO[str]] = {}  # slice -> the pipe its worker reports on
    files: dict[int, IO[bytes]] = {}  # slice -> the file of its worker's records, with a dump
    if dump is not None and parts > 1:
        from tempfile import TemporaryFile

        name = getattr(dump, "name", None)  # a path, a descriptor's number, or none
        beside = (os.path.dirname(name) or ".") if isinstance(name, str) else None  # not a /tmp in memory
    try:
        for i, cpu in enumerate(cpus[1:], 1):
            read, write = os.pipe()
            try:
                if dump is not None:
                    files[i] = TemporaryFile(dir=beside)
                pid = os.fork()
            except OSError:  # no file, process slot or memory left: this slice runs here
                os.close(read)
                os.close(write)
                continue
            if pid == 0:
                _work(plans, i, parts, cpu, write, files.get(i))
            os.close(write)
            pids.append(pid)
            pipes[i] = open(read, encoding="ascii")
        reports = []
        for b, plan in enumerate(plans):
            counts = []
            for i in range(parts):
                line = pipes[i].readline() if i in pipes else ""  # after a worker stops, "" for good
                if line.endswith("\n"):
                    *tally, start, end = map(int, line.split())
                    for at in range(start, end, 1 << 20):  # its records, at most 1 MB at a time
                        dump.write(os.pread(files[i].fileno(), min(end - at, 1 << 20), at))
                else:
                    tally = _tally(plan, _slice(plan.config.trials, i, parts), dump, b)
                counts.append(tally)
            reports.append(_batch_report(plan, [sum(column) for column in zip(*counts)]))
        return reports
    finally:
        if pids:  # ``signal``'s built-in half, loaded at start-up; ``signal`` takes ~0.6 ms to build its enums
            from _signal import SIGKILL

            for pid in pids:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        for fh in [*pipes.values(), *files.values()]:
            fh.close()
