"""The benchmark's workloads and the checks every batch they produce must pass.

A workload is a fixed list of groups.  A group is a set of batch configs
built through dbasim's public scenario API, plus the ``dbasim`` command-line
arguments that run exactly those batches and print their canonical JSON.
The workload seed picks the master seed and the sender's input bit; the
sizes are fixed, so the same seed always gives the same batches.

Why these four (see README.md for the predictions they carry):

* ``builtin-mix``: every sweep point of the five built-in scenarios at n=4;
  list generation and stream derivation dominate, claim checking does not.
* ``honest-wide``: all honest, n=32; the relay round's n^2 inbox makes
  ``decide`` -> ``check_claim`` most of the time; the adversary is idle.
* ``forge-heavy``: n=8 with four forging receivers and both distributors
  bribed; the adversary's list lookups and forging dominate.
* ``cli-startup``: fresh ``dbasim`` processes with small trial counts, plus
  one ``--dump-trials`` run; interpreter and import start-up dominate.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

NAMES = ("builtin-mix", "honest-wide", "forge-heavy", "cli-startup")
#: the workloads whose batches the benchmark process runs and times itself
IN_PROCESS = NAMES[:3]

#: the built-in scenarios as of the benchmark's definition, pinned so that a
#: scenario added later does not change the workload
BUILTIN_SCENARIOS = ("all-honest", "equivocating-sender", "forging-receiver", "bribery", "forge-curve")

#: trials per batch, normal and tiny (the self-test's smoke size)
TRIALS = {"builtin-mix": (250, 4), "honest-wide": (20, 2), "forge-heavy": (100, 4), "cli-startup": (40, 4)}
#: trials of the ``--dump-trials`` invocation in ``cli-startup``
DUMP_TRIALS = (2000, 8)

FORGING = frozenset({"forge", "omniscient-forge"})
#: two-sided miss probability of every binomial interval check
ALPHA = 1e-9


@dataclass(frozen=True)
class Group:
    """Batches that one ``dbasim`` invocation (``argv``) also runs and prints."""

    configs: tuple
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    master_seed: int
    sender_input: int
    groups: tuple[Group, ...]
    #: the group a CLI invocation runs to measure ``cli_wall_s`` (in-process workloads)
    cli_group: int
    #: the batch of the ``--dump-trials`` invocation, whose argv lacks that flag (``cli-startup``)
    dump: Optional[Group] = None

    @property
    def invocations(self) -> tuple[Group, ...]:
        """Every group, the dump batch last."""
        return (*self.groups, *([self.dump] if self.dump else []))

    @property
    def configs(self) -> list:
        return [cfg for g in self.groups for cfg in g.configs]

    @property
    def trials(self) -> int:
        return sum(cfg.trials for cfg in self.configs)


def _doc_argv(doc: dict) -> tuple[str, ...]:
    """``dbasim`` flags equivalent to a flat scenario document."""
    out: list[str] = []
    for key, value in doc.items():
        if isinstance(value, list):
            value = ",".join(map(str, value))
        out += [f"--{key.replace('_', '-')}", str(value)]
    return (*out, "--output", "machine")


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Import what the workload uses and build and validate its batch configs."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; known: {list(NAMES)}")
    from dbasim.cli import build_config, load_builtin_scenario, parse_config

    rng = random.Random(f"{name}:{seed}")
    master_seed, sender_input = rng.getrandbits(31), rng.randrange(2)
    trials = TRIALS[name][tiny]
    common = {"trials": trials, "seed": master_seed, "sender_input": sender_input}

    def group(scenario, argv: tuple[str, ...]) -> Group:
        configs = tuple(build_config(point) for point in scenario.points())
        for cfg in configs:
            cfg.validate()
        return Group(configs, argv)

    if name in ("builtin-mix", "cli-startup"):
        groups = tuple(
            group(load_builtin_scenario(s, common), ("--scenario", s, *_doc_argv(common)))
            for s in BUILTIN_SCENARIOS
        )
        dump = None
        if name == "cli-startup":
            big = {**common, "trials": DUMP_TRIALS[tiny]}
            dump = group(load_builtin_scenario("all-honest", big), ("--scenario", "all-honest", *_doc_argv(big)))
        return Workload(master_seed, sender_input, groups, BUILTIN_SCENARIOS.index("forge-curve"), dump)

    if name == "honest-wide":
        doc = {"receivers": 31, "distributors": 2, "segment_length": 60, **common}
    else:
        doc = {
            "receivers": 7,
            "distributors": 2,
            "segment_length": 60,
            "controlled": [5, 6, 7, 8],
            "receiver_strategy": "forge",
            "bribed": "all",
            "p": 0.5,
            **common,
        }
    return Workload(master_seed, sender_input, (group(parse_config(doc), _doc_argv(doc)),), 0)


def first_run(w: Workload) -> dict:
    """The inputs, and every invocation's arguments and canonical JSON lines, run in this process."""
    import dbasim.harness

    return {
        "master_seed": w.master_seed,
        "sender_input": w.sender_input,
        "invocations": [
            {
                "argv": list(g.argv),
                "dump": g is w.dump,
                "lines": [dbasim.harness.run_batch(cfg).canonical_json() for cfg in g.configs],
            }
            for g in w.invocations
        ],
    }


# --- output checks -----------------------------------------------------------


def forge_closed_form(m: int, d: int) -> Fraction:
    """Exact per-attempt success of the ``forge`` strategy, honest sender, no leaks.

    The forger draws d*m/3 positions uniformly from d*m/3 agreement positions
    plus m/6 own-bit discord positions per segment; j discord picks in a
    segment all match the target's balanced hidden bits with probability
    C(m/3 - j, m/6 - j) / C(m/3, m/6).
    """
    third, sixth = m // 3, m // 6
    need, agreement = d * third, d * third
    acc = Fraction(0)
    for js in product(range(sixth + 1), repeat=d):
        rest = need - sum(js)
        if not 0 <= rest <= agreement:
            continue
        term = Fraction(math.comb(agreement, rest))
        for j in js:
            term *= math.comb(sixth, j) * Fraction(math.comb(third - j, sixth - j), math.comb(third, sixth))
        acc += term
    return acc / math.comb(agreement + d * sixth, need)


def binomial_interval(n: int, p: float, alpha: float = ALPHA) -> tuple[int, int]:
    """Smallest [lo, hi] with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2, X ~ Bin(n, p)."""
    if p <= 0.0:
        return 0, 0
    if p >= 1.0:
        return n, n
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [
        math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q)
        for k in range(n + 1)
    ]
    lo, tail = 0, 0.0
    while tail + pmf[lo] <= alpha / 2:
        tail += pmf[lo]
        lo += 1
    hi, tail = n, 0.0
    while tail + pmf[hi] <= alpha / 2:
        tail += pmf[hi]
        hi -= 1
    return lo, hi


def check_batch(rec: dict) -> list[str]:
    """Properties one canonical batch record must have for any seed."""
    cfg = rec["config"]
    trials = cfg["trials"]
    controlled = set(cfg["controlled"])
    participants = cfg["participants"]
    receivers = set(range(2, participants + 1))
    honest_receivers = receivers - controlled
    forging_receivers = receivers & controlled if cfg["receiver_strategy"] in FORGING else set()
    out: list[str] = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            out.append(message)

    if not forging_receivers:
        expect(rec["agreement_count"] == trials, f"agreement {rec['agreement_count']}/{trials} without forging")
    if not controlled:
        for key in ("validity", "honest_success"):
            expect(
                rec[f"{key}_count"] == rec[f"{key}_applicable"] == trials,
                f"{key} {rec[f'{key}_count']}/{rec[f'{key}_applicable']} with everyone honest",
            )
    if controlled == {1} and cfg["sender_strategy"] == "equivocate":
        expect(rec["all_abort_count"] == trials, f"all-abort {rec['all_abort_count']}/{trials} under equivocation")

    attempts, successes = rec["forge_attempts"], rec["forge_successes"]
    expect(0 <= successes <= attempts, f"forge successes {successes} exceed attempts {attempts}")
    if cfg["receiver_strategy"] == "forge":
        per_trial = len(forging_receivers) * len(honest_receivers)
        expect(attempts == trials * per_trial, f"forge attempts {attempts}, expected {trials} x {per_trial}")
        if 1 not in controlled and not cfg["bribed"] and attempts:
            # Where the closed form's model holds; an attached forge_oracle
            # alone does not mean it holds.
            exact = forge_closed_form(cfg["segment_length"], cfg["distributors"])
            expect(rec["forge_oracle"] in (None, str(exact)), f"forge_oracle {rec['forge_oracle']} != {exact}")
            lo, hi = binomial_interval(attempts, float(exact))
            expect(lo <= successes <= hi, f"forge successes {successes}/{attempts} outside [{lo}, {hi}] at rate {exact}")

    d = cfg["distributors"]
    everyone = set(range(participants + 1, participants + 1 + d))
    p_full = cfg["disclosure_probability"] ** d if set(cfg["bribed"]) == everyone else 0.0
    expect(rec["expected_full_knowledge"] == p_full, f"expected_full_knowledge {rec['expected_full_knowledge']} != {p_full}")
    lo, hi = binomial_interval(trials, p_full)
    count = rec["full_knowledge_count"]
    expect(lo <= count <= hi, f"full knowledge {count}/{trials} outside [{lo}, {hi}] at rate {p_full}")
    return out


def check_dump(lines: list[str], batch: dict) -> list[str]:
    """A ``--dump-trials`` file for one batch must hold one full record per trial."""
    records = [json.loads(line) for line in lines]
    trials = batch["config"]["trials"]
    out = []
    if [r["trial"] for r in records] != list(range(trials)):
        out.append(f"dump holds {len(records)} records, expected trials 0..{trials - 1} in order")
    elif sum(r["agreement"] for r in records) != batch["agreement_count"]:
        out.append("dumped agreement flags disagree with the batch's agreement_count")
    elif not all(r.get("transcript") for r in records):
        out.append("dumped trial records lack transcripts")
    return out


def compare_records(got: dict, want: dict, tolerance: float, where: str) -> list[str]:
    """Exact equality, except ``*_ci`` floats which may differ by ``tolerance``."""
    out = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if key.endswith("_ci") and a is not None and b is not None:
            if len(a) != len(b) or any(abs(x - y) > tolerance for x, y in zip(a, b)):
                out.append(f"{where}: {key} {a} differs from the reference {b} by more than {tolerance}")
        elif a != b:
            out.append(f"{where}: {key} {a!r} differs from the reference {b!r}")
    return out
