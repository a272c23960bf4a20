"""Detectable agreement over distributor-issued correlated reference lists.

The package splits along the protocol's own seams: ``listgen`` builds and
combines the correlated lists handed out in the setup stage, ``protocol``
implements claim checking and the decision rule, ``adversary`` holds the
corruption model and forging strategies, ``harness`` runs seeded Monte Carlo
batches, and ``cli`` wires scenario files to all of it.
"""

from .listgen import (
    CombinedList,
    Segment,
    combine_segments,
    combined_lists_from_segments,
    generate_segment,
)
from .protocol import ABORT, BOT, Bot, Claim, Decision, check_claim, class_relay, decide, make_claim, relay_step
from .adversary import AdversarySpec, Knowledge, forge_claim, resolve_bribes
from .harness import BatchReport, SimConfig, TrialPlan, TrialReport, run_batch, run_trial, trial_plan

__all__ = [
    "ABORT",
    "AdversarySpec",
    "BatchReport",
    "BOT",
    "Bot",
    "Claim",
    "CombinedList",
    "Decision",
    "Knowledge",
    "Segment",
    "SimConfig",
    "TrialPlan",
    "TrialReport",
    "check_claim",
    "class_relay",
    "combine_segments",
    "combined_lists_from_segments",
    "decide",
    "forge_claim",
    "generate_segment",
    "make_claim",
    "relay_step",
    "resolve_bribes",
    "run_batch",
    "run_trial",
    "trial_plan",
]

__version__ = "0.1.0"
