"""Scenario files, parameter sweeps, report emission, and the console entry.

A scenario is a JSON document of flat simulation fields plus an optional
``sweep`` block (field -> list of values, run as a cartesian product) and an
optional ``require`` block (rate name -> minimum).  :data:`FIELDS` names
every field once; the defaults, type checks and command-line flags come from
it, and flags override file values one-to-one.  Named scenarios ship inside
the package so the standard experiments are one command each.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import Counter
from functools import partial
from typing import IO, Callable, Mapping, NamedTuple, Optional, Sequence

from .adversary import AGREEMENT_SAFE_STRATEGIES, RECEIVER_STRATEGIES, SENDER_STRATEGIES
from .harness import (
    BatchReport,
    SimConfig,
    TrialReport,
    clip,
    echo,
    encode_canonical,
    is_int,
    is_real,
    run_batch,
    run_batches,
)
from .listgen import SENDER
from .protocol import DECIDE_RULES

SWEEPABLE = ("distributors", "p", "receiver_strategy", "segment_length", "sender_strategy")

#: rate names usable in a ``require`` block, each a minimum bound
REQUIRABLE = ("agreement_rate", "all_abort_rate", "validity_rate", "honest_success_rate")

OUTPUT_MODES = ("human", "machine", "both")

#: the most work one trial may take: n^2 relay messages plus n*d*m list
#: entries, n = receivers + 1; README's trial-size note gives the times and
#: memory measured at the bound.  The trial count is not bounded.
MAX_TRIAL_WORK = 10**6

BUILTIN_SCENARIOS = ("all-honest", "equivocating-sender", "forging-receiver", "bribery", "forge-curve")


def _is_int_list(value: object) -> bool:
    return isinstance(value, (list, tuple)) and all(map(is_int, value))


def _indices(text: str) -> list[int]:
    """A ``--controlled``/``--bribed`` value, empty for none; argparse exits 2 on an empty or non-integer item."""
    if not text.strip():
        return []
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {echo(text)}") from None


def _indices_or_all(text: str) -> list[int] | str:
    return "all" if text == "all" else _indices(text)


def _flag_type(convert: Callable[[str], object]) -> Callable[[str], object]:
    """``convert`` as an argparse type whose error message, argparse's own, echoes a bad value clipped."""

    def parse(text: str) -> object:
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {echo(text)}") from None

    return parse


#: each field kind: its type test, its description in error messages, and
#: its flag's argparse type; bools are not numbers here, and nothing is coerced
KINDS = {
    "int": (is_int, "an integer", int),
    "real": (is_real, "a number", float),
    "indices": (_is_int_list, "a list of integers", _indices),
    "indices-or-all": (lambda v: v == "all" or _is_int_list(v), 'a list of integers or "all"', _indices_or_all),
    "str": (lambda v: isinstance(v, str), "a string", str),
}


#: every scenario field: its default (immutable, since every parse shares
#: it), its kind, and its flag help (None: no flag).  The flag is ``--``
#: plus the key with ``_`` as ``-``.
FIELDS = {
    "name": ("adhoc", "str", None),
    "receivers": (3, "int", "receiver count (participants minus the sender)"),
    "distributors": (2, "int", "distributor count d"),
    "segment_length": (12, "int", "per-distributor list length m"),
    "sender_input": (1, "int", "the bit the sender broadcasts"),
    "trials": (1000, "int", "trials per batch"),
    "seed": (42, "int", "master seed"),
    "p": (0.5, "real", "per-distributor disclosure probability"),
    "controlled": ((), "indices", "comma-separated controlled participant indices"),
    "bribed": ((), "indices-or-all", "comma-separated bribed distributor indices, or 'all'"),
    "sender_strategy": ("honest-mimic", "str", f"controlled sender's strategy: {', '.join(sorted(SENDER_STRATEGIES))}"),
    "receiver_strategy": ("honest-mimic", "str", f"controlled receivers' strategy: {', '.join(sorted(RECEIVER_STRATEGIES))}"),
    "decide_rule": ("literal", "str", f"decision rule: {', '.join(DECIDE_RULES)}"),
    "output": ("human", "str", f"report format: {', '.join(OUTPUT_MODES)}"),
}

DEFAULTS: dict = {**{key: default for key, (default, _, _) in FIELDS.items()}, "sweep": {}, "require": {}}


def _check_type(key: str, value: object, what: str = "") -> None:
    test, expected, _ = KINDS[FIELDS[key][1]]
    if not test(value):
        raise ValueError(f"{what or repr(key)} must be {expected}, got {echo(value)}")
    if isinstance(value, (list, tuple)):  # an index list: a repeat is an error, not a merge
        repeated = [i for i, count in Counter(value).items() if count > 1]
        if repeated:
            noun = "index" if len(repeated) == 1 else "indices"
            listed = clip(", ".join(map(str, sorted(repeated))))
            raise ValueError(f"{what or repr(key)} repeats {noun} {listed}, got {echo(value)}")


class Scenario(NamedTuple):
    """A validated scenario: base fields, sweep grid, and requirements."""

    name: str
    base: dict
    sweep: dict
    require: dict
    output: str

    def points(self) -> list[dict]:
        """Every swept combination as a full field mapping, grid order."""
        keys = sorted(self.sweep)
        return [{**self.base, **dict(zip(keys, values))} for values in itertools.product(*(self.sweep[k] for k in keys))]


def build_config(point: Mapping) -> SimConfig:
    """One sweep point's fields -> a SimConfig; the one place scenario keys become config fields.

    ``receivers`` + 1 gives ``participants``, ``seed`` gives ``master_seed``,
    ``p`` gives ``disclosure_probability``, and ``"all"`` bribes every distributor.
    """
    participants = point["receivers"] + 1
    distributors = point["distributors"]
    bribed = point["bribed"]
    if bribed == "all":
        bribed = list(range(participants + 1, participants + 1 + distributors))
    return SimConfig(
        participants=participants,
        distributors=distributors,
        segment_length=point["segment_length"],
        sender_input=point["sender_input"],
        controlled=frozenset(point["controlled"]),
        bribed=frozenset(bribed),
        disclosure_probability=point["p"],
        sender_strategy=point["sender_strategy"],
        receiver_strategy=point["receiver_strategy"],
        trials=point["trials"],
        master_seed=point["seed"],
        decide_rule=point["decide_rule"],
    )


def _check_trial_size(point: Mapping) -> None:
    """Reject a point whose single trial exceeds :data:`MAX_TRIAL_WORK`.

    Runs before :func:`build_config`, which would otherwise materialize a
    list per distributor for ``"bribed": "all"``.  Negative sizes count as
    zero here and are left to :meth:`SimConfig.validate`.
    """
    n = max(point["receivers"] + 1, 0)
    entries = max(point["distributors"], 0) * max(point["segment_length"], 0)
    work = n * n + n * entries
    if work > MAX_TRIAL_WORK:
        raise ValueError(
            f"one trial is too large: receivers={echo(point['receivers'])}, distributors={echo(point['distributors'])}, "
            f"segment_length={echo(point['segment_length'])} give n^2 + n*d*m = {echo(work)} work units for "
            f"n = receivers + 1, above the limit of {MAX_TRIAL_WORK}"
        )


def parse_config(document: Mapping, overrides: Optional[Mapping] = None) -> Scenario:
    """Validate a scenario document (plus flag overrides) into a Scenario.

    A document that is not an object, unknown keys, fields or sweep values
    of the wrong type, unsweepable fields, unknown requirement names, any
    sweep point whose trial is too large to run, and any sweep point that
    fails SimConfig validation are all rejected with the offending name in
    the message.
    """
    if not isinstance(document, Mapping):
        raise ValueError(f"a scenario must be a JSON object, got {type(document).__name__}")
    doc = dict(document)
    doc.pop("schema_version", None)
    unknown = sorted(set(doc) - set(DEFAULTS))
    if unknown:
        raise ValueError(f"unknown config keys {clip(str(unknown))}; known keys: {sorted(DEFAULTS)}")
    flagged = {k: v for k, v in (overrides or {}).items() if v is not None}
    merged = {**DEFAULTS, **doc, **flagged}

    sweep = merged.pop("sweep")
    if not isinstance(sweep, Mapping):
        raise ValueError(f"'sweep' must be an object mapping fields to value lists, got {echo(sweep)}")
    sweep = dict(sweep)
    bad = sorted(set(sweep) - set(SWEEPABLE))
    if bad:
        raise ValueError(f"cannot sweep over {clip(str(bad))}; sweepable fields: {list(SWEEPABLE)}")
    for key, values in sweep.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"sweep values for {key!r} must be a non-empty list")
        for value in values:
            _check_type(key, value, f"each sweep value for {key!r}")
    sweep = {key: values for key, values in sweep.items() if key not in flagged}  # a flag overrides a swept key too

    require = merged.pop("require")
    if not isinstance(require, Mapping):
        raise ValueError(f"'require' must be an object mapping rate names to minima, got {echo(require)}")
    require = dict(require)
    bad = sorted(set(require) - set(REQUIRABLE))
    if bad:
        raise ValueError(f"unknown requirement names {clip(str(bad))}; requirable rates: {list(REQUIRABLE)}")
    for rate_name, minimum in require.items():
        if not is_real(minimum) or minimum != minimum:  # NaN: every comparison with it is false
            raise ValueError(f"required minimum for {rate_name!r} must be a number, got {echo(minimum)}")

    for key, value in merged.items():
        _check_type(key, value)

    output = merged.pop("output")
    if output not in OUTPUT_MODES:
        raise ValueError(f"output must be one of {OUTPUT_MODES}, got {echo(output)}")
    name = merged.pop("name")

    scenario = Scenario(name=name, base=merged, sweep=sweep, require=require, output=output)
    for point in scenario.points():
        try:
            _check_trial_size(point)
            build_config(point).validate()
        except ValueError as exc:
            swept = ", ".join(f"{k!r}: {echo(point[k])}" for k in sweep)
            where = f" at sweep point {{{swept}}}" if swept else ""
            raise ValueError(f"invalid configuration{where}: {exc}") from None
    return scenario


def load_scenario_file(path: str, overrides: Optional[Mapping] = None) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests JSON too deeply to read") from None
        except ValueError as exc:  # malformed, or an int longer than Python reads
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    return parse_config(document, overrides)


def load_builtin_scenario(name: str, overrides: Optional[Mapping] = None) -> Scenario:
    if name not in BUILTIN_SCENARIOS:
        raise ValueError(f"unknown scenario {echo(name)}; built in: {list(BUILTIN_SCENARIOS)}")
    from importlib import resources  # on 3.12+ it imports inspect, so only here

    text = resources.files("dbasim").joinpath("scenarios", f"{name}.json").read_text(encoding="utf-8")
    return parse_config(json.loads(text), overrides)


# --- emission ----------------------------------------------------------------

_COLUMNS = (
    ("n", lambda r: r.config.participants),
    ("d", lambda r: r.config.distributors),
    ("m", lambda r: r.config.segment_length),
    ("p", lambda r: r.config.disclosure_probability),
    ("sender", lambda r: r.config.sender_strategy),
    ("receiver", lambda r: r.config.receiver_strategy),
    ("trials", lambda r: r.trials),
    ("agree", lambda r: _rate(r.agreement_rate)),
    ("abort", lambda r: _rate(r.all_abort_rate)),
    ("valid", lambda r: _rate(r.validity_rate)),
    ("hsucc", lambda r: _rate(r.honest_success_rate)),
    ("forge_emp", lambda r: _rate(r.forge_success_rate)),
    ("forge_exact", lambda r: _rate(float(r.forge_oracle)) if r.forge_oracle is not None else "-"),
    ("forge_est", lambda r: _rate(r.forge_heuristic)),
    ("fullknow", lambda r: _rate(r.full_knowledge_rate)),
    ("fullknow_exact", lambda r: _rate(r.expected_full_knowledge)),
)


def _rate(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6f}"


def emit_table(reports: Sequence[BatchReport]) -> str:
    """Aligned text table, one row per batch; estimates sit next to measurements."""
    rows = [[str(getter(r)) for _, getter in _COLUMNS] for r in reports]
    headers = [name for name, _ in _COLUMNS]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in [headers, *rows]]
    return "\n".join(lines) + "\n"


def _check_requirements(scenario: Scenario, reports: Sequence[BatchReport]) -> list[str]:
    """Failure messages for explicit minima plus the contract that safe strategies always agree."""
    failures: list[str] = []
    for i, rep in enumerate(reports):
        cfg = rep.config
        acting = {cfg.sender_strategy if party == SENDER else cfg.receiver_strategy for party in cfg.controlled}
        if acting <= AGREEMENT_SAFE_STRATEGIES and rep.agreement_count != rep.trials:
            failures.append(
                f"batch {i}: {rep.trials - rep.agreement_count} agreement violations under strategies that cannot "
                f"break agreement (sender={cfg.sender_strategy}, receiver={cfg.receiver_strategy}); this is a bug"
            )
        for rate_name, minimum in sorted(scenario.require.items()):
            actual = getattr(rep, rate_name)
            if actual is None:
                failures.append(f"batch {i}: required {rate_name} >= {minimum} but the rate is not applicable")
            elif actual < minimum:
                failures.append(f"batch {i}: required {rate_name} >= {minimum}, measured {actual:.6f}")
    return failures


def _write_trial(fh: IO[str], batch: int, report: TrialReport) -> None:
    record = {"batch": batch, **report.to_record()}
    fh.write(encode_canonical(record) + "\n")


def run_scenario(
    scenario: Scenario,
    stream: Optional[IO[str]] = None,
    dump_trials: Optional[str] = None,
) -> int:
    """Run every sweep point, emit reports, and enforce requirements.

    Returns 0 when all requirements hold, 1 otherwise.  The trials run
    through :func:`~dbasim.harness.run_batches`, split across the usable
    CPUs for a large enough sweep.  ``dump_trials`` writes per-trial records
    with full transcripts, one JSON line each, for replay debugging; the
    file is opened before the first trial runs and each record is written
    as its trial finishes.
    """
    if stream is None:  # bind lazily so stdout redirection is honoured
        stream = sys.stdout
    configs = [build_config(point) for point in scenario.points()]
    if dump_trials is None:
        reports = run_batches(configs)
    else:  # serial, as the records stream in trial order
        with open(dump_trials, "w", encoding="utf-8") as fh:
            reports = [run_batch(cfg, on_trial=partial(_write_trial, fh, i)) for i, cfg in enumerate(configs)]
    if scenario.output in ("human", "both"):
        stream.write(f"scenario {scenario.name}: {len(reports)} batch(es)\n")
        stream.write(emit_table(reports))
    if scenario.output in ("machine", "both"):
        for rep in reports:
            stream.write(rep.canonical_json() + "\n")
    failures = _check_requirements(scenario, reports)
    for message in failures:
        stream.write(f"REQUIREMENT FAILED: {message}\n")
    if scenario.output in ("human", "both") and scenario.require and not failures:
        stream.write("all requirements satisfied\n")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dbasim",
        description="Simulate detectable agreement over distributor-issued correlated reference lists.",
        # argparse prints the usage before each of its errors, so it is short;
        # flags are spelled in full, as argparse echoes an ambiguous one whole
        usage="%(prog)s [-h] [--scenario SCENARIO | --config CONFIG] [options]",
        allow_abbrev=False,
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--scenario", help=f"built-in scenario name: {', '.join(BUILTIN_SCENARIOS)}")
    source.add_argument("--config", help="path to a scenario JSON file")
    parser.add_argument("--list-scenarios", action="store_true", help="list built-in scenarios and exit")
    for key, (_, kind, help_text) in FIELDS.items():
        if help_text is not None:
            flag = "--" + key.replace("_", "-")
            parser.add_argument(flag, dest=key, type=_flag_type(KINDS[kind][2]), help=help_text)
    parser.add_argument("--dump-trials", dest="dump_trials", help="write per-trial JSON records to this file")
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        parser.error(f"unrecognized arguments: {clip(' '.join(unknown))}")

    if args.list_scenarios:
        for name in BUILTIN_SCENARIOS:
            print(name)
        return 0

    overrides = {key: getattr(args, key, None) for key in FIELDS}  # None: no flag given or none exists
    try:
        if args.scenario:
            scenario = load_builtin_scenario(args.scenario, overrides)
        elif args.config:
            scenario = load_scenario_file(args.config, overrides)
        else:
            scenario = parse_config({}, overrides)
        return run_scenario(scenario, dump_trials=args.dump_trials)
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:  # the file's name, as the user gave it
            exc = f"[Errno {exc.errno}] {exc.strerror}: {echo(exc.filename)}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
