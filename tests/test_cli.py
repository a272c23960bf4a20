"""Scenario parsing, sweeps, requirement enforcement, emission, entry point."""

import io
import json
import os
import re
import subprocess
import sys

import pytest

import dbasim
from dbasim.adversary import RECEIVER_STRATEGIES, SENDER_STRATEGIES, forge_success_closed_form
from dbasim.cli import (
    BUILTIN_SCENARIOS,
    DEFAULTS,
    FIELDS,
    MAX_TRIAL_WORK,
    OUTPUT_MODES,
    Scenario,
    build_config,
    emit_table,
    load_builtin_scenario,
    load_scenario_file,
    main,
    parse_config,
    run_scenario,
    _check_requirements,
)
from dbasim.harness import ECHO_CHARS, SimConfig, run_batch, run_trial, trial_plan
from dbasim.protocol import DECIDE_RULES

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_empty_document_yields_the_defaults():
    s = parse_config({})
    assert s.name == "adhoc"
    assert s.points() == [s.base]
    # the field table's defaults are the records' defaults
    assert build_config(s.base) == SimConfig()


def test_parsed_scenarios_share_no_mutable_default():
    first, second = parse_config({}), parse_config({})
    for key, value in first.base.items():
        # a value both parses hold must be immutable (hashable), so changing
        # one parsed scenario cannot change the defaults of the next
        assert value is not second.base[key] or isinstance(value, (int, float, str, tuple)), key
    with pytest.raises(AttributeError):
        first.base["controlled"].append(4)
    assert build_config(parse_config({}).base) == SimConfig()


def test_unknown_keys_are_named():
    with pytest.raises(ValueError, match=r"unknown config keys \['segmentlen'\]"):
        parse_config({"segmentlen": 6})


def test_unsweepable_fields_are_rejected():
    with pytest.raises(ValueError, match=r"cannot sweep over \['seed'\]"):
        parse_config({"sweep": {"seed": [1, 2]}})
    with pytest.raises(ValueError, match="non-empty list"):
        parse_config({"sweep": {"p": []}})


def test_unknown_requirement_names_are_rejected():
    with pytest.raises(ValueError, match=r"unknown requirement names \['forge_rate'\]"):
        parse_config({"require": {"forge_rate": 0.5}})


def test_bad_output_mode_is_rejected():
    with pytest.raises(ValueError, match="output must be one of"):
        parse_config({"output": "xml"})


def test_invalid_sweep_points_are_caught_upfront():
    with pytest.raises(ValueError, match="multiple of 6, got 7"):
        parse_config({"segment_length": 7})
    with pytest.raises(ValueError, match=r"sweep point .*'segment_length': 9"):
        parse_config({"sweep": {"segment_length": [6, 9]}})


def test_sweep_points_expand_in_sorted_key_grid_order():
    s = parse_config({"sweep": {"segment_length": [6, 12], "p": [0.25, 0.5]}})
    got = [(pt["p"], pt["segment_length"]) for pt in s.points()]
    assert got == [(0.25, 6), (0.25, 12), (0.5, 6), (0.5, 12)]


def test_overrides_replace_file_values():
    s = parse_config({"trials": 5}, overrides={"trials": 9, "seed": None})
    assert s.base["trials"] == 9
    assert s.base["seed"] == DEFAULTS["seed"]  # None means flag not given


@pytest.mark.parametrize(
    "scenario, flag, value, key",
    [("forge-curve", "--segment-length", 18, "segment_length"), ("bribery", "--p", 0.9, "disclosure_probability")],
)
def test_a_flag_for_a_swept_key_runs_that_value_alone(capsys, scenario, flag, value, key):
    code = main(["--scenario", scenario, flag, str(value), "--trials", "50", "--output", "machine"])
    assert code == 0
    assert [json.loads(line)["config"][key] for line in capsys.readouterr().out.splitlines()] == [value]
    # the file's sweep is still checked before the flag replaces it
    with pytest.raises(ValueError, match="each sweep value for 'p' must be a number"):
        parse_config({"sweep": {"p": ["high"]}}, overrides={"p": 0.9})


def _document(s):
    """A scenario document that parses back to ``s``."""
    return {"schema_version": 1, "name": s.name, **s.base, "sweep": s.sweep, "require": s.require, "output": s.output}


def test_document_round_trip():
    doc = {
        "name": "sweepy",
        "receivers": 3,
        "distributors": 1,
        "trials": 10,
        "controlled": [4],
        "receiver_strategy": "forge",
        "sweep": {"segment_length": [6, 12]},
        "require": {"agreement_rate": 0.0},
        "output": "machine",
    }
    s = parse_config(doc)
    assert parse_config(_document(s)) == s


def test_builtin_scenarios_load_and_round_trip():
    for name in BUILTIN_SCENARIOS:
        s = load_builtin_scenario(name)
        assert s.name == name
        assert parse_config(_document(s)) == s
        for point in s.points():
            build_config(point).validate()


def test_unknown_builtin_name():
    with pytest.raises(ValueError, match="unknown scenario 'nope'"):
        load_builtin_scenario("nope")


def test_bribed_all_expands_to_every_distributor():
    s = parse_config({"receivers": 3, "distributors": 3, "bribed": "all", "controlled": [4], "receiver_strategy": "omniscient-forge"})
    cfg = build_config(s.points()[0])
    assert cfg.bribed == frozenset({5, 6, 7})


def test_scenario_file_loading(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"name": "tiny", "trials": 3}))
    s = load_scenario_file(str(path))
    assert s.name == "tiny" and s.base["trials"] == 3


def test_run_scenario_success_and_failure_exit_codes():
    ok = parse_config({"trials": 40, "require": {"agreement_rate": 1.0, "validity_rate": 1.0}})
    out = io.StringIO()
    assert run_scenario(ok, out) == 0
    assert "all requirements satisfied" in out.getvalue()

    impossible = parse_config(
        {
            "trials": 60,
            "distributors": 1,
            "segment_length": 6,
            "controlled": [4],
            "receiver_strategy": "forge",
            "require": {"honest_success_rate": 1.0},
        }
    )
    out = io.StringIO()
    assert run_scenario(impossible, out) == 1
    assert "REQUIREMENT FAILED" in out.getvalue()


def test_not_applicable_requirement_fails_loudly():
    s = parse_config({"trials": 10, "controlled": [1], "sender_strategy": "equivocate", "require": {"validity_rate": 1.0}})
    out = io.StringIO()
    assert run_scenario(s, out) == 1
    assert "not applicable" in out.getvalue()


def test_agreement_violations_without_forging_would_fail_the_run():
    # exercised through the public checker on a healthy batch: no failures
    s = parse_config({"trials": 25})
    out = io.StringIO()
    assert run_scenario(s, out) == 0
    assert "REQUIREMENT FAILED" not in out.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["--controlled", "5", "--receiver-strategy", "random-junk"],
        ["--controlled", "1", "--sender-strategy", "random-junk"],
    ],
    ids=["junk-receiver", "junk-sender"],
)
def test_random_junk_breaking_agreement_is_no_bug(capsys, argv):
    # a blind claim passes a check whenever the target holds its bit at every
    # claimed position, which is likely at m=6: agreement is about 0.73 with
    # the junk receiver and 0.95 with the junk sender
    shape = ["--receivers", "4", "--distributors", "1", "--segment-length", "6", "--trials", "2000"]
    assert main([*shape, *argv, "--output", "machine"]) == 0
    out = capsys.readouterr().out
    assert "this is a bug" not in out and "REQUIREMENT FAILED" not in out
    assert json.loads(out)["agreement_rate"] < 0.99


@pytest.mark.parametrize(
    "controlled, sender, receiver, covered",
    [
        ((), "random-junk", "forge", True),  # nobody acts, so every trial must agree
        ((1,), "honest-mimic", "honest-mimic", True),
        ((1,), "silent", "honest-mimic", True),
        ((1,), "flag-always", "honest-mimic", True),
        ((1,), "equivocate", "honest-mimic", True),
        ((5,), "random-junk", "honest-mimic", True),  # the junk sender is not controlled
        ((5,), "honest-mimic", "silent", True),
        ((5,), "honest-mimic", "flag-always", True),
        ((1, 5), "equivocate", "silent", True),
        ((1,), "random-junk", "honest-mimic", False),
        ((5,), "honest-mimic", "random-junk", False),
        ((5,), "honest-mimic", "forge", False),
        ((5,), "honest-mimic", "omniscient-forge", False),
        ((1, 5), "equivocate", "random-junk", False),
    ],
)
def test_agreement_contract_covers_exactly_the_strategies_that_cannot_break_it(controlled, sender, receiver, covered):
    cfg = SimConfig(
        participants=5,
        distributors=1,
        segment_length=6,
        controlled=frozenset(controlled),
        sender_strategy=sender,
        receiver_strategy=receiver,
        trials=4,
    )
    rep = run_batch(cfg)
    short = rep._replace(agreement_count=rep.trials - 1)  # a fabricated shortfall
    failures = _check_requirements(parse_config({}), [short])
    assert [("this is a bug" in f) for f in failures] == ([True] if covered else [])


def test_machine_output_is_one_json_record_per_batch():
    s = parse_config({"trials": 20, "output": "machine", "sweep": {"segment_length": [6, 12]}})
    out = io.StringIO()
    assert run_scenario(s, out) == 0
    lines = [ln for ln in out.getvalue().splitlines() if ln]
    assert len(lines) == 2
    for ln in lines:
        rec = json.loads(ln)
        assert rec["schema_version"] == 1
        assert rec["record"] == "batch"
    assert json.loads(lines[0])["config"]["segment_length"] == 6


def test_human_output_is_an_aligned_table():
    s = parse_config({"trials": 20, "output": "human"})
    out = io.StringIO()
    run_scenario(s, out)
    lines = out.getvalue().splitlines()
    header = next(ln for ln in lines if ln.startswith("n "))
    assert "agree" in header and "forge_exact" in header and "forge_est" in header and "fullknow_exact" in header


@pytest.mark.parametrize("output", OUTPUT_MODES)
def test_run_scenario_output_modes(output):
    s = parse_config({"trials": 5, "output": output})
    rep = run_batch(build_config(s.points()[0]))
    table = emit_table([rep])
    assert table.startswith("n ") and table.count("\n") == 2
    human = f"scenario adhoc: 1 batch(es)\n{table}"
    machine = rep.canonical_json() + "\n"
    assert json.loads(machine)["record"] == "batch"
    out = io.StringIO()
    assert run_scenario(s, out) == 0
    assert out.getvalue() == {"human": human, "machine": machine, "both": human + machine}[output]


def test_repeated_runs_emit_identical_bytes():
    s = parse_config({"trials": 30, "output": "machine", "controlled": [4], "receiver_strategy": "forge", "distributors": 1, "segment_length": 6})
    a, b = io.StringIO(), io.StringIO()
    run_scenario(s, a)
    run_scenario(s, b)
    assert a.getvalue() == b.getvalue()


def test_a_split_sweep_prints_the_bytes_of_a_serial_run(tmp_path, monkeypatch, capsys):
    # 3 x 300 trials reach harness.SPLIT_MIN_TRIALS; a --dump-trials run and
    # one with one usable CPU run serially
    argv = ["--scenario", "forge-curve", "--trials", "300", "--output", "both"]
    cpus = len(os.sched_getaffinity(0))
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    outputs = []
    for extra in ([], ["--dump-trials", str(tmp_path / "trials.jsonl")]):
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    split = len(forks)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(argv) == 0
    outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(forks) == split
    assert bool(split) == (cpus > 1)


def test_dump_trials_writes_replayable_records(tmp_path):
    path = tmp_path / "trials.jsonl"
    s = parse_config({"trials": 4, "output": "machine", "sweep": {"segment_length": [6, 12]}})
    out = io.StringIO()
    assert run_scenario(s, out, dump_trials=str(path)) == 0
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["batch"], r["trial"]) for r in records] == [(b, t) for b in (0, 1) for t in range(4)]
    rec = records[0]
    assert rec["record"] == "trial"
    assert rec["transcript"]
    assert rec["decisions"]["2"] == "1"


def test_emitted_lines_are_the_records_in_one_json_spelling(tmp_path):
    # json.dumps with sorted keys and no spaces is the reference spelling of
    # every batch line and every --dump-trials line
    path = tmp_path / "trials.jsonl"
    document = {"trials": 5, "output": "machine", "receivers": 5, "controlled": [1, 4], "sender_strategy": "equivocate", "receiver_strategy": "forge"}
    s = parse_config({**document, "sweep": {"segment_length": [6, 12]}})
    out = io.StringIO()
    assert run_scenario(s, out, dump_trials=str(path)) == 0
    configs = [build_config(point) for point in s.points()]
    assert out.getvalue().splitlines() == [
        json.dumps(run_batch(cfg).to_record(), sort_keys=True, separators=(",", ":")) for cfg in configs
    ]
    assert path.read_text().splitlines() == [
        json.dumps({"batch": b, **run_trial(trial_plan(cfg), t, capture_transcript=True).to_record()}, sort_keys=True, separators=(",", ":"))
        for b, cfg in enumerate(configs)
        for t in range(cfg.trials)
    ]


def test_unwritable_dump_path_fails_before_any_output(tmp_path, capsys):
    # the dump file is opened before the first trial, so nothing runs or prints
    path = tmp_path / "no-such-dir" / "trials.jsonl"
    assert main(["--trials", "3", "--output", "machine", "--dump-trials", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# --- the executable ----------------------------------------------------------


def test_main_runs_a_builtin_scenario_with_overrides(capsys):
    code = main(["--scenario", "all-honest", "--trials", "25", "--output", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["config"]["trials"] == 25
    assert rec["validity_rate"] == 1.0


def test_main_flag_only_invocation(capsys):
    code = main(["--receivers", "4", "--trials", "15", "--seed", "7", "--output", "machine"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["config"]["participants"] == 5
    assert rec["config"]["master_seed"] == 7


def test_main_reports_config_errors_on_stderr(capsys):
    code = main(["--segment-length", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "multiple of 6" in captured.err


@pytest.mark.parametrize(
    "document, message",
    [
        ([], "a scenario must be a JSON object, got list"),
        ({"trials": True}, "'trials' must be an integer, got True"),
        ({"p": "0.5"}, "'p' must be a number, got '0.5'"),
        ({"segment_length": 12.0}, "'segment_length' must be an integer, got 12.0"),
        ({"controlled": "4"}, "'controlled' must be a list of integers, got '4'"),
        ({"bribed": [5, 5]}, "'bribed' repeats index 5, got [5, 5]"),
        ({"controlled": [4, 2, 4, 2]}, "'controlled' repeats indices 2, 4, got [4, 2, 4, 2]"),
        # json writes and reads NaN; every rate compares false with it, so it would pass any run
        ({"require": {"agreement_rate": float("nan")}}, "required minimum for 'agreement_rate' must be a number, got nan"),
    ],
)
def test_main_rejects_malformed_scenario_files(tmp_path, capsys, document, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    assert main(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "document, message",
    [
        ("all-honest", "a scenario must be a JSON object, got str"),
        ({"receivers": "3"}, "'receivers' must be an integer"),
        ({"sender_input": False}, "'sender_input' must be an integer"),
        ({"seed": 4.0}, "'seed' must be an integer"),
        ({"p": True}, "'p' must be a number"),
        ({"controlled": [4.0]}, "'controlled' must be a list of integers"),
        ({"controlled": [True]}, "'controlled' must be a list of integers"),
        ({"bribed": "none"}, "'bribed' must be a list of integers or \"all\""),
        ({"receiver_strategy": ["forge"]}, "'receiver_strategy' must be a string"),
        ({"decide_rule": None}, "'decide_rule' must be a string"),
        ({"name": 7}, "'name' must be a string"),
        ({"output": 1}, "'output' must be a string"),
        ({"sweep": [["p", [0.5]]]}, "'sweep' must be an object"),
        ({"sweep": {"p": [0.25, "0.5"]}}, "each sweep value for 'p' must be a number, got '0.5'"),
        ({"sweep": {"segment_length": [6, True]}}, "each sweep value for 'segment_length' must be an integer"),
        ({"require": ["agreement_rate"]}, "'require' must be an object"),
        ({"require": {"agreement_rate": "1.0"}}, "required minimum for 'agreement_rate' must be a number"),
        ({"require": {"agreement_rate": float("nan")}}, "required minimum for 'agreement_rate' must be a number, got nan"),
    ],
)
def test_field_types_are_checked_without_coercion(document, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(document)


def test_main_rejects_a_scenario_file_nested_too_deeply(tmp_path, capsys):
    # the JSON decoder recurses once per level and stops at the recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} nests JSON too deeply to read\n"


LONG = "x" * 100000


@pytest.mark.parametrize(
    "argv, text, start, length, limit",
    [
        (
            ["--config", "bad.json"],
            '{"controlled": ' + "[" * 900 + "]" * 900 + "}",
            "error: 'controlled' must be a list of integers, got ",
            1800,
            200,
        ),
        (
            ["--config", "bad.json"],
            '{"controlled": [' + "0, " * 2999 + '"x"]}',
            "error: 'controlled' must be a list of integers, got ",
            3 * 2999 + 5,
            200,
        ),
        # the known names are listed after the echo
        (["--config", "bad.json"], json.dumps({LONG: 1}), "error: unknown config keys ['x", 100004, 320),
        (["--config", "bad.json"], json.dumps({"require": {LONG: 1}}), "error: unknown requirement names ['x", 100004, 200),
        (["--config", "bad.json"], json.dumps({"sweep": {LONG: [1]}}), "error: cannot sweep over ['x", 100004, 200),
        (
            ["--config", "bad.json"],
            json.dumps({"sweep": {"sender_strategy": [LONG]}}),
            "error: invalid configuration at sweep point {'sender_strategy': 'x",
            100002,
            320,
        ),
        (["--config", LONG], None, "error: [Errno ", 100002, 200),
        (["--scenario", LONG], None, "error: unknown scenario 'x", 100002, 200),
        (["--sender-strategy", LONG], None, "error: invalid configuration: unknown sender strategy 'x", 100002, 200),
        (["--decide-rule", LONG], None, "error: invalid configuration: decide rule must be one of", 100002, 200),
        # argparse's own errors: the usage lines come first
        (["--controlled", "1," + LONG], None, "dbasim: error: argument --controlled: expected comma-separated", 100004, 200),
        (["--trials", LONG], None, "dbasim: error: argument --trials: invalid int value: 'x", 100002, 200),
        ([LONG], None, "dbasim: error: unrecognized arguments: x", 100000, 200),
        # flags are spelled in full: argparse's ambiguity error would echo the whole argument
        (["--s=" + "x" * 1000], None, "dbasim: error: unrecognized arguments: --s=x", 1004, 300),
        # an int past ECHO_CHARS digits is echoed by its size; Python prints none past 4300 digits
        (
            ["--config", "bad.json"],
            json.dumps({"receivers": 10**4000}),
            "error: invalid configuration: one trial is too large: receivers=an integer of 13288 bits,",
            None,
            300,
        ),
        (
            ["--config", "bad.json"],
            json.dumps({"segment_length": 10**4000}),
            "error: invalid configuration: one trial is too large: receivers=3, distributors=2, "
            "segment_length=an integer of 13288 bits give",
            None,
            300,
        ),
        (
            ["--config", "bad.json"],
            json.dumps({"sweep": {"distributors": [10**4000]}}),
            "error: invalid configuration at sweep point {'distributors': an integer of 13288 bits}: "
            "one trial is too large: receivers=3, distributors=an integer of 13288 bits,",
            None,
            300,
        ),
        (
            ["--config", "bad.json"],
            json.dumps({"p": 10**4000}),
            "error: invalid configuration: disclosure probability must satisfy 0 < p < 1, got an integer of 13288 bits",
            None,
            300,
        ),
        (
            ["--config", "bad.json"],
            json.dumps({"sender_input": 10**4000}),
            "error: invalid configuration: sender input must be 0 or 1, got an integer of 13288 bits",
            None,
            300,
        ),
        (
            ["--config", "bad.json"],
            json.dumps({"distributors": -(10**4000)}),
            "error: invalid configuration: distributors must be at least 1, got a negative integer of 13288 bits",
            None,
            300,
        ),
        # a file that is not JSON Python can read is named
        (["--config", "bad.json"], '{"trials": 1,,}', "error: bad.json is not valid JSON: Expecting", None, 300),
        (
            ["--config", "bad.json"],
            '{"receivers": 1' + "0" * 5000 + "}",
            "error: bad.json is not valid JSON: Exceeds the limit (4300 digits)",
            None,
            300,
        ),
    ],
    ids=[
        "nested",
        "long",
        "unknown-key",
        "unknown-require",
        "unsweepable",
        "swept-strategy",
        "config-path",
        "scenario",
        "sender-strategy",
        "decide-rule",
        "controlled-flag",
        "int-flag",
        "unrecognized",
        "abbreviated-flag",
        "huge-receivers",
        "huge-segment-length",
        "huge-swept-distributors",
        "huge-p",
        "huge-sender-input",
        "huge-negative-distributors",
        "malformed-json",
        "json-int-past-the-limit",
    ],
)
def test_a_long_bad_value_is_echoed_as_a_short_prefix(tmp_path, monkeypatch, capsys, argv, text, start, length, limit):
    # the error names what is wrong and the full value's length, on one short line
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "bad.json").write_text(text)
    try:
        code = main([*argv, "--trials", "1"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    message = lines[-1]
    assert message.startswith(start) and (length is None or f"... ({length} characters)" in message)
    assert len(message) < limit and "x" * (ECHO_CHARS + 1) not in captured.err
    assert len(lines) == 1 or message.startswith("dbasim: error: ")  # argparse prints its usage first
    assert len(captured.err.encode()) < max(limit, 300)


def test_integer_minima_and_float_sweep_values_are_accepted():
    s = parse_config({"sweep": {"p": [0.5, 0.75]}, "require": {"agreement_rate": 1}})
    assert [pt["p"] for pt in s.points()] == [0.5, 0.75]
    assert s.require == {"agreement_rate": 1}


def _fresh_cli(*args, timeout):
    """``dbasim.cli`` run with ``args`` in a fresh interpreter, killed and failed after ``timeout`` seconds."""
    src = os.path.dirname(os.path.dirname(dbasim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "dbasim.cli", *args], env=env, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize(
    "document",
    [
        {"receivers": 2000000},
        {"distributors": 10**9, "bribed": "all"},
        {"segment_length": 6000000000},
    ],
)
def test_oversized_trials_exit_2_without_running(tmp_path, document):
    # a fresh interpreter under a timeout: a missing bound would hang or
    # build a billion-element list instead of failing fast
    path = tmp_path / "big.json"
    path.write_text(json.dumps(document))
    out = _fresh_cli("--config", str(path), timeout=10)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "one trial is too large" in out.stderr
    for key in ("receivers", "distributors", "segment_length"):
        assert f"{key}=" in out.stderr


def test_a_forge_reference_over_forty_segments_is_computed_at_once():
    # 1225 work units, far inside the trial-size bound; a sum over all
    # (m/6 + 1)^d tuples of discord picks would take 2^40 steps
    shape = "--receivers 4 --controlled 5 --receiver-strategy forge --distributors 40 --segment-length 6 --trials 1"
    out = _fresh_cli(*shape.split(), "--output", "machine", timeout=20)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["forge_oracle"] == str(forge_success_closed_form(6, 40))


def test_trial_size_limit_sits_between_neighbouring_sizes():
    # n = receivers + 1 parties, one distributor with 6 entries each
    def work(receivers):
        n = receivers + 1
        return n * n + n * 6

    fits = max(r for r in range(1000) if work(r) <= MAX_TRIAL_WORK)
    parse_config({"receivers": fits, "distributors": 1, "segment_length": 6})
    with pytest.raises(ValueError, match=f"one trial is too large: receivers={fits + 1},"):
        parse_config({"receivers": fits + 1, "distributors": 1, "segment_length": 6})
    with pytest.raises(ValueError, match=re.escape("at sweep point {'segment_length': 6000000000}")):
        parse_config({"sweep": {"segment_length": [6, 6000000000]}})


def test_negative_sizes_reach_the_config_checks():
    # a huge negative size is not "too large"; validation names the real fault
    with pytest.raises(ValueError, match="participants must be at least 3"):
        parse_config({"receivers": -(10**9)})
    with pytest.raises(ValueError, match="distributors must be at least 1"):
        parse_config({"distributors": -(10**9), "segment_length": -(10**9) * 6})


#: a non-default flag value and the document value it stands for, per field
FLAG_EXAMPLES = {
    "receivers": ("4", 4),
    "distributors": ("3", 3),
    "segment_length": ("6", 6),
    "sender_input": ("0", 0),
    "trials": ("7", 7),
    "seed": ("9", 9),
    "p": ("0.25", 0.25),
    "controlled": ("1", [1]),
    "bribed": ("5,6", [5, 6]),
    "sender_strategy": ("equivocate", "equivocate"),
    "receiver_strategy": ("forge", "forge"),
    "decide_rule": ("merged", "merged"),
    "output": ("machine", "machine"),
}


@pytest.mark.parametrize(
    "key, text, value",
    # a flagged field without an example fails collection until it gets one
    [(key, *FLAG_EXAMPLES[key]) for key, (_, _, help_text) in FIELDS.items() if help_text is not None]
    + [("bribed", "all", "all")],
)
def test_each_flag_equals_its_document_field(monkeypatch, key, text, value):
    seen = []
    monkeypatch.setattr("dbasim.cli.run_scenario", lambda scenario, dump_trials: seen.append(scenario) or 0)
    assert main(["--" + key.replace("_", "-"), text]) == 0
    assert seen == [parse_config({key: value})]


@pytest.mark.parametrize(
    "flag, names",
    [
        ("--sender-strategy", SENDER_STRATEGIES),
        ("--receiver-strategy", RECEIVER_STRATEGIES),
        ("--decide-rule", DECIDE_RULES),
        ("--output", OUTPUT_MODES),
    ],
)
def test_bad_name_flags_exit_2_naming_the_allowed_values(capsys, flag, names):
    assert main([flag, "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag[2:].replace("-", " ") in captured.err.replace("_", " ")
    for name in names:
        assert repr(name) in captured.err


def test_readme_flag_table_lists_exactly_the_help_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    printed = set(re.findall(r"(?<![\w-])(--?[a-z][a-z-]*)", capsys.readouterr().out))
    with open(README, encoding="utf-8") as fh:
        rows = [line.split("|")[1] for line in fh if line.startswith("| `-")]
    documented = {flag for cell in rows for flag in re.findall(r"`(--?[a-z][a-z-]*)", cell)}
    assert documented == printed


@pytest.mark.parametrize("flag", ["--controlled", "--bribed"])
@pytest.mark.parametrize("text", ["x", "4,,", ",", ",4", "4,,5", "4, "])
def test_main_rejects_non_integer_and_empty_index_items(capsys, flag, text):
    # an empty item is an error, never dropped
    with pytest.raises(SystemExit) as exc:
        main([flag, text, "--trials", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected comma-separated integers, got {text!r}" in captured.err


@pytest.mark.parametrize("flag", ["--controlled", "--bribed"])
@pytest.mark.parametrize("text", ["", " "])
def test_an_empty_index_flag_means_none(monkeypatch, flag, text):
    seen = []
    monkeypatch.setattr("dbasim.cli.run_scenario", lambda scenario, dump_trials: seen.append(scenario) or 0)
    assert main([flag, text]) == 0
    assert seen == [parse_config({flag[2:]: []})]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--controlled", "1,1"], "'controlled' repeats index 1, got [1, 1]"),
        (["--bribed", "5,6,5"], "'bribed' repeats index 5, got [5, 6, 5]"),
        (["--scenario", "bribery", "--controlled", "4,4"], "'controlled' repeats index 4, got [4, 4]"),
    ],
)
def test_main_rejects_repeated_index_flags(capsys, argv, message):
    # a repeat is an error, never merged into one index
    assert main([*argv, "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_main_rejects_missing_config_files(capsys):
    assert main(["--config", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_lists_scenarios(capsys):
    assert main(["--list-scenarios"]) == 0
    names = capsys.readouterr().out.split()
    assert names == list(BUILTIN_SCENARIOS)


def test_main_propagates_requirement_failures(capsys):
    code = main(
        [
            "--scenario",
            "all-honest",
            "--trials",
            "30",
            "--controlled",
            "1",
            "--sender-strategy",
            "silent",
        ]
    )
    assert code == 1
    assert "REQUIREMENT FAILED" in capsys.readouterr().out


def test_main_refuses_scenario_and_config_together():
    with pytest.raises(SystemExit):
        main(["--scenario", "all-honest", "--config", "x.json"])


def test_main_overrides_strategies(capsys):
    code = main(
        [
            "--trials",
            "40",
            "--distributors",
            "1",
            "--segment-length",
            "6",
            "--controlled",
            "4",
            "--receiver-strategy",
            "forge",
            "--output",
            "machine",
        ]
    )
    assert code == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[0])
    assert rec["config"]["receiver_strategy"] == "forge"
    assert rec["forge_attempts"] == 80
    assert rec["forge_oracle"] == "2/3"
