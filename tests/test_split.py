"""``run_batches``: a sweep's trials split across CPUs give the serial run's reports, byte for byte.

Each test compares ``canonical_json`` with ``[run_batch(cfg) for cfg in
configs]`` and, through the ``forks`` fixture, counts the workers forked and
checks that none is left unreaped and that this process's CPU affinity is
unchanged, also when a trial raises.  A property test checks what the split
rests on: the counts of two slices of a batch add up to the whole batch's.
"""

import os
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import dbasim.harness
from dbasim.adversary import RECEIVER_STRATEGIES, SENDER_STRATEGIES
from dbasim.cli import BUILTIN_SCENARIOS, build_config, load_builtin_scenario
from dbasim.harness import SPLIT_MIN_TRIALS, BatchReport, SimConfig, _batch_report, _tally, run_batch, run_batches, trial_plan
from dbasim.listgen import SENDER

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="a split needs two usable CPUs")


def _serial(configs):
    return [run_batch(cfg).canonical_json() for cfg in configs]


def _split(configs):
    return [rep.canonical_json() for rep in run_batches(configs)]


def _workers(trials):
    """How many workers a sweep of ``trials`` trials forks on this host."""
    return max(min(CPUS, trials * 2 // SPLIT_MIN_TRIALS) - 1, 0) if trials >= SPLIT_MIN_TRIALS else 0


@pytest.fixture
def forks(monkeypatch):
    """The pids ``run_batches`` forks; afterwards no child is left and the affinity is unchanged."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    affinity = os.sched_getaffinity  # as a test may patch it
    mask = affinity(0)
    yield pids
    assert affinity(0) == mask
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _scenario_configs(name, trials):
    return [build_config(point) for point in load_builtin_scenario(name, {"trials": trials}).points()]


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_every_builtin_scenario_splits_to_the_serial_bytes(forks, name, side):
    points = len(_scenario_configs(name, 1))
    # a sweep total just under the bound, or just over it and not a multiple of the processes
    trials = (SPLIT_MIN_TRIALS - 1) // points if side == "below" else SPLIT_MIN_TRIALS // points + 3
    configs = _scenario_configs(name, trials)
    assert _split(configs) == _serial(configs)
    assert len(forks) == _workers(trials * points)


@needs_two_cpus
def test_a_trial_count_not_divisible_by_the_processes(forks):
    configs = [SimConfig(trials=2 * SPLIT_MIN_TRIALS + 1), SimConfig(participants=6, controlled=frozenset({3}), trials=7)]
    assert _split(configs) == _serial(configs)
    assert len(forks) == _workers(2 * SPLIT_MIN_TRIALS + 8) > 0


@needs_two_cpus
def test_batches_with_fewer_trials_than_processes(forks):
    configs = [
        SimConfig(trials=1, master_seed=1),
        SimConfig(participants=5, controlled=frozenset({5}), receiver_strategy="forge", trials=SPLIT_MIN_TRIALS),
        SimConfig(trials=1, sender_input=0),
    ]
    assert _split(configs) == _serial(configs)
    assert len(forks) >= 1


def test_one_usable_cpu_takes_the_serial_path(forks, monkeypatch):
    def refused(*args):
        raise AssertionError("the serial path forks and pins nothing")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "sched_setaffinity", refused)
    configs = _scenario_configs("forge-curve", SPLIT_MIN_TRIALS)
    assert _split(configs) == _serial(configs)
    assert forks == []


def test_the_serial_path_checks_each_config_once(forks, monkeypatch):
    def refused(cfg, on_trial=None):
        raise AssertionError("run_batches builds its reports from the plans it made")

    configs = _scenario_configs("forge-curve", 10)  # 30 trials in all: under the bound
    serial = _serial(configs)
    checked = []
    validate = SimConfig.validate
    monkeypatch.setattr(SimConfig, "validate", lambda cfg: checked.append(cfg) or validate(cfg))
    monkeypatch.setattr(dbasim.harness, "run_batch", refused)
    assert _split(configs) == serial
    assert checked == configs


@pytest.mark.parametrize("bribery", [False, True])
@pytest.mark.parametrize("receiver", sorted(RECEIVER_STRATEGIES))
@pytest.mark.parametrize("sender", sorted(SENDER_STRATEGIES))
@settings(max_examples=8, deadline=None)
@given(
    participants=st.integers(5, 6),
    distributors=st.integers(1, 2),
    segment_length=st.sampled_from([6, 12]),
    sender_acts=st.booleans(),
    relayer_acts=st.booleans(),
    trials=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_counts_of_two_slices_add_up_to_the_batch(
    sender, receiver, bribery, participants, distributors, segment_length, sender_acts, relayer_acts, trials, seed, data
):
    cfg = SimConfig(
        participants=participants,
        distributors=distributors,
        segment_length=segment_length,
        controlled=frozenset([SENDER] * sender_acts + [participants] * relayer_acts),
        bribed=frozenset(range(participants + 1, participants + 1 + distributors)) if bribery else frozenset(),
        sender_strategy=sender,
        receiver_strategy=receiver,
        trials=trials,
        master_seed=seed,
    )
    cut = data.draw(st.integers(0, trials), label="cut")
    plan = trial_plan(cfg)
    head, tail, whole = _tally(plan, range(cut)), _tally(plan, range(cut, trials)), _tally(plan, range(trials))
    assert [a + b for a, b in zip(head, tail)] == whole
    records = []
    report = run_batch(cfg, on_trial=lambda rep: records.append(rep.to_record()))
    # the ten counts are the report's own fields, in its field order
    assert whole == list(report[1:11]) and BatchReport._fields[11] == "forge_oracle"
    assert _batch_report(plan, whole).canonical_json() == report.canonical_json()
    assert report.validity_applicable == sum(rec["validity"] is not None for rec in records)
    assert report.honest_success_applicable == sum(rec["honest_success"] is not None for rec in records)


def test_a_running_thread_takes_the_serial_path(forks):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        configs = [SimConfig(trials=4 * SPLIT_MIN_TRIALS)]
        assert _split(configs) == _serial(configs)
    finally:
        stop.set()
        thread.join(30)
    assert not thread.is_alive()
    assert forks == []


@needs_two_cpus
def test_only_the_workers_are_pinned(forks, monkeypatch, tmp_path):
    parent = os.getpid()
    mask = os.sched_getaffinity(0)
    here, pinned, seen = [], [], tmp_path / "workers"
    run_trial, setaffinity = dbasim.harness.run_trial, os.sched_setaffinity

    def recording(plan, t, capture_transcript=False):
        if os.getpid() == parent:
            here.append(os.sched_getaffinity(0))
        else:  # a worker's list dies with it, so it appends to a file
            with open(seen, "a") as fh:
                fh.write(f"{os.getpid()} {' '.join(map(str, os.sched_getaffinity(0)))}\n")
        return run_trial(plan, t, capture_transcript)

    def counted(pid, cpus):
        if os.getpid() == parent:
            pinned.append(cpus)
        setaffinity(pid, cpus)

    monkeypatch.setattr(dbasim.harness, "run_trial", recording)
    monkeypatch.setattr(os, "sched_setaffinity", counted)
    configs = _scenario_configs("forge-curve", SPLIT_MIN_TRIALS)
    split = _split(configs)
    assert here and all(affinity == mask for affinity in here)
    assert pinned == []
    workers = {pid: cpus for pid, *cpus in map(str.split, seen.read_text().splitlines())}
    assert len(workers) == len(forks) == _workers(SPLIT_MIN_TRIALS)
    worker_cpus = [int(cpu) for cpus in workers.values() for cpu in cpus]
    assert len(worker_cpus) == len(set(worker_cpus)) == len(workers)  # one CPU each, none shared
    assert set(worker_cpus) <= mask
    assert split == _serial(configs)


@needs_two_cpus
def test_no_worker_is_given_the_cpu_this_process_runs_on(monkeypatch):
    mask = os.sched_getaffinity(0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask)
    for cpu in sorted(mask, reverse=True):
        os.sched_setaffinity(0, {cpu})  # so this process runs on ``cpu`` when the split is planned
        try:
            cpus = dbasim.harness._split_cpus(len(mask) * SPLIT_MIN_TRIALS)
        finally:
            os.sched_setaffinity(0, mask)
        assert cpus[0] == cpu
        assert sorted(cpus) == sorted(mask)


def test_a_failed_fork_runs_its_slice_here(forks, monkeypatch):
    def no_slot():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_slot)
    configs = _scenario_configs("bribery", SPLIT_MIN_TRIALS)
    assert _split(configs) == _serial(configs)


def _raising_where(monkeypatch, fails, error=ValueError):
    """Make ``run_trial`` raise ``error`` on each trial ``t`` of ``plan`` where ``fails(plan, t)``."""
    run_trial = dbasim.harness.run_trial

    def flaky(plan, t, capture_transcript=False):
        if fails(plan, t):
            raise error(f"seed {plan.config.master_seed} trial {t} failed")
        return run_trial(plan, t, capture_transcript)

    monkeypatch.setattr(dbasim.harness, "run_trial", flaky)


@needs_two_cpus
def test_a_trial_raising_in_a_worker_raises_here(forks, monkeypatch):
    trials = 2 * SPLIT_MIN_TRIALS
    _raising_where(monkeypatch, lambda plan, t: t == trials - 1)  # the last slice's, a worker's
    with pytest.raises(ValueError) as serial:
        run_batch(SimConfig(trials=trials, master_seed=0))
    with pytest.raises(ValueError) as split:
        run_batches([SimConfig(trials=trials, master_seed=0)])
    assert str(split.value) == str(serial.value) == f"seed 0 trial {trials - 1} failed"
    assert len(forks) == _workers(trials)


@needs_two_cpus
def test_the_first_failing_trial_in_serial_order_raises(forks, monkeypatch):
    # this process's slice of batch 1 and a worker's slice of batch 0 both fail
    trials = SPLIT_MIN_TRIALS
    _raising_where(monkeypatch, lambda plan, t: (plan.config.master_seed, t) in ((0, trials - 1), (1, 0)))
    configs = [SimConfig(trials=trials, master_seed=0), SimConfig(trials=trials, master_seed=1)]
    with pytest.raises(ValueError, match=f"seed 0 trial {trials - 1} failed"):
        run_batches(configs)
    assert forks


@needs_two_cpus
def test_a_worker_that_dies_is_recomputed_here(forks, monkeypatch):
    parent = os.getpid()
    run_trial = dbasim.harness.run_trial

    def dying(plan, t, capture_transcript=False):
        if os.getpid() != parent:
            os._exit(3)
        return run_trial(plan, t, capture_transcript)

    monkeypatch.setattr(dbasim.harness, "run_trial", dying)
    configs = _scenario_configs("forge-curve", SPLIT_MIN_TRIALS)
    assert _split(configs) == _serial(configs)
    assert forks


@needs_two_cpus
def test_a_slice_here_that_raised_once_runs_again_whole(forks, monkeypatch):
    # this process's slice fails in its second batch, after the first was tallied
    parent, failed = os.getpid(), []

    def once(plan, t):
        if os.getpid() == parent and (plan.config.master_seed, t) == (1, 0) and not failed:
            failed.append(t)
            return True
        return False

    configs = [SimConfig(trials=SPLIT_MIN_TRIALS, master_seed=0), SimConfig(trials=SPLIT_MIN_TRIALS, master_seed=1)]
    serial = _serial(configs)
    _raising_where(monkeypatch, once)
    assert _split(configs) == serial
    assert failed and forks


@needs_two_cpus
def test_an_error_here_raises_after_every_worker_is_reaped(forks, monkeypatch):
    parent = os.getpid()
    _raising_where(monkeypatch, lambda plan, t: t == 0 and os.getpid() == parent)
    with pytest.raises(ValueError, match="seed 0 trial 0 failed"):
        run_batches([SimConfig(trials=20 * SPLIT_MIN_TRIALS, master_seed=0)])
    assert forks


@needs_two_cpus
def test_an_interrupt_here_kills_every_worker(forks, monkeypatch):
    parent = os.getpid()
    run_trial = dbasim.harness.run_trial
    stalled = []

    def stalling(plan, t, capture_transcript=False):
        if os.getpid() != parent and not stalled:
            stalled.append(t)
            time.sleep(20)  # a worker still running when the interrupt comes
        elif os.getpid() == parent and t == 0:
            raise KeyboardInterrupt
        return run_trial(plan, t, capture_transcript)

    monkeypatch.setattr(dbasim.harness, "run_trial", stalling)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_batches([SimConfig(trials=SPLIT_MIN_TRIALS)])
    assert time.monotonic() - start < 10  # killed, not waited for
    assert forks
