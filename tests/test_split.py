"""``run_batches``: a sweep's trials split across CPUs give the serial run's reports, byte for byte.

Each test compares ``canonical_json`` with ``[run_batch(cfg) for cfg in
configs]`` and, through the ``forks`` fixture, counts the workers forked and
checks that none is left unreaped and that this process's CPU affinity is
restored, also when a trial raises.
"""

import os
import threading
import time

import pytest

import dbasim.harness
from dbasim.cli import BUILTIN_SCENARIOS, build_config, load_builtin_scenario
from dbasim.harness import SPLIT_MIN_TRIALS, SimConfig, run_batch, run_batches

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
    """The pids ``run_batches`` forks; afterwards no child is left and the affinity is as before."""
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
