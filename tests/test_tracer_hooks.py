"""The benchmark's span tracer still finds, wraps and restores every hook.

``perfbench/tracer.py`` rebinds named ``dbasim`` functions from outside the
package, so renaming or deleting one of them breaks ``--trace 1`` runs
without failing anything in the package itself.
"""

import importlib
import importlib.util
import os
import sys

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("dbasim_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module_name, path):
    owner = importlib.import_module(module_name)
    owner_path, _, attr = path.rpartition(".")
    if owner_path:
        return getattr(owner, owner_path).__dict__[attr]
    return getattr(owner, attr)


def _bindings():
    """Every attribute of every loaded dbasim module, by identity."""
    return {
        (name, attr): id(value)
        for name, module in sys.modules.items()
        if name == "dbasim" or name.startswith("dbasim.")
        for attr, value in vars(module).items()
    }


def test_tracer_wraps_every_target_and_restores_the_originals():
    tracer_module = _load_tracer()
    places = [place for group in tracer_module.TARGETS.values() for place in group]
    originals = {place: _target(*place) for place in places}
    before = _bindings()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for place in places:
            assert _target(*place) is not originals[place], f"{place} was not wrapped"
    finally:
        tracer.uninstall()
    for place in places:
        assert _target(*place) is originals[place], f"{place} was not restored"
    assert _bindings() == before


def test_trial_spans_pass_their_trial_index_to_their_descendants():
    # the tracer takes the trial index from run_trial's second argument,
    # and wraps run_trial where dbasim.harness binds it; a run_batch that
    # passed the index otherwise or reached run_trial another way would
    # leave every span at -1, and per-trial attribution would break silently
    import dbasim.harness

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        dbasim.harness.run_batch(dbasim.harness.SimConfig(trials=3))
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name]
    assert [t for name, t in zip(names, tracer.trial) if name == "harness.run_trial"] == [0, 1, 2]
    descendants = 0
    for i, name in enumerate(names):
        if name == "harness.run_trial":
            continue
        ancestor = tracer.parent[i]
        while ancestor != -1 and names[ancestor] != "harness.run_trial":
            ancestor = tracer.parent[ancestor]
        if ancestor == -1:
            assert tracer.trial[i] == -1, name
        else:
            assert tracer.trial[i] == tracer.trial[ancestor], name
            descendants += 1
    assert descendants >= 3 * 4  # per trial: two segments, the lists, the claim, the decision
