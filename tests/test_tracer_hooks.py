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
