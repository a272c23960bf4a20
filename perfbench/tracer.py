"""Span tracer for dbasim's public functions, installed from outside the package.

Each traced function is replaced, in every ``dbasim`` module namespace that
binds it, by a wrapper that records one span per call: name, start, end,
parent span and trial index.  Rebinding every namespace matters because the
package calls across modules through module globals; ``decide`` and
``relay_step`` reach ``check_claim`` through ``dbasim.protocol``, the forging
strategies through ``dbasim.adversary``, and ``run_trial`` through
``dbasim.harness``.  Spans stay in memory until :meth:`Tracer.data` is
written out; :func:`summarize` turns them into call counts and self times.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

#: span name -> every (module, attribute path) the span times; a dotted path
#: names a method on a class
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "listgen.generate_segment": (("dbasim.listgen", "generate_segment"),),
    "listgen.combine_segments": (("dbasim.listgen", "combine_segments"),),
    "listgen.combined_lists_from_segments": (("dbasim.listgen", "combined_lists_from_segments"),),
    "protocol.make_claim": (("dbasim.protocol", "make_claim"),),
    "protocol.check_claim": (("dbasim.protocol", "check_claim"),),
    "protocol.relay_step": (("dbasim.protocol", "relay_step"),),
    "protocol.decide": (("dbasim.protocol", "decide"),),
    "adversary.resolve_bribes": (("dbasim.adversary", "resolve_bribes"),),
    "adversary.adversary_act": (("dbasim.adversary", "adversary_act"),),
    "adversary.forge_claim": (("dbasim.adversary", "forge_claim"),),
    "harness.derive_rng": (("dbasim.harness", "derive_rng"),),
    "harness.run_trial": (("dbasim.harness", "run_trial"),),
    "harness.run_batch": (("dbasim.harness", "run_batch"),),
    "harness.wilson_interval": (("dbasim.harness", "wilson_interval"),),
    "cli.load_builtin_scenario": (("dbasim.cli", "load_builtin_scenario"),),
    "cli.emit": (("dbasim.cli", "emit_table"), ("dbasim.harness", "BatchReport.canonical_json")),
}

#: what each span records, in the order spans are written
FIELDS = ("name", "start", "end", "parent", "trial")

#: the span whose second argument is the trial index its descendants inherit
TRIAL_SPAN = "harness.run_trial"


class Tracer:
    """Records spans of the :data:`TARGETS` functions while installed."""

    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self._stack = [-1]
        self._current_trial = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        name_a, start_a, end_a, parent_a, trial_a = self.name, self.start, self.end, self.parent, self.trial
        stack, current = self._stack, self._current_trial
        clock = time.perf_counter

        def span(*args, **kwargs):
            i = len(start_a)
            name_a.append(name_id)
            parent_a.append(stack[-1])
            trial_a.append(current[0])
            end_a.append(0.0)
            stack.append(i)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[i] = clock()
                stack.pop()

        if self.names[name_id] != TRIAL_SPAN:
            return span

        def trial_span(cfg, trial, *args, **kwargs):
            saved = current[0]
            current[0] = trial
            try:
                return span(cfg, trial, *args, **kwargs)
            finally:
                current[0] = saved

        return trial_span

    def install(self) -> None:
        """Rebind every target in every loaded ``dbasim`` module (and class)."""
        for module_name in {m for places in TARGETS.values() for m, _ in places}:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "dbasim" or n.startswith("dbasim.")]
        for name_id, places in enumerate(TARGETS.values()):
            for module_name, path in places:
                owner_path, _, attr = path.rpartition(".")
                if owner_path:
                    owner = getattr(sys.modules[module_name], owner_path)
                    self._rebind(owner, attr, owner.__dict__[attr], self._wrap(name_id, owner.__dict__[attr]))
                    continue
                original = getattr(sys.modules[module_name], attr)
                wrapped = self._wrap(name_id, original)
                for module in modules:
                    for bound_name, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, bound_name, original, wrapped)

    def _rebind(self, owner: object, attr: str, original: object, wrapped: object) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __len__(self) -> int:
        return len(self.start)

    def calls_since(self, first: int) -> dict[str, int]:
        """Calls per span name among the spans recorded from index ``first`` on."""
        counts = dict.fromkeys(self.names, 0)
        for name_id in self.name[first:]:
            counts[self.names[name_id]] += 1
        return counts

    def data(self) -> dict:
        """Every span, as parallel arrays keyed by field, plus the span names."""
        return {"names": self.names, **{f: getattr(self, f) for f in FIELDS}}

    def write(self, path: str) -> None:
        """One JSON header line (names, field types, span count), then each field's raw array."""
        header = {"names": self.names, "count": len(self), "fields": {f: getattr(self, f).typecode for f in FIELDS}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in FIELDS:
                getattr(self, f).tofile(fh)


def load(path: str) -> dict:
    """Spans written by :meth:`Tracer.write`, in the form :meth:`Tracer.data` returns."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        data = {"names": header["names"]}
        for f, typecode in header["fields"].items():
            data[f] = array(typecode)
            data[f].fromfile(fh, header["count"])
    return data


def summarize(data: dict) -> tuple[dict[str, int], dict[str, float]]:
    """Calls and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children; the program is single-threaded, so children never overlap.
    """
    names, name, start, end, parent = data["names"], data["name"], data["start"], data["end"], data["parent"]
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    for i, name_id in enumerate(name):
        calls[names[name_id]] += 1
        self_s[names[name_id]] += end[i] - start[i] - child[i]
    return calls, self_s
