"""Spans and counts around the calls into levydam's modules, from outside.

``Tracer.install`` replaces the public functions of each levydam module, and
selected methods of its classes, with wrappers that record one span per
call: name, start, end and the span that was open when the call began.
A function imported into another module with ``from ... import`` is a
separate binding there, so it is replaced in every levydam namespace that
holds it.  ``Tracer.restore`` puts every original back.

Spans live in flat arrays until the report ends; ``layer_metrics`` turns
them into per-module counts, self times and inclusive times.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("models", "scale", "exits", "costs", "simulate", "cli")

# class methods traced besides module-level functions: (module, class, names)
METHODS = (
    ("models", "LevyModel", ("eta",)),
    ("scale", "ScaleFunctionSet", ("__init__", "w", "wp", "z", "wbar")),
    ("exits", "PotentialDensity", ("integrate", "mass")),
    ("exits", "OvershootLaw", ("__init__", "integrate", "density_mass",
                               "mass_above", "total_mass")),
    ("costs", "PolicyEvaluator", None),  # None: __init__ and public methods
)

# private or foreign names that mark a layer boundary: (module, name, span)
EXTRA = (
    ("exits", "quad", "exits.quad"),
    ("cli", "_write_report", "cli._write_report"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple] = []
        self.records = []  # (args, CycleRecords) of each run_policy_cycles

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: sys.modules["levydam." + m] for m in MODULES}
        namespaces = [sys.modules["levydam"], *mods.values()]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                traced = self._wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._set(ns, key, traced)
        for short, cls_name, names in METHODS:
            cls = getattr(mods[short], cls_name)
            if names is None:
                names = [k for k, v in vars(cls).items()
                         if isinstance(v, types.FunctionType)
                         and (k == "__init__" or not k.startswith("_"))]
            for attr in names:
                self._set(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}",
                                                vars(cls)[attr]))
        for short, attr, span in EXTRA:
            self._set(mods[short], attr, self._wrap(span, vars(mods[short])[attr]))
        run_cycles = vars(mods["cli"])["run_policy_cycles"]

        def keep_records(*args, **kwargs):
            rec = run_cycles(*args, **kwargs)
            self.records.append((args, rec))
            return rec

        self._set(mods["cli"], "run_policy_cycles", keep_records)
        return self

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Counts, inclusive and self times per span name and per module."""
        nid = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = (np.array(self.end, dtype=np.float64)
               - np.array(self.start, dtype=np.float64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        count = Counter()
        total = Counter()
        own = Counter()
        for i, name in enumerate(self.names):
            sel = nid == i
            count[name] = int(sel.sum())
            total[name] = float(dur[sel].sum())
            own[name] = float(self_t[sel].sum())
        module_self = Counter()
        for name, t in own.items():
            module_self[name.split(".")[0]] += t
        return {"count": count, "total_s": total, "self_s": own,
                "module_self_s": module_self}
