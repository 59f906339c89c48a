"""Span recording around rdslink's public functions, from outside the package.

A `Tracer` keeps spans in memory as plain lists
``[span_id, parent_id, pass_id, name, start, end, extra]`` with times from
`time.monotonic` (CLOCK_MONOTONIC, shared by every process on the host,
so spans from CLI child processes nest inside the parent's process span).
`install` replaces every module attribute and class attribute that names
a target with a span-recording wrapper; nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (metric prefix, module, attribute path, kind).  kind is "function",
# "method" (plain function on a class) or "classmethod".
TARGETS = [
    ("ff.field_make", "rdslink.ff", "field_make", "function"),
    ("ff.least_nonsquare", "rdslink.ff", "least_nonsquare", "function"),
    ("ff.pell_solutions", "rdslink.ff", "pell_solutions", "function"),
    ("groups.FiniteGroup", "rdslink.groups", "FiniteGroup.__init__", "method"),
    ("groups.from_elements", "rdslink.groups", "FiniteGroup.from_elements",
     "classmethod"),
    ("groups.Automorphism", "rdslink.groups", "Automorphism.__post_init__",
     "method"),
    ("groups.orbits", "rdslink.groups", "orbits", "function"),
    ("groups.center", "rdslink.groups", "center", "function"),
    ("groups.central_product", "rdslink.groups", "central_product",
     "function"),
    ("groups.direct_product", "rdslink.groups", "direct_product", "function"),
    ("groupring.mul", "rdslink.groupring", "GroupRingElement.__mul__",
     "method"),
    ("groupring.indicator", "rdslink.groupring", "GroupRingElement.indicator",
     "classmethod"),
    ("schur.verify_sring", "rdslink.schur", "verify_sring", "function"),
    ("schur.cyclotomic", "rdslink.schur", "cyclotomic", "function"),
    ("schur.amorphic_latin", "rdslink.schur", "amorphic_latin", "function"),
    ("rds.verify_rds", "rdslink.rds", "verify_rds", "function"),
    ("rds.is_icommuting", "rdslink.rds", "is_icommuting", "function"),
    ("rds.verify_pds", "rdslink.rds", "verify_pds", "function"),
    ("rds.rds_product", "rdslink.rds", "rds_product", "function"),
    ("rds.cayley_adjacency", "rdslink.rds", "cayley_adjacency", "function"),
    ("rds.certify_drg3", "rdslink.rds", "certify_drg3", "function"),
    ("linked.verify_linked", "rdslink.linked", "verify_linked", "function"),
    ("linked.linked_product", "rdslink.linked", "linked_product", "function"),
    ("linked.associated_group", "rdslink.linked", "associated_group",
     "function"),
    ("constructions.heisenberg_system", "rdslink.constructions",
     "heisenberg_system", "function"),
    ("constructions.dps_system", "rdslink.constructions", "dps_system",
     "function"),
    ("constructions.theorem_1_2_rds", "rdslink.constructions",
     "theorem_1_2_rds", "function"),
    ("constructions.extraspecial_rds", "rdslink.constructions",
     "extraspecial_rds", "function"),
    ("constructions.q8_system_2r", "rdslink.constructions", "q8_system_2r",
     "function"),
]

def _mb(n_bytes):
    return n_bytes / 1e6


def _extra_finite_group(args, kwargs, out):
    self = args[0]
    return {"cells": self.order ** 2, "table_mb": _mb(self.table.nbytes)}


def _extra_from_elements(args, kwargs, out):
    return {"cells": out.order ** 2}


def _extra_central_product(args, kwargs, out):
    return {"cells": out.group.order ** 2}


def _extra_mul(args, kwargs, out):
    a = args[0]
    rows = int((a.vec != 0).sum())
    # each row is a gather of v int64 coefficients, a scaled copy and an
    # indexed add: three v-long int64 streams
    return {"rows": rows, "mb": _mb(rows * a.group.order * 8 * 3)}


EXTRAS = {
    "groups.FiniteGroup": _extra_finite_group,
    "groups.from_elements": _extra_from_elements,
    "groups.central_product": _extra_central_product,
    "groupring.mul": _extra_mul,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, parent_id=None, pass_id=None):
        self.records = []
        self.stack = [parent_id]
        self.pass_id = pass_id
        self._next = 0
        self._prefix = f"{os.getpid()}:"

    def begin(self, name):
        self._next += 1
        sid = self._prefix + str(self._next)
        rec = [sid, self.stack[-1], self.pass_id, name, time.monotonic(),
               None, None]
        self.records.append(rec)
        self.stack.append(sid)
        return rec

    def end(self, rec, extra=None):
        rec[5] = time.monotonic()
        rec[6] = extra
        self.stack.pop()

    def wrap(self, name, fn):
        extra_of = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end(rec, {"raised": 1})
                raise
            self.end(rec, extra_of(args, kwargs, out) if extra_of else None)
            return out

        return wrapper


def _resolve(module, path):
    obj = sys.modules[module]
    *owners, attr = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    if attr not in vars(obj):
        raise AttributeError(f"{module}.{path} is missing")
    return obj, attr


def install(tracer):
    """Wrap every target; returns ({metric prefix: rebinds}, undo).

    Module-level functions are rebound in every loaded ``rdslink`` module
    that holds them, because modules use ``from .groups import ...``.
    A target that is missing raises, so a layer cannot drop out silently.
    Calling undo() puts the original objects back.
    """
    import rdslink  # noqa: F401  (loads every submodule)

    modules = [m for name, m in list(sys.modules.items())
               if name == "rdslink" or name.startswith("rdslink.")]
    counts = {}
    saved = []  # (owner, attribute, original)
    for name, module, path, kind in TARGETS:
        owner, attr = _resolve(module, path)
        original = vars(owner)[attr]
        if kind == "function":
            wrapper = tracer.wrap(name, original)
            holders = [(m, key) for m in modules
                       for key, value in vars(m).items() if value is original]
        else:
            fn = original.__func__ if kind == "classmethod" else original
            wrapper = tracer.wrap(name, fn)
            if kind == "classmethod":
                wrapper = classmethod(wrapper)
            holders = [(owner, attr)]
        for holder, key in holders:
            saved.append((holder, key, original))
            setattr(holder, key, wrapper)
        counts[name] = len(holders)

    def undo():
        for holder, key, original in reversed(saved):
            setattr(holder, key, original)

    return counts, undo


def self_times(records):
    """{span_id: self seconds}: duration minus that of direct children.

    Children of one span never overlap: within a process they come from
    one call stack, and CLI child processes run one at a time.
    """
    child_total = {}
    for rec in records:
        if rec[1] is not None:
            child_total[rec[1]] = (child_total.get(rec[1], 0.0)
                                   + rec[5] - rec[4])
    return {rec[0]: rec[5] - rec[4] - child_total.get(rec[0], 0.0)
            for rec in records}


def aggregate(records):
    """{layer name: {"calls", "self_s", <summed extras>}} for one pass."""
    selfs = self_times(records)
    out = {}
    for rec in records:
        name = rec[3]
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[rec[0]]
        for key, value in (rec[6] or {}).items():
            row[key] = row.get(key, 0) + value
    return out
