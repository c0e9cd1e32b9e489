"""Per-layer tracing by wrapping the package's public functions.

Each traced function is replaced, in every besseltau module that binds
it (``from .special import j_sigma`` copies the binding into ``kernel``
and ``nekrasov``), by a wrapper that records a span (name, start, end,
parent) in flat in-memory arrays.  Self time is a span's duration minus
its children's; counts of distinct tables and of mode-matrix entries
and determinant flops are noted from the call arguments.  The timed run
never installs these wrappers.
"""

import collections
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

#: module -> traced functions (``Class.method`` for methods)
LAYERS = {
    "special": ("j_sigma", "ln_gamma", "pochhammer"),
    "partitions": ("YoungDiagram.conjugate", "leg", "maya_from_young", "young_from_maya"),
    "nekrasov": (
        "z_dual_terms", "tau_series_terms", "z_inst_coefficients", "z_bif", "xi_delta",
        "check_lemma_identities", "quasi_periodicity_residual",
    ),
    "kernel": (
        "mode_matrix_a", "mode_matrix_d", "fredholm_det", "modes_by_quadrature",
        "bessel_kernel_J", "rank_one_residual",
    ),
    "tau": ("tau", "zeta_derivatives", "ode_residual"),
    "summation": ("CompensatedSum.add",),
}
#: CLI commands whose callbacks are traced; their self time is parsing,
#: validation and formatting
CLI_COMMANDS = ("tau", "series", "check")

#: per-layer metrics beyond calls and self time: name -> (unit, better)
EXTRA = {
    "nekrasov.table_distinct_frac": ("ratio", "higher"),
    "kernel.mode_matrix_a.distinct_frac": ("ratio", "higher"),
    "kernel.mode_entries": ("entries/item", "lower"),
    "kernel.det_flops": ("flop/item", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def span_names():
    names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    return names + [f"cli.{cmd}" for cmd in CLI_COMMANDS]


def metric_specs():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "calls/item", "lower"), (f"{name}.self_s", "s/item", "lower")]
    return out + [(name, unit, better) for name, (unit, better) in EXTRA.items()]


def _det_flops(size):
    # complex product A D, then LU: (1 + 2/3) size^3 complex multiply-adds
    # of 8 real flops each; computed from the size, not counted
    return 8 * size**3 * (1 + 2 / 3)


class Tracer:
    def __init__(self):
        self.names = span_names()
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id, self.parent = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self._stack = [-1]
        self.tables = collections.defaultdict(list)
        self.counts = collections.Counter()
        self._restore = []
        self.missing = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, note=None):
        nid = self._ids[name]
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end
        now = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = now()
                stack.pop()

        return wrapper

    def _noter(self, name, fn):
        """Argument hook counting tables, entries and flops, or None.

        A hook that cannot read the arguments it expects counts nothing
        rather than break the traced call.
        """
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            return None

        def bound(args, kwargs):
            try:
                return sig.bind(*args, **kwargs).arguments
            except TypeError:
                return None

        def key(p, *rest):
            return (p.nu, p.eta, *rest)

        if name in ("nekrasov.tau_series_terms", "nekrasov.z_dual_terms"):
            def note(args, kwargs):
                a = bound(args, kwargs)
                if a and {"params", "trunc"} <= a.keys():
                    t = a["trunc"]
                    self.tables["nekrasov.table_distinct_frac"].append(
                        key(a["params"], name, t.weight_cutoff, t.charge_cutoff)
                    )
        elif name in ("kernel.mode_matrix_a", "kernel.mode_matrix_d"):
            def note(args, kwargs):
                a = bound(args, kwargs)
                if a and {"params", "n"} <= a.keys():
                    self.counts["kernel.mode_entries"] += (2 * a["n"]) ** 2
                    if name == "kernel.mode_matrix_a":
                        self.tables["kernel.mode_matrix_a.distinct_frac"].append(
                            key(a["params"], a["n"], repr(a.get("branch_sign")))
                        )
        elif name == "kernel.fredholm_det":
            def note(args, kwargs):
                a = bound(args, kwargs)
                if a and "modes" in a:
                    self.counts["kernel.det_flops"] += _det_flops(2 * a["modes"].n)
        else:
            return None
        return note

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever a besseltau module binds it."""
        mods = [m for n, m in list(sys.modules.items()) if n == "besseltau" or n.startswith("besseltau.")]
        for modname, fns in LAYERS.items():
            try:
                home = importlib.import_module(f"besseltau.{modname}")
            except ImportError:
                self.missing += [f"{modname}.{fn}" for fn in fns]
                continue
            for fn_name in fns:
                name = f"{modname}.{fn_name}"
                owner, _, attr = fn_name.rpartition(".")
                holder = getattr(home, owner, None) if owner else home
                orig = getattr(holder, attr, None) if holder is not None else None
                if orig is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, orig, self._noter(name, orig))
                if owner:
                    self._patch(holder, attr, wrapper)
                    continue
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapper)
        cli = importlib.import_module("besseltau.cli")
        for cmd in CLI_COMMANDS:
            command = cli.main.commands.get(cmd)
            if command is None:
                self.missing.append(f"cli.{cmd}")
                continue
            self._patch(command, "callback", self._wrap(f"cli.{cmd}", command.callback))

    def _patch(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self, items, overhead_frac):
        """Per-item calls and self time per span name, plus the extra counts."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = np.bincount(name_id, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name_id, minlength=len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / items
            out[f"{name}.self_s"] = self_time[i] / items
        for name in ("nekrasov.table_distinct_frac", "kernel.mode_matrix_a.distinct_frac"):
            keys = self.tables[name]
            # nothing built means nothing built twice
            out[name] = len(set(keys)) / len(keys) if keys else 1.0
        out["kernel.mode_entries"] = self.counts["kernel.mode_entries"] / items
        out["kernel.det_flops"] = self.counts["kernel.det_flops"] / items
        out["trace.overhead_frac"] = overhead_frac
        return out

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
