"""Spans around the library's public functions, recorded from outside.

The library carries no instrumentation of its own.  ``Tracer.install``
replaces each target function by a wrapper in every ``rumin_eta`` module
that bound it, so calls made through ``from ... import`` names are caught
as well as calls through the module attribute.  Each span records its
name, start, end, parent span and pass id; spans stay in memory and the
pass writes them out when it ends.

Self time is a span's duration minus the part of it covered by its
children, so the self times of all spans of a pass add up to the root
span, which covers the pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time

# module -> public functions wrapped in a traced pass.  Span names are
# "<module>.<function>"; run_criterion spans are named by criterion id
# ("verification.C6") and the CLI command by the harness ("cli").
TARGETS = {
    "serialize": ("render_json", "render_ndjson", "eta_record", "spectrum_csv"),
    "verification": ("run_suite", "run_criterion"),
    "nilmanifold": ("eta_nil", "eta_nil_neg_even", "eta_nil_special", "eta_direct_sum"),
    "tilde_eta": ("tilde_eta", "tilde_eta_direct", "tilde_eta_residue"),
    "specfun": ("eta_hurw", "polylog_circle", "im_polylog_even", "im_polylog_even_quad",
                "eta_hurw_deriv_neg_odd", "riemann_zeta", "riemann_zeta_regular"),
    "kernels": ("sin_power_sum", "sym_eigenvalues"),
    "rep_oracle": ("schrodinger_S", "generic_S", "hermitian_eigenvalues", "trusted_window"),
}
PACKAGE = "rumin_eta"
ROOT_SPAN = "bench.pass"
CLI_SPAN = "cli"


def _attr_criterion(args, kwargs):
    return args[0] if args else kwargs.get("cid")


def _attr_dim(args, kwargs):
    return int(args[0].shape[0])


def _attr_basis(args, kwargs):
    return int(args[0].dim) // 3


def _attr_terms(args, kwargs):
    return int(args[2])


# span name -> function of the call's arguments whose value the span keeps
_ATTRS = {
    "verification.run_criterion": _attr_criterion,
    "kernels.sym_eigenvalues": _attr_dim,
    "rep_oracle.hermitian_eigenvalues": _attr_basis,
    "kernels.sin_power_sum": _attr_terms,
}


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []  # [name, start, end, parent index, pass id, attr]
        self._stack = []
        self.wrapped = {}  # span name -> wrapper
        self.absent = []  # span names whose target is missing from the library

    def _open(self, name, attr):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id, attr])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, attr=None):
        """Record one span around a block."""
        idx = self._open(name, attr)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        """A wrapper of fn that records one span per call."""
        attr_of = _ATTRS.get(name)
        dynamic = name == "verification.run_criterion"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attr = attr_of(args, kwargs) if attr_of else None
            idx = self._open(f"verification.{attr}" if dynamic else name, attr)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        # keep lru_cache statistics reachable through the wrapper
        for extra in ("cache_info", "cache_clear"):
            if hasattr(fn, extra):
                setattr(wrapper, extra, getattr(fn, extra))
        return wrapper

    def install(self):
        """Wrap every target in every package module that bound it.

        Modules are resolved with importlib because the package attribute
        ``rumin_eta.tilde_eta`` is the re-exported function, not the module.
        A target that a later refactor removed is listed in ``absent``.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, functions in TARGETS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.extend(f"{mod_name}.{fn}" for fn in functions)
                continue
            for fn_name in functions:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, original)
                self.wrapped[name] = wrapper
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def cache_stats(self):
        """hits/misses of the wrapped lru_cache functions, by span name."""
        out = {}
        for name, wrapper in self.wrapped.items():
            if hasattr(wrapper, "cache_info"):
                info = wrapper.cache_info()
                out[name] = {"hits": info.hits, "misses": info.misses}
        return out


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    spans: sequence of (name, start, end, parent index, ...) rows, parent -1
    for a root.  Children are clipped to their parent's interval.
    """
    children = [[] for _ in spans]
    for row in spans:
        if row[3] >= 0:
            children[row[3]].append((row[1], row[2]))
    out = []
    for (name, start, end, *_), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(kids):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(spans):
    """Per-span-name and per-layer aggregates of one traced pass.

    Returns {"names": {name: {"calls", "self_s", "durations", "attrs"}}, "layers": {layer: self_s}, "pass_s": root duration}.
    """
    selfs = self_times(spans)
    names = {}
    layers = {}
    pass_s = 0.0
    for row, own in zip(spans, selfs):
        name, start, end, parent, _pass_id, attr = row
        entry = names.setdefault(
            name, {"calls": 0, "self_s": 0.0, "durations": [], "attrs": []})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["durations"].append(end - start)
        entry["attrs"].append(attr)
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + own
        if parent < 0:
            pass_s += end - start
    return {"names": names, "layers": layers, "pass_s": pass_s}
