"""Per-layer tracing applied from outside the engine.

Each target names a layer function.  Module-level functions are wrapped in
their defining module and in every ``quadpic`` module (and the package
namespace) whose globals hold the same object, so calls between modules are
seen too.  Methods are wrapped on every ``quadpic`` class that defines them,
so the trace survives a class being split into several backends.  A target
that no longer exists is reported as absent; it never stops the run.

Spans (name, start, end, parent span, op id) and counts live in memory and
are written out at the end.  A layer's time is its self time: the span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

from quadpic import QuadPicError

# (metric prefix, module, attribute, kind): kind "func" wraps a module-level
# function, kind "method" wraps the named method on every class that has it.
TARGETS = (
    ("fields.build", "quadpic.fields", "real_lattice", "func"),
    ("fields.declared_load", "quadpic.fields", "declared_lattice_from_data", "func"),
    ("fields.witt", "quadpic.fields", "witt_index", "method"),
    ("fields.point", "quadpic.fields", "has_rational_point", "method"),
    ("fields.tokens", "quadpic.fields", "extension_tokens", "method"),
    ("fields.validate", "quadpic.fields", "validate", "method"),
    ("fields.stably_birational", "quadpic.fields", "stably_birational", "method"),
    ("fields.add_extension", "quadpic.fields", "add_extension", "method"),
    ("twists.phi_affine", "quadpic.twists", "phi_affine", "func"),
    ("twists.phi_det", "quadpic.twists", "phi_det", "func"),
    ("twists.split_sum", "quadpic.twists", "split_quadric_sum", "func"),
    ("tower.active_index", "quadpic.tower", "active_index", "func"),
    ("decomp.canonical_class", "quadpic.decomp", "canonical_class", "func"),
    ("decomp.decompose", "quadpic.decomp", "decompose_real", "func"),
    ("decomp.class_vector", "quadpic.decomp", "class_vector", "func"),
    ("pic.det", "quadpic.pic", "det", "func"),
    ("pic.det_vector", "quadpic.pic", "det_vector", "method"),
    ("pic.fingerprint", "quadpic.pic", "fingerprint", "method"),
    ("pic.value_at", "quadpic.pic", "value_at", "method"),
    ("pic.equality", "quadpic.pic", "equality", "method"),
    ("pic.relations", "quadpic.pic", "relations_check", "func"),
    ("pic.equiv", "quadpic.pic", "motivically_equivalent", "func"),
    ("pic.basis", "quadpic.pic", "basis_real", "func"),
    ("pic.independent", "quadpic.pic", "independent", "func"),
    ("cli.main", "quadpic.cli", "main", "func"),
)

# Every per-layer metric the traced run reports, with its unit.
METRICS = {
    "fields.build_s": "s",
    "fields.extensions": "count",
    "fields.witt_calls": "count",
    "fields.witt_s": "s",
    "fields.witt_useful_ratio": "1",
    "fields.point_calls": "count",
    "fields.point_s": "s",
    "fields.tokens_calls": "count",
    "fields.tokens_sorted": "count",
    "fields.validate_s": "s",
    "fields.validate_cells": "count",
    "fields.declared_load_s": "s",
    "fields.stably_birational_calls": "count",
    "fields.stably_birational_s": "s",
    "fields.nodes_added": "count",
    "twists.phi_affine_calls": "count",
    "twists.phi_affine_s": "s",
    "twists.phi_det_calls": "count",
    "twists.phi_det_s": "s",
    "twists.split_sum_terms": "count",
    "tower.active_index_calls": "count",
    "tower.active_index_s": "s",
    "tower.slots_probed": "count",
    "decomp.canonical_class_calls": "count",
    "decomp.canonical_class_s": "s",
    "decomp.decompose_s": "s",
    "decomp.class_vector_calls": "count",
    "decomp.class_vector_s": "s",
    "pic.det_s": "s",
    "pic.det_vector_s": "s",
    "pic.fingerprint_s": "s",
    "pic.value_at_calls": "count",
    "pic.value_at_s": "s",
    "pic.equality_s": "s",
    "pic.relations_s": "s",
    "pic.equiv_s": "s",
    "pic.basis_s": "s",
    "pic.independent_s": "s",
    "cli.requests": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "1",
}

# Spans kept for the trace file; later spans are counted but not stored.
SPAN_CAP = 200_000


class Tracer:
    """Wraps the layer functions and accumulates spans, counts and self times."""

    def __init__(self):
        self.enabled = False
        self.in_round = False
        self.op = -1
        self.absent: list[str] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.witt_pairs: set = set()
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._next_id = 0
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        self.absent = []
        for module_name in sorted({t[1] for t in TARGETS}):
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "quadpic" or name.startswith("quadpic.")]
        for prefix, module_name, attr, kind in TARGETS:
            if kind == "func":
                found = self._wrap_function(prefix, module_name, attr, modules)
            else:
                found = self._wrap_method(prefix, attr, modules)
            if not found:
                self.absent.append(f"{module_name}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_function(self, prefix, module_name, attr, modules) -> bool:
        home = sys.modules.get(module_name)
        target = getattr(home, attr, None) if home is not None else None
        if not inspect.isfunction(target):
            return False
        wrapper = self._wrapper(prefix, target)
        for module in modules:
            if getattr(module, attr, None) is target:
                self._undo.append((module, attr, target))
                setattr(module, attr, wrapper)
        return True

    def _wrap_method(self, prefix, attr, modules) -> bool:
        found = False
        seen = set()
        for module in modules:
            for cls in vars(module).values():
                if not inspect.isclass(cls) or cls in seen:
                    continue
                seen.add(cls)
                if not (cls.__module__ or "").startswith("quadpic"):
                    continue
                original = cls.__dict__.get(attr)
                if not inspect.isfunction(original):
                    continue
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrapper(prefix, original))
                found = True
        return found

    # ------------------------------------------------------------ wrapper

    def _wrapper(self, prefix, fn):
        tracer = self
        before = _BEFORE.get(prefix)
        after = _AFTER.get(prefix)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[prefix] += 1
            if before is not None:
                with tracer.quiet():
                    before(tracer, args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [prefix, span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[prefix] += duration - frame[2]
                tracer.total_s[prefix] += duration
                if parent is not None:
                    parent[2] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((
                        prefix, span_id, parent[1] if parent else None,
                        tracer.op, start, end,
                    ))
                else:
                    tracer.spans_dropped += 1
            if after is not None:
                with tracer.quiet():
                    after(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", prefix)
        return traced

    @contextlib.contextmanager
    def quiet(self):
        """Calls made by the tracer itself are neither timed nor counted."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    # ------------------------------------------------------------ results

    def snapshot(self) -> dict:
        """Cumulative counters, to be differenced across a phase."""
        return {
            "calls": Counter(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": Counter(self.counts),
        }

    def end_round(self) -> float:
        """Useful-oracle ratio of the round just ended; resets its pair set."""
        calls = self.counts.pop("witt_real_round", 0)
        ratio = len(self.witt_pairs) / calls if calls else 0.0
        self.witt_pairs.clear()
        return ratio


def _token(extension):
    return getattr(extension, "token", extension)


def _witt_before(tracer, args, kwargs):
    model, form = args[0], args[1] if len(args) > 1 else kwargs.get("q")
    extension = args[2] if len(args) > 2 else kwargs.get("extension")
    try:
        level = model.level(_token(extension))
    except (AttributeError, QuadPicError):  # declared backend: no levels
        return
    tracer.counts["witt_real_round"] += 1
    tracer.witt_pairs.add((form.key, level))


def _split_before(tracer, args, kwargs):
    j = args[1] if len(args) > 1 else kwargs.get("j", 0)
    tracer.counts["split_sum_terms"] += int(j)


def _point_before(tracer, args, kwargs):
    stack = tracer._stack
    if stack and stack[-1][0] == "tower.active_index":
        tracer.counts["slots_probed"] += 1


def _add_extension_before(tracer, args, kwargs):
    if not tracer.in_round:
        return
    model, ext = args[0], args[1] if len(args) > 1 else kwargs.get("ext")
    try:
        model.extension(ext.token)
    except QuadPicError:  # unknown so far: this call adds it
        tracer.counts["nodes_added"] += 1


def _validate_before(tracer, args, kwargs):
    model = args[0]
    tracer.counts["validate_cells"] += len(model.form_keys()) * len(model.extension_tokens())


def _tokens_after(tracer, result):
    tracer.counts["tokens_sorted"] += len(result)


def _lattice_after(tracer, result):
    tracer.counts["extensions"] += len(result.extension_tokens())


_BEFORE = {
    "fields.witt": _witt_before,
    "fields.point": _point_before,
    "fields.add_extension": _add_extension_before,
    "fields.validate": _validate_before,
    "twists.split_sum": _split_before,
}

_AFTER = {
    "fields.tokens": _tokens_after,
    "fields.build": _lattice_after,
    "fields.declared_load": _lattice_after,
}


def layer_metrics(setup: dict, rounds: list[dict], ratios: list[float],
                  overhead: float) -> dict:
    """Per-layer metrics: the set-up once plus the mean of the traced rounds."""

    def per_round(kind, key):
        return sum(r[kind].get(key, 0) for r in rounds) / len(rounds) if rounds else 0

    def value(kind, key):
        return setup[kind].get(key, 0) + per_round(kind, key)

    out = {
        "fields.build_s": value("self_s", "fields.build"),
        "fields.extensions": value("counts", "extensions"),
        "fields.witt_calls": value("calls", "fields.witt"),
        "fields.witt_s": value("self_s", "fields.witt"),
        "fields.witt_useful_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
        "fields.point_calls": value("calls", "fields.point"),
        "fields.point_s": value("self_s", "fields.point"),
        "fields.tokens_calls": value("calls", "fields.tokens"),
        "fields.tokens_sorted": value("counts", "tokens_sorted"),
        "fields.validate_s": value("self_s", "fields.validate"),
        "fields.validate_cells": value("counts", "validate_cells"),
        "fields.declared_load_s": value("self_s", "fields.declared_load"),
        "fields.stably_birational_calls": value("calls", "fields.stably_birational"),
        "fields.stably_birational_s": value("self_s", "fields.stably_birational"),
        "fields.nodes_added": per_round("counts", "nodes_added"),
        "twists.phi_affine_calls": value("calls", "twists.phi_affine"),
        "twists.phi_affine_s": value("self_s", "twists.phi_affine"),
        "twists.phi_det_calls": value("calls", "twists.phi_det"),
        "twists.phi_det_s": value("self_s", "twists.phi_det"),
        "twists.split_sum_terms": value("counts", "split_sum_terms"),
        "tower.active_index_calls": value("calls", "tower.active_index"),
        "tower.active_index_s": value("self_s", "tower.active_index"),
        "tower.slots_probed": value("counts", "slots_probed"),
        "decomp.canonical_class_calls": value("calls", "decomp.canonical_class"),
        "decomp.canonical_class_s": value("self_s", "decomp.canonical_class"),
        "decomp.decompose_s": value("self_s", "decomp.decompose"),
        "decomp.class_vector_calls": value("calls", "decomp.class_vector"),
        "decomp.class_vector_s": value("self_s", "decomp.class_vector"),
        "pic.det_s": value("self_s", "pic.det"),
        "pic.det_vector_s": value("self_s", "pic.det_vector"),
        "pic.fingerprint_s": value("self_s", "pic.fingerprint"),
        "pic.value_at_calls": value("calls", "pic.value_at"),
        "pic.value_at_s": value("self_s", "pic.value_at"),
        "pic.equality_s": value("self_s", "pic.equality"),
        "pic.relations_s": value("self_s", "pic.relations"),
        "pic.equiv_s": value("self_s", "pic.equiv"),
        "pic.basis_s": value("self_s", "pic.basis"),
        "pic.independent_s": value("self_s", "pic.independent"),
        "cli.requests": value("calls", "cli.main"),
        "cli.main_s": value("total_s", "cli.main"),
        "cli.self_s": value("self_s", "cli.main"),
        "trace.overhead_ratio": overhead,
    }
    assert set(out) == set(METRICS)
    return out


def diff(after: dict, before: dict) -> dict:
    """Counters accumulated between two snapshots."""
    out = {}
    for kind in ("calls", "counts"):
        c = Counter(after[kind])
        c.subtract(before[kind])
        out[kind] = {k: v for k, v in c.items() if v}
    for kind in ("self_s", "total_s"):
        out[kind] = {k: v - before[kind].get(k, 0.0) for k, v in after[kind].items()}
    return out
