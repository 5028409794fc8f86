"""Span tracer that records the package's layer boundaries from outside it.

Nothing under ``src/`` is edited.  The tracer wraps two kinds of target:

* module-level functions, rebound in every package module that imported
  them (``from .evolution import _march`` makes a second binding);
* callable fields of objects built while tracing is installed (a form's
  ``stiffness_at``, a nonlinearity's or a nonlocal condition's ``eval``),
  by wrapping the dataclass ``__init__``.

A span is ``[name, start, end, parent, command]``; spans live in memory and
are written out by :meth:`Tracer.dump` when the run ends.  A layer's self
time is its span's duration minus the durations of its child spans.  A
target that no longer exists marks its metric missing instead of failing, so
refactors that merge or rename functions degrade the breakdown, not the run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

PACKAGE = "parabolic_nonlocal"

# (span name, module, function): every call is a span.
FUNCTION_SPANS = (
    ("cli.run", "cli", "run"),
    ("cli.output", "cli", "write_report"),
    ("cli.output", "evolution", "trajectory_to_csv"),
    ("models.assemble", "models", "divergence_form_assemble"),
    ("models.preset", "models", "preset_heat_timevarying"),
    ("models.preset", "models", "preset_evi"),
    ("evolution.propagator", "evolution", "build_propagator"),
    ("evolution.march", "evolution", "_march"),
    ("evolution.trajectory", "evolution", "make_trajectory"),
    ("nonlinearity.superposition", "nonlinearity", "apply_superposition"),
    ("nonlinearity.evi_residual", "nonlinearity", "evi_residual"),
    ("nonlinearity.transversality", "nonlinearity", "scan_transversality"),
    ("nonlocal_solver.solve", "nonlocal_solver", "solve_nonlocal"),
    ("nonlocal_solver.g_star", "nonlocal_solver", "estimate_g_star"),
    ("nonlocal_solver.audit", "nonlocal_solver", "audit_problem"),
    ("nonlocal_solver.audit", "nonlocal_solver", "audit_g_bound"),
)

# (counter name, module, function): calls are counted, no span.
FUNCTION_COUNTS = (
    ("nonlocal_solver.stage", "nonlocal_solver", "_light_s_apply"),
)

def _stage_maps(report) -> int:
    return sum(int(n) for _, n, _ in report.lambda_path)


# (counter name, module, function, extractor): the extractor turns each
# returned value into a count.
RESULT_COUNTS = (
    ("stage_maps", "nonlocal_solver", "solve_nonlocal", _stage_maps),
)

# (name, module, class, field, with span): the field callable of every
# instance built while installed.  Only the outermost call of a name counts:
# a condition composed with another (as ``exp_shift`` builds) is one call.
FIELD_TARGETS = (
    ("galerkin.stiffness", "galerkin", "TimeForm", "stiffness_at", True),
    ("nonlocal_solver.g_eval", "nonlocal_solver", "NonlocalCondition", "eval", True),
    ("nonlinearity.f", "nonlinearity", "Nonlinearity", "eval", False),
)

# per-layer metric -> ("self", span name) | ("spans", span name) | ("count", counter)
LAYER_METRICS = {
    "stage_maps": ("count", "stage_maps"),
    "cli.run_s": ("self", "cli.run"),
    "cli.output_s": ("self", "cli.output"),
    "models.assemble_s": ("self", "models.assemble"),
    "models.preset_s": ("self", "models.preset"),
    "galerkin.stiffness_evals": ("spans", "galerkin.stiffness"),
    "galerkin.stiffness_s": ("self", "galerkin.stiffness"),
    "evolution.propagator_builds": ("spans", "evolution.propagator"),
    "evolution.propagator_s": ("self", "evolution.propagator"),
    "evolution.march_s": ("self", "evolution.march"),
    "evolution.trajectory_calls": ("spans", "evolution.trajectory"),
    "evolution.trajectory_s": ("self", "evolution.trajectory"),
    "nonlinearity.f_evals": ("count", "nonlinearity.f"),
    "nonlinearity.superposition_s": ("self", "nonlinearity.superposition"),
    "nonlinearity.evi_residual_s": ("self", "nonlinearity.evi_residual"),
    "nonlinearity.transversality_s": ("self", "nonlinearity.transversality"),
    "nonlocal_solver.solve_s": ("self", "nonlocal_solver.solve"),
    "nonlocal_solver.stages": ("count", "nonlocal_solver.stage"),
    "nonlocal_solver.g_evals": ("spans", "nonlocal_solver.g_eval"),
    "nonlocal_solver.g_eval_s": ("self", "nonlocal_solver.g_eval"),
    "nonlocal_solver.g_star_s": ("self", "nonlocal_solver.g_star"),
    "nonlocal_solver.audit_s": ("self", "nonlocal_solver.audit"),
}

COUNT_METRICS = tuple(k for k, (kind, _) in LAYER_METRICS.items() if kind != "self")


class Tracer:
    """Records spans and counts for one benchmark process.

    ``install`` patches the targets, ``uninstall`` restores them; wrappers
    left on objects that outlive the installation call straight through.
    """

    def __init__(self, function_spans=FUNCTION_SPANS, function_counts=FUNCTION_COUNTS,
                 result_counts=RESULT_COUNTS, field_targets=FIELD_TARGETS):
        self.function_spans = function_spans
        self.function_counts = function_counts
        self.result_counts = result_counts
        self.field_targets = field_targets
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.missing: dict[str, str] = {}
        self.command = -1
        self.active = False
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, module, attr in self.function_spans:
            self._patch_function(name, module, attr, self._span_wrapper)
        for name, module, attr in self.function_counts:
            self._patch_function(name, module, attr, self._count_wrapper)
        for name, module, attr, extract in self.result_counts:
            self._patch_function(name, module, attr,
                                 lambda n, fn, _x=extract: self._result_wrapper(n, fn, _x))
        for name, module, cls_name, fld, with_span in self.field_targets:
            self._patch_field(name, module, cls_name, fld, with_span)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _module(self, module: str):
        return sys.modules.get(f"{PACKAGE}.{module}")

    def _patch_function(self, name, module, attr, make_wrapper) -> None:
        mod = self._module(module)
        original = getattr(mod, attr, None) if mod is not None else None
        if not callable(original):
            self.missing[name] = f"{module}.{attr} not found"
            return
        wrapper = make_wrapper(name, original)
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, key, value))
                    setattr(other, key, wrapper)

    def _patch_field(self, name, module, cls_name, fld, with_span) -> None:
        mod = self._module(module)
        cls = getattr(mod, cls_name, None) if mod is not None else None
        if not (dataclasses.is_dataclass(cls)
                and fld in {f.name for f in dataclasses.fields(cls)}):
            self.missing[name] = f"{module}.{cls_name}.{fld} not found"
            return
        make = self._span_wrapper if with_span else self._count_wrapper
        original_init = cls.__init__
        tracer = self

        def init(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            fn = getattr(obj, fld)
            if tracer.active and callable(fn) and not getattr(fn, "_perfbench", False):
                object.__setattr__(obj, fld, make(name, fn, outermost=True))

        self._restore.append((cls, "__init__", original_init))
        cls.__init__ = init

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn, outermost=False):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active or (outermost and depth.get(name)):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.command])
            stack.append(idx)
            depth[name] = depth.get(name, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[name] -= 1
                stack.pop()
                spans[idx][2] = clock()

        wrapper._perfbench = True
        return wrapper

    def _count_wrapper(self, name, fn, outermost=False):
        counts, depth = self.counts, self._depth

        def wrapper(*args, **kwargs):
            if not self.active or (outermost and depth.get(name)):
                return fn(*args, **kwargs)
            key = (self.command, name)
            counts[key] = counts.get(key, 0) + 1
            depth[name] = depth.get(name, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[name] -= 1

        wrapper._perfbench = True
        return wrapper

    def _result_wrapper(self, name, fn, extract):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                try:
                    n = extract(result)
                except (AttributeError, TypeError, ValueError) as exc:
                    self.missing[name] = f"cannot count {name}: {exc!r}"
                else:
                    key = (self.command, name)
                    counts[key] = counts.get(key, 0) + n
            return result

        wrapper._perfbench = True
        return wrapper

    # -- results --------------------------------------------------------------

    def command_summary(self, command: int) -> dict:
        """Self time and span count per span name, counters, and the
        inclusive time of the command's root spans."""
        child = {}
        for name, start, end, parent, cmd in self.spans:
            if cmd == command and parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        self_s: dict[str, float] = {}
        n_spans: dict[str, int] = {}
        root_s = 0.0
        for idx, (name, start, end, parent, cmd) in enumerate(self.spans):
            if cmd != command:
                continue
            dur = end - start
            self_s[name] = self_s.get(name, 0.0) + dur - child.get(idx, 0.0)
            n_spans[name] = n_spans.get(name, 0) + 1
            if parent < 0:
                root_s += dur
        counts = {name: n for (cmd, name), n in self.counts.items() if cmd == command}
        return {"self_s": self_s, "spans": n_spans, "counts": counts, "root_s": root_s}

    def command_metrics(self, command: int) -> dict:
        """Every per-layer metric for one traced command; a metric whose
        target is missing is None."""
        summary = self.command_summary(command)
        out = {}
        for metric, (kind, source) in LAYER_METRICS.items():
            if source in self.missing:
                out[metric] = None
            elif kind == "self":
                out[metric] = summary["self_s"].get(source, 0.0)
            elif kind == "spans":
                out[metric] = summary["spans"].get(source, 0)
            else:
                out[metric] = summary["counts"].get(source, 0)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command"],
                       "missing": self.missing,
                       "counts": [[c, n, v] for (c, n), v in sorted(self.counts.items())],
                       "spans": self.spans}, fh, separators=(",", ":"))
