"""Span tracer for the traced benchmark run.

Wraps every public function of every ``netgames`` module, ``equilibrium.solve_linear``
included, and the ``numpy.linalg`` kernels the library calls.  The wrappers are
installed on each module attribute through which the library reaches a wrapped
function (``design.solve_ne_interior``, ``perturbation.solve_vi``,
``cli.design_solve`` ...), so calls between modules are traced too.  Nothing in
``src/`` is modified: the patches live only for the duration of ``installed()``
and are restored in ``finally``.

A span is ``[name, start, end, parent, op, failed, n, gflop]``.  Spans stay in
memory and are written out by the caller once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time

import numpy as np

LINALG = ("cond", "solve", "svd", "eigvalsh", "det", "lstsq")

NAME, START, END, PARENT, OP, FAILED, SIZE, GFLOP = range(8)


def _gflop(kernel: str, args, kwargs) -> float:
    """Floating-point operations of one LAPACK call, computed from array shapes.

    Dense double-precision textbook counts (Golub & Van Loan): these are
    computed, not measured, and ignore blocking and cache effects.
    """
    shape = np.shape(args[0])
    if len(shape) < 2:
        return 0.0
    batch = math.prod(shape[:-2])
    m, n = shape[-2], shape[-1]
    big, small = max(m, n), min(m, n)
    if kernel == "cond" or kernel == "lstsq" or (
            kernel == "svd" and not kwargs.get("compute_uv", True)):
        flops = 4.0 * big * small**2 - 4.0 * small**3 / 3.0  # singular values only
    elif kernel == "svd":
        flops = 4.0 * big**2 * small + 8.0 * big * small**2 + 9.0 * small**3
    elif kernel == "solve":
        rhs = np.shape(args[1])
        flops = 2.0 * n**3 / 3.0 + 2.0 * n * n * (1 if len(rhs) == 1 else rhs[-1])
    elif kernel == "eigvalsh":
        flops = 4.0 * n**3 / 3.0
    else:  # det
        flops = 2.0 * n**3 / 3.0
    return batch * flops * 1e-9


class Tracer:
    """Collects spans and per-call extras while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self.starts_requested = 0
        self.starts_converged = 0

    def _open(self, name, size=0, gflop=0.0) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op,
               False, size, gflop]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_id: int, kind: str):
        """Root span of one benchmark operation."""
        self.op = op_id
        rec = self._open("op:" + kind)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap_library(self, name, fn):
        signature = inspect.signature(fn) if name == "design.design_solve" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if signature is not None:
                # starts requested count even when the call raises NoSolutionFound
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.starts_requested += int(bound.arguments["starts"])
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                self._close(rec)
            if name == "cli.main" and out != 0:
                rec[FAILED] = True
            elif signature is not None:
                self.starts_converged += out.converged_starts
            return out

        return wrapper

    def _wrap_linalg(self, kernel, fn):
        name = "linalg." + kernel

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("netgames"):
                return fn(*args, **kwargs)
            rec = self._open(name, np.shape(args[0])[-1], _gflop(kernel, args, kwargs))
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                self._close(rec)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the library and ``numpy.linalg``; restore everything on exit."""
        modules = {k: m for k, m in sys.modules.items()
                   if m is not None and (k == "netgames" or k.startswith("netgames."))}
        originals = {}
        for mod_name, mod in modules.items():
            if mod_name == "netgames":
                continue
            short = mod_name[len("netgames."):]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod_name
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    originals[obj] = self._wrap_library(f"{short}.{attr}", obj)
        patches = []
        try:
            for mod in modules.values():
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in originals:
                        patches.append((mod, attr, obj))
                        setattr(mod, attr, originals[obj])
            for kernel in LINALG:
                fn = getattr(np.linalg, kernel)
                patches.append((np.linalg, kernel, fn))
                setattr(np.linalg, kernel, self._wrap_linalg(kernel, fn))
            yield self
        finally:
            for owner, attr, obj in reversed(patches):
                setattr(owner, attr, obj)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "op": rec[OP], "failed": rec[FAILED],
                    "n": rec[SIZE], "gflop": rec[GFLOP],
                }) + "\n")

    def _child_time(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        return child_time

    def aggregate(self) -> dict:
        """Per-name call counts, failures, self and total times, and computed GFLOP.

        Self time is a span's duration minus the time its direct children cover.
        Total time sums only the outermost span of a name, so a function that
        reaches itself again is not counted twice.
        """
        spans = self.spans
        child_time = self._child_time()
        stats: dict[str, dict] = {}
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            s = stats.setdefault(rec[NAME], {"calls": 0, "failed": 0, "self_s": 0.0,
                                             "total_s": 0.0, "gflop": 0.0})
            s["calls"] += 1
            s["failed"] += int(rec[FAILED])
            s["self_s"] += dur - child_time[i]
            s["gflop"] += rec[GFLOP]
            parent = rec[PARENT]
            while parent >= 0 and spans[parent][NAME] != rec[NAME]:
                parent = spans[parent][PARENT]
            if parent < 0:
                s["total_s"] += dur
        return stats

    def count_under(self, name: str, module_prefix: str) -> int:
        """Spans named ``name`` that run inside a span of ``module_prefix``."""
        spans = self.spans
        count = 0
        for rec in spans:
            if rec[NAME] != name:
                continue
            parent = rec[PARENT]
            while parent >= 0 and not spans[parent][NAME].startswith(module_prefix):
                parent = spans[parent][PARENT]
            count += parent >= 0
        return count

    def self_time_by_op(self) -> dict[int, float]:
        """Sum of the self times of every span in each op, in seconds."""
        child_time = self._child_time()
        by_op: dict[int, float] = {}
        for i, rec in enumerate(self.spans):
            by_op[rec[OP]] = by_op.get(rec[OP], 0.0) + rec[END] - rec[START] - child_time[i]
        return by_op

    def layer_share(self) -> dict:
        """Per op kind: share of op wall time spent inside each traced function or kernel."""
        wall, inside, kind_of = {}, {}, {}
        for rec in self.spans:
            dur = rec[END] - rec[START]
            if rec[PARENT] < 0:
                kind_of[rec[OP]] = rec[NAME][len("op:"):]
                wall[kind_of[rec[OP]]] = wall.get(kind_of[rec[OP]], 0.0) + dur
            else:
                key = (kind_of[rec[OP]], rec[NAME])
                inside[key] = inside.get(key, 0.0) + dur
        share = {}
        for (kind, name), s in sorted(inside.items()):
            share.setdefault(kind, {})[name] = round(s / wall[kind], 4)
        return share
