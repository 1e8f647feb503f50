"""Span recorder for the traced benchmark run.

Wraps the public functions and methods of each fracseries layer, at every
place the package binds them (``from .gammafn import gamma_real`` makes
``evaluate.gamma_real`` and ``scalar.gamma_real`` separate bindings), and
records one span per call: name, start, end and parent, all sharing the
worker's run id.  Self time (span time minus the time covered by child
spans) and the layer counters are accumulated while the spans close; the
raw spans stay in flat arrays in memory and are written out once, by
``Tracer.write``, when the workload ends.

Nothing under ``src/`` knows about this module: the wrappers are installed
from outside after import, and removed by ``Tracer.uninstall``.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from array import array
from collections import defaultdict

# layer -> (module or "module:Class", member names).  Aliases such as
# Scalar.__radd__ = __add__ are found by identity and wrapped too.
LAYERS = {
    "dsl": [("fracseries.dsl", ["parse_problem_file", "parse_problem", "parse_expr",
                                "parse_rhs", "parse_exact"])],
    "scalar.arith": [("fracseries.scalar:Scalar", ["__add__", "__sub__", "__rsub__",
                                                   "__neg__", "__mul__", "__truediv__",
                                                   "__rtruediv__", "__pow__"])],
    "scalar.gamma": [("fracseries.scalar:Scalar", ["gamma"])],
    "scalar.eval": [("fracseries.scalar:Scalar", ["eval"])],
    "expr.arith": [("fracseries.expr:Expr", ["__mul__", "__add__", "scalar_mul",
                                             "diff_x", "scale_x"])],
    "expr.eval": [("fracseries.expr:Expr", ["eval"])],
    "expr.probe": [("fracseries.expr", ["probe_zero", "probe_equal"])],
    "series": [("fracseries.series:FracSeries", ["add", "sub", "neg", "mul", "pow",
                                                 "scalar_mul", "expr_mul", "dx",
                                                 "scale_args", "caputo_shift",
                                                 "truncate"]),
               ("fracseries.series", ["gamma_factor"])],
    "solver": [("fracseries.solver", ["solve", "solve_linear", "apply_rhs",
                                      "residual_series", "residual_orders",
                                      "mittag_leffler_form"])],
    "evaluate": [("fracseries.evaluate", ["eval_solution", "error_table", "export",
                                          "read_table_csv"])],
    "gammafn": [("fracseries.gammafn", ["gamma_real"])],
}

_SOLVE_STAGES = ("solver.solve", "solver.solve_linear")
_RESIDUAL_STAGES = ("solver.residual_orders", "solver.residual_series")


class Tracer:
    """Span store plus the per-layer accumulators computed from it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [span index, name id, time covered by children]
        self._stack: list[list] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        # top-level parse time, and solver self time by the stage it ran under
        self.stage_s = defaultdict(float)
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return i

    def _stage(self) -> str | None:
        """The solve or residual call that the current span runs under."""
        for frame in reversed(self._stack):
            name = self.names[frame[1]]
            if name in _SOLVE_STAGES:
                return "solve"
            if name in _RESIDUAL_STAGES:
                return "residual"
        return None

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        stack = self._stack
        clock = time.perf_counter
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        own_stage = ("solve" if name in _SOLVE_STAGES
                     else "residual" if name in _RESIDUAL_STAGES else None)

        def traced(*args, **kwargs):
            idx = len(self.span_name)
            parent = stack[-1] if stack else None
            if layer == "solver":
                stage = own_stage or self._stage()
            elif layer == "dsl" and (parent is None or self.layer_of[parent[1]] != "dsl"):
                stage = "parse"
            else:
                stage = None
            if before is not None:
                before(self, args, kwargs)
            self.span_name.append(nid)
            self.span_parent.append(parent[0] if parent else -1)
            self.span_start.append(clock())
            self.span_end.append(0.0)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            exc = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                self.span_end[idx] = end
                dur = end - self.span_start[idx]
                if parent is not None:
                    parent[2] += dur
                self.calls[nid] += 1
                self.total_s[nid] += dur
                self.self_s[nid] += dur - frame[2]
                if stage == "parse":
                    self.counts["parse_calls"] += 1
                    self.stage_s["parse"] += dur
                elif stage is not None:
                    self.stage_s[stage] += dur - frame[2]
                if after is not None:
                    after(self, args, kwargs, None if exc else result, exc)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------------------

    def install(self) -> "Tracer":
        import fracseries

        for info in pkgutil.iter_modules(fracseries.__path__):
            if info.name != "__main__":
                importlib.import_module(f"fracseries.{info.name}")
        modules = [m for n, m in sys.modules.items()
                   if n == "fracseries" or n.startswith("fracseries.")]
        for layer, targets in LAYERS.items():
            for where, members in targets:
                modname, _, clsname = where.partition(":")
                owner = importlib.import_module(modname)
                if clsname:
                    self._install_methods(getattr(owner, clsname), members, layer)
                else:
                    for member in members:
                        fn = getattr(owner, member)
                        name = f"{modname.rsplit('.', 1)[1]}.{member}"
                        wrapped = self._wrap(fn, name, layer)
                        for mod in modules:
                            for key, val in list(vars(mod).items()):
                                if val is fn:
                                    self._set(mod, key, val, wrapped)
        return self

    def _install_methods(self, cls, members, layer) -> None:
        for member in members:
            raw = cls.__dict__[member]
            name = f"{cls.__name__}.{member}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, layer))
            else:
                wrapped = self._wrap(raw, name, layer)
            for key, val in list(vars(cls).items()):
                if val is raw:
                    self._set(cls, key, val, wrapped)

    def _set(self, owner, key, old, new) -> None:
        self._undo.append((owner, key, old))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    # -- results -------------------------------------------------------------------

    def _sum(self, table, layers=None, names=None) -> float:
        out = 0
        for nid, v in table.items():
            if (layers is not None and self.layer_of[nid] in layers) or (
                names is not None and self.names[nid] in names
            ):
                out += v
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metric values named as in BENCHMARK.json (sizes excepted)."""
        c, s, t, k = self.calls, self.self_s, self.total_s, self.counts
        checked = k["residual_orders_checked"]
        produced = k["apply_rhs_produced"]
        return {
            "dsl.parse_calls": k["parse_calls"],
            "dsl.parse_s": self.stage_s["parse"],
            "scalar.arith_calls": self._sum(c, layers={"scalar.arith"}),
            "scalar.arith_self_s": self._sum(s, layers={"scalar.arith"}),
            "scalar.gamma_calls": self._sum(c, layers={"scalar.gamma"}),
            "scalar.eval_calls": self._sum(c, layers={"scalar.eval"}),
            "scalar.eval_self_s": self._sum(s, layers={"scalar.eval"}),
            "expr.arith_calls": self._sum(c, layers={"expr.arith"}),
            "expr.arith_self_s": self._sum(s, layers={"expr.arith"}),
            "expr.eval_calls": self._sum(c, layers={"expr.eval"}),
            "expr.eval_self_s": self._sum(s, layers={"expr.eval"}),
            "expr.probe_calls": self._sum(c, layers={"expr.probe"}),
            "series.mul_calls": self._sum(c, names={"FracSeries.mul"}),
            "series.mul_pairs": k["mul_pairs"],
            "series.self_s": self._sum(s, layers={"series"}),
            "series.gamma_factor_calls": self._sum(c, names={"series.gamma_factor"}),
            "solver.apply_rhs_calls": self._sum(c, names={"solver.apply_rhs"}),
            "solver.useful_coeff_ratio": k["solve_steps"] / produced if produced else 1.0,
            "solver.solve_self_s": self.stage_s["solve"],
            "solver.residual_self_s": self.stage_s["residual"],
            "solver.exact_verdict_ratio": (
                (checked - k["residual_probes"]) / checked if checked else 1.0
            ),
            "evaluate.points": k["eval_points"],
            "evaluate.self_s": self._sum(s, layers={"evaluate"}),
            "evaluate.export_s": self._sum(t, names={"evaluate.export"}),
            "evaluate.overflow_failures": k["overflow_failures"],
            "gammafn.calls": self._sum(c, layers={"gammafn"}),
            "gammafn.self_s": self._sum(s, layers={"gammafn"}),
        }

    def write(self, path) -> int:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "layers": self.layer_of,
            "spans": len(self.span_name),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        return len(self.span_name)


# -- counters taken at the layer boundaries -----------------------------------------

def _before_mul(tr: Tracer, args, kwargs) -> None:
    a, b = args[0], args[1]
    kmax = args[2] if len(args) > 2 else kwargs["kmax"]
    jdx = [j for j, _ in b.coeffs]
    tr.counts["mul_pairs"] += sum(
        1 for i, _ in a.coeffs if i <= kmax for j in jdx if i + j <= kmax
    )


def _after_apply_rhs(tr: Tracer, args, kwargs, result, exc) -> None:
    if result is not None and tr._stage() == "solve":
        tr.counts["solve_steps"] += 1
        tr.counts["apply_rhs_produced"] += result.trunc + 1


def _after_probe(tr: Tracer, args, kwargs, result, exc) -> None:
    if tr._stack and tr.names[tr._stack[-1][1]] == "solver.residual_orders":
        tr.counts["residual_probes"] += 1


def _after_residual_orders(tr: Tracer, args, kwargs, result, exc) -> None:
    if result is not None:
        tr.counts["residual_orders_checked"] += len(result)


def _after_eval(tr: Tracer, args, kwargs, result, exc) -> None:
    if exc is None:
        tr.counts["eval_points"] += 1
    elif "overflow" in str(exc):
        tr.counts["overflow_failures"] += 1


_BEFORE = {"FracSeries.mul": _before_mul}
_AFTER = {
    "solver.apply_rhs": _after_apply_rhs,
    "expr.probe_zero": _after_probe,
    "solver.residual_orders": _after_residual_orders,
    "evaluate.eval_solution": _after_eval,
}
