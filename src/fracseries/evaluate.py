"""Numeric evaluation of series solutions, error tables, and export.

Each call compiles the solution once for its parameter binding: every
coefficient becomes a float table (per exponential term, the polynomial
coefficients in Horner order and the frequency). A table is evaluated one x
row at a time: the coefficients once per x of the grid, t^(k*alpha) once per
t as exp(k*alpha*ln t), with t = 0 short-circuited, and Gamma(1+k*alpha)
once per k via gamma_real. A grid point is then a K-term sum of
term * t^(k*alpha) / Gamma(1+k*alpha), over the nonzero terms in ascending k.
Where either factor leaves the double range, that term's weight is
exp(k*alpha*ln t - lgamma(1+k*alpha)) instead, so a value that fits in a
double is returned even at high order; a NaN or infinite total is an
EvalError. Error tables compare against a reference, the problem's closed
form in x and t, when one is given; each point's sum is checked before its
reference, and the reference before its abs_error, so a table fails at its
first failing point in grid order. Each row's fields are filled from one
dict (_row), not through the frozen dataclass __init__, which sets each
field with object.__setattr__.

A csv or json table prints each distinct nonzero x and t once and reuses
the text. A json row is laid out with one % template from json's text for
each float, as json.dumps(..., indent=2) would write it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .errors import EvalError
from .expr import eval_float_terms
from .gammafn import gamma_real
from .problems import ExactSolution
from .solver import SeriesSolution, mittag_leffler_form


@dataclass(frozen=True)
class EvalGrid:
    """Cartesian evaluation grid."""

    xs: tuple[float, ...]
    ts: tuple[float, ...]
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        ts = tuple(float(v) for v in self.ts)
        if not xs or not ts:
            raise EvalError("evaluation grid must be nonempty")
        for v in xs + ts:
            if not math.isfinite(v):
                raise EvalError("grid values must be finite")
        if any(t < 0 for t in ts):
            raise EvalError("t values must be >= 0")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ts", ts)


class _Compiled:
    """One solution under one parameter binding, as float tables."""

    def __init__(self, sol: SeriesSolution, params: Optional[Mapping[str, float]]):
        self.bind = sol.problem.param_floats(params)
        self.tables = [e.float_terms(self.bind) for e in sol.coeffs]
        # int true division rounds once, as float() of the Fraction k*alpha does
        a = sol.problem.alpha
        self.kas = [k * a.numerator / a.denominator for k in range(len(sol.coeffs))]
        self.gammas = []
        for ka in self.kas:
            try:
                self.gammas.append(gamma_real(1.0 + ka))
            except OverflowError:
                self.gammas.append(math.inf)

    def values(self, x: float) -> list[tuple[int, float]]:
        """(k, coefficient k at x) for the coefficients that are not 0.0."""
        out = []
        for k, table in enumerate(self.tables):
            total = eval_float_terms(table, x)
            if total != 0.0:
                out.append((k, total))
        return out

    def weights(self, t: float) -> list[tuple[float, float]]:
        """Per k, (p, d) such that term * p / d is the term's share at t."""
        out = []
        lt = math.log(t) if t != 0.0 else 0.0
        for ka, g in zip(self.kas, self.gammas):
            if t == 0.0:
                tp = 1.0 if ka == 0 else 0.0
            else:
                try:
                    tp = math.exp(ka * lt)
                except OverflowError:
                    tp = math.inf
            if (tp == math.inf or g == math.inf) and tp != 0.0:
                # a factor leaves the double range: weight in log space
                try:
                    tp = math.exp(ka * lt - math.lgamma(1.0 + ka))
                except OverflowError:
                    tp = math.inf
                g = 1.0
            out.append((tp, g))
        return out

    def grid(self, xs: tuple[float, ...], ts: tuple[float, ...]):
        """Yield (x, t, value) x outer, t inner, one point at a time, so a
        caller that checks each value before asking for the next meets
        failures in grid order. Weights are made once per t, values once per x."""
        ws = [self.weights(t) for t in ts]
        for x in xs:
            vals = self.values(x)
            for t, w in zip(ts, ws):
                total = 0.0
                for k, term in vals:
                    tp, g = w[k]
                    total += term * tp / g
                if not math.isfinite(total):
                    raise EvalError(f"evaluation produced {total} at x={x}, t={t}")
                yield x, t, total


def eval_solution(
    sol: SeriesSolution,
    x: float,
    t: float,
    params: Optional[Mapping[str, float]] = None,
) -> float:
    """Value of the truncated series at one point."""
    if t < 0:
        raise EvalError("t must be >= 0")
    return next(_Compiled(sol, params).grid((x,), (t,)))[2]


# -- error tables -----------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    x: float
    t: float
    approx: float
    reference: Optional[float] = None
    error: Optional[float] = None


def _row(x, t, approx, reference=None, error=None) -> TableRow:
    """TableRow(x, t, approx, reference, error), its fields filled from one dict
    rather than one object.__setattr__ each, as the frozen __init__ does."""
    row = object.__new__(TableRow)
    row.__dict__.update({"x": x, "t": t, "approx": approx, "reference": reference,
                         "error": error})
    return row


@dataclass(frozen=True)
class ErrorTable:
    problem: str
    order: int
    alpha: str  # the exact rational, as printed
    rows: tuple[TableRow, ...]
    has_reference: bool
    reference_desc: Optional[str] = None

    def max_error(self) -> Optional[float]:
        if not self.has_reference or not self.rows:
            return None
        return max(r.error for r in self.rows)


def error_table(
    sol: SeriesSolution,
    reference: Optional[ExactSolution],
    grid: EvalGrid,
) -> ErrorTable:
    """Evaluate on the grid and compare against the reference, if any."""
    compiled = _Compiled(sol, grid.params)
    points = compiled.grid(grid.xs, grid.ts)
    if reference is None:
        rows = [_row(xv, tv, approx) for xv, tv, approx in points]
    else:
        ref, bind = reference.eval, compiled.bind
        rows = []
        for xv, tv, approx in points:
            refv = ref(xv, tv, bind)
            err = abs(approx - refv)
            if err == math.inf:  # two finite doubles overflow only to +inf
                raise EvalError(f"abs_error of {approx} and reference {refv} "
                                f"overflows at x={xv}, t={tv}")
            rows.append(_row(xv, tv, approx, refv, err))
    return ErrorTable(
        problem=sol.problem.name,
        order=sol.order,
        alpha=str(sol.problem.alpha),
        rows=tuple(rows),
        has_reference=reference is not None,
        reference_desc=None if reference is None else reference.to_source(),
    )


# -- export -----------------------------------------------------------------------

def _table_columns(table: ErrorTable) -> list[str]:
    cols = ["x", "t", "approx"]
    if table.has_reference:
        cols += ["reference", "abs_error"]
    return cols


def _row_values(row: TableRow, has_reference: bool) -> tuple[float, ...]:
    if has_reference:
        return row.x, row.t, row.approx, row.reference, row.error
    return row.x, row.t, row.approx


def _json_number(v) -> str:
    """The text json writes for float(v)."""
    v = float(v)
    if math.isfinite(v):
        return float.__repr__(v)
    return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"


class _Cells(dict):
    """Grid values by value, each printed by `text` once. A zero is printed
    every time and never kept: 0.0 == -0.0, but they print differently."""

    def __init__(self, text):
        super().__init__()
        self.text = text

    def __missing__(self, v) -> str:
        s = self.text(v)
        if v:
            self[v] = s
        return s


def _export_table(table: ErrorTable, fmt: str) -> str:
    cols = _table_columns(table)
    if fmt == "csv":
        # one % per row; "%.17g" % v is format(float(v), ".17g"). A grid repeats
        # each x and t, so each is formatted once per table
        cells = _Cells("%.17g".__mod__)
        row = "%s,%s" + ",%.17g" * (len(cols) - 2)
        lines = [",".join(cols)]
        if table.has_reference:
            lines += [row % (cells[r.x], cells[r.t], r.approx, r.reference, r.error)
                      for r in table.rows]
        else:
            lines += [row % (cells[r.x], cells[r.t], r.approx) for r in table.rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        head = json.dumps({
            "problem": table.problem,
            "order": table.order,
            "alpha": table.alpha,
            "reference": table.reference_desc,
            "columns": cols,
        }, indent=2)
        # laid out as indent=2 would, one % per row; float repr round-trips
        # every double. A grid repeats each x and t, so each is written once
        # per table
        cells, num = _Cells(_json_number), _json_number
        row = "    [\n      %s,\n      %s" + ",\n      %s" * (len(cols) - 2) + "\n    ]"
        if table.has_reference:
            rows = [row % (cells[r.x], cells[r.t], num(r.approx), num(r.reference),
                           num(r.error)) for r in table.rows]
        else:
            rows = [row % (cells[r.x], cells[r.t], num(r.approx)) for r in table.rows]
        rows = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        return head[:-2] + ',\n  "rows": ' + rows + "\n}\n"
    if fmt == "pretty":
        head = (
            f"problem: {table.problem}   order K = {table.order}   "
            f"alpha = {table.alpha}"
        )
        if table.reference_desc:
            head += f"   reference: {table.reference_desc}"
        cells = [cols] + [
            [_short(v) for v in _row_values(r, table.has_reference)]
            for r in table.rows
        ]
        widths = [max(len(row[i]) for row in cells) for i in range(len(cols))]
        lines = [head, ""]
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines) + "\n"
    raise EvalError(f"unknown export format '{fmt}'")


def _short(v: float) -> str:
    return format(float(v), ".6g")


def _export_coeffs(sol: SeriesSolution, fmt: str) -> str:
    if fmt == "csv":
        lines = ["k,coefficient"]
        for k, e in enumerate(sol.coeffs):
            src = e.to_source()
            if "," in src or '"' in src:
                src = '"' + src.replace('"', '""') + '"'
            lines.append(f"{k},{src}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "problem": sol.problem.name,
            "alpha": str(sol.problem.alpha),
            "order": sol.order,
            "coefficients": [e.to_source() for e in sol.coeffs],
            "closed_form": mittag_leffler_form(sol),
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "pretty":
        lines = [
            f"coeff[{k}](x) = {e.pretty()}" for k, e in enumerate(sol.coeffs)
        ]
        tag = mittag_leffler_form(sol)
        if tag:
            lines.append(f"closed form: {tag}")
        return "\n".join(lines) + "\n"
    raise EvalError(f"unknown export format '{fmt}'")


def export(obj: Union[ErrorTable, SeriesSolution], fmt: str = "pretty") -> str:
    """Serialize a table or a coefficient list; deterministic output."""
    if isinstance(obj, ErrorTable):
        return _export_table(obj, fmt)
    if isinstance(obj, SeriesSolution):
        return _export_coeffs(obj, fmt)
    raise EvalError(f"cannot export {type(obj).__name__}")


def read_table_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Inverse of the CSV table export (column names, float rows)."""
    import csv as _csv
    import io

    rows = list(_csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r]
    if not rows:
        raise EvalError("empty CSV")
    header, data = rows[0], rows[1:]
    return header, [[float(v) for v in r] for r in data]
