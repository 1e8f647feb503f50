"""Numeric evaluation of series solutions, error tables, and export.

Each call compiles the solution once for its parameter binding: every
coefficient becomes a float table (per exponential term, the polynomial
coefficients in Horner order and the frequency), evaluated once per distinct
x; t^(k*alpha) is computed once per distinct t as exp(k*alpha*ln t), with
t = 0 short-circuited, and Gamma(1+k*alpha) once per k via gamma_real. A
grid point is then a K-term sum of term * t^(k*alpha) / Gamma(1+k*alpha).
Where either factor leaves the double range, that term's weight is
exp(k*alpha*ln t - lgamma(1+k*alpha)) instead, so a value that fits in a
double is returned even at high order; a NaN or infinite total is an
EvalError. Error tables compare against a reference, the problem's closed
form in x and t, when one is given.
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

    def points(self):
        for xv in self.xs:
            for tv in self.ts:
                yield xv, tv


class _Compiled:
    """One solution under one parameter binding, as float tables.

    Coefficient values are kept per distinct x and time weights per distinct
    t, for the lifetime of one call only.
    """

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
        self._values: dict[float, list[tuple[int, float]]] = {}
        self._weights: dict[float, list[tuple[float, float]]] = {}

    def values(self, x: float) -> list[tuple[int, float]]:
        """(k, coefficient k at x) for the coefficients that are not 0.0."""
        out = self._values.get(x)
        if out is None:
            out = []
            for k, table in enumerate(self.tables):
                total = eval_float_terms(table, x)
                if total != 0.0:
                    out.append((k, total))
            self._values[x] = out
        return out

    def weights(self, t: float) -> list[tuple[float, float]]:
        """Per k, (p, d) such that term * p / d is the term's share at t."""
        out = self._weights.get(t)
        if out is None:
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
            self._weights[t] = out
        return out

    def at(self, x: float, t: float) -> float:
        w = self.weights(t)
        total = 0.0
        for k, term in self.values(x):
            tp, g = w[k]
            total += term * tp / g
        if math.isnan(total) or math.isinf(total):
            raise EvalError(f"evaluation produced {total} at x={x}, t={t}")
        return total


def eval_solution(
    sol: SeriesSolution,
    x: float,
    t: float,
    params: Optional[Mapping[str, float]] = None,
) -> float:
    """Value of the truncated series at one point."""
    if t < 0:
        raise EvalError("t must be >= 0")
    return _Compiled(sol, params).at(x, t)


# -- error tables -----------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    x: float
    t: float
    approx: float
    reference: Optional[float] = None
    error: Optional[float] = None


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
    rows = []
    for xv, tv in grid.points():
        approx = compiled.at(xv, tv)
        if reference is None:
            rows.append(TableRow(xv, tv, approx))
        else:
            refv = reference.eval(xv, tv, compiled.bind)
            rows.append(TableRow(xv, tv, approx, refv, abs(approx - refv)))
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


def _export_table(table: ErrorTable, fmt: str) -> str:
    cols = _table_columns(table)
    if fmt == "csv":
        # one % per row; "%.17g" % v is format(float(v), ".17g")
        row = ",".join(["%.17g"] * len(cols))
        lines = [",".join(cols)]
        lines += [row % _row_values(r, table.has_reference) for r in table.rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "problem": table.problem,
            "order": table.order,
            "alpha": table.alpha,
            "reference": table.reference_desc,
            "columns": cols,
            # 17 significant digits round-trip every double, so a row holds
            # the values themselves, as the csv rows print them
            "rows": [list(map(float, _row_values(r, table.has_reference))) for r in table.rows],
        }
        return json.dumps(doc, indent=2) + "\n"
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
