"""The benchmark's span tracer wraps fracseries bindings by name and restores them.

bench/spans.py looks each traced name up with getattr and cls.__dict__, so
renaming or deleting a traced function breaks the traced benchmark run; this
test makes that a Tier-1 failure.
"""

import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import fracseries
from fracseries import evaluate, expr, solver
from fracseries.scalar import Scalar

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    """Every module-level and traced-class binding, by (owner, name)."""
    for info in pkgutil.iter_modules(fracseries.__path__):
        if info.name != "__main__":
            importlib.import_module(f"fracseries.{info.name}")
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "fracseries" or name.startswith("fracseries."):
            for key, val in vars(mod).items():
                out[(name, key)] = val
    for cls in (Scalar, expr.Expr, fracseries.FracSeries):
        for key, val in vars(cls).items():
            out[(cls.__name__, key)] = val
    return out


def test_tracer_installs_and_restores_bindings(diffusion_problem):
    spans = _load_spans()
    point = evaluate.eval_solution
    add = Scalar.__dict__["__add__"]
    orders = solver.residual_orders
    tracer = spans.Tracer("tier1")
    before = _bindings()
    tracer.install()
    try:
        assert evaluate.eval_solution is not point
        assert Scalar.__dict__["__add__"] is not add
        assert Scalar.__dict__["__radd__"] is not add
        assert solver.residual_orders is not orders
        assert fracseries.residual_orders is solver.residual_orders

        sol = fracseries.solve(diffusion_problem, 4)
        assert all(ok for _, ok in fracseries.residual_orders(diffusion_problem, sol))
        metrics = tracer.layer_metrics()
        assert metrics["expr.probe_calls"] == 0
        assert metrics["solver.exact_verdict_ratio"] == 1.0
    finally:
        tracer.uninstall()

    assert evaluate.eval_solution is point
    assert Scalar.__dict__["__add__"] is add
    assert Scalar.__dict__["__radd__"] is add
    assert solver.residual_orders is orders
    assert fracseries.residual_orders is orders
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
