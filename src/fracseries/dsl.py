"""Problem-file front end.

Files are line-oriented `key = value` with `#` comments:

    name = kolmogorov
    alpha = 1
    order = 1
    ic0 = x + 1
    rhs = (x + 1)*Dx(psi) + x^2*exptime(1)*Dx(psi,2)
    exact = (x + 1)*exp(t)

Expression grammar (same for ic/rhs/exact/param values, with per-context
name rules): `^` is right-associative and binds tightest except for the
delay suffix `@(c*x, c*t)`; then unary minus; then `*` `/`; then `+` `-`.
Numbers are exact rationals; decimals convert exactly. Functions: exp,
sinh, cosh, sqrt, and in the rhs also Dx(E[, n]), exptime(c),
polytime(c0, c1, ...).

The rhs is lowered to structured terms at parse time: products are
flattened, time factors multiply into one Expr read in t, Dx distributes
over sums, and argument scalings compose multiplicatively. Dx of a product
stays one factor that holds the product (Dx(psi^2, 2) is a single factor of
order 2 over psi^2), so the solver forms the product once and differentiates
its coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

from .errors import ParseError, ProblemError, ScalarError
from .expr import Expr
from .problems import ExactSolution, Problem, RhsFactor, RhsOperator, RhsTerm
from .scalar import Scalar

_FUNCS_X = ("exp", "sinh", "cosh", "sqrt")
_FUNCS_RHS = ("Dx", "exptime", "polytime")
_RESERVED = ("x", "t", "psi")
_ALL_BUILTIN = frozenset(_FUNCS_X) | frozenset(_FUNCS_RHS) | frozenset(_RESERVED)

_MAX_DEPTH = 200
_MAX_DX_ORDER = 20
_MAX_X_POWER = 99
_MAX_PSI_POWER = 12
_MAX_PRODUCTS = 20000


# -- tokens -------------------------------------------------------------------

@dataclass(frozen=True)
class _Tok:
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    line: int
    col: int
    frac: Optional[Fraction] = None


_OP_CHARS = frozenset("+-*/^(),@")


def _tokenize(text: str, line: int = 1, col: int = 1) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(text)
    ln, cl = line, col
    while i < n:
        ch = text[i]
        if ch == "\n":
            ln += 1
            cl = 1
            i += 1
            continue
        if ch in " \t\r":
            cl += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            lit = text[i:j]
            toks.append(_Tok("num", lit, ln, cl, Fraction(lit)))
            cl += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], ln, cl))
            cl += j - i
            i = j
            continue
        if ch in _OP_CHARS:
            toks.append(_Tok("op", ch, ln, cl))
            cl += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", ln, cl)
    toks.append(_Tok("end", "", ln, cl))
    return toks


# -- syntax trees -----------------------------------------------------------------
# Nodes are tuples (tag, (line, col), ...):
#   ('num', pos, Fraction)        ('name', pos, str)
#   ('neg', pos, a)               ('add'|'sub'|'mul'|'div'|'pow', pos, a, b)
#   ('call', pos, fname, (args...))
#   ('at', pos, a, xnode, tnode)  argument scaling suffix

class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "end":
            self.i += 1
        return t

    def expect_op(self, ch: str) -> _Tok:
        t = self.peek()
        if t.kind != "op" or t.text != ch:
            raise ParseError(f"expected {ch!r}", t.line, t.col)
        return self.take()

    def at_op(self, ch: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text == ch

    def _enter(self, pos) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("expression nesting too deep", pos[0], pos[1])

    def parse_full(self) -> tuple:
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", t.line, t.col)
        return node

    def expr(self) -> tuple:
        t = self.peek()
        self._enter((t.line, t.col))
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take()
            rhs = self.term()
            node = ("add" if op.text == "+" else "sub", (op.line, op.col), node, rhs)
        self.depth -= 1
        return node

    def term(self) -> tuple:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take()
            rhs = self.unary()
            node = ("mul" if op.text == "*" else "div", (op.line, op.col), node, rhs)
        return node

    def unary(self) -> tuple:
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.take()
            self._enter((t.line, t.col))
            node = ("neg", (t.line, t.col), self.unary())
            self.depth -= 1
            return node
        return self.power()

    def power(self) -> tuple:
        base = self.postfix()
        if self.at_op("^"):
            op = self.take()
            # right-associative; the exponent may carry its own unary minus
            return ("pow", (op.line, op.col), base, self.unary())
        return base

    def postfix(self) -> tuple:
        node = self.atom()
        while self.at_op("@"):
            op = self.take()
            self.expect_op("(")
            xnode = self.expr()
            self.expect_op(",")
            tnode = self.expr()
            self.expect_op(")")
            node = ("at", (op.line, op.col), node, xnode, tnode)
        return node

    def atom(self) -> tuple:
        t = self.take()
        if t.kind == "num":
            return ("num", (t.line, t.col), t.frac)
        if t.kind == "name":
            if self.at_op("("):
                return self.call(t)
            return ("name", (t.line, t.col), t.text)
        if t.kind == "op" and t.text == "(":
            self._enter((t.line, t.col))
            node = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return node
        what = "end of input" if t.kind == "end" else repr(t.text)
        raise ParseError(f"expected a number, name, or '(', got {what}", t.line, t.col)

    def call(self, fn: _Tok) -> tuple:
        if fn.text not in _FUNCS_X and fn.text not in _FUNCS_RHS:
            raise ParseError(f"unknown function '{fn.text}'", fn.line, fn.col)
        self.expect_op("(")
        args = [self.expr()]
        while self.at_op(","):
            self.take()
            args.append(self.expr())
        self.expect_op(")")
        lo, hi = {
            "Dx": (1, 2), "polytime": (1, 64),
        }.get(fn.text, (1, 1))
        if not (lo <= len(args) <= hi):
            want = f"{lo}" if lo == hi else f"{lo} to {hi}"
            raise ParseError(
                f"'{fn.text}' takes {want} argument(s), got {len(args)}",
                fn.line, fn.col,
            )
        return ("call", (fn.line, fn.col), fn.text, tuple(args))


# -- name environment ------------------------------------------------------------

class _Env:
    """Which bare names are acceptable; None means any new name is a parameter."""

    def __init__(self, params: Optional[Iterable[str]] = None):
        self.params = None if params is None else set(params)

    def check_param(self, name: str, pos) -> None:
        if name in _ALL_BUILTIN:
            raise ParseError(f"'{name}' cannot be used as a value here", *pos)
        if self.params is not None and name not in self.params:
            raise ParseError(
                f"unknown name '{name}' (parameters must be declared with a"
                " 'param' line)", *pos,
            )


def _unsupported(tag: str, pos, where: str) -> ParseError:
    label = {
        "at": "argument scaling '@'",
        "psi": "the unknown function 'psi'",
        "t": "the time variable 't'",
        "Dx": "'Dx'",
        "exptime": "'exptime'",
        "polytime": "'polytime'",
    }.get(tag, f"'{tag}'")
    return ParseError(f"{label} is not allowed in {where}", *pos)


# -- lowering: functions of x ------------------------------------------------------

def _lower_expr(node: tuple, env: _Env, where: str = "this expression") -> Expr:
    tag, pos = node[0], node[1]
    if tag == "num":
        return Expr.const(node[2])
    if tag == "name":
        name = node[2]
        if name == "x":
            return Expr.x()
        if name in ("t", "psi"):
            raise _unsupported(name, pos, where)
        env.check_param(name, pos)
        return Expr.const(Scalar.param(name))
    if tag == "neg":
        return -_lower_expr(node[2], env, where)
    if tag == "add":
        return _lower_expr(node[2], env, where) + _lower_expr(node[3], env, where)
    if tag == "sub":
        return _lower_expr(node[2], env, where) - _lower_expr(node[3], env, where)
    if tag == "mul":
        return _lower_expr(node[2], env, where) * _lower_expr(node[3], env, where)
    if tag == "div":
        num = _lower_expr(node[2], env, where)
        den = _lower_expr(node[3], env, where)
        ds = den.as_scalar()
        if ds is None:
            raise ParseError(
                "cannot divide by an expression containing x", *node[3][1]
            )
        if ds.is_zero():
            raise ParseError("division by zero", *node[3][1])
        return num.scalar_mul(Scalar.one() / ds)
    if tag == "pow":
        return _lower_pow(node, env, where)
    if tag == "call":
        fname, args = node[2], node[3]
        if fname not in _FUNCS_X:
            raise _unsupported(fname, pos, where)
        arg = _lower_expr(args[0], env, where)
        if fname == "sqrt":
            s = arg.as_scalar()
            if s is None:
                raise ParseError("sqrt argument must not depend on x", *args[0][1])
            return Expr.const(_scalar_pow(s, Fraction(1, 2), pos))
        mu = _linear_coeff(arg, args[0][1])
        if fname == "exp":
            return Expr.exponential(mu)
        return Expr.cosh_of(mu) if fname == "cosh" else Expr.sinh_of(mu)
    raise _unsupported(tag, pos, where)


def _linear_coeff(e: Expr, pos) -> Scalar:
    mu = e.diff_x().as_scalar()
    if mu is None or not (e - Expr.x().scalar_mul(mu)).is_zero():
        raise ParseError(
            "function argument must be linear in x (of the form c*x)", *pos
        )
    return mu


def _scalar_pow(base: Scalar, e: Fraction, pos) -> Scalar:
    try:
        return base ** e
    except (ScalarError, ZeroDivisionError) as exc:
        raise ParseError(str(exc), *pos)


def _lower_pow(node: tuple, env: _Env, where: str) -> Expr:
    _, pos, base_node, exp_node = node
    e = _const_fraction(exp_node, env, "exponent")
    base = _lower_expr(base_node, env, where)
    s = base.as_scalar()
    if s is not None:
        return Expr.const(_scalar_pow(s, e, pos))
    if e.denominator != 1 or e < 0:
        raise ParseError(
            "power of an x-dependent expression must be a nonnegative integer",
            *pos,
        )
    if e > _MAX_X_POWER:
        raise ParseError(f"exponent {e} out of supported range", *pos)
    return base ** int(e)


def _lower_scalar(node: tuple, env: _Env, what: str) -> Scalar:
    e = _lower_expr(node, env, what)
    s = e.as_scalar()
    if s is None:
        raise ParseError(f"{what} must not depend on x", *node[1])
    return s


def _const_fraction(node: tuple, env: _Env, what: str) -> Fraction:
    s = _lower_scalar(node, env, what)
    f = s.as_fraction()
    if f is None:
        raise ParseError(f"{what} must be a rational constant", *node[1])
    return f


# -- lowering: reference solutions in x and t ------------------------------------------

_EXACT_TAGS = {"add", "sub", "mul", "div", "pow", "neg"}


def _lower_exact(node: tuple, env: _Env):
    tag, pos = node[0], node[1]
    if tag == "num":
        return ("num", node[2])
    if tag == "name":
        name = node[2]
        if name == "x":
            return ("x",)
        if name == "t":
            return ("t",)
        if name == "psi":
            raise _unsupported("psi", pos, "a reference solution")
        env.check_param(name, pos)
        return ("param", name)
    if tag == "neg":
        return ("neg", _lower_exact(node[2], env))
    if tag in _EXACT_TAGS:
        return (tag, _lower_exact(node[2], env), _lower_exact(node[3], env))
    if tag == "call":
        fname, args = node[2], node[3]
        if fname not in _FUNCS_X:
            raise _unsupported(fname, pos, "a reference solution")
        return ("call", fname, _lower_exact(args[0], env))
    raise _unsupported(tag, pos, "a reference solution")


# -- lowering: right-hand sides --------------------------------------------------------
#
# Products are carried as (rational, units) with units one of
#   ('f', n, xscale, tscale, inner)  a first-power factor (D_x^n B)(xscale*x, tscale*t)
#                                    with B = psi (inner None) or the RhsOperator inner
#   ('e', Expr)                      a function of x
#   ('t', Expr)                      a function of t, not constant

def _contains_special(node: tuple) -> bool:
    tag = node[0]
    if tag == "name":
        return node[2] in ("psi", "t")
    if tag == "call":
        return node[2] in _FUNCS_RHS or any(_contains_special(a) for a in node[3])
    if tag == "at":
        return True
    if tag == "neg":
        return _contains_special(node[2])
    if tag in ("add", "sub", "mul", "div", "pow"):
        return _contains_special(node[2]) or _contains_special(node[3])
    return False


def _cross(lhs: list, rhs: list, pos) -> list:
    out = []
    for qa, ua in lhs:
        for qb, ub in rhs:
            out.append((qa * qb, ua + ub))
            if len(out) > _MAX_PRODUCTS:
                raise ParseError("right-hand side expands to too many terms", *pos)
    return out


def _expand_rhs(node: tuple, env: _Env) -> list:
    tag, pos = node[0], node[1]
    if not _contains_special(node):
        e = _lower_expr(node, env, "the right-hand side")
        return [] if e.is_zero() else [(Fraction(1), [("e", e)])]
    if tag == "name":  # psi (plain t was caught by _contains_special -> here)
        if node[2] == "t":
            raise ParseError(
                "bare 't' is not allowed in the right-hand side; time enters"
                " through exptime/polytime or @(...) scalings", *pos,
            )
        return [(Fraction(1), [("f", 0, Fraction(1), Fraction(1), None)])]
    if tag == "neg":
        return [(-q, u) for q, u in _expand_rhs(node[2], env)]
    if tag == "add":
        return _expand_rhs(node[2], env) + _expand_rhs(node[3], env)
    if tag == "sub":
        rhs = [(-q, u) for q, u in _expand_rhs(node[3], env)]
        return _expand_rhs(node[2], env) + rhs
    if tag == "mul":
        return _cross(_expand_rhs(node[2], env), _expand_rhs(node[3], env), pos)
    if tag == "div":
        den = _lower_scalar(node[3], env, "a divisor")
        f = den.as_fraction()
        if f is None:
            inv = [("e", Expr.const(Scalar.one() / den))]
            return [(q, u + inv) for q, u in _expand_rhs(node[2], env)]
        if f == 0:
            raise ParseError("division by zero", *node[3][1])
        return [(q / f, u) for q, u in _expand_rhs(node[2], env)]
    if tag == "pow":
        e = _const_fraction(node[3], env, "exponent")
        if e.denominator != 1 or e < 0:
            raise ParseError(
                "power of the unknown function must be a nonnegative integer",
                *pos,
            )
        p = int(e)
        if p == 0:
            return [(Fraction(1), [])]
        if p > _MAX_PSI_POWER:
            raise ParseError(f"unknown-function power {p} out of range", *pos)
        base = _expand_rhs(node[2], env)
        acc = base
        for _ in range(p - 1):
            acc = _cross(acc, base, pos)
        return acc
    if tag == "at":
        xs = _extract_scale(node[3], "x")
        ts = _extract_scale(node[4], "t")
        return [
            (q, [_scale_unit(u, xs, ts) for u in units])
            for q, units in _expand_rhs(node[2], env)
        ]
    if tag == "call":
        fname, args = node[2], node[3]
        if fname in ("exptime", "polytime"):
            if fname == "exptime":
                tc = Expr.exponential(_lower_scalar(args[0], env, "exptime rate"))
            else:
                tc = Expr.poly(_lower_scalar(a, env, "polytime coefficient") for a in args)
            if tc.as_scalar() is None:
                return [(Fraction(1), [("t", tc)])]
            # constant in t: just a scalar factor
            return [] if tc.is_zero() else [(Fraction(1), [("e", tc)])]
        if fname == "Dx":
            n = 1
            if len(args) == 2:
                f = _const_fraction(args[1], env, "derivative order")
                if f.denominator != 1 or f < 0:
                    raise ParseError(
                        "derivative order must be a nonnegative integer",
                        *args[1][1],
                    )
                n = int(f)
                if n > _MAX_DX_ORDER:
                    raise ParseError(f"derivative order {n} out of range", *args[1][1])
            return [p for q, units in _expand_rhs(args[0], env) for p in _dx_product(q, units, n)]
        raise _unsupported(fname, pos, "the right-hand side")
    raise _unsupported(tag, pos, "the right-hand side")


def _scale_unit(u: tuple, xs: Fraction, ts: Fraction) -> tuple:
    if u[0] == "f":
        return ("f", u[1], u[2] * xs, u[3] * ts, u[4])
    if u[0] == "e":
        return ("e", u[1].scale_x(xs))
    return ("t", u[1].scale_x(ts))


def _dx_product(q: Fraction, units: list, n: int) -> list:
    """n x-derivatives of one product, as at most one product.

    Time units stay outside, being constant in x; two or more remaining
    units become one factor that holds their product, with the leading
    scalar of its coefficient moved outside too, so Dx(2*x*psi) is
    2*Dx(x*psi) and Dx(2*psi) is 2*Dx(psi). Differentiating
    (D^n0 B)(xs*x, ts*t) n times adds n to n0 and a factor xs^n.
    """
    if n == 0:
        return [(q, units)]
    outside = [u for u in units if u[0] == "t"]
    rest = [u for u in units if u[0] != "t"]
    if len(rest) > 1:
        (term,) = _products_to_terms([(Fraction(1), rest)])
        rest = [("e", term.coeff)]
        if term.factors:
            c = term.coeff.terms[0][1][-1]  # Dx commutes with this leading scalar
            if not c.is_one():
                outside.append(("e", Expr.const(c)))
                term = RhsTerm(coeff=term.coeff.scalar_mul(Scalar.one() / c), factors=term.factors)
            f = term.factors[0]
            lone = len(term.factors) == 1 and f.power == 1 and term.coeff == Expr.one()
            rest = [("f", f.n, f.xscale, f.tscale, f.inner) if lone
                    else ("f", 0, Fraction(1), Fraction(1), RhsOperator(terms=(term,)))]
    if not rest:
        return []  # the product is constant in x
    u = rest[0]
    if u[0] == "f":
        _, n0, xs, ts, inner = u
        return [(q * xs**n, outside + [("f", n0 + n, xs, ts, inner)])]
    d = u[1].diff_x(n)
    return [] if d.is_zero() else [(q, outside + [("e", d)])]


def _extract_scale(node: tuple, var: str) -> Fraction:
    coef, deg = _scale_walk(node, var)
    if deg != 1:
        raise ParseError(
            f"scaling must be of the form c*{var} or {var}/c", *node[1]
        )
    if coef <= 0:
        raise ParseError(f"scaling of {var} must be positive", *node[1])
    return coef


def _scale_walk(node: tuple, var: str) -> tuple[Fraction, int]:
    tag, pos = node[0], node[1]
    if tag == "num":
        return node[2], 0
    if tag == "name":
        if node[2] == var:
            return Fraction(1), 1
        raise ParseError(
            f"scaling must be of the form c*{var} or {var}/c", *pos
        )
    if tag == "neg":
        c, d = _scale_walk(node[2], var)
        return -c, d
    if tag == "mul":
        ca, da = _scale_walk(node[2], var)
        cb, db = _scale_walk(node[3], var)
        if da + db > 1:
            raise ParseError(f"scaling must be linear in {var}", *pos)
        return ca * cb, da + db
    if tag == "div":
        ca, da = _scale_walk(node[2], var)
        cb, db = _scale_walk(node[3], var)
        if db != 0:
            raise ParseError(f"{var} may not appear in a scale divisor", *node[3][1])
        if cb == 0:
            raise ParseError("division by zero", *node[3][1])
        return ca / cb, da
    raise ParseError(f"scaling must be of the form c*{var} or {var}/c", *pos)


def _products_to_terms(products: list) -> tuple[RhsTerm, ...]:
    """Collect expanded products into canonical terms.

    Products sharing the same factor signature and time coefficient merge by
    adding their x-coefficients; term order is first appearance.
    """
    bucket: dict = {}
    for q, units in products:
        coeff = Expr.const(q)
        tcoef = Expr.one()
        factor_count: dict[tuple, int] = {}
        for u in units:
            if u[0] == "e":
                coeff = coeff * u[1]
            elif u[0] == "f":
                key = u[1:]
                factor_count[key] = factor_count.get(key, 0) + 1
            else:
                tcoef = tcoef * u[1]
        c = tcoef.as_scalar()
        if c is not None and not c.is_one():  # exptime(1)*exptime(-1) is constant in t
            coeff = coeff.scalar_mul(c)
            tcoef = Expr.one()
        # None and a nested operator do not order; their sources do
        factors = tuple(
            RhsFactor(n=n, xscale=xs, tscale=ts, power=p, inner=inner)
            for (n, xs, ts, inner), p in sorted(
                factor_count.items(),
                key=lambda kv: (*kv[0][:3], "" if kv[0][3] is None else rhs_to_source(kv[0][3])),
            )
        )
        key = (tcoef, factors)
        bucket[key] = bucket[key] + coeff if key in bucket else coeff
    return tuple(
        RhsTerm(coeff=coeff, tcoef=tcoef, factors=factors)
        for (tcoef, factors), coeff in bucket.items() if not coeff.is_zero()
    )


# -- public entry points ----------------------------------------------------------

def parse_expr(text: str, params: Optional[Iterable[str]] = None) -> Expr:
    """Parse a function of x. With params=None any new name is a parameter."""
    p = _Parser(_tokenize(text))
    return _lower_expr(p.parse_full(), _Env(params), "this expression")


def parse_exact(text: str, params: Optional[Iterable[str]] = None) -> ExactSolution:
    """Parse a reference solution in x and t (evaluation-only)."""
    p = _Parser(_tokenize(text))
    node = _lower_exact(p.parse_full(), _Env(params))
    return ExactSolution(node, text.strip())


def parse_rhs(text: str, params: Optional[Iterable[str]] = None) -> RhsOperator:
    """Parse a right-hand side into structured terms (no forcing entries)."""
    p = _Parser(_tokenize(text))
    node = p.parse_full()
    products = _expand_rhs(node, _Env(params))
    return RhsOperator(terms=_products_to_terms(products))


# problem files -------------------------------------------------------------

_KNOWN_KEYS = ("name", "alpha", "order", "rhs", "exact")


def _split_lines(text: str) -> list[tuple[int, str, str, int]]:
    """(line number, key, value text, value column) for each content line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        if "=" in body:
            key, val = body.split("=", 1)
            vcol = len(key) + 2  # 1-based column just past the '='
        else:
            # bare lines are only meaningful as 'param <name>' declarations
            key, val, vcol = body, "", len(body) + 1
        out.append((lineno, key.strip(), val, vcol))
    return out


_INT_SUFFIX_KEYS = ("ic", "forcing")


def _split_key(key: str, lineno: int):
    """Classify a raw key into (kind, index-or-name)."""
    if key in _KNOWN_KEYS:
        return key, None
    parts = key.split()
    if parts and parts[0] == "param":
        if len(parts) != 2 or not parts[1].isidentifier():
            raise ParseError("expected 'param <name>'", lineno, 1)
        return "param", parts[1]
    for prefix in _INT_SUFFIX_KEYS:
        body = None
        if len(parts) == 2 and parts[0] == prefix:
            body = parts[1]
        elif len(parts) == 1 and key.startswith(prefix):
            body = key[len(prefix):]
        if body is not None and body.isdigit():
            return prefix, int(body)
    raise ParseError(f"unknown key '{key}'", lineno, 1)


def parse_problem(text: str, default_name: str = "problem") -> Problem:
    """Parse and validate one problem file."""
    lines = _split_lines(text)

    # first pass: parameter declarations and scalar keys
    seen: dict = {}
    param_order: list[str] = []
    param_lines: dict[str, tuple] = {}
    entries: list = []
    for lineno, key, val, vcol in lines:
        kind, extra = _split_key(key, lineno)
        dedup = (kind, extra) if kind in ("param", "ic", "forcing") else kind
        if dedup in seen:
            raise ParseError(f"duplicate '{key}' line", lineno, 1)
        seen[dedup] = lineno
        if kind == "param":
            if extra in _ALL_BUILTIN:
                raise ParseError(
                    f"'{extra}' cannot be declared as a parameter", lineno, 1
                )
            param_order.append(extra)
            param_lines[extra] = (lineno, val, vcol)
        else:
            entries.append((kind, extra, lineno, val, vcol))

    env = _Env(param_order)
    params: dict[str, Optional[Scalar]] = {}
    for name in param_order:
        lineno, val, vcol = param_lines[name]
        if val.strip():
            node = _Parser(_tokenize(val, line=lineno, col=vcol)).parse_full()
            params[name] = _lower_scalar(node, env, f"value of parameter '{name}'")
        else:
            params[name] = None

    name = default_name
    alpha: Optional[Fraction] = None
    order: Optional[int] = None
    rhs_terms: Optional[tuple[RhsTerm, ...]] = None
    ics: dict[int, Expr] = {}
    forcing: dict[int, Expr] = {}
    exact: Optional[ExactSolution] = None

    for kind, extra, lineno, val, vcol in entries:
        if kind == "name":
            name = val.strip()
            if not name:
                raise ParseError("empty problem name", lineno, vcol)
            continue
        toks = _tokenize(val, line=lineno, col=vcol)
        parser = _Parser(toks)
        node = parser.parse_full()
        if kind == "alpha":
            alpha = _const_fraction(node, env, "alpha")
            if not (0 < alpha <= 1):
                raise ParseError(f"alpha must lie in (0, 1], got {alpha}", lineno, vcol)
        elif kind == "order":
            f = _const_fraction(node, env, "order")
            if f.denominator != 1 or f < 1:
                raise ParseError("order must be a positive integer", lineno, vcol)
            order = int(f)
        elif kind == "rhs":
            products = _expand_rhs(node, env)
            rhs_terms = _products_to_terms(products)
        elif kind == "ic":
            ics[extra] = _lower_expr(node, env, "an initial condition")
        elif kind == "forcing":
            forcing[extra] = _lower_expr(node, env, "a forcing coefficient")
        elif kind == "exact":
            exact = ExactSolution(_lower_exact(node, env), val.strip())

    for key_name, value in (("alpha", alpha), ("order", order), ("rhs", rhs_terms)):
        if value is None:
            raise ParseError(f"missing required line '{key_name} = ...'")
    assert alpha is not None and order is not None and rhs_terms is not None

    for j in range(order):
        if j not in ics:
            raise ParseError(f"missing initial condition 'ic{j}' (order = {order})")
    for j in ics:
        if j >= order:
            raise ParseError(
                f"unexpected 'ic{j}': order = {order} needs ic0..ic{order - 1}",
                seen[("ic", j)], 1,
            )

    try:
        return Problem(
            name=name,
            m=order,
            alpha=alpha,
            rhs=RhsOperator(terms=rhs_terms, forcing=tuple(forcing.items())),
            ics=tuple(ics[j] for j in range(order)),
            params=params,
            exact=exact,
        )
    except ProblemError as exc:
        # every semantic check above reports with a position; this net keeps
        # the contract (ParseError only) if container validation grows
        raise ParseError(str(exc))


def parse_problem_file(path) -> Problem:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{p.name} is not valid UTF-8")
    return parse_problem(text, default_name=p.stem)


# -- serialization --------------------------------------------------------------

def _scale_source(c: Fraction, var: str) -> str:
    if c == 1:
        return var
    if c.numerator == 1:
        return f"{var}/{c.denominator}"
    return f"{c}*{var}"


def _factor_source(f: RhsFactor) -> str:
    head = "psi" if f.inner is None else rhs_to_source(f.inner)
    if f.n:
        head = f"Dx({head})" if f.n == 1 else f"Dx({head},{f.n})"
    if f.scaled:
        head += f"@({_scale_source(f.xscale, 'x')},{_scale_source(f.tscale, 't')})"
    if f.power != 1:
        head += f"^{f.power}"
    return head


def _tcoef_source(tc: Expr) -> Optional[str]:
    """tc in exptime/polytime syntax; a sum (library-built only) in parentheses."""
    if tc == Expr.one():
        return None
    chunks = []
    for mu, poly in tc.terms:
        ptxt = "polytime(" + ",".join(c.to_source() for c in poly) + ")"
        if mu.is_zero():
            chunks.append(ptxt)
        else:
            etxt = f"exptime({mu.to_source()})"
            chunks.append(etxt if poly == (Scalar.one(),) else f"{ptxt}*{etxt}")
    return chunks[0] if len(chunks) == 1 else "(" + " + ".join(chunks) + ")"


def _term_source(t: RhsTerm) -> str:
    parts = []
    csrc = t.coeff.to_source()
    if csrc != "1" or not t.factors:
        if " + " in csrc or csrc.startswith("-") and t.factors:
            # keep the product unambiguous under the flat precedence rules
            parts.append(f"({csrc})")
        else:
            parts.append(csrc)
    tsrc = _tcoef_source(t.tcoef)
    if tsrc:
        parts.append(tsrc)
    parts.extend(_factor_source(f) for f in t.factors)
    return "*".join(parts)


def rhs_to_source(rhs: RhsOperator) -> str:
    if not rhs.terms:
        return "0"
    return " + ".join(_term_source(t) for t in rhs.terms)


def problem_to_source(p: Problem) -> str:
    """Serialize a problem back to file syntax (parses to an equal Problem)."""
    out = [f"name = {p.name}"]
    out.append(f"alpha = {p.alpha}")
    out.append(f"order = {p.m}")
    for pname, val in p.params.items():
        if val is None:
            out.append(f"param {pname}")
        else:
            out.append(f"param {pname} = {val.to_source()}")
    for j, ic in enumerate(p.ics):
        out.append(f"ic{j} = {ic.to_source()}")
    out.append(f"rhs = {rhs_to_source(p.rhs)}")
    for k, e in p.rhs.forcing:
        out.append(f"forcing {k} = {e.to_source()}")
    if p.exact is not None:
        out.append(f"exact = {p.exact.to_source()}")
    return "\n".join(out) + "\n"
