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
Each `@` argument is read in its own variable, x first and t second, and
may be any positive rational constant multiple of it (x/2, 3*x/2, (1+1)*t).
Numbers are exact rationals in the ASCII digits 0-9, and decimals convert
exactly. A name starts with a letter or `_` and goes on with Unicode letters,
digits or `_`, so `x²` is a name and `²x` an error. Tab and CR count as
spaces, and `#` starts a comment.
Functions: exp, sinh, cosh, sqrt, and in the rhs also Dx(E[, n]),
exptime(c), polytime(c0, c1, ...).

The rhs is lowered to structured terms at parse time. Every product is
carried as one triple from the syntax tree to the terms: its x-coefficient,
its time coefficient (one Expr read in t) and its first-power factors. Dx
distributes over sums, and argument scalings compose multiplicatively. Dx
of a product stays one factor that holds the product (Dx(psi^2, 2) is a
single factor of order 2 over psi^2), so the solver forms the product once
and differentiates its coefficients.

Lowering is bounded: numbers have at most _MAX_DIGITS characters, exponents
at most 99 in absolute value (a power of psi 12), and each product it forms, a
squaring step of a power too, degree at most 99, at most _MAX_PAIRS scalar
monomial pairs and at most _MAX_BITS bits in its factors' largest integers. The
products of one line may take at most _MAX_LINE_PAIRS monomial pairs between
them, and the products of one problem file at most _MAX_FILE_PAIRS.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

from .errors import ParseError, ScalarError
from .expr import Expr
from .problems import _RESERVED_NAMES, ExactSolution, Problem, RhsFactor, RhsOperator, RhsTerm
from .scalar import Scalar, power_by_squaring

_FUNCS_X = ("exp", "sinh", "cosh", "sqrt")
_FUNCS_RHS = ("Dx", "exptime", "polytime")
_ALL_BUILTIN = frozenset(_FUNCS_X) | frozenset(_FUNCS_RHS) | _RESERVED_NAMES

_MAX_DEPTH = 200
_MAX_DX_ORDER = 20
_MAX_X_POWER = 99
_MAX_PSI_POWER = 12
_MAX_PRODUCTS = 20000
# Scalar monomial pairs one product may multiply. The rhs corpora need at most 784, the
# shipped problems 3, cosh(x)^99*cosh(x)^99 10,000, and three or more such factors 19,900.
_MAX_PAIRS = 16384
# Bits of the largest integers of a product's two factors, summed, and characters of a number:
# at most 4 bits and 1 character in the shipped problems and demos, 23 and 5 in the rhs corpora,
# 470 and 401 in Tier-1. Products and numbers so stay below 1,240 of the 4,300 digits str() takes.
_MAX_BITS = 4096
_MAX_DIGITS = 1000
# Scalar monomial pairs all products of one line may multiply, summed. The shipped problems
# and demos need at most 12, the 60,000-string rhs corpus 1,666 and Tier-1 17,954
# (cosh(x)^99*cosh(x)^99). A sum of such products stops in its second term.
_MAX_LINE_PAIRS = 32768
# Scalar monomial pairs all products of one problem file may multiply, summed. The shipped
# problems, tests/data and demos need at most 28 and Tier-1 35,912 (two lines of
# cosh(x)^99*cosh(x)^99), so eight such lines stop in their third.
_MAX_FILE_PAIRS = 49152


# -- tokens -------------------------------------------------------------------

@dataclass(frozen=True)
class _Tok:
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    line: int
    col: int
    frac: Optional[Fraction] = None


# Tried in order at each index: newline, spaces, comment, number (ASCII digits only:
# str.isdigit() takes '²'), word, operator, any other character.
_TOKEN = re.compile(r"(\n)|[ \t\r]+|(#[^\n]*)|([0-9]+(?:\.[0-9]+)?)|(\w+)|([-+*/^(),@])|(.)")


def _tokenize(text: str, line: int = 1, col: int = 1) -> list[_Tok]:
    toks: list[_Tok] = []
    ln, origin, comment = line, -col, None  # index i of the current line is column i - origin
    for m in _TOKEN.finditer(text):
        newline, comment, num, word, op, other = m.groups()
        cl = m.start() - origin
        if newline:
            ln, origin = ln + 1, m.start()
        elif num:
            if len(num) > _MAX_DIGITS:
                raise ParseError(f"number of {len(num)} characters out of supported range", ln, cl)
            toks.append(_Tok("num", num, ln, cl, Fraction(num)))
        elif word and (word[0].isalpha() or word[0] == "_"):
            toks.append(_Tok("name", word, ln, cl))
        elif op:
            toks.append(_Tok("op", op, ln, cl))
        elif word or other:
            raise ParseError(f"unexpected character {m[0][0]!r}", ln, cl)
    # a trailing comment does not move the end column
    toks.append(_Tok("end", "", ln, (m.start() if comment else len(text)) - origin))
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
    """One line's lowering state: name rules (params; None: any new name is a
    parameter), var, lowered as x, the monomial pairs its products took and
    those the file's earlier lines took."""

    __slots__ = ("params", "var", "pairs", "spent")

    def __init__(self, params: Optional[Iterable[str]] = None, var: str = "x", spent: int = 0):
        self.params = None if params is None else frozenset(params)
        self.var = var
        self.pairs = 0
        self.spent = spent

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

_ONE = Expr.one()


def _monomials(e: Expr) -> int:  # of its coefficients; a denominator of 1 not counted
    return sum(len(c.num) + len(c.den) - 1 for _, poly in e.terms for c in poly)


def _mul(a: Expr, b: Expr, pos, env: _Env) -> Expr:
    """a*b, once its degree, monomial pairs, the line's and the file's pairs with
    them and integer sizes are in bounds."""
    degree = sum(max((len(poly) for _, poly in e.terms), default=1) - 1 for e in (a, b))
    if degree > _MAX_X_POWER:
        raise ParseError(f"degree {degree} out of supported range", *pos)
    pairs = _monomials(a) * _monomials(b)
    if pairs > _MAX_PAIRS:
        raise ParseError(f"product of {pairs} monomial pairs out of supported range", *pos)
    env.pairs += pairs
    if env.pairs > _MAX_LINE_PAIRS:
        raise ParseError(f"products of {env.pairs} monomial pairs on one line out of supported range", *pos)
    if env.spent + env.pairs > _MAX_FILE_PAIRS:
        raise ParseError(f"products of {env.spent + env.pairs} monomial pairs in one file "
                         "out of supported range", *pos)
    bits = sum(max((c.bit_size() for f, p in e.terms for c in (f, *p)), default=0) for e in (a, b))
    if bits > _MAX_BITS:
        raise ParseError(f"product of {bits}-bit integers out of supported range", *pos)
    return a * b


def _lower_expr(node: tuple, env: _Env, where: str = "this expression") -> Expr:
    tag, pos = node[0], node[1]
    if tag == "num":
        return Expr.const(node[2])
    if tag == "name":
        name = node[2]
        if name == env.var:
            return Expr.x()
        if name in _RESERVED_NAMES:
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
        return _mul(_lower_expr(node[2], env, where), _lower_expr(node[3], env, where), pos, env)
    if tag == "div":
        num = _lower_expr(node[2], env, where)
        den = _lower_expr(node[3], env, where)
        ds = den.as_scalar()
        if ds is None:
            raise ParseError(
                f"cannot divide by an expression containing {env.var}", *node[3][1]
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
                raise ParseError(f"sqrt argument must not depend on {env.var}", *args[0][1])
            return Expr.const(_scalar_pow(s, Fraction(1, 2), pos))
        mu = _linear_coeff(arg, args[0][1], env.var)
        if fname == "exp":
            return Expr.exponential(mu)
        return Expr.cosh_of(mu) if fname == "cosh" else Expr.sinh_of(mu)
    raise _unsupported(tag, pos, where)


def _linear_coeff(e: Expr, pos, var: str, what: str = "function argument") -> Scalar:
    """mu where e, read in var, is mu*var; else a ParseError at pos."""
    mu = e.diff_x().as_scalar()
    if mu is None or not (e - Expr.x().scalar_mul(mu)).is_zero():
        raise ParseError(f"{what} must be linear in {var} (of the form c*{var})", *pos)
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
    if s is None and (e.denominator != 1 or e < 0):
        raise ParseError(f"power of an expression in {env.var} must be a nonnegative integer", *pos)
    if abs(e) > _MAX_X_POWER:
        raise ParseError(f"exponent {e} out of supported range", *pos)
    if e.denominator != 1:  # of a constant
        return Expr.const(_scalar_pow(s, e, pos))
    power = power_by_squaring(base, int(abs(e)), _ONE, lambda a, b: _mul(a, b, pos, env))
    return power if e >= 0 else Expr.const(_scalar_pow(power.as_scalar(), -1, pos))


def _lower_scalar(node: tuple, env: _Env, what: str) -> Scalar:
    e = _lower_expr(node, env, what)
    s = e.as_scalar()
    if s is None:
        raise ParseError(f"{what} must not depend on {env.var}", *node[1])
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
    if tag in _EXACT_TAGS:
        return (tag, *(_lower_exact(n, env) for n in node[2:]))
    if tag == "call":
        fname, args = node[2], node[3]
        if fname not in _FUNCS_X:
            raise _unsupported(fname, pos, "a reference solution")
        return ("call", fname, _lower_exact(args[0], env))
    raise _unsupported(tag, pos, "a reference solution")


# -- lowering: right-hand sides --------------------------------------------------------
#
# A product is one triple (coeff, tcoef, keys): coeff is its x-coefficient, an
# Expr; tcoef its time coefficient, an Expr read in t that is one or depends on
# t, because a constant exptime or polytime joins coeff where it is lowered;
# keys are its first-power factors (n, xscale, tscale, inner), each
# (D_x^n B)(xscale*x, tscale*t) with B = psi (inner None) or the RhsOperator
# inner.

_PSI = (0, Fraction(1), Fraction(1), None)


def _contains_special(node: tuple) -> bool:
    tag = node[0]
    if tag == "name":
        return node[2] in ("psi", "t")
    if tag == "call":
        return node[2] in _FUNCS_RHS or any(_contains_special(a) for a in node[3])
    if tag == "at":
        return True
    if tag in ("neg", "add", "sub", "mul", "div", "pow"):
        return any(_contains_special(n) for n in node[2:])
    return False


def _cross(lhs: list, rhs: list, pos, env: _Env) -> list:
    if len(lhs) * len(rhs) > _MAX_PRODUCTS:
        raise ParseError("right-hand side expands to too many terms", *pos)
    return [(_mul(ca, cb, pos, env), _mul(ta, tb, pos, env), ka + kb)
            for ca, ta, ka in lhs for cb, tb, kb in rhs]


def _expand_rhs(node: tuple, env: _Env) -> list:
    tag, pos = node[0], node[1]
    if not _contains_special(node):
        e = _lower_expr(node, env, "the right-hand side")
        return [] if e.is_zero() else [(e, _ONE, ())]
    if tag == "name":  # psi (plain t was caught by _contains_special -> here)
        if node[2] == "t":
            raise ParseError(
                "bare 't' is not allowed in the right-hand side; time enters"
                " through exptime/polytime or @(...) scalings", *pos,
            )
        return [(_ONE, _ONE, (_PSI,))]
    if tag == "neg":
        return [(-c, tc, k) for c, tc, k in _expand_rhs(node[2], env)]
    if tag == "add":
        return _expand_rhs(node[2], env) + _expand_rhs(node[3], env)
    if tag == "sub":
        lhs = _expand_rhs(node[2], env)
        return lhs + [(-c, tc, k) for c, tc, k in _expand_rhs(node[3], env)]
    if tag == "mul":
        return _cross(_expand_rhs(node[2], env), _expand_rhs(node[3], env), pos, env)
    if tag == "div":
        den = _lower_scalar(node[3], env, "a divisor")
        if den.is_zero():
            raise ParseError("division by zero", *node[3][1])
        inv = Scalar.one() / den
        return [(c.scalar_mul(inv), tc, k) for c, tc, k in _expand_rhs(node[2], env)]
    if tag == "pow":
        e = _const_fraction(node[3], env, "exponent")
        if e.denominator != 1 or e < 0:
            raise ParseError(
                "power of the unknown function must be a nonnegative integer",
                *pos,
            )
        p = int(e)
        if p > _MAX_PSI_POWER:
            raise ParseError(f"unknown-function power {p} out of range", *pos)
        base = _expand_rhs(node[2], env)  # lowered under ^0 too, to report its faults
        acc = [(_ONE, _ONE, ())]
        for _ in range(p):
            acc = _cross(acc, base, pos, env)
        return acc
    if tag == "at":
        xs = _extract_scale(node[3], env, "x")
        ts = _extract_scale(node[4], env, "t")
        return [
            (c.scale_x(xs), tc.scale_x(ts),
             tuple((n, kx * xs, kt * ts, inner) for n, kx, kt, inner in k))
            for c, tc, k in _expand_rhs(node[2], env)
        ]
    if tag == "call":
        fname, args = node[2], node[3]
        if fname in ("exptime", "polytime"):
            if fname == "exptime":
                tc = Expr.exponential(_lower_scalar(args[0], env, "exptime rate"))
            else:
                tc = Expr.poly(_lower_scalar(a, env, "polytime coefficient") for a in args)
            if tc.as_scalar() is not None:  # constant in t: a factor of coeff
                return [] if tc.is_zero() else [(tc, _ONE, ())]
            return [(_ONE, tc, ())]
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
            prods = (_dx_product(p, n) for p in _expand_rhs(args[0], env))
            return [p for p in prods if p is not None]
        raise _unsupported(fname, pos, "the right-hand side")
    raise _unsupported(tag, pos, "the right-hand side")


def _dx_product(prod: tuple, n: int) -> Optional[tuple]:
    """n x-derivatives of one product triple, or None where they vanish.

    With no factor, the x-coefficient is differentiated. Otherwise the time
    coefficient and the leading scalar c of the x-coefficient stay outside
    (Dx(2*x*psi) is 2*Dx(x*psi)); a lone factor (D^n0 B)(xs*x, ts*t) is
    shifted to D^(n0+n) times xs^n, and anything else is nested as one
    factor that holds the product, as in Dx(x*psi) or Dx(psi^2).
    """
    coeff, tcoef, keys = prod
    if n == 0:
        return prod
    if not keys:
        d = coeff.diff_x(n)
        return None if d.is_zero() else (d, tcoef, ())
    c = coeff.terms[0][1][-1]  # Dx commutes with this leading scalar
    rest = coeff.scalar_mul(Scalar.one() / c)
    if len(keys) == 1 and rest == _ONE:
        n0, xs, ts, inner = keys[0]
        return Expr.const(c * xs**n), tcoef, ((n0 + n, xs, ts, inner),)
    inner = RhsOperator(terms=(RhsTerm(coeff=rest, factors=_factors(keys)),))
    return Expr.const(c), tcoef, ((n, Fraction(1), Fraction(1), inner),)


def _extract_scale(node: tuple, env: _Env, var: str) -> Fraction:
    """c of an @ argument c*var, read in var; c must be a positive rational."""
    outer, env.var = env.var, var  # a failure ends the line, so it need not restore
    e = _lower_expr(node, env, f"a scaling of {var}")
    env.var = outer
    c = _linear_coeff(e, node[1], var, "scaling").as_fraction()
    if c is None or c <= 0:
        raise ParseError(f"scaling of {var} must be a positive rational", *node[1])
    return c


def _factors(keys: tuple) -> tuple[RhsFactor, ...]:
    """First-power factor keys counted into powers, in canonical order."""
    # None and a nested operator do not order; their sources do
    return tuple(
        RhsFactor(n=n, xscale=xs, tscale=ts, power=p, inner=inner)
        for (n, xs, ts, inner), p in sorted(
            Counter(keys).items(),
            key=lambda kv: (*kv[0][:3], "" if kv[0][3] is None else rhs_to_source(kv[0][3])),
        )
    )


def _products_to_terms(products: list) -> tuple[RhsTerm, ...]:
    """Collect product triples into canonical terms.

    Products sharing the same factor signature and time coefficient merge by
    adding their x-coefficients; term order is first appearance.
    """
    bucket: dict = {}
    for coeff, tcoef, keys in products:
        key = (tcoef, _factors(keys))
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
    return RhsOperator(terms=_products_to_terms(_expand_rhs(p.parse_full(), _Env(params))))


# problem files -------------------------------------------------------------

_KNOWN_KEYS = ("name", "alpha", "order", "rhs", "exact")
_INDEXED_KEY = re.compile(r"(ic|forcing)\s*([0-9]+)")  # ASCII digits, as in numbers


def _split_key(key: str, lineno: int) -> tuple:
    """(kind, parameter name or ic/forcing index, or None for the fixed keys) of a raw key."""
    if key in _KNOWN_KEYS:
        return key, None
    parts = key.split()
    if parts and parts[0] == "param":
        if len(parts) != 2 or not parts[1].isidentifier():
            raise ParseError("expected 'param <name>'", lineno, 1)
        if parts[1] in _ALL_BUILTIN:
            raise ParseError(f"'{parts[1]}' cannot be declared as a parameter", lineno, 1)
        return "param", parts[1]
    indexed = _INDEXED_KEY.fullmatch(key)
    if indexed:
        return indexed[1], int(indexed[2])
    raise ParseError(f"unknown key '{key}'", lineno, 1)


def _lower_line(kind: str, extra, val: str, env: _Env, lineno: int, vcol: int):
    """The value of one problem-file line; extra is its parameter name or index."""
    if kind == "name":
        if not val.strip():
            raise ParseError("empty problem name", lineno, vcol)
        return val.strip()
    if kind == "param" and not val.strip():
        return None
    node = _Parser(_tokenize(val, line=lineno, col=vcol)).parse_full()
    if kind == "param":
        value = _lower_scalar(node, env, f"value of parameter '{extra}'")
        names = value.free_params()  # defaults are evaluated with no binding
        if names:
            raise ParseError(f"value of parameter '{extra}' must not depend on "
                             f"parameter '{min(names)}'", *node[1])
        return value
    if kind == "alpha":
        alpha = _const_fraction(node, env, "alpha")
        if not (0 < alpha <= 1):
            raise ParseError(f"alpha must lie in (0, 1], got {alpha}", lineno, vcol)
        return alpha
    if kind == "order":
        f = _const_fraction(node, env, "order")
        if f.denominator != 1 or f < 1:
            raise ParseError("order must be a positive integer", lineno, vcol)
        return int(f)
    if kind == "rhs":
        return _products_to_terms(_expand_rhs(node, env))
    if kind == "exact":
        return ExactSolution(_lower_exact(node, env), val.strip())
    return _lower_expr(node, env, "an initial condition" if kind == "ic" else "a forcing coefficient")


def parse_problem(text: str, default_name: str = "problem") -> Problem:
    """Parse and validate one problem file."""
    # (kind, parameter name, ic/forcing index or None) -> (line, value text, value column)
    lines: dict[tuple, tuple[int, str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():  # a line without '=' is only meaningful as 'param <name>'
            key, eq, val = body.partition("=")
            slot = _split_key(key.strip(), lineno)
            if slot in lines:
                raise ParseError(f"duplicate '{key.strip()}' line", lineno, 1)
            lines[slot] = (lineno, val, len(key) + len(eq) + 1)

    # parameters first, so every other line knows them; each kind in file order
    params = [extra for kind, extra in lines if kind == "param"]
    values: dict[tuple, object] = {}
    spent = 0
    for slot, (lineno, val, vcol) in sorted(lines.items(), key=lambda kv: kv[0][0] != "param"):
        env = _Env(params, spent=spent)
        try:
            values[slot] = _lower_line(*slot, val, env, lineno, vcol)
        except ScalarError as exc:  # a constant too large to print, met while ordering terms
            raise ParseError(str(exc), lineno, vcol)
        spent += env.pairs

    alpha, order, rhs_terms = (values.get((kind, None)) for kind in ("alpha", "order", "rhs"))
    for key_name, value in (("alpha", alpha), ("order", order), ("rhs", rhs_terms)):
        if value is None:
            raise ParseError(f"missing required line '{key_name} = ...'")
    ics = {j: e for (kind, j), e in values.items() if kind == "ic"}
    for j in range(order):
        if j not in ics:
            raise ParseError(f"missing initial condition 'ic{j}' (order = {order})")
    for j in ics:
        if j >= order:
            raise ParseError(
                f"unexpected 'ic{j}': order = {order} needs ic0..ic{order - 1}",
                lines[("ic", j)][0], 1,
            )

    return Problem(
        name=values.get(("name", None), default_name),
        m=order,
        alpha=alpha,
        rhs=RhsOperator(terms=rhs_terms, forcing=tuple(
            (k, e) for (kind, k), e in values.items() if kind == "forcing")),
        ics=tuple(ics[j] for j in range(order)),
        params={name: v for (kind, name), v in values.items() if kind == "param"},
        exact=values.get(("exact", None)),
    )


def parse_problem_file(path) -> Problem:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")  # a byte-order mark is dropped
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
