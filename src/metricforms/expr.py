"""Symbolic scalar expressions over named coordinates.

Small immutable expression trees with a text front end, exact partial
differentiation, value-preserving cleanup, and complex-capable numeric
evaluation.  Constants may be complex; purely real subtrees stay in real
arithmetic.  Powers carry exact rational exponents and evaluate on the
principal branch, so square roots of negative reals come out as +i times
the real root.

Grammar of the text form (offsets in errors are 0-based byte positions)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' rational)?
    base     := number | symbol | func '(' expr ')' | '(' expr ')' | '-' base
    func     := sin | cos | tan | exp | log | sinh | cosh | sqrt
    number   := decimal with optional exponent and optional 'i' suffix
    rational := ['-'] integer | '(' ['-'] integer ['/' integer] ')'

The '^' exponent is a rational literal, not a sub-expression.  Fractions
must be parenthesized (``x^(1/2)``), so ``x^2/3`` stays ordinary
division of a square by three.
"""

from __future__ import annotations

import cmath
import math
import re
import threading
import weakref
from fractions import Fraction

from .errors import (
    EvalDomainError,
    ParseError,
    UnboundSymbolError,
    UnknownCoordinateError,
    UnknownSymbolError,
)

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sinh", "cosh", "sqrt")

Number = int | float | complex


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

class Expr:
    """Immutable, hash-consed expression node.

    Every node is interned when it is constructed: building the same
    structure twice, by any route, returns the one existing object.  So
    structural equality is object identity, and caches keyed by node
    share work between equal subtrees built separately.  The intern table
    holds nodes weakly; a node lives only as long as something uses it.

    Non-constant nodes compare and hash by identity.  Constants compare by
    value (``Const(2) == Const(2.0)``) but are interned by type and
    spelling, so each keeps the form it prints with.
    """

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        # each node's constructor takes its slots in order; rebuilding
        # through it keeps copied and unpickled nodes interned
        return type(self), tuple(getattr(self, s) for s in self.__slots__)

    def __repr__(self):
        return f"Expr[{to_source(self)}]"

    def __add__(self, other):
        return _binary(add, self, other)

    def __radd__(self, other):
        return _binary(add, other, self)

    def __sub__(self, other):
        return _binary(sub, self, other)

    def __rsub__(self, other):
        return _binary(sub, other, self)

    def __mul__(self, other):
        return _binary(mul, self, other)

    def __rmul__(self, other):
        return _binary(mul, other, self)

    def __truediv__(self, other):
        return _binary(div, self, other)

    def __rtruediv__(self, other):
        return _binary(div, other, self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __neg__(self):
        return neg(self)

    def children(self) -> tuple["Expr", ...]:
        return ()

    def size(self) -> int:
        """Tree node count (shared subtrees counted per reference)."""
        memo: dict[int, int] = {}

        def walk(node):
            got = memo.get(id(node))
            if got is None:
                got = 1 + sum(walk(c) for c in node.children())
                memo[id(node)] = got
            return got

        return walk(self)

    def free_symbols(self) -> frozenset[str]:
        memo: dict[int, frozenset[str]] = {}

        def walk(node):
            got = memo.get(id(node))
            if got is None:
                if isinstance(node, Sym):
                    got = frozenset((node.name,))
                else:
                    got = frozenset().union(*(walk(c) for c in node.children()))
                memo[id(node)] = got
            return got

        return walk(self)


# Intern table: key -> the one live node with that structure.  Composite
# keys hold the ids of the children; a parent keeps its children alive, so
# a child's id cannot be reused while an entry naming it is live.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


def _intern(cls, key, *fields):
    """The live ``cls`` node for ``key``, or a new one with its slots set
    to ``fields``.  A node is published only once filled in, and the lock
    keeps two threads from both creating the node for one key."""
    node = _NODES.get(key)
    if node is None:
        with _NODES_LOCK:
            node = _NODES.get(key)
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(cls.__slots__, fields):
                    setattr(node, name, value)
                _NODES[key] = node
    return node


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: Number):
        if isinstance(value, complex):
            if value.imag == 0.0:
                value = value.real
            elif value.real == 0.0:
                # the text form has no signed zero real part, and off the
                # real axis the principal branch does not depend on it
                value = complex(0.0, value.imag)
        # keyed by spelling: 1 and 1.0 print differently, 0.0 and -0.0
        # sit on different sides of a branch cut
        return _intern(cls, (cls, type(value), repr(value)), value)

    def __eq__(self, other):
        # 2 == 2.0 == (2+0j), as for the numbers themselves
        return self is other or (isinstance(other, Const)
                                 and self.value == other.value)

    def __hash__(self):
        return hash(self.value)


class Sym(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _intern(cls, (cls, name), name)


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple[Expr, ...]):
        return _intern(cls, (cls, *map(id, terms)), terms)

    def children(self):
        return self.terms


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: tuple[Expr, ...]):
        return _intern(cls, (cls, *map(id, factors)), factors)

    def children(self):
        return self.factors


class Neg(Expr):
    __slots__ = ("arg",)

    def __new__(cls, arg: Expr):
        return _intern(cls, (cls, id(arg)), arg)

    def children(self):
        return (self.arg,)


class Div(Expr):
    __slots__ = ("num", "den")

    def __new__(cls, num: Expr, den: Expr):
        return _intern(cls, (cls, id(num), id(den)), num, den)

    def children(self):
        return (self.num, self.den)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: Fraction):
        return _intern(cls, (cls, id(base), exponent), base, exponent)

    def children(self):
        return (self.base,)


class Fun(Expr):
    __slots__ = ("name", "arg")

    def __new__(cls, name: str, arg: Expr):
        return _intern(cls, (cls, name, id(arg)), name, arg)

    def children(self):
        return (self.arg,)


# ---------------------------------------------------------------------------
# smart constructors: flatten, fold constants, prune identities
# ---------------------------------------------------------------------------

ZERO = Const(0)
ONE = Const(1)
HALF = Const(0.5)
I_UNIT = Const(1j)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def _binary(op, a, b):
    """``op(a, b)`` for an operator dunder.  An operand that ``_coerce``
    rejects gives NotImplemented, so Python tries the other operand's
    reflected method: ``HALF * array`` then works elementwise like
    ``array * HALF``, and ``expr + "s"`` still raises TypeError."""
    try:
        a, b = _coerce(a), _coerce(b)
    except TypeError:
        return NotImplemented
    return op(a, b)


def const(value: Number) -> Const:
    return Const(value)


def sym(name: str) -> Sym:
    return Sym(name)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1


def add(*terms) -> Expr:
    flat: list[Expr] = []
    acc: complex | int | float = 0
    has_const = False
    for t in terms:
        t = _coerce(t)
        if isinstance(t, Add):
            for u in t.terms:
                if isinstance(u, Const):
                    acc = acc + u.value
                    has_const = True
                else:
                    flat.append(u)
        elif isinstance(t, Const):
            acc = acc + t.value
            has_const = True
        else:
            flat.append(t)
    if has_const and acc != 0:
        flat.append(Const(acc))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    acc: complex | int | float = 1
    has_const = False
    for f in factors:
        f = _coerce(f)
        if isinstance(f, Mul):
            for u in f.factors:
                if isinstance(u, Const):
                    acc = acc * u.value
                    has_const = True
                else:
                    flat.append(u)
        elif isinstance(f, Const):
            acc = acc * f.value
            has_const = True
        else:
            flat.append(f)
    if has_const and acc == 0:
        return ZERO
    if has_const and acc != 1:
        flat.insert(0, Const(acc))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def neg(x) -> Expr:
    x = _coerce(x)
    if isinstance(x, Const):
        return Const(-x.value)
    if isinstance(x, Neg):
        return x.arg
    return Neg(x)


def sub(a, b) -> Expr:
    return add(_coerce(a), neg(b))


def div(num, den) -> Expr:
    num = _coerce(num)
    den = _coerce(den)
    if isinstance(den, Const) and den.value != 0:
        if isinstance(num, Const):
            return Const(num.value / den.value)
        if den.value == 1:
            return num
    if _is_zero(num) and not _is_zero(den):
        return ZERO
    return Div(num, den)


def pow_(base, exponent) -> Expr:
    base = _coerce(base)
    if isinstance(exponent, float):
        exponent = Fraction(exponent)
    exponent = Fraction(exponent)
    if exponent == 1:
        return base
    if exponent == 0:
        return ONE
    if isinstance(base, Const):
        try:
            return Const(_pow_value(base.value, exponent))
        except (EvalDomainError, OverflowError, ZeroDivisionError):
            pass
    return Pow(base, exponent)


def fn(name: str, arg) -> Expr:
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function '{name}'")
    arg = _coerce(arg)
    if isinstance(arg, Const):
        try:
            return Const(_fun_value(name, arg.value, arg))
        except (EvalDomainError, OverflowError):
            pass
    return Fun(name, arg)


def sqrt(arg) -> Expr:
    return fn("sqrt", arg)


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

def _sqrt_value(v: Number) -> Number:
    if isinstance(v, complex):
        return cmath.sqrt(v)
    if v >= 0:
        return math.sqrt(v)
    # principal branch: timelike directions get +i
    return complex(0.0, math.sqrt(-v))


def _pow_value(v: Number, q: Fraction) -> Number:
    p, d = q.numerator, q.denominator
    if d == 1:
        if v == 0 and p < 0:
            raise ZeroDivisionError
        return v ** p
    if d == 2:
        s = _sqrt_value(v)
        k = (p - 1) // 2 if p > 0 else -((-p + 1) // 2)
        # v^(p/2) = v^k * sqrt(v)^(p-2k); p odd, so p-2k = +/-1
        rest = s if p - 2 * k == 1 else 1 / s
        return (v ** k) * rest
    if isinstance(v, complex) or v < 0:
        if v == 0:
            raise ZeroDivisionError
        return cmath.exp(float(q) * cmath.log(complex(v)))
    if v == 0:
        if q < 0:
            raise ZeroDivisionError
        return 0.0
    return math.exp(float(q) * math.log(v))


def _fun_value(name: str, v: Number, node: Expr) -> Number:
    if name == "sqrt":
        return _sqrt_value(v)
    if name == "log":
        if isinstance(v, complex) and v.imag != 0.0:
            return cmath.log(v)
        r = v.real if isinstance(v, complex) else v
        if r <= 0:
            raise EvalDomainError(
                f"log of non-positive real in '{to_source(node)}'", node)
        return math.log(r)
    mod = cmath if isinstance(v, complex) else math
    try:
        return getattr(mod, name)(v)
    except OverflowError:
        raise EvalDomainError(f"overflow in '{to_source(node)}'", node) from None


class Evaluator:
    """Evaluate many expressions at one point with shared subtree memoing.

    The cache is keyed by node.  Nodes are interned, so every distinct
    subtree is evaluated once per point however many tensors share it and
    however separately they were built.  Constants bypass the cache: they
    compare by value, and each must keep its own number type.
    """

    def __init__(self, env: dict[str, Number]):
        self.env = env
        self._cache: dict[Expr, Number] = {}

    def __call__(self, e: Expr) -> Number:
        if type(e) is Const:
            return e.value
        got = self._cache.get(e)
        if got is None:
            got = self._cache[e] = self._eval(e)
        return got

    def _eval(self, e: Expr) -> Number:
        if isinstance(e, Sym):
            try:
                return self.env[e.name]
            except KeyError:
                raise UnboundSymbolError(e.name) from None
        if isinstance(e, Add):
            return sum(self(t) for t in e.terms)
        if isinstance(e, Mul):
            v = 1
            try:
                for f in e.factors:
                    v = v * self(f)
            except OverflowError:
                raise EvalDomainError(
                    f"overflow in '{to_source(e)}'", e) from None
            return v
        if isinstance(e, Neg):
            return -self(e.arg)
        if isinstance(e, Div):
            den = self(e.den)
            if den == 0:
                raise EvalDomainError(
                    f"division by zero in '{to_source(e)}'", e)
            return self(e.num) / den
        if isinstance(e, Pow):
            base = self(e.base)
            try:
                return _pow_value(base, e.exponent)
            except ZeroDivisionError:
                raise EvalDomainError(
                    f"zero raised to a negative power in '{to_source(e)}'",
                    e) from None
            except OverflowError:
                raise EvalDomainError(
                    f"overflow in '{to_source(e)}'", e) from None
        if isinstance(e, Fun):
            return _fun_value(e.name, self(e.arg), e)
        raise TypeError(f"cannot evaluate {type(e).__name__}")


def evaluate(e: Expr, env: dict[str, Number]) -> Number:
    """Evaluate ``e`` with every free symbol bound by ``env``."""
    return Evaluator(env)(e)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

_CHAIN = {
    "sin": lambda u: fn("cos", u),
    "cos": lambda u: neg(fn("sin", u)),
    "tan": lambda u: add(ONE, pow_(fn("tan", u), 2)),
    "exp": lambda u: fn("exp", u),
    "sinh": lambda u: fn("cosh", u),
    "cosh": lambda u: fn("sinh", u),
}


class Differentiator:
    """Partial differentiation with a per-node cache, so every distinct
    subtree is differentiated once and derivatives share structure."""

    def __init__(self, coord: str):
        self.coord = coord
        self._cache: dict[Expr, Expr] = {}

    def __call__(self, e: Expr) -> Expr:
        if type(e) is Const:
            return ZERO
        got = self._cache.get(e)
        if got is None:
            got = self._cache[e] = self._diff(e)
        return got

    def _diff(self, e: Expr) -> Expr:
        if isinstance(e, Sym):
            return ONE if e.name == self.coord else ZERO
        if isinstance(e, Add):
            return add(*[self(t) for t in e.terms])
        if isinstance(e, Mul):
            fs = e.factors
            parts = []
            for i, f in enumerate(fs):
                dfi = self(f)
                if _is_zero(dfi):
                    continue
                parts.append(mul(*fs[:i], dfi, *fs[i + 1:]))
            return add(*parts)
        if isinstance(e, Neg):
            return neg(self(e.arg))
        if isinstance(e, Div):
            du, dv = self(e.num), self(e.den)
            if _is_zero(dv):
                return div(du, e.den)
            return div(sub(mul(e.den, du), mul(e.num, dv)), pow_(e.den, 2))
        if isinstance(e, Pow):
            q = e.exponent
            return mul(Const(q.numerator / q.denominator),
                       pow_(e.base, q - 1), self(e.base))
        if isinstance(e, Fun):
            du = self(e.arg)
            if _is_zero(du):
                return ZERO
            if e.name == "log":
                return div(du, e.arg)
            if e.name == "sqrt":
                return div(du, mul(Const(2), fn("sqrt", e.arg)))
            return mul(_CHAIN[e.name](e.arg), du)
        raise TypeError(f"cannot differentiate {type(e).__name__}")


def differentiate(e: Expr, coord: str, chart=None) -> Expr:
    """Exact partial derivative of ``e`` with respect to ``coord``.

    When a chart is given, ``coord`` must be one of its coordinates.
    """
    if chart is not None and coord not in chart.coords:
        raise UnknownCoordinateError(coord)
    return Differentiator(coord)(e)


# ---------------------------------------------------------------------------
# substitution and cleanup
# ---------------------------------------------------------------------------

def substitute(e: Expr, binding: dict[str, "Expr | Number"]) -> Expr:
    """Replace symbols by expressions or numbers, refolding constants."""
    binding = {k: _coerce(v) for k, v in binding.items()}
    cache: dict[Expr, Expr] = {}

    def walk(node):
        if type(node) is Const:
            return node
        got = cache.get(node)
        if got is not None:
            return got
        if isinstance(node, Sym):
            out = binding.get(node.name, node)
        elif isinstance(node, Add):
            out = add(*[walk(t) for t in node.terms])
        elif isinstance(node, Mul):
            out = mul(*[walk(f) for f in node.factors])
        elif isinstance(node, Neg):
            out = neg(walk(node.arg))
        elif isinstance(node, Div):
            out = div(walk(node.num), walk(node.den))
        elif isinstance(node, Pow):
            out = pow_(walk(node.base), node.exponent)
        else:
            out = fn(node.name, walk(node.arg))
        cache[node] = out
        return out

    return walk(e)


def _split_coeff(t: Expr) -> tuple[complex, Expr]:
    if isinstance(t, Neg):
        c, core = _split_coeff(t.arg)
        return -c, core
    if isinstance(t, Mul) and isinstance(t.factors[0], Const):
        rest = t.factors[1:]
        return t.factors[0].value, (rest[0] if len(rest) == 1 else Mul(rest))
    return 1, t


def _collect_add(terms: tuple[Expr, ...]) -> Expr:
    order: list[Expr] = []
    coeffs: dict[Expr, complex] = {}
    const_part: complex | int | float = 0
    for t in terms:
        if isinstance(t, Const):
            const_part = const_part + t.value
            continue
        c, core = _split_coeff(t)
        if core in coeffs:
            coeffs[core] = coeffs[core] + c
        else:
            coeffs[core] = c
            order.append(core)
    out = []
    for core in order:
        c = coeffs[core]
        if c == 0:
            continue
        if c == 1:
            out.append(core)
        elif c == -1:
            out.append(neg(core))
        else:
            out.append(mul(Const(c), core))
    if const_part != 0:
        out.append(Const(const_part))
    return add(*out)


def _collect_mul(factors: tuple[Expr, ...]) -> Expr:
    order: list[Expr] = []
    powers: dict[Expr, Fraction] = {}
    coeff: complex | int | float = 1
    for f in factors:
        if isinstance(f, Const):
            coeff = coeff * f.value
            continue
        base, q = (f.base, f.exponent) if isinstance(f, Pow) else (f, Fraction(1))
        if base in powers:
            powers[base] = powers[base] + q
        else:
            powers[base] = q
            order.append(base)
    out = []
    for base in order:
        q = powers[base]
        if q == 0:
            continue
        out.append(pow_(base, q))
    if coeff != 1:
        out.insert(0, Const(coeff))
    return mul(*out)


def simplify(e: Expr) -> Expr:
    """Best-effort cleanup: constant folding, 0/1 identities, like-term and
    like-power collection.  Value preserving; never grows the tree."""
    cache: dict[Expr, Expr] = {}

    def walk(node):
        if isinstance(node, (Const, Sym)):
            return node
        got = cache.get(node)
        if got is not None:
            return got
        if isinstance(node, Add):
            rebuilt = add(*[walk(t) for t in node.terms])
            out = _collect_add(rebuilt.terms) if isinstance(rebuilt, Add) else rebuilt
        elif isinstance(node, Mul):
            rebuilt = mul(*[walk(f) for f in node.factors])
            out = _collect_mul(rebuilt.factors) if isinstance(rebuilt, Mul) else rebuilt
        elif isinstance(node, Neg):
            out = neg(walk(node.arg))
        elif isinstance(node, Div):
            out = div(walk(node.num), walk(node.den))
        elif isinstance(node, Pow):
            out = pow_(walk(node.base), node.exponent)
        else:
            out = fn(node.name, walk(node.arg))
        cache[node] = out
        return out

    result = walk(e)
    return result if result.size() <= e.size() else e


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?(i?)")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(src: str):
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        ch = src[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(src, pos)
            if m is None:
                raise ParseError("malformed number", pos)
            body, exp10, imag = m.groups()
            text = body + (exp10 or "")
            if imag:
                value: Number = complex(0.0, float(text))
            elif "." in body or exp10:
                value = float(text)
            else:
                value = int(text)
            tokens.append(("num", value, pos))
            pos = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _NAME_RE.match(src, pos)
            tokens.append(("name", m.group(), pos))
            pos = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character '{ch}'", pos)
    tokens.append(("eof", None, max(0, n - 1)))
    return tokens


class _Parser:
    def __init__(self, src: str, allowed: frozenset[str]):
        self.src = src
        self.allowed = allowed
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def fail(self, message):
        raise ParseError(message, self.peek()[2])

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            self.fail(f"expected '{kind}'")
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek()[0] != "eof":
            self.fail("unexpected trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else add(e, neg(rhs))
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.peek()[0] == "^":
            self.advance()
            e = pow_(e, self.rational())
        return e

    def rational(self) -> Fraction:
        parenthesized = self.peek()[0] == "("
        if parenthesized:
            self.advance()
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok[0] != "num" or not isinstance(tok[1], int):
            self.fail("exponent must be a rational literal")
        self.advance()
        numerator = sign * tok[1]
        denominator = 1
        if parenthesized and self.peek()[0] == "/":
            self.advance()
            dtok = self.peek()
            if dtok[0] != "num" or not isinstance(dtok[1], int) or dtok[1] == 0:
                self.fail("exponent denominator must be a positive integer")
            self.advance()
            denominator = dtok[1]
        if parenthesized:
            self.expect(")")
        return Fraction(numerator, denominator)

    def base(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return Const(value)
        if kind == "-":
            self.advance()
            return neg(self.base())
        if kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            self.advance()
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function '{value}'", offset)
                self.advance()
                arg = self.expr()
                self.expect(")")
                return fn(value, arg)
            if value not in self.allowed:
                raise UnknownSymbolError(value, offset)
            return Sym(value)
        self.fail("expected a value")


def parse_expr(source: str, chart, constants=()) -> Expr:
    """Parse DSL text whose free symbols are chart coordinates or declared
    constant names."""
    allowed = frozenset(chart.coords) | frozenset(constants)
    return _Parser(source, allowed).parse()


# ---------------------------------------------------------------------------
# printing (round-trips through parse_expr)
# ---------------------------------------------------------------------------

def _fmt_real(x) -> str:
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _fmt_number(v: Number) -> str:
    if isinstance(v, complex):
        if v.real == 0.0:
            return _fmt_real(v.imag) + "i" if v.imag >= 0 else \
                "-" + _fmt_real(-v.imag) + "i"
        im = v.imag
        op, mag = (" + ", im) if im >= 0 else (" - ", -im)
        return "(" + _fmt_real(v.real) + op + _fmt_real(mag) + "i)"
    if isinstance(v, (int, float)) and v < 0:
        return "-" + _fmt_real(-v)
    return _fmt_real(v)


def _needs_parens(e: Expr, level: int) -> bool:
    if isinstance(e, Add):
        return level >= 1
    if isinstance(e, (Mul, Div, Neg)):
        return level >= 2
    if isinstance(e, Pow):
        return level >= 3
    if isinstance(e, Const):
        s = _fmt_number(e.value)
        return level >= 1 and s.startswith("-")
    return False


def _p(e: Expr, level: int) -> str:
    if _needs_parens(e, level):
        return "(" + _p(e, 0) + ")"
    if isinstance(e, Const):
        return _fmt_number(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Add):
        parts = [_p(e.terms[0], 1)]
        for t in e.terms[1:]:
            if isinstance(t, Neg):
                parts.append(" - " + _p(t.arg, 2))
            elif isinstance(t, Const) and _fmt_number(t.value).startswith("-"):
                parts.append(" - " + _fmt_number(-t.value))
            else:
                parts.append(" + " + _p(t, 1))
        return "".join(parts)
    if isinstance(e, Mul):
        return " * ".join(_p(f, 2) for f in e.factors)
    if isinstance(e, Div):
        return _p(e.num, 2) + " / " + _p(e.den, 3)
    if isinstance(e, Neg):
        return "-" + _p(e.arg, 3)
    if isinstance(e, Pow):
        q = e.exponent
        if q.denominator == 1 and q >= 0:
            exp_s = str(q.numerator)
        elif q.denominator == 1:
            exp_s = f"({q.numerator})"
        else:
            exp_s = f"({q.numerator}/{q.denominator})"
        return _p(e.base, 3) + "^" + exp_s
    if isinstance(e, Fun):
        return e.name + "(" + _p(e.arg, 0) + ")"
    raise TypeError(type(e).__name__)


def to_source(e: Expr) -> str:
    """Render an expression in the text grammar."""
    return _p(e, 0)
