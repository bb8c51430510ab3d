"""Symbolic scalar expressions over named coordinates.

Small immutable expression trees with a text front end, value-preserving
cleanup, and complex-capable numeric evaluation (their derivatives are in
``derivative``).  Constants may be complex; purely real subtrees stay in real
arithmetic.  Powers carry exact rational exponents and evaluate on the
principal branch, so square roots of negative reals come out as +i times
the real root.

Grammar of the text form (offsets in errors are 0-based byte positions)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | base ('^' rational)?
    base     := number | symbol | func '(' expr ')' | '(' expr ')'
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
import operator
import re
import threading
import weakref
from fractions import Fraction
from itertools import repeat

from .errors import (
    EvalDomainError,
    ParseError,
    UnboundSymbolError,
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


# Constant folding keeps exact integers up to this many bits: beyond the
# float range, so exact cancellations still fold, yet far below the
# 4,300 digits Python prints and quick to compute.  A wider result is an
# overflow: the operation is left unfolded, and evaluating it faults.
EXACT_INT_BITS = 4096


def _exact(value: Number) -> Number:
    """``value``, or OverflowError for an integer wider than
    ``EXACT_INT_BITS``."""
    if type(value) is int and value.bit_length() > EXACT_INT_BITS:
        raise OverflowError("exact integer beyond the folding bound")
    return value


def _folded(value: Number) -> Const:
    """The constant ``value``, or OverflowError for a float or complex
    with an inf or nan part.  The grammar cannot spell such a constant, so
    the operation that would fold to it is left unfolded, and evaluating
    it gives what the arithmetic gives."""
    if isinstance(value, int) or cmath.isfinite(value):
        return Const(value)
    raise OverflowError("non-finite constant")


def _unfolded(cls, args) -> Expr:
    """The sum or product ``cls`` of ``args``, flattened, with no constant
    folded."""
    flat = tuple(u for a in map(_coerce, args)
                 for u in (a.children() if type(a) is cls else (a,)))
    return flat[0] if len(flat) == 1 else cls(flat)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


#: constants up to this magnitude are tame: a product of a few of them,
#: or a sum of many such products, is far from overflowing a float
TAME_BOUND = 2.0 ** 100


def _tame(value: Number) -> bool:
    if isinstance(value, complex):
        return abs(value.real) <= TAME_BOUND and abs(value.imag) <= TAME_BOUND
    return abs(value) <= TAME_BOUND     # False for nan


def add(*terms) -> Expr:
    flat: list[Expr] = []
    acc: complex | int | float = 0
    has_const = False
    for t in map(_coerce, terms):
        for u in t.terms if isinstance(t, Add) else (t,):
            if isinstance(u, Const):
                try:
                    acc = _exact(acc + u.value)
                    has_const = True
                    continue
                except OverflowError:
                    pass    # an integer too wide to fold stays a term
            flat.append(u)
    if has_const and acc != 0:
        try:
            flat.append(_folded(acc))
        except OverflowError:
            return _unfolded(Add, terms)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    acc: complex | int | float = 1
    has_const = False
    for f in map(_coerce, factors):
        for u in f.factors if isinstance(f, Mul) else (f,):
            if isinstance(u, Const):
                try:
                    acc = _exact(acc * u.value)
                    has_const = True
                    continue
                except OverflowError:
                    pass    # an integer too wide to fold stays a factor
            flat.append(u)
    if has_const and acc == 0:
        return ZERO
    if has_const and acc != 1:
        try:
            flat.insert(0, _folded(acc))
        except OverflowError:
            return _unfolded(Mul, factors)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def neg(x) -> Expr:
    x = _coerce(x)
    if isinstance(x, Const):
        try:
            return _folded(-x.value)
        except OverflowError:
            return Neg(x)
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
            try:
                return _folded(num.value / den.value)
            except OverflowError:
                return Div(num, den)
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
            return _folded(_pow_value(base.value, exponent))
        except (EvalDomainError, OverflowError, ZeroDivisionError):
            pass
    return Pow(base, exponent)


def fn(name: str, arg) -> Expr:
    if name not in FUNCTIONS:
        raise ValueError(f"unknown function '{name}'")
    arg = _coerce(arg)
    if isinstance(arg, Const):
        try:
            return _folded(_fun_value(name, arg.value, arg))
        except (EvalDomainError, OverflowError, ValueError):
            pass
    return Fun(name, arg)


def sqrt(arg) -> Expr:
    return fn("sqrt", arg)


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

def _int_pow(v: Number, p: int) -> Number:
    """``v ** p``; for an exact integer ``v``, OverflowError before
    computing a result wider than ``EXACT_INT_BITS``."""
    if type(v) is int and p > 0 and \
            (abs(v).bit_length() - 1) * p > EXACT_INT_BITS:
        raise OverflowError("exact integer power beyond the folding bound")
    return _exact(v ** p)


def _pow_value(v: Number, q: Fraction) -> Number:
    p, d = q.numerator, q.denominator
    if d == 1:
        if v == 0 and p < 0:
            raise ZeroDivisionError
        return _int_pow(v, p)
    if d == 2:
        s = _FUNCTION["sqrt"](v)
        k = (p - 1) // 2 if p > 0 else -((-p + 1) // 2)
        # v^(p/2) = v^k * sqrt(v)^(p-2k); p odd, so p-2k = +/-1
        rest = s if p - 2 * k == 1 else 1 / s
        return _int_pow(v, k) * rest
    if isinstance(v, complex) or v < 0:
        if v == 0:
            raise ZeroDivisionError
        return cmath.exp(float(q) * cmath.log(complex(v)))
    if v == 0:
        if q < 0:
            raise ZeroDivisionError
        return 0.0
    return math.exp(float(q) * math.log(v))


# Each function's value as an expression in its operand ``{0}``: the
# ``math`` function (bound to its own name) for a real operand, the
# ``cmath`` one (bound to the name with a ``c`` in front) for a complex
# one.  A tape writes the expression inline, and for an operand known to be
# real only its real branch; ``_FUNCTION`` holds it as a callable for the
# walk.
_REAL_SOURCE = {name: f"{name}({{0}})" for name in FUNCTIONS}
# the principal branch: timelike directions get +i
_REAL_SOURCE["sqrt"] = "sqrt({0}) if {0} >= 0 else complex(0, sqrt(-{0}))"
_COMPLEX_SOURCE = {name: f"c{name}({{0}})" for name in FUNCTIONS}
# a zero imaginary part takes the real logarithm, which refuses a
# non-positive real with ValueError
_COMPLEX_SOURCE["log"] = "(clog({0}) if {0}.imag else log({0}.real))"
_FUNCTION_SOURCE = {
    name: f"{_COMPLEX_SOURCE[name]} if isinstance({{0}}, complex) "
          f"else {_REAL_SOURCE[name]}"
    for name in FUNCTIONS}
_FUNCTION_NAMES = {**{name: getattr(math, name) for name in FUNCTIONS},
                   **{"c" + name: getattr(cmath, name) for name in FUNCTIONS}}
_FUNCTION = {name: eval(f"lambda v: {source.format('v')}",
                        dict(_FUNCTION_NAMES))
             for name, source in _FUNCTION_SOURCE.items()}


#: the types of value that are real, and those that are never an exact int
_REAL, _INEXACT = {int, float}, {float, complex}


def _fun_values(name: str, values: list, node: Expr) -> list:
    """``name`` of each of ``values``; a log of a non-positive real is an
    EvalDomainError naming ``node``."""
    try:
        return list(map(_FUNCTION[name], values))
    except ValueError:
        if name != "log":
            raise
        raise _fault("log of non-positive real", node) from None


def _fun_value(name: str, v: Number, node: Expr) -> Number:
    return _fun_values(name, [v], node)[0]


def _fault(what: str, node: Expr) -> EvalDomainError:
    return EvalDomainError(f"{what} in '{to_source(node)}'", node)


def walk(roots, points: list[dict[str, Number]],
         known: dict | None = None) -> list[list]:
    """The values of ``roots`` at each of ``points``, one list per root of
    its values at the points in order: the definition of evaluation, and
    the one place that names a fault.

    A memoised depth-first walk computes each node once, for all points
    at once, and each point's value by the same scalar operations at every
    number of points: a sum or a product combines its operands as it
    reaches them, from 0 or 1; a quotient tests its denominator before it
    evaluates its numerator.  The first fault met is raised, naming its
    node.  When one occurs over several points, the walk goes again one
    point at a time, in order, and raises what the one-point walk raises
    at the first point that faults.  ``known`` maps nodes to their values
    at ``points`` already; the walk adds the nodes it computes.
    """
    roots = list(roots)
    try:
        return _walk(roots, points, {} if known is None else known)
    except Exception as exc:
        if len(points) == 1:
            raise
        fault = exc
    for point in points:
        _walk(roots, [point], {})
    raise fault


def _walk(roots: list, points: list, memo: dict) -> list[list]:
    k = len(points)
    zeros, ones = [0] * k, [1] * k

    def value(e):
        t = type(e)
        if t is Const:
            return [e.value] * k
        got = memo.get(e)
        if got is not None:
            return got
        # an operand's fault is raised as the package error already, so
        # what these clauses catch comes from this node's own operation
        try:
            if t is Sym:
                name = e.name
                got = [point[name] for point in points]
            elif t is Add:
                got = zeros
                for term in e.terms:
                    got = list(map(operator.add, got, value(term)))
            elif t is Mul:
                got = ones
                for factor in e.factors:
                    got = list(map(operator.mul, got, value(factor)))
            elif t is Neg:
                got = list(map(operator.neg, value(e.arg)))
            elif t is Div:
                den = value(e.den)
                if 0 in den:
                    raise _fault("division by zero", e)
                got = list(map(operator.truediv, value(e.num), den))
            elif t is Pow:
                q, base = e.exponent, value(e.base)
                # an integer power of floats and complexes is the operator,
                # which raises ZeroDivisionError for zero as _pow_value does
                if q.denominator == 1 and set(map(type, base)) <= _INEXACT:
                    got = list(map(operator.pow, base,
                                   repeat(q.numerator, k)))
                else:
                    got = [_pow_value(v, q) for v in base]
            elif t is Fun:
                got = _fun_values(e.name, value(e.arg), e)
            else:
                raise TypeError(f"cannot evaluate {t.__name__}")
        except KeyError:
            raise UnboundSymbolError(e.name) from None
        except ZeroDivisionError:
            raise _fault("zero raised to a negative power", e) from None
        except OverflowError:
            raise _fault("overflow", e) from None
        except ValueError:
            # the math functions refuse only an infinite argument
            raise _fault("non-finite argument", e) from None
        memo[e] = got
        return got

    return [value(e) for e in roots]


def evaluate(e: Expr, env: dict[str, Number]) -> Number:
    """Evaluate ``e`` with every free symbol bound by ``env``."""
    return walk((e,), [env])[0][0]


# ---------------------------------------------------------------------------
# cleanup
# ---------------------------------------------------------------------------

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
            const_part = _exact(const_part + t.value)
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
            out.append(mul(_folded(c), core))
    if const_part != 0:
        out.append(_folded(const_part))
    return add(*out)


def _collect_mul(factors: tuple[Expr, ...]) -> Expr:
    order: list[Expr] = []
    powers: dict[Expr, Fraction] = {}
    coeff: complex | int | float = 1
    for f in factors:
        if isinstance(f, Const):
            coeff = _exact(coeff * f.value)
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
        out.insert(0, _folded(coeff))
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

    try:
        result = walk(e)
    except OverflowError:
        # collecting constants overflowed the integer bound or a float, or
        # made an inf or nan
        return e
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
            if imag or "." in body or exp10:
                value: Number = float(text)
                if math.isinf(value):
                    raise ParseError("number literal out of range", pos)
                if imag:
                    value = complex(0.0, value)
            else:
                try:
                    value = int(text)
                except ValueError:      # more digits than Python converts
                    raise ParseError(f"integer literal of {len(text)} "
                                     "digits is too long", pos) from None
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


#: deepest nesting of '(', function calls and unary '-' the parser takes;
#: each level is a few frames of this parser and of every tree walk after
#: it, so a bound well below the interpreter's recursion limit keeps a
#: deep input an input error rather than a RecursionError
MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str, coords: tuple[str, ...],
                 constants: dict[str, Number]):
        self.src = src
        self.coords = coords
        self.constants = constants
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

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
        kind, _, offset = self.peek()
        if kind == "-":
            # below '^': -x^2 is -(x^2)
            self.advance()
            return neg(self.nested(offset, self.factor))
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

    def nested(self, offset: int, parse) -> Expr:
        """``parse()`` one nesting level deeper, the level opened at
        ``offset``."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} levels",
                             offset)
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def base(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return Const(value)
        if kind == "(":
            self.advance()
            e = self.nested(offset, self.expr)
            self.expect(")")
            return e
        if kind == "name":
            self.advance()
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function '{value}'", offset)
                self.advance()
                arg = self.nested(offset, self.expr)
                self.expect(")")
                return fn(value, arg)
            if value in self.constants:
                return Const(self.constants[value])
            if value not in self.coords:
                raise UnknownSymbolError(value, offset)
            return Sym(value)
        self.fail("expected a value")


def parse_expr(source: str, chart, constants=None) -> Expr:
    """Parse DSL text whose names are chart coordinates or the names of
    ``constants``, a mapping from each constant's name to its value.  A
    constant reads as its literal: ``M`` with ``M = 0.7`` builds the node
    that ``(0.7)`` builds."""
    return _Parser(source, chart.coords, constants or {}).parse()


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
