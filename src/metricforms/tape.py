"""Compiled straight-line evaluation: ``Tape``.

``expr.walk`` is the definition of evaluation; a tape computes the same
values bit for bit from one compiled Python function, and pays only where
one read runs thousands of times at points not known in advance: a
geodesic right-hand side, and the norm monitor's metric along a
trajectory.  It stands apart from ``expr`` because,
without cached bytecode, compiling the largest module sets the memory
peak of an import.
"""

from __future__ import annotations

from .errors import UnboundSymbolError
from .expr import (
    _FUNCTION_NAMES,
    _FUNCTION_SOURCE,
    _INEXACT,
    _REAL,
    _REAL_SOURCE,
    Add,
    Const,
    Div,
    Expr,
    Fun,
    Mul,
    Neg,
    Pow,
    Sym,
    _pow_value,
    walk,
)

# Operands per statement of a sum or product.  Python's compiler recurses
# once per binary operator and gives up near 3,000 of them in one
# expression.  The geodesic right-hand sides of the catalog, of
# Painleve-Gullstrand, Kerr and a dense 4-D metric, and of a dense 5-D one
# hold sums and products of at most 30 operands; the bound keeps the tape
# of any larger expression compilable.
TAPE_CHAIN = 1000


def _unbound(name: str):
    raise UnboundSymbolError(name)


class Tape:
    """``Tape(roots, args)(*values)``: the tuple of the values of ``roots``
    with the symbols named ``args`` bound to ``values`` in order, from one
    compiled straight-line function, ``run``.  It pays only for a read that
    runs thousands of times at points not known in advance, as a geodesic
    right-hand side does: ``walk`` computes all the sample points of an
    analysis at once for less than compiling costs.  The norm monitor maps
    ``run`` over the coordinate columns of a block of trajectory points,
    where a walk would hold one list of values per node for all of them.

    With ``state`` true, ``run(x, u)`` is a right-hand side: ``x`` and
    ``u`` are tuples of floats that bind the first and the second half of
    ``args``, and it returns ``float(v.real)`` of each value ``v``.
    Otherwise ``run`` takes one parameter per symbol and returns the values
    as they are.

    Every distinct non-constant node that is not an argument is one
    statement on a local variable, in the order ``walk`` finishes them, a
    quotient's denominator first.  A statement does the walk's arithmetic:
    a sum from 0 and a product from 1 (continued past ``TAPE_CHAIN``
    operands), ``-a``, ``a / b``, ``a ** p`` for an integer power of a
    non-constant and ``_pow_value`` otherwise, and a function node's
    expression from ``_FUNCTION_SOURCE``, inline, so the values are the
    walk's bit for bit.

    The emitter tracks which values are known real (an int or a float) and
    which can never be an exact int (a float or a complex): a state tape's
    arguments are floats, a constant is what its type says, and ``+ - * /``,
    negation and integer powers of real operands are real, as are the
    function nodes but ``sqrt``, which are never exact ints.  Where that
    gives the same bits, it writes the cheaper form:

    - a function of a real operand is its real branch, ``_REAL_SOURCE``,
      with no ``isinstance`` test;
    - a sum whose first term is never an exact int starts from 0.0, which
      adds as 0 does to a float or a complex and takes the float fast path;
    - a product whose first factor is real has no start, since ``1 * v``
      is ``v`` for an int or a float, and one whose first factor is never
      an exact int starts from 1.0;
    - a state tape returns a root known to be a float as it is.

    Numbers, exponents, the starts of sums and products and the name of a
    symbol outside ``args``, which faults when reached, are names ``k0``,
    ``k1``, ... of the function's own namespace, read as globals (a call
    binds nothing per constant), so ``source`` holds no user text.  On any
    exception ``run`` walks its roots at that point and raises what the
    walk raises, else the exception.
    """

    def __init__(self, roots, args, state=False):
        self.roots, self.args = list(roots), tuple(args)
        params = [f"a{k}" for k in range(len(self.args))]
        local = dict(zip(map(Sym, self.args), params))
        # the names whose values are known real, and those that are never
        # an exact int
        real = set(params) if state else set()
        inexact = set(real)
        consts: dict = {}
        lines: list[str] = []

        def table(value) -> str:
            name = f"k{len(consts)}"
            consts[name] = value
            return name

        # the starts of a sum and of a product, by whether the first
        # operand is never an exact int
        zero = {False: table(0), True: table(0.0)}
        one = {False: table(1), True: table(1.0)}

        def emit(e: Expr) -> str:
            """The name of the value of ``e``, after the statements for
            its operands not yet computed and then for ``e``."""
            t = type(e)
            if t is Const:
                ref = table(e.value)
                if type(e.value) in _REAL:
                    real.add(ref)
                if type(e.value) in _INEXACT:
                    inexact.add(ref)
                return ref
            if e in local:
                return local[e]
            refs = list(map(emit, (e.den, e.num) if t is Div
                            else e.children()))
            ref = local[e] = f"v{len(lines)}"
            if t is Sym:
                lines.append(f"{ref} = _unbound({table(e.name)})")
                return ref
            if t is Fun:
                if refs[0] in real and e.name != "sqrt":
                    real.add(ref)
                inexact.add(ref)
            elif t is Pow and e.exponent.denominator != 1:
                inexact.add(ref)
            else:
                if all(map(real.__contains__, refs)):
                    real.add(ref)
                if any(map(inexact.__contains__, refs)):
                    inexact.add(ref)
            if t is Add or t is Mul:
                if t is Add:
                    op, start = " + ", [zero[refs[0] in inexact]]
                else:
                    op, start = " * ", ([] if refs[0] in real
                                        else [one[refs[0] in inexact]])
                refs = start + refs
                # a longer chain goes on in the variable, left to right
                lines.append("; ".join(
                    f"{ref} = " + op.join([ref] * bool(i)
                                          + refs[i:i + TAPE_CHAIN])
                    for i in range(0, len(refs), TAPE_CHAIN)))
                return ref
            if t is Neg:
                rhs = "-" + refs[0]
            elif t is Div:
                rhs = f"{refs[1]} / {refs[0]}"
            elif t is Pow and e.exponent.denominator == 1 \
                    and type(e.base) is not Const:
                rhs = f"{refs[0]} ** {table(e.exponent.numerator)}"
            elif t is Pow:
                rhs = f"_pow({refs[0]}, {table(e.exponent)})"
            elif t is Fun:
                source = _REAL_SOURCE if refs[0] in real else _FUNCTION_SOURCE
                rhs = source[e.name].format(refs[0])
            else:
                raise TypeError(f"cannot evaluate {t.__name__}")
            lines.append(f"{ref} = {rhs}")
            return ref

        out = list(map(emit, self.roots))
        listed = "".join(p + ", " for p in params)
        if state:
            half = len(params) // 2
            head = ["def _tape(x, u):\n",
                    f"    ({''.join(p + ', ' for p in params[:half])}) = x\n",
                    f"    ({''.join(p + ', ' for p in params[half:])}) = u\n"]
            out = [ref if ref in real and ref in inexact
                   else f"float({ref}.real)" for ref in out]
        else:
            head = [f"def _tape({listed}):\n"]
        self.source = "".join([
            *head, "    try:\n",
            *(f"        {line}\n" for line in lines),
            f"        return ({''.join(ref + ', ' for ref in out)})\n",
            "    except Exception as exc:\n",
            "        fault = exc\n",
            f"    _refault(fault, {listed})\n"])

        roots, args = self.roots, self.args

        def refault(fault, *values):
            walk(roots, [dict(zip(args, values))])
            raise fault

        namespace = {**_FUNCTION_NAMES, "_pow": _pow_value,
                     "_unbound": _unbound, "_refault": refault,
                     **consts}
        exec(compile(self.source, "<tape>", "exec"), namespace)
        self.run = namespace["_tape"]

    def __call__(self, *values):
        return self.run(*values)
