"""Generate src/rollsim/_eom.py, the closed-form equations of motion.

Run from a checkout (needs sympy; the generated module does not):

    python tools/gen_eom.py              # rewrite src/rollsim/_eom.py
    python tools/gen_eom.py --out PATH   # write the module somewhere else

T, U and the Rayleigh function P are rollsim._core.kinetic,
rollsim._core.potential and rollsim._core.dissipation themselves: the
generator imports rollsim from the src/ directory next to it and calls them
on sympy symbols (see energies and derive). tests/test_eom.py checks that
the checked-in module matches a fresh generation. From T, U and P sympy
derives, for M(q) qdd + bias(q, qd) + G(q) = tau,

    M    = d2T / dqd dqd
    bias = Mdot qd - dT/dq + dP/dqd    (dP/dqd = diag(delta) qd)
    G    = dU/dq          (one vector per potential variant)

and common subexpression elimination turns each set into straight-line
code, one _block per term. The tip separation p_m and p_m times its
gradient come from rollsim._core.separation the same way (see
tip_geometry). A block's temporaries are named for its term (xm*, xb*,
xg*, xt*) and its outputs are assigned to names, and the same lines are
printed twice: as the term's function (mass_matrix, bias, gravity,
tip_geometry), and inside loop_for. More functions are printed from fixed
texts: solve_spd4, the 4x4 Cholesky written once as the CHOLESKY text;
tip_law, the tip force law written once as the TIP_LAW text; pd_error and
pd_input, the PD law written once as the PD_LAW text; and loop_for(p,
variant, dt, mag, pd), which the run loop calls once per run. _def prints
every generated function, loop_for's nested loop included. loop_for
unpacks the gains and targets of pd and returns loop(ys, n), the run's one
call: up to n RK4 steps with the state in locals, each step the PD law
inline on its start state, held as tau = _core.torque_map(u1, u2), then
the rest of the blocks, the force law and the solve, in a loop over the
four stages. There, as in the term functions, each angle sum is named and
each sine and cosine taken once (_trig_lines). One pass over the stage's
syntax tree, _number, rewrites it and moves what p and mag alone determine
into loop_for; its docstring states the rules and why each stage's qdd
keeps the separate calls' bits but for the sign of a zero. The tests pin
the bytes.
The output uses only +, -, *, / and math's sin, cos and sqrt: integer
powers are written as products, because Python's float ** raises
OverflowError where a product overflows to inf, and the integrator reports
a non-finite state by testing for inf and nan.

Importing rollsim._core imports the checked-in _eom, so a syntactically
broken _eom.py must be restored (git checkout src/rollsim/_eom.py) before
the generator can run.
"""

from __future__ import annotations

import argparse
import ast
import builtins
import copy
import itertools
import symtable
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import sympy as sp
from sympy.printing.pycode import PythonCodePrinter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from rollsim import _core  # noqa: E402

OUT = SRC / "rollsim" / "_eom.py"

PAR = sp.symbols("m_p m_s I_p I_s r1 r2 R1 R2 g d_th1 d_th2 d_ph1 d_ph2")
# the packed tip coupling, rollsim._core's mag, and tip_geometry's outputs
MAG = ("enabled", "B_max", "P_max", "A", "mu0")
TIP = ("pm", "pg0", "pg1", "pg2", "pg3")
Q = sp.symbols("th1 th2 ph1 ph2")
QD = sp.symbols("dth1 dth2 dph1 dph2")

VERBATIM, GEOMETRIC = _core.VARIANT_VERBATIM, _core.VARIANT_GEOMETRIC

# every angle the simplified terms take a sine or cosine of, with the
# suffix of its c*/s* name in the generated code
th1, th2, ph1, ph2 = Q
ANGLES = ((ph1 + th1, "31"), (ph1 + ph2, "34"), (ph2 + th2, "42"),
          (ph1 - th2, "12"))


# what rollsim._core calls of numpy, bound to sympy while it runs on symbols
SYMPY_NP = SimpleNamespace(sin=sp.sin, cos=sp.cos, sqrt=sp.sqrt)


def energies():
    """T and {variant: U} as sympy expressions of PAR, Q, QD.

    rollsim._core.kinetic and rollsim._core.potential themselves, called on
    symbols. They are elementwise arithmetic whose only library calls are
    np.sin and np.cos, which are bound to sympy's for the call. nsimplify
    makes their float literals (0.5) exact rationals.
    """
    with mock.patch.object(_core, "np", SYMPY_NP):
        T = _core.kinetic(PAR, Q, QD)
        U = {v: _core.potential(PAR, Q, v) for v in (VERBATIM, GEOMETRIC)}
    return (sp.nsimplify(T, rational=True),
            {v: sp.nsimplify(u, rational=True) for v, u in U.items()})


def tip_geometry(trig):
    """(pre, outputs) of the tip geometry, for _block.

    pre assigns dx and dy, rollsim._core.bob_offset built unevaluated:
    printed in order, they repeat its float operations, so the p_m of them
    is rollsim._core.separation's to the last bit. It then names their
    partials.
    outputs are separation's p_m and, by sympy's chain rule, p_m times its
    gradient, which has no division to raise at p_m = 0.
    """
    offset = sp.symbols("dx dy")
    calls = [sp.Function(str(s))(*Q) for s in offset]
    with mock.patch.object(_core, "np", SYMPY_NP):
        with sp.evaluate(False):
            exact = _core.bob_offset(PAR, Q)
            pre = [(s, e.xreplace(trig)) for s, e in zip(offset, exact)]
        with mock.patch.object(_core, "bob_offset", lambda par, q: calls):
            pm = _core.separation(PAR, Q)
    names = dict(zip(calls, offset))
    for call, e in zip(calls, exact):
        for x in Q:
            d = names[sp.Derivative(call, x)] = sp.Symbol(f"{call.func}_{x}")
            pre.append((d, sp.diff(e, x).xreplace(trig)))
    outputs = [pm] + [sp.diff(pm, x) * pm for x in Q]
    return pre, [e.xreplace(names) for e in outputs]


def derive():
    """Symbolic (M, bias, {variant: G}) as sympy expressions of PAR, Q, QD.

    The friction in the bias is dP/dqd of the Rayleigh function P,
    rollsim._core.dissipation called on symbols as T and U are.
    """
    T, U = energies()
    P = sp.nsimplify(_core.dissipation(PAR, QD), rational=True)
    M = sp.Matrix(4, 4, lambda i, j: sp.diff(T, QD[i], QD[j]))
    bias = [sum(sp.diff(M[i, j], Q[k]) * QD[j] * QD[k]
                for j in range(4) for k in range(4))
            - sp.diff(T, Q[i]) + sp.diff(P, QD[i])
            for i in range(4)]
    G = {v: [sp.diff(U[v], x) for x in Q] for v in (VERBATIM, GEOMETRIC)}
    return M, bias, G


def _trig_symbols():
    subs = {}
    for angle, tag in ANGLES:
        subs[sp.cos(angle)] = sp.Symbol("c" + tag)
        subs[sp.sin(angle)] = sp.Symbol("s" + tag)
    return subs


def _tidy(expr, trig):
    """Simplify one term and replace its sines and cosines by c*/s* names.

    Velocity monomials are collected with factored coefficients, so each
    trigonometric product appears once per monomial.
    """
    poly = sp.Poly(sp.expand(expr), *QD)
    out = sp.Add(*[sp.factor(sp.trigsimp(c))
                   * sp.Mul(*[v**k for v, k in zip(QD, mon)])
                   for mon, c in poly.terms()])
    out = out.xreplace(trig)
    stray = out.atoms(sp.sin, sp.cos)
    if stray:
        raise ValueError(f"no c*/s* name for {sorted(map(str, stray))}")
    return out


class _Printer(PythonCodePrinter):
    """Python source with integer powers written as products, and sqrt.

    Integers print as floats: CPython specialises float * float, not
    int * float, and small integers convert to doubles exactly.
    """

    def _print_Integer(self, expr):
        return f"{expr.p}.0"

    def _print_Pow(self, expr, rational=False):
        base, exp = expr.as_base_exp()
        if exp == sp.S.Half:
            return f"sqrt({self._print(base)})"
        if exp.is_Integer and 1 <= exp <= 8:
            b = self.parenthesize(base, sp.printing.precedence.PRECEDENCE["Mul"])
            return "*".join([b] * int(exp))
        raise ValueError(f"unsupported power {expr}")


def _block(outputs, names, prefix, trig, pre=()):
    """One term's straight-line code: (the c*/s* names it reads, its lines).

    outputs is the list of the term's expressions, or a dict mapping each
    potential variant to its list. The lines are unindented assignments
    and branch headers: pre's (symbol, expression) pairs first, printed in
    argument order and keeping their grouping, then the term's common
    subexpressions prefix0, prefix1, ..., then the outputs assigned to
    names, under one if/else branch per variant.
    """
    printer = _Printer()
    branches = outputs if isinstance(outputs, dict) else {None: outputs}
    exprs = [e for out in branches.values() for e in out]
    reps, reduced = sp.cse(exprs, symbols=sp.numbered_symbols(prefix),
                           optimizations="basic")
    used = set().union(*(e.free_symbols for _, e in [*pre, *reps]),
                       *(e.free_symbols for e in reduced))
    in_order = _Printer({"order": "none"})
    lines = [f"{sym} = {in_order.doprint(e)}" for sym, e in pre]
    lines += [f"{sym} = {printer.doprint(e)}" for sym, e in reps]
    for i, (variant, out) in enumerate(branches.items()):
        mine, reduced = reduced[:len(out)], reduced[len(out):]
        indent = ""
        if variant is not None:
            indent = "    "
            lines.append("else:" if i == len(branches) - 1 else
                         f"{'if' if i == 0 else 'elif'} variant == {variant}:")
        lines += [f"{indent}{n} = {printer.doprint(e)}"
                  for n, e in zip(names, mine)]
    return {sym for sym in trig.values() if sym in used}, lines


def _trig_lines(trig, used):
    """Each angle sum that a used c*/s* name reads, named a*, then those
    names taken of it once."""
    lines = []
    for angle, tag in ANGLES:
        taken = [(func, sym) for func, sym in trig.items()
                 if func.args[0] == angle and sym in used]
        if taken:
            lines.append(f"a{tag} = {_Printer().doprint(angle)}")
            lines += [f"{sym} = {type(func).__name__}(a{tag})"
                      for func, sym in taken]
    return lines


def _unpack(names, value):
    return f"{', '.join(map(str, names))} = {value}"


def _def(name, args, doc, body, returned):
    """Source of the function name(args) with docstring doc, the unindented
    lines of body, then `return returned`; blank lines stay blank, so a
    function printed here can be part of another's body. A long argument
    list is wrapped under its opening parenthesis."""
    head = f"def {name}("
    signature = textwrap.wrap(", ".join(args), 72 - len(head),
                              break_long_words=False,
                              break_on_hyphens=False) or [""]
    signature = "\n".join(
        [head + signature[0]] + [" " * len(head) + a for a in signature[1:]])
    lines = [*f'"""{doc}"""'.splitlines(), *body, f"return {returned}"]
    lines = [f"{signature}):"] + [
        f"    {line}" if line else "" for line in lines]
    return "\n".join(lines) + "\n"


# M x = b by Cholesky, M given as its upper triangle m00..m33 row by row,
# into x0..x3: one text, printed whole as solve_spd4, which takes any M, and
# inline in loop without the terms that M's structural zeros make zero
# (_number). A non-positive or non-finite pivot returns None; no input makes it
# raise. Every name is assigned once, so the pivots of p alone can move to
# loop_for.
CHOLESKY = """\
if not 0.0 < m00 < inf:
    return None
l00 = sqrt(m00)
l10 = m01 / l00
l20 = m02 / l00
l30 = m03 / l00
d11 = m11 - l10 * l10
if not 0.0 < d11 < inf:
    return None
l11 = sqrt(d11)
l21 = (m12 - l20 * l10) / l11
l31 = (m13 - l30 * l10) / l11
d22 = m22 - l20 * l20 - l21 * l21
if not 0.0 < d22 < inf:
    return None
l22 = sqrt(d22)
l32 = (m23 - l30 * l20 - l31 * l21) / l22
d33 = m33 - l30 * l30 - l31 * l31 - l32 * l32
if not 0.0 < d33 < inf:
    return None
l33 = sqrt(d33)
y0 = b0 / l00
y1 = (b1 - l10 * y0) / l11
y2 = (b2 - l20 * y0 - l21 * y1) / l22
y3 = (b3 - l30 * y0 - l31 * y1 - l32 * y2) / l33
x3 = y3 / l33
x2 = (y2 - l32 * x3) / l22
x1 = (y1 - l21 * x2 - l31 * x3) / l11
x0 = (y0 - l10 * x1 - l20 * x2 - l30 * x3) / l00"""

# The tip attraction's generalized force t = -F grad p_m, from pm = p_m and
# pg0..pg3 = p_m grad p_m: one text, printed as tip_law and inline in loop.
# B falls linearly from B_max at contact to zero at P_max and stays zero
# beyond; F = B^2 A / (2 mu0). t is exactly +0.0 beyond P_max and at
# pm < 1e-14 (degenerate: no direction). Each path assigns every name, so
# tip_law can return them all. With P_max > 0 no input makes it raise.
# tip_law takes pg0..pg3 as arguments; loop computes them at the GRADIENT
# line, the one path that reads them, so a stage beyond P_max skips them.
GRADIENT = "# pg0..pg3 = p_m grad p_m"
TIP_LAW = f"""\
degenerate = pm < 1e-14
if pm > P_max:
    B = F = t0 = t1 = t2 = t3 = 0.0
else:
    B = B_max * (1.0 - pm / P_max)
    F = B * B * A / (2.0 * mu0)
    if degenerate:
        t0 = t1 = t2 = t3 = 0.0
    else:
        {GRADIENT}
        t0 = -F * (pg0 / pm)
        t1 = -F * (pg1 / pm)
        t2 = -F * (pg2 / pm)
        t3 = -F * (pg3 / pm)"""

# The PD law u = Kp e + Kd edot on the state th1..dph2, with the gains and
# targets of PD_ARGS: one text, printed as pd_error (its error lines),
# pd_input and inline in loop, once per step. e is (psi1, psi2, phi1, phi2)
# - tgt with psi_i = theta_i - phi_i, current minus desired; the targets are
# constant, so the rate channel is (thetadot1, thetadot2, phidot1, phidot2)
# itself, as printed. Each sum runs left to right over every gain entry.
# It is + and * alone, so pd_error and pd_input are elementwise: the state
# may be floats or the columns of a recorded run.
PD_ARGS = """\
(kp00, kp01, kp02, kp03), (kp10, kp11, kp12, kp13) = Kp
(kd00, kd01, kd02, kd03), (kd10, kd11, kd12, kd13) = Kd
th1d, th2d, ph1d, ph2d = tgt"""
PD_ERROR = """\
e0 = (th1 - ph1) - th1d
e1 = (th2 - ph2) - th2d
e2 = ph1 - ph1d
e3 = ph2 - ph2d"""
PD_LAW = PD_ERROR + """
u1 = (kp00 * e0 + kp01 * e1 + kp02 * e2 + kp03 * e3
      + kd00 * dth1 + kd01 * dth2 + kd02 * dph1 + kd03 * dph2)
u2 = (kp10 * e0 + kp11 * e1 + kp12 * e2 + kp13 * e3
      + kd10 * dth1 + kd11 * dth2 + kd12 * dph1 + kd13 * dph2)"""

# the output names of mass_matrix, bias and gravity
M_NAMES = [f"m{i}{j}" for i in range(4) for j in range(i, 4)]
BIAS = [f"bias{i}" for i in range(4)]
GRAVITY = [f"G{i}" for i in range(4)]

# the docstrings of the generated functions that take more than one line
TIP_LAW_DOC = """\
(B, F, t, degenerate) of the tip force law at tip = (p_m, p_m grad p_m).

t = -F grad p_m is the generalized force; B and F do not depend on
the gradient, and at p_m = 0 B is B_max.
"""
PD_ERROR_DOC = """\
PD errors (e, edot) of the state y, current minus desired.

e = (psi1, psi2, phi1, phi2) - tgt with psi_i = theta_i - phi_i. The
targets are constant, so the rate channel is (thetadot1, thetadot2,
phidot1, phidot2) itself, as printed."""
LOOP_FOR_DOC = """\
loop(ys, n), up to n RK4 steps of dt for parameters p, potential
variant, tip coupling mag and PD controller pd, (Kp, Kd, tgt) or None;
what p, mag and pd alone determine is computed here, once."""
LOOP_DOC = """\
Up to n RK4 steps from y = ys[0], each new y written to the next
row of ys, under the PD input at each step's start, held, plus the tip
torque at each stage when mag couples the tips. Returns the number
of steps taken, fewer than n where a pivot fails or a stage input or
the new y is not finite. The keyword-only defaults are loop_for's
values and math's, bound as locals once per call."""


# math's names in the generated code: fixed, like the constants
MATH = {"cos", "inf", "sin", "sqrt"}

# the operators whose results _number numbers, with calls (an operation on
# constants alone is not numbered, as the compiler folds it); a value of
# parameters moves to loop_for from any line by those that never raise
_NEVER_RAISE = (ast.Add, ast.Sub, ast.Mult, ast.USub, ast.UAdd)
_ARITH = (*_NEVER_RAISE, ast.Div)


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _stored(node):
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _operation(node):
    return ((isinstance(node, (ast.BinOp, ast.UnaryOp))
             and isinstance(node.op, _ARITH) or isinstance(node, ast.Call))
            and any(isinstance(n, ast.Name) for n in ast.walk(node)))


def _folded(node, zeros):
    """True if node is a - z * b or a - b * z with z in zeros."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Mult)
            and any(isinstance(f, ast.Name) and f.id in zeros
                    for f in (node.right.left, node.right.right)))


def _value(node, env, zeros):
    """The value number of node, a tuple, under env {name: value number}.

    Equal numbers are equal values: the same operations on equal operands.
    a + b and a * b are numbered as b + a and b * a, which IEEE 754 gives
    the same bits, and a - z * b, z in zeros, as a (see _number).
    """
    if _folded(node, zeros):
        return _value(node.left, env, zeros)
    if isinstance(node, ast.Name):
        if node.id in zeros:
            raise ValueError(f"the zero {node.id} is read where no rule "
                             "drops it")
        return env.get(node.id, ("name", node.id))
    if isinstance(node, ast.Constant):
        return ("constant", repr(node.value))
    if isinstance(node, ast.BinOp):
        operands = [_value(node.left, env, zeros),
                    _value(node.right, env, zeros)]
        if isinstance(node.op, (ast.Add, ast.Mult)):
            operands.sort(key=repr)
        return (type(node.op).__name__, *operands)
    if isinstance(node, ast.UnaryOp):
        return (type(node.op).__name__, _value(node.operand, env, zeros))
    if isinstance(node, ast.Compare):
        return ("compare", _value(node.left, env, zeros),
                *((type(op).__name__, _value(c, env, zeros))
                  for op, c in zip(node.ops, node.comparators)))
    if isinstance(node, ast.Call) and not node.keywords:
        return ("call", _value(node.func, env, zeros),
                *(_value(a, env, zeros) for a in node.args))
    return ("node", id(node))  # equal to nothing else


def _known(value, params):
    """True if every leaf of the value number is a constant or a name in
    params."""
    kind, *operands = value
    if kind == "name":
        return operands[0] in params
    return kind not in ("joined", "node") and all(
        _known(v, params) for v in operands if isinstance(v, tuple))


def _size(value):
    return 1 + sum(_size(v) for v in value if isinstance(v, tuple))


def _copy(node, new):
    """A copy of node with new(child) for each expression it holds."""
    out = copy.copy(node)
    for field, old in ast.iter_fields(node):
        if isinstance(old, ast.expr):
            setattr(out, field, new(old))
        elif isinstance(old, list):
            setattr(out, field, [new(x) if isinstance(x, ast.expr) else x
                                 for x in old])
    return out


def _number(lines, params, keep):
    """(loop_for's lines, the stage's lines): one pass over the stage.

    lines are the stage's, indented under their branches. Every operation
    is numbered (_value) in the order Python computes it, each name read as
    the value assigned to it, and four rules rewrite the stage's tree, which
    is then printed once:
    - a value whose leaves are all constants or names in params is computed
      once in loop_for, under one name. An unindented statement of such a
      value moves there whole, or goes where an earlier name has its value,
      and later statements read that name for its target; so does an
      unindented pivot check of such values, with `return _failed_loop`,
      still ahead of the sqrt and divisions it guards. In any other
      statement each largest such operation of +, - and *, which never
      raise, reads its value's name there, a new xp0, xp1, ... where it has
      none;
    - a zero is a name assigned 0.0, or zero / d, once: M's structural
      zeros m01 and m03, and the L entries divided from them by the root d
      of a pivot tested positive and finite. Its statement goes, and so does
      each term z * b or b * z subtracted from a partial sum: where b is
      finite it is +-0.0, and a - (+-0.0) is a but that -0.0 - -0.0 is
      +0.0; where b is not, the solve fails at the next pivot (b an L entry)
      or the new y is not finite either way (b a y or an x). A zero read any
      other way raises ValueError;
    - a computation of a value is named where it is the whole value of a
      statement whose target the stage assigns once, or where a later
      statement computes the value again on every path from it: in the same
      block, with no statement between that may leave the stage (a pivot
      check, stage 4's break). Its name is then that target, or a new xv0,
      xv1, ... assigned just before its statement. Each later computation
      that it runs on every path to reads the name, and a statement that then
      copies the name goes where its target is assigned once and not in
      keep, later statements reading the name for that target. Any other
      computation stays inline, so no name is stored that every path does
      not read again. A computation inside one that reads a name does not
      count;
    - no operand is regrouped: a name read in place of an equal operation
      (b * a for a * b among them, which IEEE 754 rounds alike) holds its
      bits, so each stage's qdd equals the separate calls' to the last bit
      but for the sign of a dropped zero. Each dropped or named operation
      is one node of the tree, and the printed stage parses back to the
      rewritten tree.
    """
    tree = ast.parse("\n".join(lines))
    stores = [n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    if set(stores) & params:
        raise ValueError(f"the stage assigns {set(stores) & params}")
    env, zeros, renames = {}, set(), {}
    outer, outer_names, hoisted = [], {}, {}
    fresh = (f"xp{i}" for i in itertools.count())
    # found: (value, node, statement) of each operation the stage computes,
    # in the order Python computes them; where: statement -> (block, index)
    # with a block the path of (index, branch) to it; leaves: the (block,
    # index) of each statement that may leave the stage; gone: the
    # statements that go
    found, where, leaves, gone = [], {}, set(), set()
    uses, names, xv = {}, {}, {}  # filled once every value is numbered

    def render(node, top=False):
        """A copy of node in which each operation that reads a name is that
        name, each name is renamed and each dropped zero term is its left
        operand."""
        if node in hoisted:
            return ast.Name(hoisted[node])
        if node in uses:
            return ast.Name(names[uses[node]])
        if node in xv and not top:
            return ast.Name(xv[node])
        if _folded(node, zeros):
            return render(node.left)
        if isinstance(node, ast.Name):
            return ast.Name(renames.get(node.id, node.id))
        return _copy(node, render)

    def scan(node, stmt):
        if _folded(node, zeros):
            return scan(node.left, stmt)
        value = _value(node, env, zeros) if _operation(node) else None
        if (value is not None and not isinstance(node, ast.Call)
                and isinstance(node.op, _NEVER_RAISE)
                and _known(value, params)):
            if value not in outer_names:
                outer_names[value] = next(fresh)
                outer.append(ast.Assign([ast.Name(outer_names[value])],
                                        render(node)))
            hoisted[node] = outer_names[value]
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                scan(child, stmt)
        if value is not None:
            found.append((value, node, stmt))

    def once(stmt):
        return (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stores.count(stmt.targets[0].id) == 1)

    def block(stmts, path):
        for i, stmt in enumerate(stmts):
            where[stmt] = (path, i)
            if any(isinstance(n, (ast.Return, ast.Break))
                   for n in ast.walk(stmt)):
                leaves.add((path, i))
            if isinstance(stmt, ast.If):
                if (not path and isinstance(stmt.body[0], ast.Return)
                        and _known(_value(stmt.test, env, zeros), params)):
                    outer.append(ast.If(render(stmt.test), [
                        ast.Return(ast.Name("_failed_loop"))], []))
                    gone.add(stmt)
                    continue
                scan(stmt.test, stmt)
                before = dict(env)
                for k, body in enumerate((stmt.body, stmt.orelse)):
                    block(body, (*path, (i, k)))
                    env.clear()
                    env.update(before)
                for name in _stored(stmt):
                    env[name] = ("joined", name, id(stmt))
                continue
            if not isinstance(stmt, ast.Assign):
                continue
            target, value = stmt.targets[0], stmt.value
            if once(stmt) and (
                    isinstance(value, ast.Constant) and value.value == 0.0
                    or isinstance(value, ast.BinOp)
                    and isinstance(value.op, ast.Div)
                    and isinstance(value.left, ast.Name)
                    and value.left.id in zeros):
                zeros.add(target.id)
                gone.add(stmt)
                continue
            number = _value(value, env, zeros)
            if not path and _known(number, params):
                gone.add(stmt)
                if once(stmt) and number in outer_names:
                    renames[target.id] = outer_names[number]
                else:
                    outer.append(_copy(stmt, render))
                    outer_names.setdefault(number, target.id)
            else:
                scan(value, stmt)
            for name in _stored(stmt):
                env[name] = number

    block(tree.body, ())
    parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
    groups = {}  # value -> [(seq, node, statement)] of its computations
    for seq, (value, node, stmt) in enumerate(found):
        groups.setdefault(value, []).append((seq, node, stmt))

    def dominates(first, later):
        """True if the first computation runs on every path to the later."""
        block = where[first[2]][0]
        return later[0] > first[0] and where[later[2]][0][:len(block)] == block

    def every_path(first, later):
        """True if a later statement holds the later computation and runs on
        every path from the first."""
        (block, i), (other, j) = where[first[2]], where[later[2]]
        return (block == other and j > i
                and not any((block, k) in leaves for k in range(i, j)))

    def inside_a_use(node):
        while node in parent:
            node = parent[node]
            if node in uses:
                return True
        return False

    # the larger values first: a computation inside one that reads a name is
    # not computed, and does not count
    for value in sorted(groups, key=_size, reverse=True):
        computed = [c for c in groups[value] if not inside_a_use(c[1])]
        homes = []
        for k, (seq, node, stmt) in enumerate(computed):
            home = next((h for h in homes if dominates(h, computed[k])), None)
            if home is not None:
                uses[node] = home[1]
                continue
            if once(stmt) and stmt.value is node:
                names[node] = stmt.targets[0].id
            elif any(every_path(computed[k], c) for c in computed[k + 1:]):
                xv[node] = seq
            else:
                continue
            homes.append(computed[k])
    order = sorted(xv, key=xv.get)
    for i, node in enumerate(order):
        xv[node] = names[node] = f"xv{i}"
    for node, home in uses.items():
        stmt = parent[node]
        if once(stmt) and stmt.value is node and (
                stmt.targets[0].id not in keep):
            gone.add(stmt)
            renames[stmt.targets[0].id] = names[home]

    statement = {node: stmt for _, node, stmt in found}

    def rewrite(stmts):
        """The statements of stmts that stay, rewritten, each after the xv*
        assignments of the computations it holds."""
        out = []
        for stmt in stmts:
            if stmt in gone:
                continue
            out += [ast.Assign([ast.Name(xv[n])], render(n, top=True))
                    for n in order if statement[n] is stmt]
            out.append(_copy(stmt, render))
            if isinstance(stmt, ast.If):
                out[-1].body = rewrite(stmt.body)
                out[-1].orelse = rewrite(stmt.orelse)
        return out

    def printed(body):
        module = ast.fix_missing_locations(ast.Module(body, []))
        return ast.unparse(module).splitlines()

    return printed(outer), printed(rewrite(tree.body))


def _reads(source):
    """The names the one function of source reads and does not bind."""
    [table] = symtable.symtable(source, "<loop>", "exec").get_children()
    return {s.get_name() for s in table.get_symbols()
            if s.is_global() and not hasattr(builtins, s.get_name())}


def _split_needed(lines, name):
    """(the lines that name needs, the others), each in order; lines are
    unindented assignments."""
    needed, mine = {name}, set()
    for i in reversed(range(len(lines))):
        stmt = ast.parse(lines[i]).body[0]
        if _names(stmt.targets[0]) & needed:
            needed |= _names(stmt.value)
            mine.add(i)
    return ([line for i, line in enumerate(lines) if i in mine],
            [line for i, line in enumerate(lines) if i not in mine])


def _loop_for(blocks, trig):
    """Source of loop_for(p, variant, dt, mag, pd), which returns loop(ys,
    n): up to n RK4 steps of y' = (qd, qdd) from ys[0], each new y written
    to the next row of ys, qdd = M^-1 ((tau - bias - G) + t) with tau the
    PD input at the step's start state, held over the step (zero where pd is
    None), and t the tip torque of tip_law where mag couples the tips. loop
    returns the number of steps it took; it stops where a stage fails or
    the new y is not finite.

    blocks are the _block results of mass_matrix, bias, gravity and
    tip_geometry, the lines their functions print: each its own sympy cse,
    its temporaries named apart (xm*, xb*, xg*, xt*) and its outputs
    assigned to names; a joint cse over them would regroup the arithmetic
    and move last bits. The stage's lines are _trig_lines of every c*/s*
    the blocks read, then the blocks, and the right-hand side in the order
    of the separate terms: tau - bias - G, then, under one test of mag's
    enabled, the tip geometry's lines that p_m needs, TIP_LAW with the
    others at its GRADIENT line, and + t; then CHOLESKY whole, and the next
    stage's input, the slopes' weighted sum and the new y with the
    expressions and grouping of tests/oracles.py's list RK4: k1 + 2.0 k2 +
    2.0 k3 + k4 is summed left to right as the stages come. _number
    rewrites them by the rules its docstring states, and loop_for computes
    what it moves out of the stage, the first two pivots among it, once per
    run; the mass block's m01 = 0.0 and m03 = 0.0 are the zeros it drops.
    loop_for also unpacks pd's gains and targets once. loop keeps the state
    in z0..z7 between steps. Each step copies it to the stage input, runs
    PD_LAW on it under one test of pd and forms tau as _core.torque_map
    does, then runs the stage once per RK4 stage in a loop.

    loop takes every value it reads of loop_for, and math's cos, sin, sqrt
    and inf, as a keyword-only default (_reads finds them), so each is a
    local, not a closure cell or a global. A new y of inf or nan stops the
    loop before it is written. No stage input is tested: an inf angle makes
    math.cos raise ValueError, which one try around the steps turns into
    the stop; a NaN angle fails the d22 pivot; and a non-finite rate or qdd
    reaches the new y through the slopes' sums. Nothing else in the step
    raises: it has no **, and every divisor is a tested pivot or positive.
    So the loop stops after the step where a list RK4 that tests every
    stage input stops.
    """
    used = set().union(*(u for u, _ in blocks))
    stage = _trig_lines(trig, used)
    stage += [line for _, lines in blocks[:3] for line in lines]
    stage += [f"b{i} = tau{i} - bias{i} - G{i}" for i in range(4)]
    separation, gradient = _split_needed(blocks[3][1], "pm")
    law = []
    for line in TIP_LAW.splitlines():
        text = line.lstrip()
        indent = line[:len(line) - len(text)]
        law += [indent + g for g in gradient] if text == GRADIENT else [line]
    stage += ["coupled = enabled != 0.0", "if coupled:"]
    stage += ["    " + line for line in separation + law]
    stage += [f"    b{i} = b{i} + t{i}" for i in range(4)]
    stage += CHOLESKY.splitlines()

    y = [str(s) for s in Q + QD]
    z = [f"z{i}" for i in range(8)]
    slope = [str(s) for s in QD] + ["x0", "x1", "x2", "x3"]
    stage += ["if stage == 4:", "    break", "if stage == 1:"]
    stage += [f"    k{i} = {d}" for i, d in enumerate(slope)]
    stage += ["    f = h", "else:"]
    stage += [f"    k{i} = k{i} + 2.0 * {d}" for i, d in enumerate(slope)]
    stage += ["    if stage == 3:", "        f = dt"]
    stage += [f"{v} = z{i} + f * {d}"
              for i, (v, d) in enumerate(zip(y, slope))]
    outer, stage = _number(stage, {str(s) for s in PAR} | set(MAG) | MATH,
                           set(y + slope))
    tau = map(_Printer().doprint, _core.torque_map(*sp.symbols("u1 u2")))
    step = [f"{v} = {zi}" for v, zi in zip(y, z)]
    step += ["if controlled:"]
    step += ["    " + line for line in PD_LAW.splitlines()]
    step += [f"    tau{i} = {t}" for i, t in enumerate(tau)]
    step += ["for stage in (1, 2, 3, 4):"]
    step += ["    " + line.replace("return None", "return i")
             for line in stage]
    step += [f"z{i} = z{i} + w * (k{i} + {d})" for i, d in enumerate(slope)]
    step += ["if " + " + ".join(f"0.0 * {v}" for v in z) + " != 0.0:",
             "    return i",
             f"ys[i + 1] = ({', '.join(z)})"]
    lines = [_unpack(z, "ys[0].tolist()"),
             "tau0 = tau1 = tau2 = tau3 = 0.0",
             "try:",
             "    for i in range(n):"]
    lines += ["        " + line for line in step]
    lines += ["except ValueError:",
              "    # math.cos or math.sin of an inf stage angle",
              "    return i"]

    args = ("p", "variant", "dt", "mag", "pd")
    lines_for = [_unpack(PAR, "p"), _unpack(MAG, "mag"),
                 "controlled = pd is not None", "if controlled:",
                 "    Kp, Kd, tgt = pd"]
    lines_for += ["    " + line for line in PD_ARGS.splitlines()]
    lines_for += ["else:", "    # loop binds them; an uncontrolled run never "
                  "reads them"]
    for stmt in ast.parse(PD_ARGS).body:
        lines_for.append("    " + " = ".join(
            n.id for n in ast.walk(stmt.targets[0])
            if isinstance(n, ast.Name)) + " = 0.0")
    lines_for += outer + ["h = 0.5 * dt", "w = dt / 6.0"]
    read = _reads(_def("loop", ("ys", "n"), LOOP_DOC, lines, "n"))
    loop = _def("loop", ("ys", "n", "*", *(f"{x}={x}" for x in sorted(read))),
                LOOP_DOC, lines, "n")
    lines = lines_for + [""] + loop.splitlines()
    return _def("loop_for", args, LOOP_FOR_DOC, lines, "loop")


HEADER = '''\
# Generated by tools/gen_eom.py with sympy {sympy}; do not edit. Regenerate
# with
#     python tools/gen_eom.py
"""Closed-form equations of motion M(q) qdd + bias(q, qd) + G(q) = tau.

Straight-line code derived symbolically from the kinetic and potential
energies of rollsim._core, and the tip separation p_m with p_m times its
gradient (tip_geometry), derived from rollsim._core.separation, whose p_m it
repeats to the last bit. p is the packed parameter sequence (m_p, m_s, I_p,
I_s, r1, r2, R1, R2, g, delta...). The mass matrix is returned as its upper
triangle, row by row: (M00, M01, M02, M03, M11, M12, M13, M22, M23, M33).
variant selects the potential: 0 paper-verbatim, 1 geometry-consistent.

tip_law(mag, tip) is the tip force law on tip_geometry's (p_m, p_m grad
p_m): the flux density B, the force F and the generalized force t = -F grad
p_m, exactly +0.0 beyond P_max and at p_m < 1e-14 (degenerate). mag is the
packed coupling (enabled, B_max, P_max, A, mu0).

pd_error(tgt, y) and pd_input(Kp, Kd, tgt, y) are the PD law: the errors
(e, edot) of the state y against the targets tgt = (th1d, th2d, ph1d, ph2d)
and the motor torques (u1, u2) = Kp e + Kd edot, Kp and Kd 2x4. They are
elementwise arithmetic, so y may be floats or the columns of a recorded run.

loop_for(p, variant, dt, mag, pd) builds the run loop once per run. It
computes what the code of mass_matrix, bias, gravity and tip_geometry, the
Cholesky of solve_spd4 and the force law of tip_law derive from p and mag
alone, each value once under one name: the temporaries of p alone, the
first two pivots and whether mag couples the tips among them. It unpacks
the gains and targets of pd, (Kp, Kd, tgt) or None. It returns loop(ys,
n), called once per run, which takes up to n RK4 steps from ys[0] with the
state in eight locals between steps. Each step computes the PD input from
the step's start state by the code of pd_input, inline, and holds tau =
(u1, u2, -u1, -u2) over the step (zero where pd is None). It then runs the
rest of the code above in a loop over the four RK4 stages: each angle sum
named and each sine and cosine taken once, the tip geometry and the force
law under one test of the coupling (p_m grad p_m only where the law reads
it), and (tau - bias - G) + t solved by the Cholesky inline. The stage
leaves out the solve's products with the zeros that M01 = M03 = 0 make and
reads a repeated value by name, by the rules of _number in tools/gen_eom.py,
so each stage's qdd equals the separate calls to the last bit but for the
sign of a zero. The stage inputs and the update are those of a list-form
RK4. loop reads loop_for's values and math's cos, sin, sqrt and inf as
keyword-only defaults, locals bound once per call. It writes each new y to
the next row of ys and returns the number of steps taken: it stops where
solve_spd4 at some stage would return None, or where a stage input or the
new y is not finite. Only the new y is tested: an inf angle makes math.cos
raise ValueError, which loop catches and returns as its stop, a NaN angle
fails a pivot, and a non-finite rate or qdd makes the new y non-finite.

With floats, q and qd are 4-sequences and y is (q, qd); math.sin and
math.cos raise ValueError on inf, so rollsim._core.deriv tests y first.
rollsim._core also runs mass_matrix, bias and gravity on equal-length
columns, with numpy's cos, sin and sqrt bound in place of math's, and masks
the non-finite columns itself.
"""

from math import cos, inf, sin, sqrt
'''


def generate() -> str:
    """Source text of the _eom module."""
    M, bias, G = derive()
    trig = _trig_symbols()
    pre, tip = tip_geometry(trig)
    blocks = [
        _block([_tidy(M[i, j], trig) for i in range(4) for j in range(i, 4)],
               M_NAMES, "xm", trig),
        _block([_tidy(e, trig) for e in bias], BIAS, "xb", trig),
        _block({v: [_tidy(e, trig) for e in G[v]]
                for v in (GEOMETRIC, VERBATIM)}, GRAVITY, "xg", trig),
        _block(tip, TIP, "xt", trig, pre),
    ]
    terms = [
        ("mass_matrix", ("p", "q"), "Upper triangle of M(q), 10 entries.",
         M_NAMES),
        ("bias", ("p", "q", "qd"), "Mdot qd - dT/dq + diag(delta) qd.", BIAS),
        ("gravity", ("p", "q", "variant"),
         "dU/dq for the selected potential variant.", GRAVITY),
        ("tip_geometry", ("p", "q"),
         "(p_m, p_m * d p_m / dq): tip separation, scaled gradient.", TIP),
    ]
    parts = [HEADER.format(sympy=sp.__version__)]
    for (name, args, doc, names), (used, lines) in zip(terms, blocks):
        unpack = [_unpack(s, a) for s, a in ((PAR, "p"), (Q, "q"), (QD, "qd"))
                  if a in args]
        parts.append(_def(name, args, doc,
                          unpack + _trig_lines(trig, used) + lines,
                          f"({', '.join(names)})"))
    y = _unpack(Q + QD, "y")
    parts += [
        _def("tip_law", ("mag", "tip"), TIP_LAW_DOC,
             [_unpack(MAG, "mag"), _unpack(TIP, "tip"),
              *TIP_LAW.splitlines()],
             "(B, F, (t0, t1, t2, t3), degenerate)"),
        _def("solve_spd4", ("m", "b"),
             "x with M x = b, M as its upper triangle; None when a pivot "
             "fails.",
             [_unpack(M_NAMES, "m"), "b0, b1, b2, b3 = b",
              *CHOLESKY.splitlines()],
             "(x0, x1, x2, x3)"),
        _def("pd_error", ("tgt", "y"), PD_ERROR_DOC,
             [PD_ARGS.splitlines()[-1], y, *PD_ERROR.splitlines()],
             "((e0, e1, e2, e3), (dth1, dth2, dph1, dph2))"),
        _def("pd_input", ("Kp", "Kd", "tgt", "y"),
             "Motor torques (u1, u2) = Kp e + Kd edot of the state y; see "
             "pd_error.",
             [*PD_ARGS.splitlines(), y, *PD_LAW.splitlines()], "(u1, u2)"),
        _def("_failed_loop", ("ys", "n"),
             "loop_for's loop where a pivot of p alone fails: it takes no "
             "step.", [], "0"),
        _loop_for(blocks, trig),
    ]
    return "\n\n".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    args.out.write_text(generate())
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
