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
code. The tip separation p_m and p_m times its gradient come from
rollsim._core.separation the same way (see tip_geometry). Three more
functions are printed from those: solve_spd4, the 4x4 Cholesky written once
as the CHOLESKY text; tip_law, the tip force law written once as the
TIP_LAW text; and step_for(p, variant, dt, mag), which the run loop calls
once per run. It computes every value of the separate cse blocks of M, bias,
G and the tip geometry, of the Cholesky and of the force law that depends
on p and mag alone, found on the Python parse of the printed lines (see
_hoist), and returns step(y, tau), the loop's one call per RK4 step: the
rest of the blocks, the force law and the solve, in a loop over the four
stages, each angle sum named and each sine and cosine taken once per stage.
Moving whole parse subtrees keeps every operand and grouping, so each
stage's qdd equals the separate calls to the last bit. The output uses
only +, -, *, / and math's sin, cos and sqrt: integer powers are written as
products, because Python's float ** raises OverflowError where a product
overflows to inf, and the integrator reports a non-finite state by testing
for inf and nan.

Importing rollsim._core imports the checked-in _eom, so a syntactically
broken _eom.py must be restored (git checkout src/rollsim/_eom.py) before
the generator can run.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import re
import sys
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
    """(pre, outputs) of the loop's tip geometry, for _function.

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


def _block(outputs, trig, pre=()):
    """One term's straight-line code: (trig names used, lines, returned).

    outputs is the list of returned expressions, or a dict mapping each
    potential variant to its list. lines are unindented assignments: pre's
    (symbol, expression) pairs first, printed in argument order and keeping
    their grouping, then the term's common subexpressions x0, x1, ...
    returned maps each variant (None for a single branch) to its printed
    expressions.
    """
    printer = _Printer()
    branches = outputs if isinstance(outputs, dict) else {None: outputs}
    exprs = [e for out in branches.values() for e in out]
    reps, reduced = sp.cse(exprs, symbols=sp.numbered_symbols("x"),
                           optimizations="basic")
    used = set().union(*(e.free_symbols for _, e in [*pre, *reps]),
                       *(e.free_symbols for e in reduced))
    in_order = _Printer({"order": "none"})
    lines = [f"{sym} = {in_order.doprint(e)}" for sym, e in pre]
    lines += [f"{sym} = {printer.doprint(e)}" for sym, e in reps]
    returned = {}
    for variant, out in branches.items():
        mine, reduced = reduced[:len(out)], reduced[len(out):]
        returned[variant] = ["0.0" if e == 0 else printer.doprint(e)
                             for e in mine]
    return [sym for sym in trig.values() if sym in used], lines, returned


def _preamble(name, args, doc, unpack, trig, used, indent="    "):
    """def line, docstring, the (names, arg) unpackings, then each used c*/s*
    taken once; the body at indent."""
    printer = _Printer()
    lines = [f"{indent[4:]}def {name}({', '.join(args)}):",
             f'{indent}"""{doc}"""']
    lines += [f"{indent}{', '.join(map(str, names))} = {arg}"
              for names, arg in unpack]
    for func, sym in trig.items():
        if sym in used:
            arg = printer.doprint(func.args[0])
            lines.append(f"{indent}{sym} = {type(func).__name__}({arg})")
    return lines


def _function(name, args, doc, outputs, trig, pre=()):
    """Source of one generated term; see _block for outputs and pre."""
    used, body, returned = _block(outputs, trig, pre)
    unpack = [(PAR, "p"), (Q, "q")]
    unpack += [(QD, "qd")] if "qd" in args else []
    lines = _preamble(name, args, doc, unpack, trig, used)
    lines += ["    " + line for line in body]
    for i, (variant, texts) in enumerate(returned.items()):
        text = ", ".join(texts)
        if i < len(returned) - 1:
            lines += [f"    if variant == {variant}:", f"        return ({text})"]
        else:
            lines.append(f"    return ({text})")
    return "\n".join(lines) + "\n"


# M x = b by Cholesky, M given as its upper triangle m00..m33 row by row:
# one text, printed as solve_spd4 and inline in step. A non-positive or
# non-finite pivot returns None; no input makes it raise. Every name is
# assigned once, so the pivots of p alone can move to step_for.
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
x0 = (y0 - l10 * x1 - l20 * x2 - l30 * x3) / l00
return (x0, x1, x2, x3)"""

# The tip attraction's generalized force t = -F grad p_m, from pm = p_m and
# pg0..pg3 = p_m grad p_m: one text, printed as tip_law and inline in step.
# B falls linearly from B_max at contact to zero at P_max and stays zero
# beyond; F = B^2 A / (2 mu0). t is exactly +0.0 beyond P_max and at
# pm < 1e-14 (degenerate: no direction). Each path assigns every name, so
# tip_law can return them all. With P_max > 0 no input makes it raise.
# tip_law takes pg0..pg3 as arguments; step computes them at the GRADIENT
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

# what step_for returns when a pivot of p alone fails
FAILED_STEP = '''\
def _failed_step(y, tau):
    """step_for's step where a pivot of p alone fails: it fails for every y."""
    return None
'''

M_NAMES = [f"m{i}{j}" for i in range(4) for j in range(i, 4)]


def _solver():
    """Source of solve_spd4, the CHOLESKY text as a function."""
    lines = ["def solve_spd4(m, b):",
             '    """x with M x = b, M as its upper triangle; None when a '
             'pivot fails."""',
             "    " + ", ".join(M_NAMES) + " = m",
             "    b0, b1, b2, b3 = b"]
    lines += ["    " + line for line in CHOLESKY.splitlines()]
    return "\n".join(lines) + "\n"


def _tip_law():
    """Source of tip_law, the TIP_LAW text as a function."""
    lines = ["def tip_law(mag, tip):",
             '    """(B, F, t, degenerate) of the tip force law at tip = '
             "(p_m, p_m grad p_m).",
             "",
             "    t = -F grad p_m is the generalized force; B and F do not "
             "depend on",
             "    the gradient, and at p_m = 0 B is B_max.",
             '    """',
             f"    {', '.join(MAG)} = mag",
             f"    {', '.join(TIP)} = tip"]
    lines += ["    " + line for line in TIP_LAW.splitlines()]
    lines.append("    return (B, F, (t0, t1, t2, t3), degenerate)")
    return "\n".join(lines) + "\n"


def _apart(text, prefix):
    """text with the cse temporaries x0, x1, ... renamed prefix0, ..."""
    return re.sub(r"\bx(\d+)\b", prefix + r"\1", text)


# node types of a hoisted expression: +, - and * never raise on floats
_FIXED = (ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.USub,
          ast.Constant, ast.Name, ast.Load)


def _fixed(node, known):
    """True if node is +, - and * of constants and the names in known."""
    return all(isinstance(n, _FIXED)
               and (not isinstance(n, ast.Name) or n.id in known)
               for n in ast.walk(node))


def _largest(node, known):
    """The largest operations under node that are _fixed and name a value,
    left to right."""
    if (isinstance(node, (ast.BinOp, ast.UnaryOp)) and _fixed(node, known)
            and any(isinstance(n, ast.Name) for n in ast.walk(node))):
        return [node]
    return [n for child in ast.iter_child_nodes(node)
            for n in _largest(child, known)]


# math's names in the generated code: fixed, like the constants
MATH = {"cos", "inf", "sin", "sqrt"}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _hoist(lines):
    """Split step's lines into (step_for's lines, step's lines).

    lines are one statement each, indented under a branch or not, and the
    branch headers. An unindented assignment whose names are all parameters
    (of p or mag), math's and names already hoisted moves to step_for whole,
    and so does an unindented pivot check of such names, its `return None`
    made `return _failed_step`: statements keep their order, so each check
    still runs before the sqrt and divisions it guards. In every other line,
    each
    largest operation of +, - and * of such names, as Python parses the
    line, moves to step_for as xp0, xp1, ..., or under the name of an equal
    expression hoisted before, and the line reads that name in its place.
    The parse tree keeps its shape, so the operands, their grouping and the
    bits of every result are unchanged.
    """
    known = {str(s) for s in PAR} | set(MAG) | MATH
    names = {}  # ast.dump of a hoisted expression -> the name it has
    fresh = (f"xp{i}" for i in itertools.count())
    outer, inner = [], []
    lines = iter(lines)
    for line in lines:
        text = line.lstrip()
        indent = line[:len(line) - len(text)]
        if text.endswith(":"):
            if (not indent and text.startswith("if not ")
                    and _names(ast.parse(text[3:-1], mode="eval")) <= known):
                next(lines)  # its return None
                outer += [text, "    return _failed_step"]
            else:
                inner.append(line)
            continue
        stmt = ast.parse(text).body[0]
        if isinstance(stmt, ast.Assign):
            targets = set().union(*map(_names, stmt.targets))
            if targets & known:
                raise ValueError(f"{text!r} assigns a hoisted name again")
            if not indent and _names(stmt.value) <= known:
                outer.append(text)
                known |= targets
                names.setdefault(ast.dump(stmt.value), stmt.targets[0].id)
                continue
        spans = []
        for node in _largest(stmt, known):
            start, end = node.col_offset, node.end_col_offset
            key = ast.dump(node)
            if key not in names:
                names[key] = next(fresh)
                outer.append(f"{names[key]} = {text[start:end]}")
            if text[start - 1:start] == "(" and text[end:end + 1] == ")":
                start, end = start - 1, end + 1
            spans.append((start, end, names[key]))
        for start, end, name in reversed(spans):
            text = text[:start] + name + text[end:]
        inner.append(indent + text)
    return outer, inner


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


def _step_for(m, b, g, tip, trig):
    """Source of step_for(p, variant, dt, mag), which returns step(y, tau):
    one RK4 step of y' = (qd, qdd), qdd = M^-1 ((tau - bias - G) + t), tau
    held over the step and t the tip torque of tip_law where mag couples the
    tips; None where a stage fails.

    It prints the blocks of mass_matrix, bias, gravity and tip_geometry
    (tip, its (pre, outputs)) as _function does, each sympy cse of its own,
    with their x* temporaries renamed apart (xm*, xb*, xg*, xt*) and their
    outputs assigned to names; a joint cse over them would regroup the
    arithmetic and move last bits. Then the right-hand side in the order of
    the separate terms: tau - bias - G, then, under one test of mag's
    enabled, the tip geometry's lines that p_m needs, TIP_LAW with the
    others at its GRADIENT line, and + t; and CHOLESKY. _hoist moves
    what they compute of p and mag alone to step_for, once per run, the
    first two pivots among it. step runs the rest once per RK4 stage in a
    loop, each angle sum named and each c*/s* taken once, the tip geometry's
    among them, and forms the next stage's input, the
    slopes' weighted sum and the new y with the expressions and grouping of
    tests/test_simulate.py's list RK4: k1 + 2.0 k2 + 2.0 k3 + k4 is summed
    left to right as the stages come. A stage input of inf or nan returns
    None before any sine is taken of it.
    """
    blocks = [(_block(m, trig), "xm", M_NAMES),
              (_block(b, trig), "xb", [f"bias{i}" for i in range(4)]),
              (_block(g, trig), "xg", [f"G{i}" for i in range(4)]),
              (_block(tip[1], trig, tip[0]), "xt", TIP)]
    used = set().union(*(blk[0] for blk, _, _ in blocks))

    def lines_of(block, prefix, names):
        _, code, returned = block
        out = [_apart(line, prefix) for line in code]
        for i, (variant, texts) in enumerate(returned.items()):
            indent = ""
            if variant is not None:
                indent = "    "
                out.append("else:" if i == len(returned) - 1 else
                           f"{'if' if i == 0 else 'elif'} "
                           f"variant == {variant}:")
            out += [f"{indent}{n} = {_apart(t, prefix)}"
                    for n, t in zip(names, texts)]
        return out

    body = [line for blk in blocks[:3] for line in lines_of(*blk)]
    body += [f"b{i} = tau{i} - bias{i} - G{i}" for i in range(4)]
    separation, gradient = _split_needed(lines_of(*blocks[3]), "pm")
    law = []
    for line in TIP_LAW.splitlines():
        text = line.lstrip()
        indent = line[:len(line) - len(text)]
        law += [indent + g for g in gradient] if text == GRADIENT else [line]
    body += ["coupled = enabled != 0.0", "if coupled:"]
    body += ["    " + line for line in separation + law]
    body += [f"    b{i} = b{i} + t{i}" for i in range(4)]
    *solve, done = CHOLESKY.splitlines()
    assert done == "return (x0, x1, x2, x3)"
    outer, inner = _hoist(body + solve)

    printer = _Printer()
    trig_lines = []
    for angle, tag in ANGLES:
        taken = [(func, sym) for func, sym in trig.items()
                 if func.args[0] == angle and sym in used]
        if taken:
            trig_lines.append(f"a{tag} = {printer.doprint(angle)}")
            trig_lines += [f"{sym} = {type(func).__name__}(a{tag})"
                           for func, sym in taken]
    y = [str(s) for s in Q + QD]
    slope = [str(s) for s in QD] + ["x0", "x1", "x2", "x3"]
    new_y = ", ".join(f"z{i} + w * (k{i} + {d})" for i, d in enumerate(slope))

    lines = _preamble(
        "step_for", ("p", "variant", "dt", "mag"),
        "step(y, tau), one RK4 step of dt for parameters p, potential\n"
        "    variant and tip coupling mag; what p and mag alone determine is\n"
        "    computed here, once.", [(PAR, "p"), (MAG, "mag")], {}, set())
    lines += ["    " + line for line in outer]
    lines += ["    h = 0.5 * dt", "    w = dt / 6.0",
              "",
              "    def step(y, tau):",
              '        """The y after one step from y = (q, qd) under tau, '
              "held, plus\n"
              "        the tip torque at each stage when mag couples the tips; "
              "None if\n"
              "        a pivot fails or the input to stage 2, 3 or 4 is not "
              'finite."""',
              f"        {', '.join(f'z{i}' for i in range(8))} = y",
              f"        {', '.join(y)} = y",
              "        tau0, tau1, tau2, tau3 = tau",
              "        for stage in (1, 2, 3, 4):"]
    lines += ["            " + line for line in trig_lines + inner]
    lines += ["            if stage == 4:",
              f"                return ({new_y})",
              "            if stage == 1:"]
    lines += [f"                k{i} = {d}" for i, d in enumerate(slope)]
    lines += ["                f = h", "            else:"]
    lines += [f"                k{i} = k{i} + 2.0 * {d}"
              for i, d in enumerate(slope)]
    lines += ["                if stage == 3:", "                    f = dt"]
    lines += [f"            {v} = z{i} + f * {d}"
              for i, (v, d) in enumerate(zip(y, slope))]
    lines += ["            if " + " + ".join(f"0.0 * {v}" for v in y)
              + " != 0.0:",
              "                return None"]
    lines.append("    return step")
    return "\n".join(lines) + "\n"


HEADER = '''\
# Generated by tools/gen_eom.py; do not edit. Regenerate with
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

step_for(p, variant, dt, mag) builds the run loop's RK4 step once per run.
It computes what the code of mass_matrix, bias, gravity and tip_geometry,
the Cholesky of solve_spd4 and the force law of tip_law derive from p and
mag alone: the temporaries of p alone, the first two pivots, whether mag
couples the tips and, in the other lines, each operation of p and mag alone
as Python parses the line. It returns step(y, tau), called once per step,
which runs the rest of that code line for line in a loop over the four RK4
stages: temporaries renamed apart, each angle sum named and each sine and
cosine taken once, the tip geometry and the force law under one test of the
coupling (p_m grad p_m only where the law reads it), (tau - bias - G) + t
solved by the Cholesky inline. Its qdd at
each stage equals the separate calls to the last bit, and the stage inputs
and the update are those of a list-form RK4. It returns None where a
solve_spd4 at some stage would, or where the input to stage 2, 3 or 4 is
not finite; a non-finite qdd at stage 4 leaves the new y non-finite.

With floats, q and qd are 4-sequences and y is (q, qd); math.sin and
math.cos raise ValueError on inf, so rollsim._core.deriv tests y first, and
rollsim._core.run_loop tests each y it passes to step.
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
    m = [_tidy(M[i, j], trig) for i in range(4) for j in range(i, 4)]
    b = [_tidy(e, trig) for e in bias]
    gv = [_tidy(e, trig) for e in G[VERBATIM]]
    gg = [_tidy(e, trig) for e in G[GEOMETRIC]]
    pre, tip = tip_geometry(trig)
    parts = [
        HEADER,
        _function("mass_matrix", ("p", "q"),
                  "Upper triangle of M(q), 10 entries.", m, trig),
        _function("bias", ("p", "q", "qd"),
                  "Mdot qd - dT/dq + diag(delta) qd.", b, trig),
        _function("gravity", ("p", "q", "variant"),
                  "dU/dq for the selected potential variant.",
                  {GEOMETRIC: gg, VERBATIM: gv}, trig),
        _function("tip_geometry", ("p", "q"),
                  "(p_m, p_m * d p_m / dq): tip separation, scaled gradient.",
                  tip, trig, pre),
        _tip_law(),
        _solver(),
        FAILED_STEP,
        _step_for(m, b, {GEOMETRIC: gg, VERBATIM: gv}, (pre, tip), trig),
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
