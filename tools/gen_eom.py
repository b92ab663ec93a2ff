"""Generate src/rollsim/_eom.py, the closed-form equations of motion.

Run from a checkout (needs sympy; the generated module does not):

    python tools/gen_eom.py              # rewrite src/rollsim/_eom.py
    python tools/gen_eom.py --out PATH   # write the module somewhere else

T and U are rollsim._core.kinetic and rollsim._core.potential themselves:
the generator imports rollsim from the src/ directory next to it and calls
them on sympy symbols (see energies). tests/test_eom.py checks that the
checked-in module matches a fresh generation. From T and U sympy derives,
for M(q) qdd + bias(q, qd) + G(q) = tau,

    M    = d2T / dqd dqd
    bias = Mdot qd - dT/dq + diag(delta) qd
    G    = dU/dq          (one vector per potential variant)

and common subexpression elimination turns each set into straight-line
code. The tip separation p_m and p_m times its gradient come from
rollsim._core.separation the same way (see tip_geometry). The output uses
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
    """Symbolic (M, bias, {variant: G}) as sympy expressions of PAR, Q, QD."""
    T, U = energies()
    M = sp.Matrix(4, 4, lambda i, j: sp.diff(T, QD[i], QD[j]))
    bias = [sum(sp.diff(M[i, j], Q[k]) * QD[j] * QD[k]
                for j in range(4) for k in range(4))
            - sp.diff(T, Q[i]) + PAR[9 + i] * QD[i]
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
    """Python source with integer powers written as products, and sqrt."""

    def _print_Pow(self, expr, rational=False):
        base, exp = expr.as_base_exp()
        if exp == sp.S.Half:
            return f"sqrt({self._print(base)})"
        if exp.is_Integer and 1 <= exp <= 8:
            b = self.parenthesize(base, sp.printing.precedence.PRECEDENCE["Mul"])
            return "*".join([b] * int(exp))
        raise ValueError(f"unsupported power {expr}")


def _function(name, args, doc, outputs, trig, pre=()):
    """Source of one generated function.

    outputs is the list of returned expressions, or a dict mapping each
    potential variant to its list. pre holds (symbol, expression)
    assignments to print first, in argument order, keeping their grouping.
    """
    printer = _Printer()
    branches = outputs if isinstance(outputs, dict) else {None: outputs}
    exprs = [e for out in branches.values() for e in out]
    reps, reduced = sp.cse(exprs, symbols=sp.numbered_symbols("x"),
                           optimizations="basic")
    used = set().union(*(e.free_symbols for _, e in [*pre, *reps]),
                       *(e.free_symbols for e in reduced))
    lines = [f"def {name}({', '.join(args)}):", f'    """{doc}"""',
             "    " + ", ".join(map(str, PAR)) + " = p",
             "    " + ", ".join(map(str, Q)) + " = q"]
    if "qd" in args:
        lines.append("    " + ", ".join(map(str, QD)) + " = qd")
    for func, sym in trig.items():
        if sym in used:
            arg = printer.doprint(func.args[0])
            lines.append(f"    {sym} = {type(func).__name__}({arg})")
    in_order = _Printer({"order": "none"})
    for sym, e in pre:
        lines.append(f"    {sym} = {in_order.doprint(e)}")
    for sym, e in reps:
        lines.append(f"    {sym} = {printer.doprint(e)}")
    for i, (variant, out) in enumerate(branches.items()):
        mine, reduced = reduced[:len(out)], reduced[len(out):]
        text = ", ".join("0.0" if e == 0 else printer.doprint(e) for e in mine)
        if i < len(branches) - 1:
            lines += [f"    if variant == {variant}:", f"        return ({text})"]
        else:
            lines.append(f"    return ({text})")
    return "\n".join(lines) + "\n"


HEADER = '''\
# Generated by tools/gen_eom.py; do not edit. Regenerate with
#     python tools/gen_eom.py
"""Closed-form equations of motion M(q) qdd + bias(q, qd) + G(q) = tau.

Straight-line scalar code derived symbolically from the kinetic and
potential energies of rollsim._core, and the tip separation p_m with p_m
times its gradient (tip_geometry), derived from rollsim._core.separation,
whose p_m it repeats to the last bit. p is the packed parameter sequence
(m_p, m_s, I_p, I_s, r1, r2, R1, R2, g, delta...), q and qd are 4-sequences
of floats. The mass matrix is returned as its upper triangle, row by row:
(M00, M01, M02, M03, M11, M12, M13, M22, M23, M33). variant selects the
potential: 0 paper-verbatim, 1 geometry-consistent.

Inputs must be finite: math.sin and math.cos raise ValueError on inf.
"""

from math import cos, sin, sqrt
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
