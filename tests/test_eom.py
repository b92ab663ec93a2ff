"""The generated equations of motion (rollsim._eom) against independent routes.

The finite-difference route below differentiates the energy functions
numerically: M by the polarization identity, exact for a quadratic form, and
G and the bias by Richardson-extrapolated central differences. It shares
nothing with the generated code except _core.kinetic and _core.potential, so
agreement checks the symbolic differentiation and the emitted arithmetic.
"""

import ast
import dis
import importlib.util
import inspect
import itertools
import math
import re
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import list_rk4_step, states
from rollsim import _core, _eom
from rollsim.config import load_scenario
from rollsim.model import RobotParams
from rollsim.simulate import variant_code

PAR = RobotParams().packed()
GEN_EOM = Path(__file__).resolve().parents[1] / "tools" / "gen_eom.py"
EOM = Path(_eom.__file__)

# FD step. 1e-4 with one Richardson level keeps truncation ~1e-18 and
# rounding ~1e-12 in the derivatives.
H = 1e-4

# Error of the FD route itself against a 50-digit evaluation of the same
# terms (sympy + mpmath), over 900 seeded states with |qdot| <= 3: at most
# 3.5e-17 in M, 2.6e-11 in the bias and 1.1e-11 in G, where the generated
# terms are within 3e-17, 2e-16 and 1.2e-15. The tolerances are those
# measured oracle errors with a margin of about 4.
TOL_M = 1e-15
TOL_BIAS = 1e-10
TOL_G = 5e-11


def fd_mass_matrix(par, q):
    # polarization identity: M_ij = T(e_i + e_j) - T(e_i) - T(e_j)
    M = np.empty((4, 4))
    e = np.zeros(4)
    Tii = np.empty(4)
    for i in range(4):
        e[i] = 1.0
        Tii[i] = _core.kinetic(par, q, e)
        e[i] = 0.0
    for i in range(4):
        M[i, i] = 2.0 * Tii[i]
        for j in range(i + 1, 4):
            e[i] = e[j] = 1.0
            M[i, j] = M[j, i] = _core.kinetic(par, q, e) - Tii[i] - Tii[j]
            e[i] = e[j] = 0.0
    return M


def fd_mass_times(par, q, qd):
    # (M qd)_k from kinetic-energy evaluations; exact for a quadratic form
    out = np.empty(4)
    v = qd.copy()
    for k in range(4):
        v[k] = qd[k] + 1.0
        tp = _core.kinetic(par, q, v)
        v[k] = qd[k] - 1.0
        tm = _core.kinetic(par, q, v)
        v[k] = qd[k]
        out[k] = 0.5 * (tp - tm)
    return out


def fd_derivative(g, step):
    """Richardson-extrapolated central difference of g(s) at s = 0."""
    def central(h):
        return (g(h) - g(-h)) / (2.0 * h)
    return (4.0 * central(0.5 * step) - central(step)) / 3.0


def fd_bias(par, q, qd):
    # Mdot*qd as the directional derivative of M(q)*qd along qd/|qd|
    nrm = math.sqrt(float(qd @ qd))
    md = np.zeros(4)
    if nrm > 0.0:
        u = qd / nrm
        md = fd_derivative(lambda s: fd_mass_times(par, q + s * u, qd), H) * nrm
    dT = np.array([fd_derivative(lambda s: _core.kinetic(par, q + s * e, qd), H)
                   for e in np.eye(4)])
    return md - dT + par[9:13] * qd


def fd_gravity(par, q, variant):
    return np.array([
        fd_derivative(lambda s: _core.potential(par, q + s * e, variant), H)
        for e in np.eye(4)])


def test_generated_terms_match_fd_oracle():
    qs, qds = states(200, 11)
    worst = {"M": 0.0, "bias": 0.0, "G": 0.0}
    for q, qd in zip(qs, qds):
        worst["M"] = max(worst["M"], float(np.max(np.abs(
            _core.mass_matrix(PAR, q) - fd_mass_matrix(PAR, q)))))
        worst["bias"] = max(worst["bias"], float(np.max(np.abs(
            _core.bias(PAR, q, qd) - fd_bias(PAR, q, qd)))))
        for variant in (_core.VARIANT_VERBATIM, _core.VARIANT_GEOMETRIC):
            worst["G"] = max(worst["G"], float(np.max(np.abs(
                _core.gravity(PAR, q, variant)
                - fd_gravity(PAR, q, variant)))))
    assert worst["M"] < TOL_M, worst
    assert worst["bias"] < TOL_BIAS, worst
    assert worst["G"] < TOL_G, worst


@pytest.fixture(scope="module")
def gen():
    """tools/gen_eom.py as a module, loaded once; it needs sympy."""
    pytest.importorskip("sympy")
    spec = importlib.util.spec_from_file_location("gen_eom", GEN_EOM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checked_in_module_matches_its_generator(gen):
    # the generator differentiates _core.kinetic, _core.potential and
    # _core.separation, so this ties _eom to the runtime energies and tip
    # geometry
    text = gen.generate()
    # under the sympy that wrote it, the generator gives the checked-in text
    # byte for byte, so a hand edit of _eom.py fails here; another sympy may
    # factor the terms otherwise, and only the values below can be compared
    checked_in = EOM.read_text()
    wrote = re.match(r"# Generated by tools/gen_eom\.py with sympy (\S+);",
                     checked_in)
    assert wrote, "the header names no sympy version"
    if gen.sp.__version__ == wrote[1]:
        assert text == checked_in
    fresh = {}
    exec(compile(text, "<regenerated _eom>", "exec"), fresh)
    # the sympy trig bound into _core for the derivation must not leak out
    assert _core.np is np
    p = PAR
    qs, qds = states(50, 13)
    tau = (0.01, -0.02, -0.01, 0.02)
    for q, qd, pd in zip(qs.tolist(), qds.tolist(), controllers(50, 17)):
        m = _eom.mass_matrix(p, q)
        tip = _eom.tip_geometry(p, q)
        pairs = [(fresh["mass_matrix"](p, q), m),
                 (fresh["bias"](p, q, qd), _eom.bias(p, q, qd)),
                 (fresh["tip_geometry"](p, q), tip),
                 (fresh["solve_spd4"](m, tau), _eom.solve_spd4(m, tau))]
        pairs += [(fresh["gravity"](p, q, v), _eom.gravity(p, q, v))
                  for v in (0, 1)]
        pairs += [(loop_step(fresh["loop_for"], p, v, 1e-3, mag, pd, q + qd),
                   loop_step(_eom.loop_for, p, v, 1e-3, mag, pd, q + qd))
                  for v in (0, 1) for mag in (MAG_OFF, MAG_ON)]
        # terms are at most ~1.4 here: 1e-14 admits only the rounding of a
        # differently factored form, as another sympy version may emit
        for new, old in pairs:
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-14)
        # the force law and the PD law are fixed texts, not sympy's: equal
        # to the bit
        assert fresh["tip_law"](MAG_ON, tip) == _eom.tip_law(MAG_ON, tip)
        assert fresh["pd_input"](*pd, q + qd) == _eom.pd_input(*pd, q + qd)
        assert (fresh["pd_error"](pd[2], q + qd)
                == _eom.pd_error(pd[2], q + qd))


def numbered(gen, stage, params=(), keep=()):
    """The parse of gen._number's (loop_for's lines, the stage's lines) for
    the stage's text, as ast.dump strings: the rewrite, not its spacing."""
    outer, lines = gen._number(textwrap.dedent(stage).splitlines(),
                               set(params), set(keep))
    return parsed("\n".join(outer), "\n".join(lines))


def parsed(outer, stage):
    return tuple(ast.dump(ast.parse(textwrap.dedent(text)))
                 for text in (outer, stage))


@pytest.mark.parametrize("stage,params,outer,out", [
    # the largest operation of parameters alone, named once in loop_for
    ("y = a * b + x\nw = x - b * a", "ab",
     "xp0 = a * b", "y = xp0 + x\nw = x - xp0"),
    # an unindented statement of parameters alone moves whole, and one of
    # the same value goes, its reads reading the first name
    ("c = a * b\nd = b * a\ny = c * d * x", "ab",
     "c = a * b\nxp0 = c * c", "y = xp0 * x"),
    # a pivot check of parameters alone moves with return _failed_loop,
    # ahead of the sqrt it guards
    ("""\
     if not 0.0 < a < inf:
         return None
     r = sqrt(a)
     y = x / r""", ("a", "inf", "sqrt"),
     """\
     if not 0.0 < a < inf:
         return _failed_loop
     r = sqrt(a)""", "y = x / r"),
    # a zero's line goes, and so does each product with it subtracted from
    # a partial sum
    ("z = 0.0\nw = z / d\ny = (a - b * z - w * c) / e", "",
     "", "y = a / e"),
    # a value computed again on every path from its first computation is
    # named there and read
    ("u = x * y + 1.0\nv = y * x - 1.0", "",
     "", "xv0 = x * y\nu = xv0 + 1.0\nv = xv0 - 1.0"),
    # a line that computes a value whole names it, even for a later branch
    ("u = x * y\nif c:\n    v = y * x - 1.0", "",
     "", "u = x * y\nif c:\n    v = u - 1.0"),
    # a value computed again only inside a later branch stays inline
    ("u = x * y + 1.0\nif c:\n    v = x * y - 1.0", "",
     "", "u = x * y + 1.0\nif c:\n    v = x * y - 1.0"),
    # ... and so does one whose next computation a pivot check may skip
    ("u = x * y + 1.0\nif not 0.0 < u:\n    return None\nv = x * y", "",
     "", "u = x * y + 1.0\nif not 0.0 < u:\n    return None\nv = x * y"),
    # a line that copies a named value goes, and later lines read the name
    ("u = x * y\nk = y * x\nv = k + 1.0", "",
     "", "u = x * y\nv = u + 1.0"),
    # a statement over two lines is numbered like any other
    ("u = (x * y\n     + 1.0)\nv = x * y - 1.0", "",
     "", "xv0 = x * y\nu = xv0 + 1.0\nv = xv0 - 1.0"),
], ids=["hoisted", "moved_whole", "pivot", "zero", "repeated",
        "named_by_line", "branch_inline", "past_a_pivot", "copy_goes",
        "two_lines"])
def test_number_rewrites_a_stage_by_its_rules(gen, stage, params, outer,
                                              out):
    assert numbered(gen, stage, params) == parsed(outer, out)


def test_number_keeps_a_name_in_keep(gen):
    # a name the caller reads after the stage copies the shared value
    assert numbered(gen, "u = x * y\nk = y * x\nv = k + 1.0",
                    keep={"k"}) == parsed("", "u = x * y\nk = u\nv = k + 1.0")


@pytest.mark.parametrize("stage,params,message", [
    ("a = x * 2.0", "a", "the stage assigns {'a'}"),
    ("z = 0.0\ny = a + z * b", "", "the zero z is read where no rule"),
    ("z = 0.0\ny = z * b - a", "", "the zero z is read where no rule"),
])
def test_number_refuses_what_no_rule_covers(gen, stage, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        gen._number(stage.splitlines(), set(params), set())


def test_accel_redoes_no_arithmetic_of_p_alone():
    # loop_for computes once what p, mag and pd alone determine; its loop
    # must not hold an operation, call or comparison whose names are all
    # parameters, gains, targets, math's or loop_for's own values, such as
    # sqrt(m00), the pivot test 0.0 < m00 < inf or 2.0 * mu0
    [outer] = [f for f in ast.parse(inspect.getsource(_eom)).body
               if isinstance(f, ast.FunctionDef) and f.name == "loop_for"]
    fixed, inner = {"cos", "inf", "sin", "sqrt"}, None
    stmts = list(outer.body)
    for stmt in stmts:
        if isinstance(stmt, ast.FunctionDef):
            inner = stmt
        elif isinstance(stmt, ast.If):
            stmts += stmt.body  # the unpacking of pd's gains and targets
        elif isinstance(stmt, ast.Assign):
            fixed.update(n.id for t in stmt.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    assert inner.name == "loop"
    assert {"m_p", "d_ph2", "m00", "xm0", "l00", "l11", "h", "R1", "R2",
            "enabled", "B_max", "P_max", "A", "mu0", "controlled",
            "kp00", "kp13", "kd00", "kd13", "th1d", "ph2d"} <= fixed
    local = {n.id for n in ast.walk(inner)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    assert not local & fixed
    redone = []
    for node in ast.walk(inner):
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call, ast.Compare)):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            if names and names <= fixed:
                redone.append(ast.unparse(node))
    assert redone == []


def test_loop_reads_its_constants_as_fast_locals():
    # loop_for hands loop every value it reads, math's cos, sin, sqrt and
    # inf among them, as keyword-only defaults: no closure cell, and no
    # global lookup inside the step loop
    loop = _eom.loop_for(PAR, 0, 1e-3, MAG_ON, controllers(1, 3)[0])
    assert loop.__code__.co_freevars == ()
    ops = list(dis.get_instructions(loop))
    assert [i for i in ops if i.opname == "LOAD_DEREF"] == []
    # the first loop is the one over the steps
    steps = next(i for i in ops if i.opname == "FOR_ITER")
    assert [i.argval for i in ops if i.opname == "LOAD_GLOBAL"
            and steps.offset < i.offset < steps.argval] == []


def temporaries(stmts):
    """{name: value} of the cse temporaries xm*, xb*, xg* and xt* that the
    statements assign, at any depth."""
    return {t.id: node.value for stmt in stmts for node in ast.walk(stmt)
            if isinstance(node, ast.Assign) for t in node.targets
            if isinstance(t, ast.Name) and re.fullmatch(r"x[mbgt]\d+", t.id)}


def assigned_once(func):
    """{name: value} of each name that func, nested functions included,
    assigns once, by a statement name = value."""
    stores = [n.id for n in ast.walk(func)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return {node.targets[0].id: node.value for node in ast.walk(func)
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and stores.count(node.targets[0].id) == 1}


class ValueNumbers:
    """Value numbers of expressions, each name of a definitions dict read
    as its value: equal numbers are the same operations on the same
    operands, to the bit. a + b and b + a are one value, as are a * b and
    b * a: IEEE 754 rounds the exact result, which is the same."""

    def __init__(self):
        self.table, self.names = {}, {}

    def of(self, node, defs):
        if isinstance(node, ast.Name) and node.id in defs:
            at = (id(defs), node.id)
            if at not in self.names:
                self.names[at] = self.of(defs[node.id], defs)
            return self.names[at]
        if isinstance(node, ast.Name):
            key = ("name", node.id)
        elif isinstance(node, ast.Constant):
            key = ("constant", repr(node.value))
        elif isinstance(node, ast.BinOp):
            operands = [self.of(node.left, defs), self.of(node.right, defs)]
            if isinstance(node.op, (ast.Add, ast.Mult)):
                operands.sort()
            key = (type(node.op).__name__, *operands)
        elif isinstance(node, ast.UnaryOp):
            key = (type(node.op).__name__, self.of(node.operand, defs))
        elif isinstance(node, ast.Call):
            key = ("call", node.func.id,
                   *(self.of(a, defs) for a in node.args))
        else:
            key = ("node", id(node))
        return self.table.setdefault(key, len(self.table))


def operations(node):
    """The arithmetic operations and calls under node that read a name."""
    return [n for n in ast.walk(node)
            if (isinstance(n, (ast.BinOp, ast.Call))
                or isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub))
            and any(isinstance(m, ast.Name) for m in ast.walk(n))]


def statements(body, block=()):
    """(statement, block, index) of each statement of body, at any depth,
    in source order; block is the path of (index, branch) pairs from body
    to the list that holds the statement."""
    for i, stmt in enumerate(body):
        yield stmt, block, i
        if isinstance(stmt, ast.If):
            for k, branch in enumerate((stmt.body, stmt.orelse)):
                yield from statements(branch, (*block, (i, k)))


def evaluated(stmt):
    """The part of stmt that runs whenever stmt does: an if's test, or all
    of any other statement."""
    return stmt.test if isinstance(stmt, ast.If) else stmt


def may_leave(stmt):
    return any(isinstance(n, (ast.Return, ast.Break)) for n in ast.walk(stmt))


def stage_loop(funcs):
    """The loop over the four RK4 stages in loop_for's loop."""
    [stage] = [n for n in ast.walk(funcs["loop_for"])
               if isinstance(n, ast.For) and n.target.id == "stage"]
    return stage


def on_every_path(body, block, i):
    """The evaluated parts of the statements that run on every path from
    the end of the statement at (block, i) of body: the later statements
    of its list, up to the first that may leave the stage."""
    later = [s for s, b, j in statements(body) if b == block and j > i]
    for n, stmt in enumerate(later):
        if may_leave(stmt):
            later = later[:n + 1]
            break
    return [evaluated(s) for s in later]


def test_the_terms_and_the_loop_share_their_temporaries():
    # each term's cse block is printed into its function and into loop_for,
    # where the temporaries of parameters alone keep their right-hand side,
    # the solve drops the terms of M's structural zeros and the stage
    # computes a repeated value once wherever a name can serve: every
    # temporary the loop keeps has its term's value, each one it drops the
    # value of one it keeps, and no computation of the stage repeats a
    # value that it could have read by name
    funcs = {f.name: f for f in ast.parse(inspect.getsource(_eom)).body
             if isinstance(f, ast.FunctionDef)}
    terms = {}
    for name in ("mass_matrix", "bias", "gravity", "tip_geometry"):
        terms.update(temporaries(funcs[name].body))
    looped = temporaries(funcs["loop_for"].body)
    assert {"xm", "xb", "xg"} <= {n[:2] for n in terms}
    assert set(looped) <= set(terms)
    whole = temporaries(s for s in funcs["loop_for"].body
                        if isinstance(s, ast.Assign))
    assert {"xm0", "xm21", "xb2"} <= set(whole)
    for name, value in whole.items():
        assert ast.dump(value) == ast.dump(terms[name]), name

    numbers = ValueNumbers()
    loop = assigned_once(funcs["loop_for"])
    assert set(looped) <= set(loop)
    kept = {numbers.of(value, loop) for value in loop.values()}
    dropped = []
    for term in ("mass_matrix", "bias", "gravity", "tip_geometry"):
        defs = assigned_once(funcs[term])
        for name, value in defs.items():
            if name in loop:
                # a temporary, an output or a tip partial of both: one value
                assert numbers.of(loop[name], loop) == numbers.of(value, defs)
            elif isinstance(value, ast.Constant):
                assert name in ("m01", "m03") and value.value == 0.0
            else:
                assert numbers.of(value, defs) in kept, name
                dropped.append(name)
    assert {"xg0", "xg4", "xg5"} <= set(dropped)

    # the naming rule: a value is computed again only where no earlier
    # computation of it has a name the later one could read (the target of
    # a line that computes it whole and is assigned once, on every path to
    # the later one) and where no later statement on every path from the
    # earlier one computes it, which would have named it
    stage = stage_loop(funcs)
    places = {}
    for stmt, block, i in statements(stage.body):
        for n in operations(evaluated(stmt)):
            places.setdefault(numbers.of(n, loop), []).append(
                (n, stmt, block, i))
    shareable = []
    for found in places.values():
        for (n1, s1, b1, i1), (n2, s2, b2, i2) in itertools.combinations(
                found, 2):
            if (isinstance(s1, ast.Assign) and s1.value is n1
                    and s1.targets[0].id in loop):
                # a line names the value: every path to the later
                # computation runs it
                late = b2[:len(b1)] == b1 and (b2 == b1 or b2[len(b1)][0] > i1)
            else:
                late = s1 is not s2 and any(
                    n2 in ast.walk(part)
                    for part in on_every_path(stage.body, b1, i1))
            if late:
                shareable.append(ast.unparse(n2))
    assert shareable == []
    assert not {"l10", "l30"} & {n.id for n in ast.walk(funcs["loop_for"])
                                 if isinstance(n, ast.Name)}


def test_loop_for_binds_one_name_per_value():
    # a value of p and mag alone is computed once in loop_for, under one
    # name: the mass block's xm8 and the bias block's m_p*r2 are one name
    funcs = {f.name: f for f in ast.parse(inspect.getsource(_eom)).body
             if isinstance(f, ast.FunctionDef)}
    defs = assigned_once(funcs["loop_for"])
    numbers = ValueNumbers()
    bound = {}
    for stmt in funcs["loop_for"].body:
        if (isinstance(stmt, ast.Assign)
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id in defs):
            bound.setdefault(numbers.of(stmt.value, defs), []).append(
                stmt.targets[0].id)
    assert "xm8" in [name for names in bound.values() for name in names]
    assert [names for names in bound.values() if len(names) > 1] == []


def test_each_shared_name_is_read_again_on_every_path():
    # every name the stage assigns to share a value, xv*, is read at least
    # twice on every path from its assignment: beyond P_max the coupled
    # branch stores no name for the gradient branch, and stage 1 none for
    # the update of stages 2 and 3
    funcs = {f.name: f for f in ast.parse(inspect.getsource(_eom)).body
             if isinstance(f, ast.FunctionDef)}
    stage = stage_loop(funcs)
    reads = {}
    for stmt, block, i in statements(stage.body):
        if isinstance(stmt, ast.Assign) and re.fullmatch(
                r"xv\d+", stmt.targets[0].id):
            name = stmt.targets[0].id
            reads[name] = sum(
                isinstance(n, ast.Name) and n.id == name
                for part in on_every_path(stage.body, block, i)
                for n in ast.walk(part))
    assert reads
    assert {name: n for name, n in reads.items() if n < 2} == {}


@pytest.mark.parametrize("y", [
    [0.0, 0.0, math.inf, 0.0, 0.0, 0.0, 0.0, 0.0],     # sin(inf) would raise
    [0.0, 0.0, 3.0, 0.1, 0.0, 0.0, 1e200, -1e200],     # rates square to inf
    [0.1, 0.5, 3.0, 0.2, 1e155, 1e155, 1e155, 1e155],  # bias overflows
    [0.0, math.nan, 3.0, 0.1, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 3.0, 0.1, 0.0, math.inf, 0.0, 0.0],
    # stage 1's qdd has inf entries: infinite rates in stage 2's input,
    # which would make infinite angles in stage 3's
    [0.9, -2.4, 1.8, 2.5, 1e184, 0.3, -0.7, -0.3],
])
def test_deriv_flags_nonfinite_without_raising(y):
    # with P_max = 1e3 every stage the step runs takes the tip force law
    p = PAR
    for P_max in (0.02, 1e3):
        mag = [1.0, 0.05, P_max, 0.0025, 1.257e-6]
        dy, ok = _core.deriv(p, mag, y, [0.0] * 4, 0)
        assert not ok
        assert len(dy) == 8
        if all(map(math.isfinite, y)):
            # no stage input is tested: math.cos of an inf angle raises
            # ValueError, which the loop turns into its stop
            assert loop_step(_eom.loop_for, p, 0, 1e-3, mag, None, y) is None


# tip coupling whose P_max, 0.14 m, is near the median separation of the
# states() drawn below (0.01 to 0.25 m), so about half of them feel a torque
MAG_ON = [1.0, 0.05, 0.14, 0.0025, 1.257e-6]
MAG_OFF = [0.0] * 5
# coupled, with zero flux: every in-range torque is a signed zero
MAG_NO_FLUX = [1.0, 0.0, 0.14, 0.0025, 1.257e-6]


def bits(v):
    """The exact bits of a float sequence: -0.0 and 0.0 differ."""
    return [x.hex() for x in v]


def controllers(n, seed):
    """n PD controllers (Kp, Kd, tgt) of random gains and targets.

    Every gain entry is drawn, the cross-module ones too: pd_input weighs
    all of them.
    """
    rng = np.random.default_rng(seed)
    Kp = rng.uniform(-0.01, 0.01, (n, 2, 4)).tolist()
    Kd = rng.uniform(-0.01, 0.01, (n, 2, 4)).tolist()
    return list(zip(Kp, Kd, rng.uniform(-np.pi, np.pi, (n, 4)).tolist()))


def held(pd, y):
    """The generalized force the run holds over a step from y under pd."""
    if pd is None:
        return (0.0,) * 4
    return _core.torque_map(*_core.pd_input(*pd, y))


def loop_step(loop_for, p, variant, dt, mag, pd, y):
    """The y after one step of loop_for's loop from y, or None where the
    loop takes no step."""
    ys = np.empty((2, 8))
    ys[0] = y
    taken = loop_for(p, variant, dt, mag, pd)(ys, 1)
    return ys[1].tolist() if taken else None


@pytest.mark.parametrize("mag", [MAG_OFF, MAG_ON, MAG_NO_FLUX],
                         ids=["mag_off", "mag_on", "no_flux"])
@pytest.mark.parametrize("variant", [0, 1])
def test_deriv_equals_the_separate_terms(variant, mag):
    # one step of _eom.loop_for's loop, its PD input inline, must be one
    # list-RK4 step on the separate terms under pd_input to the last bit
    qs, qds = states(5000, 37)
    pds = controllers(5000, 41)
    p = PAR
    dt = 1e-3
    coupled = 0
    for q, qd, pd in zip(qs.tolist(), qds.tolist(), pds):
        ref = list_rk4_step(p, mag, q + qd, held(pd, q + qd), variant, dt)
        assert ref is not None
        got = loop_step(_eom.loop_for, p, variant, dt, mag, pd, q + qd)
        assert bits(got) == bits(ref)
        coupled += _core.mag_torque(p, mag, q)[0] != (0.0,) * 4
    if mag is MAG_ON:
        assert 1000 < coupled < 4000


def signed_zero_states():
    """(y, pd) pairs: one whose held tau - bias - G has -0.0 entries, then
    others.

    tau_i = -0.0 with a zero rate and a zero gravity term: a zero torque of
    +0.0 makes the right-hand side +0.0 there, one of -0.0 leaves it -0.0.
    Gains of -0.0 on errors of +0.6, +0.6, +0.7, +0.2 and rates of +0.0
    give u1 = u2 = -0.0.
    """
    y = [0.3, -0.2, -0.3, 0.2, 0.0, 0.0, 0.0, 0.0]  # ph1 + th1 = ph2 + th2 = 0
    negative_zero = ((-0.0,) * 4,) * 2
    pd = (negative_zero, negative_zero, (0.0, -1.0, -1.0, 0.0))
    tau = held(pd, y)
    assert bits(tau) == bits([-0.0, -0.0, 0.0, 0.0])
    p = PAR
    for variant in (0, 1):
        b, G = _eom.bias(p, y[:4], y[4:]), _eom.gravity(p, y[:4], variant)
        assert bits([tau[i] - b[i] - G[i] for i in (0, 1)]) == bits([-0.0] * 2)
    qs, qds = states(40, 47)
    return [(y, pd)] + [(q + qd, c) for q, qd, c
                        in zip(qs.tolist(), qds.tolist(), controllers(40, 43))]


def kinds_of_states(n, seed):
    """(y, pd) pairs, five per seeded state: as drawn; at rest; at rest at
    pd's setpoint under gains of one sign, so u1 = u2 = -0.0; and with the
    rates 1e8 and 1e150 times, which overflow in the second step and in
    the first."""
    qs, qds = states(n, seed)
    out = []
    for q, qd, pd in zip(qs.tolist(), qds.tolist(), controllers(n, seed)):
        Kp, Kd, _ = pd
        setpoint = [q[0] - q[2], q[1] - q[3], q[2], q[3]]
        negative = [[[-abs(k) for k in row] for row in K] for K in (Kp, Kd)]
        out += [(q + qd, pd), (q + [0.0] * 4, pd),
                (q + [0.0] * 4, (*negative, setpoint)),
                (q + [1e8 * v for v in qd], pd),
                (q + [1e150 * v for v in qd], pd)]
    return out


@pytest.mark.parametrize("dt", [1e-3, 0.5])
def test_loop_steps_are_a_list_rk4_byte_for_byte(dt):
    # two steps of the loop against two list-RK4 steps on the separate
    # terms, compared by tobytes(), so a -0.0 for a +0.0 fails too; where
    # the list RK4 fails or its new y is not finite, the loop stops there
    p = PAR
    far = [1.0, 0.05, 1e3, 0.0025, 1.257e-6]  # every stage takes the law
    taken_counts = []
    for y, pd in kinds_of_states(80, 59):
        for variant, mag, control in itertools.product(
                (0, 1), (MAG_OFF, far), (None, pd)):
            ref = [y]
            while len(ref) < 3:
                new = list_rk4_step(p, mag, ref[-1], held(control, ref[-1]),
                                    variant, dt)
                if new is None or not all(map(math.isfinite, new)):
                    break
                ref.append(new)
            ys = np.zeros((3, 8))
            ys[0] = y
            taken = _eom.loop_for(p, variant, dt, mag, control)(ys, 2)
            assert taken == len(ref) - 1
            assert ys[:taken + 1].tobytes() == np.array(ref).tobytes()
            taken_counts.append(taken)
    assert {0, 1, 2} <= set(taken_counts)


@pytest.mark.parametrize("shift", [-1, 0, 1],
                         ids=["below", "equal", "above"])
@pytest.mark.parametrize("variant", [0, 1])
def test_tip_law_at_the_cut_off_equals_the_separate_terms(variant, shift):
    # P_max exactly at stage 1's separation, and one ulp either side of it:
    # the cut-off test, B of nearly zero and the torque's signed zeros
    p = PAR
    dt = 1e-3
    for y, pd in signed_zero_states():
        pm = float(_core.separation(p, y[:4]))
        P_max = {-1: math.nextafter(pm, 0.0), 0: pm,
                 1: math.nextafter(pm, math.inf)}[shift]
        mag = [1.0, 0.05, P_max, 0.0025, 1.257e-6]
        B, F, t, degenerate = _eom.tip_law(mag, _eom.tip_geometry(p, y[:4]))
        assert not degenerate
        assert (B == 0.0) == (shift <= 0)
        if shift < 0:
            assert bits(t) == bits([0.0] * 4)  # cut off: exactly +0.0
        ref = list_rk4_step(p, mag, y, held(pd, y), variant, dt)
        got = loop_step(_eom.loop_for, p, variant, dt, mag, pd, y)
        assert bits(got) == bits(ref)


@pytest.mark.parametrize("entry,value", [
    (2, -1.0),       # I_p: the first pivot is negative
    (3, -0.2),       # I_s: the third pivot is negative
    (2, math.inf),   # I_p: the first pivot is not finite
    (3, math.nan),   # I_s: the third pivot is not finite
])
def test_deriv_flags_a_failed_pivot(entry, value):
    # the first pivot depends on p alone and fails in loop_for, the third
    # on q too and fails at the first stage
    p = list(PAR)
    p[entry] = value
    y = [0.1, 0.5, 3.0, 0.2, 0.3, -0.4, 0.5, 1.0]
    [pd] = controllers(1, 53)
    tau = held(pd, y)
    assert _eom.solve_spd4(_eom.mass_matrix(p, y[:4]), tau) is None
    for variant in (0, 1):
        for mag in (MAG_OFF, MAG_ON):
            assert loop_step(_eom.loop_for, p, variant, 1e-3, mag, pd,
                             y) is None
            assert _core.deriv(p, mag, y, tau, variant) == ((0.0,) * 8, False)


def test_deriv_solves_the_generated_equations():
    q = np.array([0.1, 0.5, 3.0, 0.2])
    qd = np.array([0.3, -0.4, 0.5, 1.0])
    tau = np.array([0.01, -0.02, -0.01, 0.02])
    p = PAR
    dy, ok = _core.deriv(p, [0.0] * 5, [*q, *qd], tau.tolist(), 1)
    assert ok
    lhs = (_core.mass_matrix(PAR, q) @ np.asarray(dy[4:])
           + _core.bias(PAR, q, qd) + _core.gravity(PAR, q, 1))
    np.testing.assert_allclose(lhs, tau, rtol=0, atol=1e-14)
    assert list(dy[:4]) == qd.tolist()


def _upper(M):
    return M[np.triu_indices(4)].tolist()


def test_columns_equal_the_scalar_calls():
    # _core runs _eom's own code objects on columns with numpy's trig; the
    # result must be the scalar math-trig call of each state to the last bit
    # (numpy's sin and cos match libm's, as test_loop_separation_is_separation
    # also relies on)
    q, qd = (a.T.copy() for a in states(500, 29))
    p = PAR
    M = _core.mass_matrix(PAR, q)
    b = _core.bias(PAR, q, qd)
    G = [_core.gravity(PAR, q, v) for v in (0, 1)]
    assert M.shape == (4, 4, 500) and b.shape == G[0].shape == (4, 500)
    assert np.array_equal(M, M.transpose(1, 0, 2))
    for k in range(500):
        qk, qdk = q[:, k].tolist(), qd[:, k].tolist()
        assert _upper(M[:, :, k]) == list(_eom.mass_matrix(p, qk))
        assert b[:, k].tolist() == list(_eom.bias(p, qk, qdk))
        for v in (0, 1):
            assert G[v][:, k].tolist() == list(_eom.gravity(p, qk, v))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("coord", range(4))
def test_a_nonfinite_column_is_nan_and_leaves_the_others(bad, coord):
    q, qd = (a.T.copy() for a in states(5, 31))
    q[coord, 2] = bad
    good = [0, 1, 3, 4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = [_core.mass_matrix(PAR, q), _core.bias(PAR, q, qd),
               _core.gravity(PAR, q, 0), _core.gravity(PAR, q, 1)]
    ref = [_core.mass_matrix(PAR, q[:, good]),
           _core.bias(PAR, q[:, good], qd[:, good]),
           _core.gravity(PAR, q[:, good], 0), _core.gravity(PAR, q[:, good], 1)]
    for a, r in zip(out, ref):
        assert np.all(np.isnan(a[..., 2]))
        assert np.array_equal(a[..., good], r)


# opcodes loop runs per step, by the interpreter they were counted on: a
# change that alters the stage on purpose updates them
OPCODES_PER_STEP = {(3, 11): {"freefall": 2953, "lifting_mag": 3371}}


def opcodes_per_step(loop_for, y0):
    """The opcodes that loop runs in one step from y0: a 3-step call less a
    2-step call, so the call's entry and exit cancel. Only loop's frame is
    traced, and the trace function in force before is restored."""
    def count(n):
        loop, events = loop_for(), 0

        def opcode(frame, event, arg):
            nonlocal events
            events += event == "opcode"
            return opcode

        def call(frame, event, arg):
            if frame.f_code is not loop.__code__:
                return None
            frame.f_trace_opcodes = True
            return opcode

        ys = np.zeros((n + 1, 8))
        ys[0] = y0
        previous = sys.gettrace()
        sys.settrace(call)
        try:
            taken = loop(ys, n)
        finally:
            sys.settrace(previous)
        assert taken == n
        return events
    return count(3) - count(2)


@pytest.mark.parametrize("workload,preset,mag_dt", [
    ("freefall", "freefall", None), ("lifting_mag", "lifting", 2e-4)],
    ids=["freefall", "lifting_mag"])
def test_loop_runs_its_recorded_opcodes_per_step(workload, preset, mag_dt):
    # the work of one step, counted without timing: freefall as shipped,
    # and the lifting preset's y0 with magnetics on at dt 2e-4, where p_m is
    # beyond P_max, so each stage takes the coupled branch's cut-off path
    version = sys.version_info[:2]
    if version not in OPCODES_PER_STEP:
        pytest.skip(f"opcodes counted on Python {sorted(OPCODES_PER_STEP)}, "
                    f"this is {version}")
    sc, params, mag = load_scenario(preset)
    dt = sc.dt
    if mag_dt is not None:
        mag, dt = replace(mag, enabled=True), mag_dt
    pd = None if sc.controller is None else sc.controller.packed()
    count = opcodes_per_step(lambda: _eom.loop_for(
        params.packed(), variant_code(sc.potential), dt, mag.packed(), pd),
        sc.y0)
    assert count == OPCODES_PER_STEP[version][workload]
