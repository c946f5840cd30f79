"""Closed-form device Jacobians against the complex-step oracle.

Each nonlinear device stamps its Newton companion from one closed-form
pass (``companion``).  The complex-capable current and charge equations
the devices keep (``_terminal_currents``, ``_npn_currents``, ``_ids``,
``_current``, ``_charge*``) are the oracle: complex-step differentiation
of them is exact to machine precision, so every stamped Jacobian,
current, small-signal parameter and capacitance must match it normwise
to 1e-12.  The array form of each companion (the batched Newton's
``(A,)`` sample columns) must be bit-equal, lane by lane, to the scalar
evaluation, and one stamp must evaluate the device equations once.
"""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.context import AnalysisContext
from repro.circuit.elements import (
    BJT,
    BJTModel,
    Diode,
    DiodeModel,
    MOSFET,
    MOSFETModel,
)
from repro.circuit.elements.nonlinear import cstep_derivative, cstep_gradient
from repro.circuit.units import thermal_voltage

RTOL = 1e-12

volts = st.floats(-4.0, 4.0)
temperatures = st.floats(-40.0, 150.0)
gmins = st.sampled_from([0.0, 1e-12, 1e-9])
polarities_bjt = st.sampled_from(["npn", "pnp"])
polarities_mos = st.sampled_from(["nmos", "pmos"])


class _View:
    """Solution view over a node -> voltage mapping (scalars or columns)."""

    def __init__(self, voltages):
        self._voltages = voltages

    def voltage(self, node):
        return self._voltages.get(node, 0.0)


class _Capture:
    """Companion stamper recording every stamp in call order."""

    def __init__(self):
        self.values = []
        self.g = {}
        self.rhs = {}

    def add_G_iter(self, vi, vj, value):
        self.values.append(value)
        self.g[(vi, vj)] = value

    def add_rhs_iter(self, node, value):
        self.values.append(value)
        self.rhs[node] = value


def _stamp(device, voltages, ctx):
    capture = _Capture()
    device.stamp_nonlinear(capture, _View(voltages), ctx)
    return capture


def _stamped_companion(device, capture, v_lin):
    """``(I, J)`` of a stamped companion linearized at ``v_lin``.

    The stamp carries ``J`` and ``rhs = -(I - J v_lin)``, so ``I`` is
    recovered as ``J v_lin - rhs``.
    """
    nodes = device.nodes
    jac = np.array([[capture.g[(a, b)] for b in nodes] for a in nodes])
    rhs = np.array([capture.rhs[a] for a in nodes])
    return jac @ np.asarray(v_lin) - rhs, jac


def _oracle(currents, v_lin):
    """``(I, J)`` of a terminal-current function: value and complex step."""
    ref_i = np.array([complex(c).real for c in currents(*v_lin)])
    ref_j = np.array([cstep_gradient(lambda *v, k=k: currents(*v)[k], v_lin)
                      for k in range(len(v_lin))])
    return ref_i, ref_j


def _assert_companion(current, jac, ref_i, ref_j):
    """Normwise agreement of a companion with its oracle.

    The Jacobian is held to ``RTOL`` of its own norm.  A junction current
    near zero bias is ``isat * (exp(v/vt) - 1)``: the exponential carries
    one rounding of ``exp(v/vt)``, so the current is only meaningful to
    ``RTOL`` of the scale ``|I| + vt |J|`` (``vt |J|`` is ``isat *
    exp(v/vt)`` for a junction).
    """
    j_norm = np.linalg.norm(ref_j)
    assert np.linalg.norm(jac - ref_j) <= RTOL * j_norm, (jac, ref_j)
    scale = np.linalg.norm(ref_i) + thermal_voltage(27.0) * j_norm
    assert np.linalg.norm(current - ref_i) <= RTOL * scale, (current, ref_i)


def _close(value, reference):
    assert abs(value - reference) <= RTOL * abs(reference), (value, reference)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


# ----------------------------------------------------------------------
# Diode
# ----------------------------------------------------------------------
def _diode(cjo=1e-12, tt=1e-9, n=1.0, is_=1e-14, vj=0.7, m=0.4, fc=0.5):
    return Diode("D1", "a", "k",
                 DiodeModel(IS=is_, N=n, CJO=cjo, TT=tt, VJ=vj, M=m, FC=fc))


def _diode_case(diode, vd, ctx):
    """Stamp ``diode`` at junction voltage ``vd`` (identity limiting)."""
    ctx.device_state(diode.name)["vd"] = vd
    capture = _stamp(diode, {"a": vd}, ctx)
    v_lin = (ctx.device_state(diode.name)["vd"], 0.0)
    current, jac = _stamped_companion(diode, capture, v_lin)

    def currents(va, vk):
        i = diode._current(va - vk, ctx)
        return i, -i

    return (current, jac) + _oracle(currents, v_lin)


diode_models = st.builds(
    _diode, cjo=st.sampled_from([0.0, 2e-12]), tt=st.sampled_from([0.0, 5e-9]),
    n=st.floats(1.0, 2.0), is_=st.floats(1e-16, 1e-12),
    vj=st.floats(0.5, 1.0), m=st.floats(0.2, 0.6), fc=st.floats(0.3, 0.8))


class TestDiodeJacobian:
    @given(diode_models, st.floats(-5.0, 5.0), temperatures, gmins)
    def test_forward_and_reverse_bias(self, diode, vd, temp, gmin):
        ctx = AnalysisContext(temperature=temp, gmin=gmin)
        _assert_companion(*_diode_case(diode, vd, ctx))

    @given(diode_models, st.floats(0.0, 3.0), temperatures)
    def test_linearised_exponential_above_80(self, diode, excess, temp):
        ctx = AnalysisContext(temperature=temp)
        vt = diode.model.N * thermal_voltage(temp)
        vd = vt * (80.0 + excess) + 1e-9
        _assert_companion(*_diode_case(diode, vd, ctx))

    @given(diode_models, st.floats(-5.0, 3.0), temperatures)
    def test_op_info_conductance_and_capacitance(self, diode, vd, temp):
        ctx = AnalysisContext(temperature=temp)
        info = diode.operating_point_info(_View({"a": vd}), ctx)
        _close(info["gd"], cstep_derivative(
            lambda v: diode._current(v, ctx), vd))
        _close(info["cd"], cstep_derivative(
            lambda v: diode._charge(v, ctx), vd))


# ----------------------------------------------------------------------
# BJT
# ----------------------------------------------------------------------
def _bjt(polarity="npn", vaf=50.0, var=math.inf, nf=1.0, nr=1.0, bf=100.0,
         br=2.0, is_=1e-16):
    return BJT("Q1", "c", "b", "e",
               BJTModel(polarity=polarity, VAF=vaf, VAR=var, NF=nf, NR=nr,
                        BF=bf, BR=br, IS=is_, CJE=1e-12, CJC=0.5e-12,
                        TF=1e-10, TR=1e-8))


bjt_models = st.builds(
    _bjt, polarity=polarities_bjt, vaf=st.floats(0.5, 200.0),
    var=st.one_of(st.just(math.inf), st.floats(0.5, 50.0)),
    nf=st.floats(1.0, 1.5), nr=st.floats(1.0, 1.5),
    bf=st.floats(10.0, 500.0), br=st.floats(0.5, 10.0),
    is_=st.floats(1e-18, 1e-14))


def _bjt_case(bjt, vc, vb, ctx):
    """Stamp ``bjt`` at (vc, vb, ve=0) with identity limiting."""
    p = bjt.model.sign
    state = ctx.device_state(bjt.name)
    state["vbe"] = p * vb
    state["vbc"] = p * (vb - vc)
    capture = _stamp(bjt, {"c": vc, "b": vb}, ctx)
    # The companion's linearization point: emitter at 0 V, the other
    # terminals rebuilt from the limited junction voltages.
    vb_lin = 0.0 + p * state["vbe"]
    v_lin = (vb_lin - p * state["vbc"], vb_lin, 0.0)
    current, jac = _stamped_companion(bjt, capture, v_lin)
    return (current, jac) + _oracle(
        lambda c, b, e: bjt._terminal_currents(c, b, e, ctx), v_lin)


class TestBJTJacobian:
    @given(bjt_models, volts, volts, temperatures, gmins)
    def test_both_polarities_all_regions(self, bjt, vc, vb, temp, gmin):
        ctx = AnalysisContext(temperature=temp, gmin=gmin)
        _assert_companion(*_bjt_case(bjt, vc, vb, ctx))

    @given(bjt_models, st.floats(0.0, 3.0), volts, temperatures)
    def test_linearised_exponential_above_80(self, bjt, excess, vc, temp):
        ctx = AnalysisContext(temperature=temp)
        vbe = bjt.model.NF * thermal_voltage(temp) * (80.0 + excess) + 1e-9
        vb = bjt.model.sign * vbe
        _assert_companion(*_bjt_case(bjt, vc, vb, ctx))

    @given(polarities_bjt, st.floats(0.5, 5.0), st.floats(0.91, 3.0),
           st.floats(-0.5, 0.8), temperatures)
    def test_qb_clamp(self, polarity, vaf, over, vbe, temp):
        """vbc beyond 0.9 VAF drives 1/qb under the 0.1 clamp."""
        bjt = _bjt(polarity=polarity, vaf=vaf)
        vbc = over * vaf
        p = bjt.model.sign
        ctx = AnalysisContext(temperature=temp)
        assert 1.0 - vbc / vaf < 0.1
        _assert_companion(*_bjt_case(bjt, p * (vbe - vbc), p * vbe, ctx))

    @given(bjt_models, st.floats(-3.0, 0.9), st.floats(-3.0, 0.9),
           temperatures)
    def test_op_info_small_signal_and_capacitances(self, bjt, vbe, vbc, temp):
        ctx = AnalysisContext(temperature=temp)
        p = bjt.model.sign
        info = bjt.operating_point_info(
            _View({"b": p * vbe, "c": p * (vbe - vbc)}), ctx)
        vbe, vbc = info["vbe"], info["vbc"]

        def npn(k):
            return lambda a, b: bjt._npn_currents(a, b, ctx)[k]

        dic = cstep_gradient(npn(0), (vbe, vbc))
        dib = cstep_gradient(npn(1), (vbe, vbc))
        ref = np.array([dic[0], dib[0], dic[1]])
        got = np.array([info["gm"], info["gpi"], -info["go"]])
        assert np.linalg.norm(got - ref) <= RTOL * np.linalg.norm(ref)
        _close(info["cbe"], cstep_derivative(
            lambda v: bjt._charge_be(v, ctx), vbe))
        _close(info["cbc"], cstep_derivative(
            lambda v: bjt._charge_bc(v, ctx), vbc))


# ----------------------------------------------------------------------
# MOSFET
# ----------------------------------------------------------------------
def _mosfet(polarity="nmos", gamma=0.4, lam=0.03, vto=0.6, kp=100e-6,
            phi=0.7):
    return MOSFET("M1", "d", "g", "s", "b",
                  MOSFETModel(polarity=polarity, GAMMA=gamma, LAMBDA=lam,
                              VTO=vto, KP=kp, PHI=phi),
                  width=20e-6, length=2e-6)


mosfet_models = st.builds(
    _mosfet, polarity=polarities_mos,
    gamma=st.sampled_from([0.0, 0.3, 0.8]), lam=st.floats(0.0, 0.1),
    vto=st.floats(0.3, 1.0), kp=st.floats(20e-6, 200e-6),
    phi=st.floats(0.5, 0.9))


def _mosfet_case(mosfet, vgs, vds, vbs, ctx):
    """Stamp ``mosfet`` at NMOS-referred (vgs, vds, vbs), source at 0 V,
    with identity limiting."""
    p = mosfet.model.sign
    state = ctx.device_state(mosfet.name)
    state["vgs"] = vgs
    state["vds"] = vds
    capture = _stamp(mosfet, {"d": p * vds, "g": p * vgs, "b": p * vbs}, ctx)
    v_lin = (p * state["vds"], p * state["vgs"], 0.0, p * state["vbs"])
    current, jac = _stamped_companion(mosfet, capture, v_lin)
    return (current, jac) + _oracle(
        lambda d, g, s, b: mosfet._terminal_currents(d, g, s, b, ctx), v_lin)


def _mosfet_point(mosfet, region, swapped, vbs, overdrive, fraction, ctx):
    """NMOS-referred (vgs, vds, vbs) placing the device in ``region``.

    ``swapped`` builds the point for the source/drain-swapped device and
    maps it back to the terminals, so vds < 0.
    """
    vth = mosfet._threshold(vbs, ctx)
    if region == "cutoff":
        vgs, vds = vth - overdrive, fraction * 3.0
    elif region == "triode":
        vgs, vds = vth + overdrive, fraction * overdrive
    else:
        vgs, vds = vth + overdrive, (1.0 + 2.0 * fraction) * overdrive
    if not swapped:
        return vgs, vds, vbs
    # Internal (vgd, vsd, vbd) = (vgs, vds, vbs) of the swapped device.
    return vgs - vds, -vds, vbs - vds


class TestMOSFETJacobian:
    @given(mosfet_models, volts, volts, volts, temperatures, gmins)
    def test_both_polarities_random_bias(self, mosfet, vgs, vds, vbs, temp,
                                         gmin):
        ctx = AnalysisContext(temperature=temp, gmin=gmin)
        _assert_companion(*_mosfet_case(mosfet, vgs, vds, vbs, ctx))

    @given(mosfet_models,
           st.sampled_from(["cutoff", "triode", "saturation"]),
           st.booleans(),
           st.one_of(st.floats(-3.0, -0.01), st.floats(0.01, 0.4)),
           st.floats(0.05, 2.0), st.floats(0.01, 0.95), temperatures, gmins)
    def test_regions_swap_and_body_bias(self, mosfet, region, swapped, vbs,
                                        overdrive, fraction, temp, gmin):
        """Cutoff, triode and saturation; vds < 0 (source/drain swap);
        forward (vbs > 0) and reverse (vbs < 0) body bias."""
        ctx = AnalysisContext(temperature=temp, gmin=gmin)
        vgs, vds, vbs_t = _mosfet_point(mosfet, region, swapped, vbs,
                                        overdrive, fraction, ctx)
        p = mosfet.model.sign
        info = mosfet.operating_point_info(
            _View({"d": p * vds, "g": p * vgs, "b": p * vbs_t}), ctx)
        assert info["region"] == region and info["swapped"] == swapped
        _assert_companion(*_mosfet_case(mosfet, vgs, vds, vbs_t, ctx))

        grads = cstep_gradient(lambda a, b, c: mosfet._ids(a, b, c, ctx),
                               (info["vgs"], info["vds"], info["vbs"]))
        ref = np.array(grads)
        got = np.array([info["gm"], info["gds"], info["gmb"]])
        assert np.linalg.norm(got - ref) <= RTOL * np.linalg.norm(ref)


# ----------------------------------------------------------------------
# Array lanes are bit-equal to the scalar evaluation
# ----------------------------------------------------------------------
LANES = 6


def _lanes(strategy):
    return st.lists(strategy, min_size=LANES, max_size=LANES)


def _array_and_scalar_stamps(device, lanes, state_of, ctx_args):
    """Stamp values of one array evaluation and of each scalar lane.

    ``lanes`` is a list of node -> voltage dicts; ``state_of`` maps one
    such dict to the limiting state that makes the limiters the identity.
    """
    columns = {node: np.array([lane[node] for lane in lanes])
               for node in lanes[0]}
    ctx = AnalysisContext(**ctx_args)
    state = ctx.device_state(device.name)
    for key in state_of(lanes[0]):
        state[key] = np.array([state_of(lane)[key] for lane in lanes])
    vector = _stamp(device, columns, ctx).values
    scalars = []
    for lane in lanes:
        ctx = AnalysisContext(**ctx_args)
        ctx.device_state(device.name).update(state_of(lane))
        scalars.append(_stamp(device, lane, ctx).values)
    return vector, scalars


def _assert_lanes_bit_equal(vector, scalars):
    for index, value in enumerate(vector):
        column = np.broadcast_to(np.asarray(value, dtype=float), (LANES,))
        for lane, scalar in enumerate(scalars):
            assert _bits(column[lane]) == _bits(scalar[index]), \
                (index, lane, column[lane], scalar[index])


class TestArrayLanesBitEqual:
    @settings(max_examples=40)
    @given(diode_models, _lanes(st.floats(-5.0, 6.0)), temperatures, gmins)
    def test_diode(self, diode, vds, temp, gmin):
        lanes = [{"a": vd} for vd in vds]
        _assert_lanes_bit_equal(*_array_and_scalar_stamps(
            diode, lanes, lambda lane: {"vd": lane["a"]},
            {"temperature": temp, "gmin": gmin}))

    @settings(max_examples=40)
    @given(bjt_models, _lanes(st.tuples(st.floats(-6.0, 6.0),
                                        st.floats(-6.0, 6.0))),
           temperatures, gmins)
    def test_bjt(self, bjt, points, temp, gmin):
        p = bjt.model.sign
        lanes = [{"c": vc, "b": vb} for vc, vb in points]
        _assert_lanes_bit_equal(*_array_and_scalar_stamps(
            bjt, lanes,
            lambda lane: {"vbe": p * lane["b"],
                          "vbc": p * (lane["b"] - lane["c"])},
            {"temperature": temp, "gmin": gmin}))

    @settings(max_examples=40)
    @given(mosfet_models, _lanes(st.tuples(volts, volts, volts)),
           temperatures, gmins)
    def test_mosfet(self, mosfet, points, temp, gmin):
        p = mosfet.model.sign
        lanes = [{"d": vd, "g": vg, "b": vb} for vd, vg, vb in points]
        _assert_lanes_bit_equal(*_array_and_scalar_stamps(
            mosfet, lanes,
            lambda lane: {"vgs": p * lane["g"], "vds": p * lane["d"]},
            {"temperature": temp, "gmin": gmin}))


# ----------------------------------------------------------------------
# One evaluation of the device equations per stamp
# ----------------------------------------------------------------------
def _count(monkeypatch, cls, name, counts):
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


DEVICE_CASES = [
    (lambda: _diode(), {"a": 0.65},
     "companion", ("_current", "_charge")),
    (lambda: _bjt(), {"c": 3.0, "b": 0.7},
     "companion", ("_npn_currents", "_terminal_currents",
                   "_charge_be", "_charge_bc")),
    (lambda: _bjt(polarity="pnp"), {"c": -3.0, "b": -0.7},
     "companion", ("_npn_currents", "_terminal_currents")),
    (lambda: _mosfet(), {"d": 2.0, "g": 1.5, "b": -0.5},
     "_forward_companion", ("_ids", "_terminal_currents", "_threshold")),
    (lambda: _mosfet(), {"d": -1.0, "g": 1.5},          # swapped
     "_forward_companion", ("_ids", "_terminal_currents", "_threshold")),
]


class TestOneEvaluationPerStamp:
    @pytest.mark.parametrize("make, voltages, equations, oracles",
                             DEVICE_CASES)
    def test_stamp_evaluates_device_equations_once(
            self, monkeypatch, make, voltages, equations, oracles):
        device = make()
        counts = {name: 0 for name in ("companion", equations) + oracles}
        for name in counts:
            _count(monkeypatch, type(device), name, counts)
        device.stamp_nonlinear(_Capture(), _View(voltages),
                               AnalysisContext())
        assert counts.pop("companion") == 1
        assert counts.pop(equations, 1) == 1
        assert all(value == 0 for value in counts.values()), counts

    def test_no_analysis_path_uses_complex_step(self):
        """Complex step is the test oracle only: no module of the
        program calls it outside its own definition."""
        root = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
        users = [str(path.relative_to(root)) for path in root.rglob("*.py")
                 if path.name != "nonlinear.py"
                 and "cstep_" in path.read_text()]
        assert users == []
