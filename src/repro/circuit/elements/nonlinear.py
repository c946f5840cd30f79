"""Shared machinery for nonlinear devices (diode, BJT, MOSFET).

Three pieces live here:

* **Safe exponential and junction-voltage limiting.**  Newton-Raphson on
  exponential device equations diverges unless candidate junction voltages
  are limited between iterations (the classic SPICE ``pnjlim``) and the
  exponential itself is linearised above a threshold (``limexp``).

* **Closed-form derivative helpers.**  Every device evaluates its
  terminal currents and their analytic Jacobian in one pass (SPICE2
  style): :func:`limexp_with_slope` returns the exponential together with
  its slope for real scalars or per-sample ``(A,)`` ndarrays (numpy's
  ``exp`` in both forms, so an array lane is bit-equal to the scalar
  evaluation of that lane), and :func:`depletion_capacitance` is the
  derivative of :func:`depletion_charge`.

* **Complex-step differentiation** (:func:`cstep_derivative`,
  :func:`cstep_gradient`).  No analysis path uses it any more: it is the
  test oracle for the closed-form Jacobians.  Each device keeps its
  current and charge equations written to accept complex arguments (any
  region selection is done on the real part), and differentiating those
  with a tiny imaginary step gives derivatives exact to machine
  precision to compare against.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.circuit.elements.base import Element

__all__ = [
    "limexp",
    "limexp_with_slope",
    "depletion_charge",
    "depletion_capacitance",
    "pnjlim",
    "fetlim",
    "cstep_derivative",
    "cstep_gradient",
    "NonlinearDevice",
]

#: Exponent above which ``exp`` is linearised to avoid overflow.
_EXP_LIMIT = 80.0
_EXP_AT_LIMIT = math.exp(_EXP_LIMIT)

#: Step used for complex-step differentiation.
_CSTEP = 1e-100


def limexp(x):
    """Exponential that grows linearly above ``x = 80`` (overflow-safe).

    Works for real and complex scalars (the complex-step oracle); the
    region test uses the real part so the function stays compatible with
    complex-step differentiation.
    """
    xr = x.real if isinstance(x, complex) else x
    if xr <= _EXP_LIMIT:
        return cmath.exp(x) if isinstance(x, complex) else math.exp(x)
    # First-order continuation: exp(L) * (1 + (x - L))
    return _EXP_AT_LIMIT * (1.0 + (x - _EXP_LIMIT))


def limexp_with_slope(x):
    """``(limexp(x), limexp'(x))`` of a real scalar or ndarray in one pass.

    Scalars go through ``np.exp`` as well, so every lane of an array
    result is bit-equal to the scalar evaluation of that lane (``math.exp``
    and numpy's vectorized ``exp`` may differ in the last bit).
    """
    if isinstance(x, np.ndarray):
        low = x <= _EXP_LIMIT
        # Guard the masked-out lane before np.exp: np.where evaluates
        # both branches, and exp of an unguarded large argument overflows.
        e = np.exp(np.where(low, x, 0.0))
        return (np.where(low, e, _EXP_AT_LIMIT * (1.0 + (x - _EXP_LIMIT))),
                np.where(low, e, _EXP_AT_LIMIT))
    if x <= _EXP_LIMIT:
        e = float(np.exp(x))
        return e, e
    return _EXP_AT_LIMIT * (1.0 + (x - _EXP_LIMIT)), _EXP_AT_LIMIT


def depletion_charge(v, cj0: float, vj: float, mj: float, fc: float):
    """Depletion charge of a graded junction, SPICE-style linearisation
    above ``fc * vj``.  Accepts real or complex ``v`` (complex-step
    oracle of :func:`depletion_capacitance`)."""
    if cj0 <= 0.0:
        return 0.0 * v
    vr = v.real if isinstance(v, complex) else v
    fcv = fc * vj
    if vr < fcv:
        return cj0 * vj / (1.0 - mj) * (1.0 - (1.0 - v / vj) ** (1.0 - mj))
    f1 = cj0 * vj / (1.0 - mj) * (1.0 - (1.0 - fc) ** (1.0 - mj))
    f2 = (1.0 - fc) ** (1.0 + mj)
    return f1 + cj0 / f2 * ((1.0 - fc * (1.0 + mj)) * (v - fcv)
                            + 0.5 * mj / vj * (v * v - fcv * fcv))


def depletion_capacitance(v: float, cj0: float, vj: float, mj: float,
                          fc: float) -> float:
    """``d depletion_charge / dv`` in closed form (real scalar ``v``)."""
    if cj0 <= 0.0:
        return 0.0
    if v < fc * vj:
        return cj0 * (1.0 - v / vj) ** (-mj)
    return cj0 / (1.0 - fc) ** (1.0 + mj) * (1.0 - fc * (1.0 + mj)
                                             + mj / vj * v)


def pnjlim(vnew: float, vold: float, vt: float, vcrit: float) -> float:
    """SPICE p-n junction voltage limiting.

    Restricts the per-iteration change of a forward-biased junction voltage
    so that the exponential does not overshoot catastrophically.  Accepts
    scalars or per-sample ndarrays (the limiting decision is then taken
    lane by lane, mirroring the scalar branch structure exactly).
    """
    if isinstance(vnew, np.ndarray) or isinstance(vold, np.ndarray):
        vnew = np.asarray(vnew, dtype=float)
        limit = (vnew > vcrit) & (np.abs(vnew - vold) > 2.0 * vt)
        arg = 1.0 + (vnew - vold) / vt
        v_pos = np.where(arg > 0.0,
                         vold + vt * np.log(np.where(arg > 0.0, arg, 1.0)),
                         vcrit)
        v_neg = vt * np.log(np.maximum(vnew / vt, 1e-30))
        limited = np.where(np.asarray(vold) > 0.0, v_pos, v_neg)
        return np.where(limit, limited, vnew)
    if vnew > vcrit and abs(vnew - vold) > 2.0 * vt:
        if vold > 0.0:
            arg = 1.0 + (vnew - vold) / vt
            if arg > 0.0:
                vnew = vold + vt * math.log(arg)
            else:
                vnew = vcrit
        else:
            vnew = vt * math.log(max(vnew / vt, 1e-30))
    return vnew


def fetlim(vnew: float, vold: float, vto: float) -> float:
    """SPICE FET gate-voltage limiting (limits vgs excursions around vto).

    Scalar or per-sample ndarray arguments; the array form is a
    branch-free ``np.where`` tree mirroring the scalar decision tree.
    """
    if isinstance(vnew, np.ndarray) or isinstance(vold, np.ndarray):
        vnew = np.asarray(vnew, dtype=float)
        vold = np.asarray(vold, dtype=float)
        vtsthi = np.abs(2.0 * (vold - vto)) + 2.0
        vtstlo = vtsthi / 2.0 + 2.0
        vtox = vto + 3.5
        delv = vnew - vold
        hi_down = np.where(vnew >= vtox,
                           np.where(-delv > vtstlo, vold - vtstlo, vnew),
                           np.maximum(vnew, vto + 2.0))
        hi_up = np.where(delv > vtsthi, vold + vtsthi, vnew)
        above_high = np.where(delv <= 0.0, hi_down, hi_up)
        mid = np.where(delv <= 0.0,
                       np.maximum(vnew, vto - 0.5),
                       np.minimum(vnew, vtox + 0.5))
        lo_down = np.where(-delv > vtsthi, vold - vtsthi, vnew)
        lo_up = np.where(vnew <= vto + 0.5,
                         np.where(delv > vtstlo, vold + vtstlo, vnew),
                         vto + 0.5)
        below = np.where(delv <= 0.0, lo_down, lo_up)
        return np.where(vold >= vto,
                        np.where(vold >= vtox, above_high, mid),
                        below)
    vtsthi = abs(2.0 * (vold - vto)) + 2.0
    vtstlo = vtsthi / 2.0 + 2.0
    vtox = vto + 3.5
    delv = vnew - vold
    if vold >= vto:
        if vold >= vtox:
            if delv <= 0:
                if vnew >= vtox:
                    if -delv > vtstlo:
                        vnew = vold - vtstlo
                else:
                    vnew = max(vnew, vto + 2.0)
            else:
                if delv > vtsthi:
                    vnew = vold + vtsthi
        else:
            if delv <= 0:
                if vnew < vto - 0.5:
                    vnew = vto - 0.5
            else:
                if vnew > vtox + 0.5:
                    vnew = vtox + 0.5
    else:
        if delv <= 0:
            if -delv > vtsthi:
                vnew = vold - vtsthi
        else:
            vtemp = vto + 0.5
            if vnew <= vtemp:
                if delv > vtstlo:
                    vnew = vold + vtstlo
            else:
                vnew = vtemp
    return vnew


def cstep_derivative(func: Callable, value: float) -> float:
    """Derivative of a scalar function via complex-step differentiation
    (the test oracle of the closed-form device derivatives)."""
    return (func(complex(value, _CSTEP))).imag / _CSTEP


def cstep_gradient(func: Callable, values: Sequence[float]) -> List[float]:
    """Gradient of ``func(*values)`` (scalar-valued) via complex step
    (the test oracle of the closed-form device Jacobians)."""
    grad = []
    vals = list(values)
    for k, v in enumerate(vals):
        perturbed = list(vals)
        perturbed[k] = complex(v, _CSTEP)
        grad.append(func(*perturbed).imag / _CSTEP)
    return grad


class NonlinearDevice(Element):
    """Base class for nonlinear devices.

    Provides the generic "stamp a multi-terminal companion model" helper
    used by the diode, BJT and MOSFET: given the terminal currents and the
    Jacobian with respect to the terminal voltages, it stamps the
    conductance matrix entries and the Newton equivalent current sources.
    """

    is_nonlinear = True

    # ------------------------------------------------------------------
    def device_state(self, ctx) -> Dict:
        """Per-solve mutable state (used for junction-voltage limiting)."""
        return ctx.device_state(self.name)

    # ------------------------------------------------------------------
    @staticmethod
    def _terminal_voltages(x, nodes: Sequence[str]) -> List[float]:
        return [x.voltage(n) for n in nodes]

    def stamp_companion(self, stamper, nodes: Sequence[str],
                        currents: Sequence[float],
                        jacobian: Sequence[Sequence[float]],
                        voltages: Sequence[float]) -> None:
        """Stamp the linearised companion model.

        ``currents[i]`` is the current flowing *out of node i into the
        device* evaluated at ``voltages``; ``jacobian[i][j]`` is its
        derivative with respect to the voltage of node ``j``.

        Every ``(i, j)`` entry and every equivalent-current row is stamped
        unconditionally, even when the value happens to be zero this
        iteration: the compiled Newton path records the stamp-call
        structure once per topology and refills only the values, so the
        sequence of calls must not depend on the candidate solution.
        """
        n = len(nodes)
        for i in range(n):
            ieq = currents[i]
            for j in range(n):
                gij = jacobian[i][j]
                stamper.add_G_iter(nodes[i], nodes[j], gij)
                ieq -= gij * voltages[j]
            stamper.add_rhs_iter(nodes[i], -ieq)

    def stamp_capacitance_matrix(self, stamper, nodes: Sequence[str],
                                 cap_jacobian: Sequence[Sequence[float]]) -> None:
        """Stamp an incremental capacitance Jacobian dQ_i/dV_j into the
        operating-point capacitance matrix (``add_C_op`` target)."""
        n = len(nodes)
        for i in range(n):
            for j in range(n):
                cij = cap_jacobian[i][j]
                if cij:
                    stamper.add_C_op(nodes[i], nodes[j], cij)
