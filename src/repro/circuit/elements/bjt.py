"""Bipolar junction transistor (simplified Gummel-Poon model).

The model implements the features that matter for bias-point and
small-signal stability work on precision linear circuits:

* forward and reverse transport currents with emission coefficients,
* forward and reverse Early effect through the ``qb`` charge factor,
* junction (depletion) capacitances at both junctions,
* diffusion capacitances through the forward/reverse transit times,
* NPN and PNP polarities,
* temperature scaling of the saturation current and thermal voltage.

High-injection roll-off (IKF/IKR), leakage saturation currents (ISE/ISC)
and the parasitic terminal resistances (RB/RC/RE) are not modelled; the
reference circuits add explicit resistors where base resistance matters to
a loop.

:meth:`BJT.companion` evaluates the transport and base currents and their
closed-form derivatives in one pass (SPICE2 style); Newton, the
small-signal linearization and the operating-point summary all read from
it.  The complex-capable current and charge equations stay alongside as
the oracle the tests differentiate by complex step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

import numpy as np

from repro.circuit.elements.nonlinear import (
    NonlinearDevice,
    depletion_capacitance,
    depletion_charge,
    limexp,
    limexp_with_slope,
    pnjlim,
)
from repro.circuit.units import thermal_voltage
from repro.exceptions import ModelError

__all__ = ["BJTModel", "BJT"]


@dataclass
class BJTModel:
    """Parameter set for :class:`BJT` (subset of the SPICE Gummel-Poon card)."""

    name: str = "Q"
    polarity: str = "npn"   #: "npn" or "pnp"
    IS: float = 1e-16       #: transport saturation current [A]
    BF: float = 100.0       #: forward beta
    BR: float = 1.0         #: reverse beta
    NF: float = 1.0         #: forward emission coefficient
    NR: float = 1.0         #: reverse emission coefficient
    VAF: float = 100.0      #: forward Early voltage [V] (``inf`` disables)
    VAR: float = math.inf   #: reverse Early voltage [V]
    CJE: float = 0.0        #: B-E zero-bias depletion capacitance [F]
    VJE: float = 0.75       #: B-E junction potential [V]
    MJE: float = 0.33       #: B-E grading coefficient
    CJC: float = 0.0        #: B-C zero-bias depletion capacitance [F]
    VJC: float = 0.75       #: B-C junction potential [V]
    MJC: float = 0.33       #: B-C grading coefficient
    FC: float = 0.5         #: depletion-cap linearisation point
    TF: float = 0.0         #: forward transit time [s]
    TR: float = 0.0         #: reverse transit time [s]
    EG: float = 1.11        #: bandgap [eV]
    XTI: float = 3.0        #: IS temperature exponent
    XTB: float = 0.0        #: beta temperature exponent
    TNOM: float = 27.0      #: nominal temperature [C]

    def __post_init__(self):
        if self.polarity.lower() not in ("npn", "pnp"):
            raise ModelError(f"BJT model {self.name!r}: polarity must be 'npn' or 'pnp'")
        self.polarity = self.polarity.lower()
        if self.IS <= 0:
            raise ModelError(f"BJT model {self.name!r}: IS must be positive")
        if self.BF <= 0 or self.BR <= 0:
            raise ModelError(f"BJT model {self.name!r}: BF and BR must be positive")
        if self.VAF <= 0 or self.VAR <= 0:
            raise ModelError(f"BJT model {self.name!r}: Early voltages must be positive")

    @property
    def sign(self) -> float:
        return 1.0 if self.polarity == "npn" else -1.0

    def with_updates(self, **kwargs) -> "BJTModel":
        return replace(self, **kwargs)

    def saturation_current(self, temp_c: float) -> float:
        t = temp_c + 273.15
        tnom = self.TNOM + 273.15
        vt = thermal_voltage(temp_c)
        ratio = t / tnom
        return self.IS * ratio ** self.XTI * math.exp((self.EG / vt) * (ratio - 1.0))

    def beta_forward(self, temp_c: float) -> float:
        ratio = (temp_c + 273.15) / (self.TNOM + 273.15)
        return self.BF * ratio ** self.XTB

    def beta_reverse(self, temp_c: float) -> float:
        ratio = (temp_c + 273.15) / (self.TNOM + 273.15)
        return self.BR * ratio ** self.XTB


class BJT(NonlinearDevice):
    """Three-terminal bipolar transistor (collector, base, emitter)."""

    prefix = "Q"

    def __init__(self, name: str, collector: str, base: str, emitter: str,
                 model: BJTModel | None = None, area: float = 1.0):
        super().__init__(name, (collector, base, emitter))
        self.model = model or BJTModel()
        self.area = float(area)
        if self.area <= 0:
            raise ModelError(f"BJT {name!r}: area must be positive")

    collector = property(lambda self: self.nodes[0])
    base = property(lambda self: self.nodes[1])
    emitter = property(lambda self: self.nodes[2])

    def terminals(self) -> Dict[str, str]:
        return {"collector": self.collector, "base": self.base, "emitter": self.emitter}

    # ------------------------------------------------------------------
    # Closed-form companion (NPN-referred junction voltages)
    # ------------------------------------------------------------------
    def _temperature_constants(self, temp_c: float):
        """``(isat, vt, bf, br, vcrit)`` at ``temp_c``."""
        m = self.model
        isat = self.area * m.saturation_current(temp_c)
        vt = thermal_voltage(temp_c)
        return (isat, vt, m.beta_forward(temp_c), m.beta_reverse(temp_c),
                vt * math.log(vt / (math.sqrt(2.0) * isat)))

    def companion(self, vbe, vbc, ctx, constants=None):
        """NPN-referred currents and their closed-form derivatives.

        Returns ``(ic, ib, dic_dvbe, dic_dvbc, dib_dvbe, dib_dvbc, gif,
        gir)`` with ``gmin`` excluded; ``gif``/``gir`` are the forward and
        reverse diffusion conductances (``TF * gif`` and ``TR * gir`` are
        the diffusion capacitances).  ``vbe``/``vbc`` may be real scalars
        or ``(A,)`` sample columns; ``constants`` is the stamp's
        :meth:`_temperature_constants`, computed here when omitted.
        """
        m = self.model
        isat, vt, bf, br, _ = (constants
                               or self._temperature_constants(ctx.temperature))
        nfvt = m.NF * vt
        nrvt = m.NR * vt
        ef, slope_f = limexp_with_slope(vbe / nfvt)
        er, slope_r = limexp_with_slope(vbc / nrvt)
        i_f = isat * (ef - 1.0)
        i_r = isat * (er - 1.0)
        gif = isat * slope_f / nfvt
        gir = isat * slope_r / nrvt

        # Base charge factor (Early effect only; no high-injection term).
        # The clamp keeps qb positive far from the solution; it moves the
        # value only, so the slopes stay those of the unclamped line
        # (exactly what complex-step differentiation of _npn_currents gives).
        dqb_dvbc = -1.0 / m.VAF
        if math.isfinite(m.VAR):
            qb_inv = 1.0 - vbc / m.VAF - vbe / m.VAR
            dqb_dvbe = -1.0 / m.VAR
        else:
            qb_inv = 1.0 - vbc / m.VAF
            dqb_dvbe = 0.0
        if isinstance(qb_inv, np.ndarray):
            qb_inv = np.where(qb_inv < 0.1, qb_inv - (qb_inv - 0.1), qb_inv)
        elif qb_inv < 0.1:
            qb_inv = qb_inv - (qb_inv - 0.1)
        i_t = i_f - i_r
        ibc = i_r / br
        return (i_t * qb_inv - ibc,
                i_f / bf + ibc,
                gif * qb_inv + i_t * dqb_dvbe,
                i_t * dqb_dvbc - gir * qb_inv - gir / br,
                gif / bf,
                gir / br,
                gif, gir)

    def _capacitances(self, vbe: float, vbc: float, gif: float, gir: float):
        """``(cbe, cbc)``: diffusion plus depletion, per junction."""
        m = self.model
        return (m.TF * gif + depletion_capacitance(
                    vbe, self.area * m.CJE, m.VJE, m.MJE, m.FC),
                m.TR * gir + depletion_capacitance(
                    vbc, self.area * m.CJC, m.VJC, m.MJC, m.FC))

    def _junction_voltages(self, x):
        """NPN-referred ``(vbe, vbc)`` at the solution ``x``."""
        p = self.model.sign
        vb = x.voltage(self.base)
        return (p * (vb - x.voltage(self.emitter)),
                p * (vb - x.voltage(self.collector)))

    # ------------------------------------------------------------------
    # Complex-capable equations: the oracle the tests differentiate
    # ------------------------------------------------------------------
    def _npn_currents(self, vbe, vbc, ctx):
        """Return (ic, ib) of the NPN-referred transistor, gmin excluded."""
        m = self.model
        isat = self.area * m.saturation_current(ctx.temperature)
        vt = thermal_voltage(ctx.temperature)
        bf = m.beta_forward(ctx.temperature)
        br = m.beta_reverse(ctx.temperature)

        i_f = isat * (limexp(vbe / (m.NF * vt)) - 1.0)
        i_r = isat * (limexp(vbc / (m.NR * vt)) - 1.0)

        # Base charge factor (Early effect only; no high-injection term).
        qb_inv = 1.0 - vbc / m.VAF - (vbe / m.VAR if math.isfinite(m.VAR) else 0.0)
        qb_real = qb_inv.real if isinstance(qb_inv, complex) else qb_inv
        if qb_real < 0.1:
            # Keep qb positive to avoid sign flips far from the solution.
            qb_inv = qb_inv - (qb_real - 0.1)
        ict = (i_f - i_r) * qb_inv

        ibe = i_f / bf
        ibc = i_r / br
        ic = ict - ibc
        ib = ibe + ibc
        return ic, ib

    def _terminal_currents(self, vc, vb, ve, ctx):
        """Currents flowing out of (collector, base, emitter) nodes into the
        device, including the gmin junction conductances."""
        p = self.model.sign
        vbe = p * (vb - ve)
        vbc = p * (vb - vc)
        ic_npn, ib_npn = self._npn_currents(vbe, vbc, ctx)
        g = ctx.gmin
        i_gmin_bc = g * (vb - vc)
        i_gmin_be = g * (vb - ve)
        ic = p * ic_npn - i_gmin_bc
        ib = p * ib_npn + i_gmin_bc + i_gmin_be
        ie = -(ic + ib)
        return ic, ib, ie

    # ------------------------------------------------------------------
    # Charge equations (NPN-referred)
    # ------------------------------------------------------------------
    def _charge_be(self, vbe, ctx):
        m = self.model
        isat = self.area * m.saturation_current(ctx.temperature)
        vt = thermal_voltage(ctx.temperature)
        q = m.TF * isat * (limexp(vbe / (m.NF * vt)) - 1.0)
        q = q + depletion_charge(vbe, self.area * m.CJE, m.VJE, m.MJE, m.FC)
        return q

    def _charge_bc(self, vbc, ctx):
        m = self.model
        isat = self.area * m.saturation_current(ctx.temperature)
        vt = thermal_voltage(ctx.temperature)
        q = m.TR * isat * (limexp(vbc / (m.NR * vt)) - 1.0)
        q = q + depletion_charge(vbc, self.area * m.CJC, m.VJC, m.MJC, m.FC)
        return q

    # ------------------------------------------------------------------
    # Stamping
    # ------------------------------------------------------------------
    def stamp_nonlinear(self, stamper, x, ctx) -> None:
        m = self.model
        p = m.sign
        constants = self._temperature_constants(ctx.temperature)
        vt, vcrit = constants[1], constants[4]
        vbe, vbc = self._junction_voltages(x)
        state = self.device_state(ctx)
        vbe = pnjlim(vbe, state.get("vbe", 0.0), m.NF * vt, vcrit)
        vbc = pnjlim(vbc, state.get("vbc", 0.0), m.NR * vt, vcrit)
        state["vbe"] = vbe
        state["vbc"] = vbc
        ic, ib, dic_dvbe, dic_dvbc, dib_dvbe, dib_dvbc, _, _ = \
            self.companion(vbe, vbc, ctx, constants)
        g = ctx.gmin
        # Reconstruct consistent terminal voltages with the emitter as the
        # reference so that the companion linearisation point matches the
        # limited junction voltages.
        ve = 0.0
        vb = ve + p * vbe
        vc = vb - p * vbc
        # Terminal currents out of (collector, base, emitter) into the
        # device with the gmin junction conductances; vbe = p*(vb - ve)
        # and vbc = p*(vb - vc) with p*p = 1 give the chain rule below.
        i_c = p * ic - g * (vb - vc)
        i_b = p * ib + g * (vb - vc) + g * (vb - ve)
        row_c = (g - dic_dvbc, dic_dvbe + dic_dvbc - g, -dic_dvbe)
        row_b = (-dib_dvbc - g, dib_dvbe + dib_dvbc + 2.0 * g, -dib_dvbe - g)
        row_e = (-(row_c[0] + row_b[0]), -(row_c[1] + row_b[1]),
                 -(row_c[2] + row_b[2]))
        self.stamp_companion(stamper,
                             (self.collector, self.base, self.emitter),
                             (i_c, i_b, -(i_c + i_b)), (row_c, row_b, row_e),
                             (vc, vb, ve))

    def stamp_dynamic_nonlinear(self, stamper, x, ctx) -> None:
        vbe, vbc = self._junction_voltages(x)
        point = self.companion(vbe, vbc, ctx)
        cbe, cbc = self._capacitances(vbe, vbc, point[6], point[7])
        stamper.capacitance_op(self.base, self.emitter, cbe)
        stamper.capacitance_op(self.base, self.collector, cbc)

    # ------------------------------------------------------------------
    def operating_point_info(self, x, ctx) -> Dict[str, float]:
        """Operating-point summary: currents, gm, rpi, ro, capacitances."""
        vbe, vbc = self._junction_voltages(x)
        ic, ib, gm, dic_dvbc, gpi, _, gif, gir = self.companion(vbe, vbc, ctx)
        go = -dic_dvbc
        cbe, cbc = self._capacitances(vbe, vbc, gif, gir)
        return {
            "vbe": vbe, "vbc": vbc, "vce": vbe - vbc,
            "ic": ic, "ib": ib, "gm": gm,
            "gpi": gpi, "rpi": (1.0 / gpi if gpi > 0 else math.inf),
            "go": go, "ro": (1.0 / go if go > 0 else math.inf),
            "cbe": cbe, "cbc": cbc,
        }
