"""Junction diode model.

The DC characteristic is the ideal diode equation with an emission
coefficient and a parallel ``gmin`` conductance supplied by the analysis
context (used for convergence aid)::

    Id = IS * (exp(Vd / (N * Vt)) - 1) + gmin * Vd

The small-signal capacitance combines the depletion capacitance (graded
junction, linearised above ``FC * VJ`` as in SPICE) and the diffusion
capacitance ``TT * gd``.

Series resistance is not modelled (it would require an internal node); the
circuits in :mod:`repro.circuits` add explicit resistors where bulk
resistance matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict

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

__all__ = ["DiodeModel", "Diode"]


@dataclass
class DiodeModel:
    """Parameter set for :class:`Diode` (SPICE ``.model D`` card subset)."""

    name: str = "D"
    IS: float = 1e-14      #: saturation current [A]
    N: float = 1.0         #: emission coefficient
    CJO: float = 0.0       #: zero-bias depletion capacitance [F]
    VJ: float = 1.0        #: junction potential [V]
    M: float = 0.5         #: grading coefficient
    FC: float = 0.5        #: forward-bias depletion-cap linearisation point
    TT: float = 0.0        #: transit time [s]
    EG: float = 1.11       #: bandgap energy [eV] (temperature scaling)
    XTI: float = 3.0       #: IS temperature exponent
    TNOM: float = 27.0     #: parameter measurement temperature [C]

    def __post_init__(self):
        if self.IS <= 0:
            raise ModelError(f"diode model {self.name!r}: IS must be positive")
        if self.N <= 0:
            raise ModelError(f"diode model {self.name!r}: N must be positive")
        if not 0 < self.FC < 1:
            raise ModelError(f"diode model {self.name!r}: FC must be in (0, 1)")

    def with_updates(self, **kwargs) -> "DiodeModel":
        """Return a copy of the model with the given parameters replaced."""
        return replace(self, **kwargs)

    def saturation_current(self, temp_c: float) -> float:
        """IS scaled to the simulation temperature (SPICE formula)."""
        t = temp_c + 273.15
        tnom = self.TNOM + 273.15
        vt = thermal_voltage(temp_c)
        ratio = t / tnom
        return self.IS * ratio ** (self.XTI / self.N) * math.exp(
            (self.EG / (self.N * vt)) * (ratio - 1.0))


class Diode(NonlinearDevice):
    """Two-terminal junction diode (anode, cathode)."""

    prefix = "D"

    def __init__(self, name: str, anode: str, cathode: str,
                 model: DiodeModel | None = None, area: float = 1.0):
        super().__init__(name, (anode, cathode))
        self.model = model or DiodeModel()
        self.area = float(area)
        if self.area <= 0:
            raise ModelError(f"diode {name!r}: area must be positive")

    anode = property(lambda self: self.nodes[0])
    cathode = property(lambda self: self.nodes[1])

    def terminals(self) -> Dict[str, str]:
        return {"anode": self.anode, "cathode": self.cathode}

    # ------------------------------------------------------------------
    def _temperature_constants(self, temp_c: float):
        """``(isat, vt, vcrit)`` at ``temp_c``; ``vt`` includes ``N``."""
        isat = self.area * self.model.saturation_current(temp_c)
        vt = self.model.N * thermal_voltage(temp_c)
        return isat, vt, vt * math.log(vt / (math.sqrt(2.0) * isat))

    def companion(self, vd, ctx, constants=None):
        """Junction current and its closed-form derivatives in one pass.

        Returns ``(id, gd, gdiff)``: the anode-to-cathode current and its
        conductance, both including ``gmin``, plus ``gdiff``, the
        exponential term's conductance alone (the diffusion capacitance is
        ``TT * gdiff``).  ``vd`` may be a real scalar or an ``(A,)``
        sample column; ``constants`` is the stamp's
        :meth:`_temperature_constants`, computed here when omitted.
        """
        isat, vt, _ = constants or self._temperature_constants(ctx.temperature)
        e, slope = limexp_with_slope(vd / vt)
        gdiff = isat * slope / vt
        gmin = ctx.gmin
        return isat * (e - 1.0) + gmin * vd, gdiff + gmin, gdiff

    def _capacitance(self, vd: float, gdiff: float) -> float:
        """Incremental capacitance: diffusion plus depletion."""
        m = self.model
        return m.TT * gdiff + depletion_capacitance(
            vd, m.CJO * self.area, m.VJ, m.M, m.FC)

    # ------------------------------------------------------------------
    # Complex-capable equations: the oracle the tests differentiate
    # ------------------------------------------------------------------
    def _current(self, vd, ctx):
        """Diode current for (possibly complex) junction voltage."""
        isat, vt, _ = self._temperature_constants(ctx.temperature)
        return isat * (limexp(vd / vt) - 1.0) + ctx.gmin * vd

    def _charge(self, vd, ctx):
        """Stored charge (depletion + diffusion) for complex-step use."""
        m = self.model
        isat, vt, _ = self._temperature_constants(ctx.temperature)
        return (m.TT * isat * (limexp(vd / vt) - 1.0)
                + depletion_charge(vd, m.CJO * self.area, m.VJ, m.M, m.FC))

    # ------------------------------------------------------------------
    def stamp_nonlinear(self, stamper, x, ctx) -> None:
        constants = self._temperature_constants(ctx.temperature)
        _, vt, vcrit = constants
        state = self.device_state(ctx)
        vd = pnjlim(x.voltage(self.anode) - x.voltage(self.cathode),
                    state.get("vd", 0.0), vt, vcrit)
        state["vd"] = vd
        current, gd, _ = self.companion(vd, ctx, constants)
        # Currents out of (anode, cathode) into the device, Jacobian wrt
        # the *limited* junction voltage mapped to node voltages.
        nodes = (self.anode, self.cathode)
        currents = (current, -current)
        jac = ((gd, -gd), (-gd, gd))
        # Companion uses the limited junction voltage as the linearisation
        # point: reconstruct effective terminal voltages consistent with it.
        self.stamp_companion(stamper, nodes, currents, jac, (vd, 0.0))

    def stamp_dynamic_nonlinear(self, stamper, x, ctx) -> None:
        vd = x.voltage(self.anode) - x.voltage(self.cathode)
        cd = self._capacitance(vd, self.companion(vd, ctx)[2])
        nodes = (self.anode, self.cathode)
        self.stamp_capacitance_matrix(stamper, nodes, ((cd, -cd), (-cd, cd)))

    def operating_point_info(self, x, ctx) -> Dict[str, float]:
        """Small dictionary of OP quantities (used by reports/tests)."""
        vd = x.voltage(self.anode) - x.voltage(self.cathode)
        current, gd, gdiff = self.companion(vd, ctx)
        return {"vd": vd, "id": current, "gd": gd,
                "cd": self._capacitance(vd, gdiff)}
