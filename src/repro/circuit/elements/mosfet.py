"""MOSFET model (SPICE level-1 / Shichman-Hodges).

The model covers what two-stage CMOS amplifier and mirror work needs:

* square-law drain current with channel-length modulation,
* body effect on the threshold voltage,
* automatic source/drain swap for negative ``vds`` (symmetric device),
* NMOS and PMOS polarities,
* Meyer gate capacitances (piecewise, region-dependent) plus constant
  overlap and junction capacitances,
* ``gmin`` junction conductances from drain/source to bulk.

Sub-threshold conduction is not modelled; the reference circuits bias
their devices in strong inversion.  :meth:`MOSFET.companion` evaluates the
drain current and its closed-form derivatives (gm, gds, gmb) in one pass;
the complex-capable current equations stay alongside as the oracle the
tests differentiate by complex step.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Dict

import numpy as np

from repro.circuit.elements.nonlinear import NonlinearDevice, fetlim
from repro.exceptions import ModelError

__all__ = ["MOSFETModel", "MOSFET"]


def _csqrt(x):
    """Square root valid for real or complex arguments (complex-step
    safe)."""
    if isinstance(x, complex):
        return cmath.sqrt(x)
    return math.sqrt(x)


@dataclass
class MOSFETModel:
    """Parameter set for :class:`MOSFET` (SPICE level-1 card subset)."""

    name: str = "M"
    polarity: str = "nmos"   #: "nmos" or "pmos"
    VTO: float = 0.7         #: zero-bias threshold voltage [V] (positive for both polarities)
    KP: float = 100e-6       #: transconductance parameter [A/V^2]
    LAMBDA: float = 0.02     #: channel-length modulation [1/V]
    GAMMA: float = 0.0       #: body-effect coefficient [sqrt(V)]
    PHI: float = 0.6         #: surface potential [V]
    COX: float = 3.45e-3     #: gate-oxide capacitance per area [F/m^2]
    CGSO: float = 0.0        #: gate-source overlap capacitance per width [F/m]
    CGDO: float = 0.0        #: gate-drain overlap capacitance per width [F/m]
    CGBO: float = 0.0        #: gate-bulk overlap capacitance per length [F/m]
    CBD: float = 0.0         #: drain-bulk junction capacitance [F]
    CBS: float = 0.0         #: source-bulk junction capacitance [F]
    KPTC: float = 0.0        #: fractional KP change per Kelvin (corner/temperature hook)
    VTOTC: float = 0.0       #: VTO shift per Kelvin [V/K]
    TNOM: float = 27.0       #: nominal temperature [C]

    def __post_init__(self):
        if self.polarity.lower() not in ("nmos", "pmos"):
            raise ModelError(f"MOSFET model {self.name!r}: polarity must be 'nmos' or 'pmos'")
        self.polarity = self.polarity.lower()
        if self.KP <= 0:
            raise ModelError(f"MOSFET model {self.name!r}: KP must be positive")
        if self.PHI <= 0:
            raise ModelError(f"MOSFET model {self.name!r}: PHI must be positive")

    @property
    def sign(self) -> float:
        return 1.0 if self.polarity == "nmos" else -1.0

    def with_updates(self, **kwargs) -> "MOSFETModel":
        return replace(self, **kwargs)

    def kp_at(self, temp_c: float) -> float:
        return self.KP * (1.0 + self.KPTC * (temp_c - self.TNOM))

    def vto_at(self, temp_c: float) -> float:
        return self.VTO + self.VTOTC * (temp_c - self.TNOM)


class MOSFET(NonlinearDevice):
    """Four-terminal MOSFET (drain, gate, source, bulk)."""

    prefix = "M"

    def __init__(self, name: str, drain: str, gate: str, source: str, bulk: str,
                 model: MOSFETModel | None = None,
                 width: float = 10e-6, length: float = 1e-6, m: float = 1.0):
        super().__init__(name, (drain, gate, source, bulk))
        self.model = model or MOSFETModel()
        self.width = float(width)
        self.length = float(length)
        self.multiplier = float(m)
        if self.width <= 0 or self.length <= 0 or self.multiplier <= 0:
            raise ModelError(f"MOSFET {name!r}: W, L and m must be positive")

    drain = property(lambda self: self.nodes[0])
    gate = property(lambda self: self.nodes[1])
    source = property(lambda self: self.nodes[2])
    bulk = property(lambda self: self.nodes[3])

    def terminals(self) -> Dict[str, str]:
        return {"drain": self.drain, "gate": self.gate,
                "source": self.source, "bulk": self.bulk}

    # ------------------------------------------------------------------
    # Closed-form companion (NMOS-referred voltages)
    # ------------------------------------------------------------------
    def _temperature_constants(self, temp_c: float):
        """``(beta, vto)`` at ``temp_c``."""
        m = self.model
        return (m.kp_at(temp_c) * self.multiplier * self.width / self.length,
                m.vto_at(temp_c))

    def _threshold_slope(self, vbs, vto: float):
        """``(vth, dvth/dvbs)`` including the body effect."""
        m = self.model
        if m.GAMMA == 0.0:
            return vto, 0.0
        sqrt_phi = math.sqrt(m.PHI)
        # Forward-biased bulk (vbs > 0): the sqrt is linearised to keep
        # things smooth.
        if isinstance(vbs, np.ndarray):
            reverse = vbs <= 0.0
            # Guard the masked-out lane: sqrt of a negative argument in
            # the forward-bias lanes would poison the whole batch.
            root = np.sqrt(np.where(reverse, m.PHI - vbs, m.PHI))
            body = np.where(reverse, root, sqrt_phi - 0.5 * vbs / sqrt_phi)
            slope = np.where(reverse, -0.5 / root, -0.5 / sqrt_phi)
        elif vbs <= 0.0:
            body = math.sqrt(m.PHI - vbs)
            slope = -0.5 / body
        else:
            body = sqrt_phi - 0.5 * vbs / sqrt_phi
            slope = -0.5 / sqrt_phi
        return vto + m.GAMMA * (body - sqrt_phi), m.GAMMA * slope

    def _forward_companion(self, vgs, vds, vbs, beta: float, vto: float):
        """``(ids, gm, gds, gmb)`` for ``vds >= 0`` (scalars or columns)."""
        lam = self.model.LAMBDA
        vth, dvth = self._threshold_slope(vbs, vto)
        vov = vgs - vth
        clm = 1.0 + lam * vds
        if isinstance(vov, np.ndarray) or isinstance(vds, np.ndarray):
            triode = vds < vov
            on = vov > 0.0
            ids = np.where(triode, beta * clm * vds * (vov - 0.5 * vds),
                           0.5 * beta * clm * vov * vov)
            gm = np.where(triode, beta * clm * vds, beta * clm * vov)
            gds = np.where(triode,
                           beta * (lam * vds * (vov - 0.5 * vds)
                                   + clm * (vov - vds)),
                           0.5 * beta * lam * vov * vov)
            return (np.where(on, ids, 0.0), np.where(on, gm, 0.0),
                    np.where(on, gds, 0.0), np.where(on, -gm * dvth, 0.0))
        if vov <= 0.0:
            return 0.0, 0.0, 0.0, 0.0
        if vds < vov:
            ids = beta * clm * vds * (vov - 0.5 * vds)
            gm = beta * clm * vds
            gds = beta * (lam * vds * (vov - 0.5 * vds) + clm * (vov - vds))
        else:
            ids = 0.5 * beta * clm * vov * vov
            gm = beta * clm * vov
            gds = 0.5 * beta * lam * vov * vov
        return ids, gm, gds, -gm * dvth

    def companion(self, vgs, vds, vbs, ctx, constants=None):
        """Drain current and its closed-form derivatives in one pass.

        Returns the NMOS-referred ``(ids, gm, gds, gmb)`` — the
        derivatives with respect to ``vgs``, ``vds`` and ``vbs`` — with
        the source/drain swap for ``vds < 0`` applied and ``gmin``
        excluded.  Arguments may be real scalars or ``(A,)`` sample
        columns; ``constants`` is the stamp's
        :meth:`_temperature_constants`, computed here when omitted.
        """
        beta, vto = constants or self._temperature_constants(ctx.temperature)
        if isinstance(vds, np.ndarray):
            forward = vds >= 0.0
            f = self._forward_companion(vgs, vds, vbs, beta, vto)
            r = self._forward_companion(vgs - vds, -vds, vbs - vds, beta, vto)
            return (np.where(forward, f[0], -r[0]),
                    np.where(forward, f[1], -r[1]),
                    np.where(forward, f[2], r[1] + r[2] + r[3]),
                    np.where(forward, f[3], -r[3]))
        if vds >= 0.0:
            return self._forward_companion(vgs, vds, vbs, beta, vto)
        # Source and drain swap roles for negative vds:
        # ids = -f(vgs - vds, -vds, vbs - vds).
        ids, gm, gds, gmb = self._forward_companion(
            vgs - vds, -vds, vbs - vds, beta, vto)
        return -ids, -gm, gm + gds + gmb, -gmb

    def _nmos_voltages(self, x):
        """NMOS-referred ``(vgs, vds, vbs)`` at the solution ``x``."""
        p = self.model.sign
        vs = x.voltage(self.source)
        return (p * (x.voltage(self.gate) - vs),
                p * (x.voltage(self.drain) - vs),
                p * (x.voltage(self.bulk) - vs))

    # ------------------------------------------------------------------
    # Complex-capable equations: the oracle the tests differentiate
    # ------------------------------------------------------------------
    def _threshold(self, vbs, ctx):
        """Threshold voltage including the body effect (complex-step safe)."""
        m = self.model
        vto = m.vto_at(ctx.temperature)
        if m.GAMMA == 0.0:
            return vto
        phi = m.PHI
        vbs_r = vbs.real if isinstance(vbs, complex) else vbs
        if vbs_r <= 0.0:
            return vto + m.GAMMA * (_csqrt(phi - vbs) - math.sqrt(phi))
        # Forward-biased bulk: linearise the sqrt to keep things smooth.
        return vto + m.GAMMA * (math.sqrt(phi) - 0.5 * vbs / math.sqrt(phi)
                                - math.sqrt(phi))

    def _ids(self, vgs, vds, vbs, ctx):
        """NMOS-referred drain-source current (vds >= 0 assumed by caller)."""
        m = self.model
        beta = self._temperature_constants(ctx.temperature)[0]
        vth = self._threshold(vbs, ctx)
        vov = vgs - vth
        vov_r = vov.real if isinstance(vov, complex) else vov
        vds_r = vds.real if isinstance(vds, complex) else vds
        if vov_r <= 0.0:
            return 0.0 * vgs
        clm = 1.0 + m.LAMBDA * vds
        if vds_r < vov_r:
            return beta * clm * vds * (vov - 0.5 * vds)
        return 0.5 * beta * clm * vov * vov

    def _terminal_currents(self, vd, vg, vs, vb, ctx):
        """Currents flowing out of (drain, gate, source, bulk) nodes into the
        device, including gmin junction conductances."""
        p = self.model.sign
        vgs = p * (vg - vs)
        vds = p * (vd - vs)
        vbs = p * (vb - vs)
        vds_r = vds.real if isinstance(vds, complex) else vds
        if vds_r >= 0.0:
            ids = self._ids(vgs, vds, vbs, ctx)
        else:
            # Source and drain swap roles for negative vds.
            vgd = vgs - vds
            vbd = vbs - vds
            ids = -self._ids(vgd, -vds, vbd, ctx)
        g = ctx.gmin
        i_db = g * (vd - vb)
        i_sb = g * (vs - vb)
        i_drain = p * ids + i_db
        i_gate = 0.0 * vgs
        i_source = -p * ids + i_sb
        i_bulk = -(i_db + i_sb)
        return i_drain, i_gate, i_source, i_bulk

    # ------------------------------------------------------------------
    # Stamping
    # ------------------------------------------------------------------
    def stamp_nonlinear(self, stamper, x, ctx) -> None:
        p = self.model.sign
        constants = self._temperature_constants(ctx.temperature)
        vto = constants[1]
        vgs, vds, vbs = self._nmos_voltages(x)
        state = self.device_state(ctx)
        vds_old = state.get("vds", 0.0)
        vgs = fetlim(vgs, state.get("vgs", vto + 0.5), vto)
        # Limit vds step to 2 V per iteration to avoid wild excursions.
        dvds = vds - vds_old
        if isinstance(dvds, np.ndarray):
            vds = np.where(np.abs(dvds) > 2.0,
                           vds_old + np.copysign(2.0, dvds), vds)
        elif abs(dvds) > 2.0:
            vds = vds_old + math.copysign(2.0, dvds)
        state["vgs"] = vgs
        state["vds"] = vds
        state["vbs"] = vbs
        ids, gm, gds, gmb = self.companion(vgs, vds, vbs, ctx, constants)
        g = ctx.gmin
        # Reconstruct terminal voltages with the source as reference.
        vs = 0.0
        vg = vs + p * vgs
        vd = vs + p * vds
        vb = vs + p * vbs
        # Terminal currents out of (drain, gate, source, bulk) into the
        # device with the gmin junction conductances; with p*p = 1 the
        # drain current's terminal slopes are (gds, gm, -(gm+gds+gmb), gmb).
        i_db = g * (vd - vb)
        i_sb = g * (vs - vb)
        gss = gm + gds + gmb
        jac = ((gds + g, gm, -gss, gmb - g),
               (0.0, 0.0, 0.0, 0.0),
               (-gds, -gm, gss + g, -gmb - g),
               (-g, 0.0, -g, 2.0 * g))
        self.stamp_companion(stamper,
                             (self.drain, self.gate, self.source, self.bulk),
                             (p * ids + i_db, 0.0, -p * ids + i_sb,
                              -(i_db + i_sb)),
                             jac, (vd, vg, vs, vb))

    def _meyer_capacitances(self, vgs: float, vds: float, vbs: float,
                            vto: float):
        """Gate capacitances (cgs, cgd, cgb) from the Meyer model plus
        overlaps, evaluated at the operating point (NMOS-referred)."""
        m = self.model
        w, length = self.width * self.multiplier, self.length
        cox = m.COX * w * length
        c_ovl_gs = m.CGSO * w
        c_ovl_gd = m.CGDO * w
        c_ovl_gb = m.CGBO * length
        vov = vgs - self._threshold_slope(vbs, vto)[0]
        if vov <= 0.0:
            # Cutoff: channel charge sits on the bulk side.
            return c_ovl_gs, c_ovl_gd, cox + c_ovl_gb
        if vds >= vov:
            # Saturation.
            return (2.0 / 3.0) * cox + c_ovl_gs, c_ovl_gd, c_ovl_gb
        # Triode: Meyer partition of the channel charge between source and
        # drain, which tends to Cox/2 each as vds -> 0.
        denom = 2.0 * vov - vds
        cgs = (2.0 / 3.0) * cox * (1.0 - ((vov - vds) / denom) ** 2) + c_ovl_gs
        cgd = (2.0 / 3.0) * cox * (1.0 - (vov / denom) ** 2) + c_ovl_gd
        return cgs, cgd, c_ovl_gb

    def stamp_dynamic_nonlinear(self, stamper, x, ctx) -> None:
        m = self.model
        vto = m.vto_at(ctx.temperature)
        vgs, vds, vbs = self._nmos_voltages(x)
        if vds >= 0.0:
            cgs, cgd, cgb = self._meyer_capacitances(vgs, vds, vbs, vto)
            d_node, s_node = self.drain, self.source
        else:
            cgd, cgs, cgb = self._meyer_capacitances(vgs - vds, -vds,
                                                     vbs - vds, vto)
            d_node, s_node = self.source, self.drain
        stamper.capacitance_op(self.gate, s_node, cgs)
        stamper.capacitance_op(self.gate, d_node, cgd)
        stamper.capacitance_op(self.gate, self.bulk, cgb)
        if m.CBD > 0:
            stamper.capacitance_op(self.drain, self.bulk, m.CBD * self.multiplier)
        if m.CBS > 0:
            stamper.capacitance_op(self.source, self.bulk, m.CBS * self.multiplier)

    # ------------------------------------------------------------------
    def operating_point_info(self, x, ctx) -> Dict[str, float]:
        """Operating-point summary: region, id, gm, gds, gmb, vth, vov."""
        beta, vto = self._temperature_constants(ctx.temperature)
        vgs, vds, vbs = self._nmos_voltages(x)
        swapped = vds < 0
        if swapped:
            # Report the swapped device's own small-signal parameters.
            vgs, vds, vbs = vgs - vds, -vds, vbs - vds
        ids, gm, gds, gmb = self._forward_companion(vgs, vds, vbs, beta, vto)
        vth = self._threshold_slope(vbs, vto)[0]
        vov = vgs - vth
        if vov <= 0:
            region = "cutoff"
        elif vds < vov:
            region = "triode"
        else:
            region = "saturation"
        return {
            "region": region, "swapped": swapped,
            "vgs": vgs, "vds": vds, "vbs": vbs, "vth": vth, "vov": vov,
            "id": ids * (1.0 if not swapped else -1.0),
            "gm": gm, "gds": gds, "gmb": gmb,
        }
