"""Fast multi-node driving-point impedance sweeps.

The all-nodes run needs the self-response of *every* node to an injected
AC current.  Done naively that is one AC analysis per node over the same
``(G + jwC)`` system.  Only the right-hand side depends on where the
current is injected, so the sweepers solve all nodes at once: on the
dense backend each small-signal pencil is reduced once
(:class:`repro.analysis.ac.SchurPencils`) and cached, so every sweep
costs one back-substitution per frequency and requested node; on the
sparse backend one SuperLU factorization per frequency serves every
injection column (see ``docs/solver-backends.md``).  Results match the
one-node-at-a-time path; this is ``AllNodesOptions(use_fast_solver=True)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.ac import (
    SchurPencils,
    linearization_pencils,
    solve_ac_stacked,
    solve_ac_stacked_batch,
)
from repro.analysis.compiled import BatchLinearization, CompiledCircuit
from repro.analysis.context import AnalysisContext
from repro.analysis.mna import MNASystem
from repro.analysis.op import NewtonOptions, operating_point
from repro.analysis.results import OPResult
from repro.circuit.netlist import Circuit
from repro.exceptions import StabilityAnalysisError
from repro.linalg import resolve_backend
from repro.waveform.waveform import Waveform

__all__ = ["BatchImpedanceSweeper", "ImpedanceSweeper"]


def _injection(nodes: List[str], system, frequencies) -> tuple:
    """``(indices, rhs, freq)`` of a unit-current injection sweep of
    ``system`` (an MNA system or compiled circuit) into ``nodes``."""
    unknown = [n for n in nodes if n not in system.node_names]
    if unknown:
        raise StabilityAnalysisError(
            f"nodes not present in the circuit: {unknown}")
    freq = np.asarray(frequencies, dtype=float)
    if freq.ndim != 1 or len(freq) < 1:
        raise StabilityAnalysisError("at least one frequency is required")
    indices = [system.index_of(n) for n in nodes]
    rhs = np.zeros((system.size, len(nodes)), dtype=complex)
    rhs[indices, np.arange(len(nodes))] = 1.0
    return indices, rhs, freq


class ImpedanceSweeper:
    """Computes driving-point impedances of many nodes over a frequency sweep.

    The circuit is copied, every existing AC stimulus is zeroed (the tool's
    auto-zero feature) and the copy is linearised at its DC operating
    point once; on the dense backend its pencil is reduced on the first
    :meth:`impedances` call and only evaluated afterwards.

    ``compiled`` (a :class:`~repro.analysis.compiled.CompiledCircuit` of
    the flattened circuit) skips the per-scenario copy and structural
    rebuild: the sweeper supplies its own injection right-hand sides and
    never reads the stamped AC stimuli, so the auto-zero step is a no-op
    for its results and the shared compiled structure can be restamped
    directly — this is the Monte Carlo fast path (compile once per
    topology, restamp per sample).
    """

    def __init__(self, circuit: Optional[Circuit],
                 temperature: float = 27.0,
                 gmin: float = 1e-12,
                 variables: Optional[Dict[str, float]] = None,
                 op: Optional[OPResult] = None,
                 newton: Optional[NewtonOptions] = None,
                 backend: Optional[str] = None,
                 compiled: Optional[CompiledCircuit] = None):
        if compiled is not None:
            working = compiled.circuit
        else:
            flat = circuit.flattened()
            working = flat.copy()
            working.zero_all_ac_sources()

        ctx = AnalysisContext(temperature=temperature, gmin=gmin,
                              variables=dict(working.variables))
        if variables:
            ctx.update_variables(variables)
        self._system = MNASystem(working, ctx, backend=backend,
                                 compiled=compiled)
        self._system.stamp()

        if op is None:
            op = operating_point(working, temperature=temperature,
                                 variables=variables, options=newton,
                                 system=self._system)
        self.op = op

        x_op = np.zeros(self._system.size)
        for i, name in enumerate(self._system.variable_names):
            if op.has(name):
                x_op[i] = (op.current(name) if name.startswith("#branch:")
                           else op.voltage(name))
        self._backend = self._system.backend
        form = "sparse" if self._backend.name == "sparse" else "dense"
        self._G, self._C = self._system.small_signal_matrices(x_op, form=form)
        self._pencil = (None if form == "sparse" else
                        SchurPencils(self._G[None], self._C[None],
                                     span="ac.stacked"))
        self.temperature = temperature

    # ------------------------------------------------------------------
    @property
    def node_names(self) -> List[str]:
        return list(self._system.node_names)

    def has_node(self, node: str) -> bool:
        return node in self._system.node_names

    # ------------------------------------------------------------------
    def impedances(self, nodes: Sequence[str],
                   frequencies: Sequence[float]) -> Dict[str, np.ndarray]:
        """Complex driving-point impedance Z(node) over ``frequencies``.

        Z is the voltage at the node in response to a unit AC current
        injected into that same node with every other stimulus zeroed —
        exactly what the single-node analysis measures.
        """
        nodes = list(nodes)
        indices, rhs, freq = _injection(nodes, self._system, frequencies)
        # Z(node_c) at frequency k is the entry solution[k, i_c, c].
        if self._backend.name == "sparse":
            solution = solve_ac_stacked(self._G, self._C, rhs, freq,
                                        backend=self._backend,
                                        names=self._system.variable_names)
            data = solution[:, indices, np.arange(len(nodes))]
        else:
            solved, failures = self._pencil.solve(
                freq, rhs, select=list(zip(indices, range(len(nodes)))))
            if failures:
                raise failures[0]
            data = solved[0]
        return {node: data[:, column] for column, node in enumerate(nodes)}

    def impedance_waveforms(self, nodes: Sequence[str],
                            frequencies: Sequence[float]) -> Dict[str, Waveform]:
        """Same as :meth:`impedances` but wrapped as complex waveforms."""
        raw = self.impedances(nodes, frequencies)
        freq = np.asarray(frequencies, dtype=float)
        return {node: Waveform(freq, values, name=f"Z({node})", x_unit="Hz", y_unit="Ohm")
                for node, values in raw.items()}


class BatchImpedanceSweeper:
    """Driving-point impedances of many nodes for a whole sample batch.

    The sample-axis sibling of :class:`ImpedanceSweeper`: instead of one
    linearized ``(G, C)`` pair it holds a
    :class:`~repro.analysis.compiled.BatchLinearization` — N samples'
    small-signal planes over one shared pattern — and
    :meth:`impedance_cube` computes the ``(N, nodes, F)`` impedance cube
    of every sample at once.  On the dense backend every sample's pencil
    is reduced once, on first use, and every later call only evaluates
    it; on the sparse backend every factorization of the batch shares
    one cached symbolic ordering.

    :meth:`sample_impedances` is the scalar view used by the per-sample
    peak refinement (each sample's refinement frequencies depend on its
    own dominant peak).
    """

    def __init__(self, lin: BatchLinearization,
                 backend: Optional[str] = None):
        self._lin = lin
        self._compiled = lin.compiled
        density = max(lin.pattern.density(), lin.cap_pattern.density())
        self._backend = resolve_backend(backend, size=self._compiled.size,
                                        density=density)
        self._pencils = (None if self._backend.name == "sparse" else
                         linearization_pencils(lin, slice(None)))

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return len(self._lin)

    @property
    def failures(self) -> Dict[int, Exception]:
        """Samples whose linearization already failed (read-only view)."""
        return self._lin.failures

    @property
    def node_names(self) -> List[str]:
        return list(self._compiled.node_names)

    def has_node(self, node: str) -> bool:
        return node in self._compiled.node_names

    # ------------------------------------------------------------------
    def impedance_cube(self, nodes: Sequence[str],
                       frequencies: Sequence[float],
                       samples: Optional[Sequence[int]] = None) -> tuple:
        """The ``(N, nodes, F)`` complex impedance cube, batched.

        ``cube[k, c]`` is sample ``k``'s driving-point impedance of
        ``nodes[c]`` over the sweep — identical (to solver tolerance) to
        what sample ``k``'s scalar :meth:`ImpedanceSweeper.impedances`
        returns.  Also returns the failure map (linearization failures
        plus per-sample singular frequency points); failed samples' slabs
        are NaN.

        ``samples`` restricts the sweep to a subset of the batch (the
        members of one refinement window, say): the cube's first axis
        then follows the given order — ``cube[p]`` belongs to
        ``samples[p]`` — while the failure map keeps the *original*
        sample indices.
        """
        wanted = (range(self.n_samples) if samples is None
                  else [int(sample) for sample in samples])
        indices, rhs, freq = _injection(list(nodes), self._compiled,
                                        frequencies)
        select = list(zip(indices, range(len(indices))))
        if self._pencils is None:
            data, bad = solve_ac_stacked_batch(
                self._lin.take(wanted), rhs, freq, backend=self._backend,
                select=select)
        else:
            data, bad = self._pencils.solve(freq, rhs, select=select,
                                            positions=wanted)
        failures = {sample: self._lin.failures.get(sample, bad.get(p))
                    for p, sample in enumerate(wanted)
                    if sample in self._lin.failures or p in bad}
        data[[sample in failures for sample in wanted]] = np.nan
        return np.swapaxes(data, 1, 2), failures

    def sample_impedances(self, index: int, nodes: Sequence[str],
                          frequencies: Sequence[float]) -> Dict[str, np.ndarray]:
        """One sample's scalar impedance sweep (the refinement path)."""
        nodes = list(nodes)
        cube, failures = self.impedance_cube(nodes, frequencies, [index])
        if failures:
            raise failures[index]
        return {node: cube[0, column] for column, node in enumerate(nodes)}
