"""Batched stability-analysis kernels vs. their scalar references.

The sample-axis stability pipeline — ``linearize_batch`` →
``solve_ac_stacked_batch`` → ``BatchImpedanceSweeper`` →
``find_peaks_grid`` → ``analyze_all_nodes_batch`` /
``analyze_node_batch`` — must reproduce the scalar per-sample path to
1e-9 on every bundled circuit, on both solver backends, and isolate
poisoned samples without disturbing their batchmates.
"""

import numpy as np
import pytest

from repro import circuits
from repro.circuit import CircuitBuilder
from repro.analysis.compiled import compile_circuit, linearize_batch
from repro.analysis.ac import solve_ac_stacked, solve_ac_stacked_batch
from repro.analysis.op import solve_linear_dc_batch, solve_nonlinear_dc_batch
from repro.analysis.results import OPResult
from repro.analysis.sweeps import FrequencySweep, log_sweep
from repro.core.all_nodes import (
    AllNodesOptions,
    analyze_all_nodes,
    analyze_all_nodes_batch,
)
from repro.core.impedance import BatchImpedanceSweeper
from repro.core.peaks import find_peaks, find_peaks_grid
from repro.core.single_node import (
    STABILITY_NEWTON,
    SingleNodeOptions,
    analyze_node,
    analyze_node_batch,
)
from repro.exceptions import AnalysisError, SingularMatrixError
from repro.waveform import Waveform

TOL = 1e-9

#: Equivalence tolerance for nonlinear circuits: the batched and scalar
#: Newton solutions agree to ~1e-9, and exponential device conductances
#: amplify that difference by ~1/Vt when linearizing, so derived
#: stability metrics agree to ~1e-7.  Linear circuits share the exact
#: same small-signal planes and stay at 1e-9.
NONLINEAR_TOL = 1e-7

#: Every bundled reference circuit, by factory name (parameterized
#: ladders get a fixed small size).
ALL_CIRCUITS = [
    "parallel_rlc", "series_rlc_divider", "two_pole_opamp_buffer",
    "two_pole_open_loop", "opamp_buffer", "opamp_open_loop", "bias_circuit",
    "opamp_with_bias", "simple_mirror", "buffered_mirror",
    "emitter_follower", "source_follower", "rc_ladder", "rlc_ladder",
    "amplifier_chain",
]

_FACTORY_ARGS = {"rc_ladder": (4,), "rlc_ladder": (4,),
                 "amplifier_chain": (3,)}

#: Coarse screening sweep: both paths use it, so parity is unaffected
#: and the full-matrix run stays fast.
SWEEP = FrequencySweep(10.0, 1e9, 6)

TEMPS = [27.0, 55.0]


def bundled_circuit(name):
    design = getattr(circuits, name)(*_FACTORY_ARGS.get(name, ()))
    return design.circuit if hasattr(design, "circuit") else design


def build_lin(circuit, temps, backend):
    """Compile, restamp the temperature batch, DC-solve, linearize."""
    compiled = compile_circuit(circuit.flattened())
    batch = compiled.restamp_batch(temperature=temps)
    if compiled.is_linear:
        x, failures = solve_linear_dc_batch(batch, backend=backend)
    else:
        # The stability pipeline solves its bias points under the tight
        # STABILITY_NEWTON options; the batched lin must share them.
        x, _, _, failures = solve_nonlinear_dc_batch(
            batch, backend=backend, options=STABILITY_NEWTON)
    assert not failures, failures
    ops = [OPResult(compiled.variable_names, x[k], iterations=0,
                    strategy="linear" if compiled.is_linear else "newton",
                    temperature=temps[k])
           for k in range(len(temps))]
    lin = linearize_batch(batch, None if compiled.is_linear else x)
    return compiled, batch, ops, lin


def assert_close(scalar, batched, context, tol=TOL):
    if scalar is None or isinstance(scalar, str):
        assert scalar == batched, (context, scalar, batched)
    else:
        scale = max(abs(scalar), 1.0)
        assert abs(scalar - batched) <= tol * scale, \
            (context, scalar, batched)


def assert_node_results_equivalent(scalar, batched, context, tol=TOL):
    """Numeric stability fields of two node results agree to ``tol``."""
    s, b = scalar.to_dict(), batched.to_dict()
    for fieldname in ("node", "peak_type", "performance_index",
                      "natural_frequency_hz", "damping_ratio",
                      "phase_margin_deg", "overshoot_percent"):
        assert_close(s[fieldname], b[fieldname], (context, fieldname), tol)
    assert len(s["peaks"]) == len(b["peaks"]), (context, "peak count")
    for sp, bp in zip(s["peaks"], b["peaks"]):
        for fieldname in ("frequency_hz", "value", "peak_type"):
            assert_close(sp[fieldname], bp[fieldname],
                         (context, "peak", fieldname), tol)


def assert_all_nodes_equivalent(scalar, batched, context, tol=TOL):
    s, b = scalar.to_dict(), batched.to_dict()
    s_by = {entry["node"]: entry for entry in s["results"]}
    b_by = {entry["node"]: entry for entry in b["results"]}
    assert set(s_by) == set(b_by), (context, set(s_by) ^ set(b_by))
    assert s["skipped_nodes"] == b["skipped_nodes"], context
    assert sorted(s["failed_nodes"]) == sorted(b["failed_nodes"]), context
    for node in s_by:
        sn, bn = s_by[node], b_by[node]
        for fieldname in ("performance_index", "natural_frequency_hz",
                          "damping_ratio", "phase_margin_deg",
                          "overshoot_percent", "peak_type"):
            assert_close(sn[fieldname], bn[fieldname],
                         (context, node, fieldname), tol)
        assert len(sn["peaks"]) == len(bn["peaks"]), (context, node)
        for sp, bp in zip(sn["peaks"], bn["peaks"]):
            assert_close(sp["value"], bp["value"], (context, node, "peak"),
                         tol)
            assert_close(sp["frequency_hz"], bp["frequency_hz"],
                         (context, node, "peak freq"), tol)


class TestAllNodesBatchEquivalence:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("name", ALL_CIRCUITS)
    def test_matches_scalar_on_every_bundled_circuit(self, name, backend):
        circuit = bundled_circuit(name)
        compiled, batch, ops, lin = build_lin(circuit, TEMPS, backend)
        options_rows = [AllNodesOptions(sweep=SWEEP, temperature=t,
                                        backend=backend) for t in TEMPS]
        batched = analyze_all_nodes_batch(circuit, options_rows, ops, lin)
        assert len(batched) == len(TEMPS)
        for k, temperature in enumerate(TEMPS):
            assert not isinstance(batched[k], Exception), \
                (name, backend, batched[k])
            scalar = analyze_all_nodes(
                circuit, AllNodesOptions(sweep=SWEEP,
                                         temperature=temperature,
                                         backend=backend),
                compiled=compiled)
            tol = TOL if compiled.is_linear else NONLINEAR_TOL
            assert_all_nodes_equivalent(scalar, batched[k],
                                        (name, backend, temperature), tol)


class TestSingleNodeBatch:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("name", ["parallel_rlc", "opamp_buffer"])
    def test_matches_scalar(self, name, backend):
        circuit = bundled_circuit(name)
        compiled, batch, ops, lin = build_lin(circuit, TEMPS, backend)
        scalar_all = analyze_all_nodes(
            circuit, AllNodesOptions(sweep=SWEEP, backend=backend),
            compiled=compiled)
        node = scalar_all.results[0].node
        options_rows = [SingleNodeOptions(sweep=SWEEP, temperature=t,
                                          backend=backend) for t in TEMPS]
        batched = analyze_node_batch(circuit, node, options_rows, ops, lin)
        for k, temperature in enumerate(TEMPS):
            assert not isinstance(batched[k], Exception), \
                (name, backend, batched[k])
            scalar = analyze_node(
                circuit.flattened(), node,
                SingleNodeOptions(sweep=SWEEP, temperature=temperature,
                                  backend=backend))
            tol = TOL if compiled.is_linear else NONLINEAR_TOL
            assert_node_results_equivalent(scalar, batched[k],
                                           (name, backend, temperature), tol)

    def test_poisoned_sample_is_isolated(self):
        circuit = bundled_circuit("parallel_rlc")
        compiled, batch, ops, lin = build_lin(circuit, TEMPS, "dense")
        poisoned = linearize_batch(batch,
                                   failures={0: AnalysisError("poisoned")})
        options_rows = [SingleNodeOptions(sweep=SWEEP, temperature=t)
                        for t in TEMPS]
        results = analyze_node_batch(circuit, "tank", options_rows,
                                     [None, ops[1]], poisoned)
        assert isinstance(results[0], AnalysisError)
        assert str(results[0]) == "poisoned"
        clean = analyze_node_batch(circuit, "tank", options_rows, ops, lin)
        assert_node_results_equivalent(clean[1], results[1],
                                       "poisoned batchmate")


class TestLinearizeBatch:
    def test_linear_passthrough_is_zero_copy(self):
        circuit = bundled_circuit("parallel_rlc")
        compiled = compile_circuit(circuit.flattened())
        batch = compiled.restamp_batch(temperature=TEMPS)
        lin = linearize_batch(batch)
        assert lin.g_values is batch.g_values
        assert lin.c_values is batch.c_values
        assert len(lin) == len(TEMPS)
        assert lin.healthy_indices() == list(range(len(TEMPS)))

    def test_failures_parameter_marks_samples_bad(self):
        circuit = bundled_circuit("opamp_buffer")
        compiled = compile_circuit(circuit.flattened())
        batch = compiled.restamp_batch(temperature=TEMPS)
        x, _, _, failures = solve_nonlinear_dc_batch(batch)
        assert not failures
        marked = linearize_batch(batch, x, failures={1: AnalysisError("dc")})
        assert 1 in marked.failures
        assert marked.healthy_indices() == [0]
        with pytest.raises(AnalysisError, match="dc"):
            marked.sample_dense(1)


class TestSolveAcStackedBatch:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_matches_per_sample_stacked_solve(self, backend):
        circuit = bundled_circuit("opamp_buffer")
        compiled, batch, ops, lin = build_lin(circuit, TEMPS, backend)
        n = compiled.size
        freq = log_sweep(1e2, 1e8, 4)
        rhs = np.zeros((n, 2), dtype=complex)
        rhs[0, 0] = 1.0
        rhs[min(2, n - 1), 1] = 1.0
        data, failures = solve_ac_stacked_batch(lin, rhs, freq,
                                                backend=backend)
        assert not failures
        assert data.shape == (len(TEMPS), len(freq), n, 2)
        for k in range(len(TEMPS)):
            G, C = lin.sample_dense(k)
            reference = solve_ac_stacked(G, C, rhs, freq, backend="dense")
            scale = max(float(np.max(np.abs(reference))), 1.0)
            assert float(np.max(np.abs(data[k] - reference))) <= TOL * scale

    def test_select_keeps_only_requested_entries(self):
        circuit = bundled_circuit("parallel_rlc")
        compiled, batch, ops, lin = build_lin(circuit, TEMPS, "dense")
        n = compiled.size
        freq = log_sweep(1e3, 1e7, 5)
        rhs = np.eye(n, dtype=complex)[:, :2]
        full, _ = solve_ac_stacked_batch(lin, rhs, freq)
        select = [(0, 0), (1, 1)]
        picked, _ = solve_ac_stacked_batch(lin, rhs, freq, select=select)
        assert picked.shape == (len(TEMPS), len(freq), len(select))
        for j, (row, col) in enumerate(select):
            assert np.allclose(picked[:, :, j], full[:, :, row, col],
                               rtol=0, atol=0)

    def test_per_sample_rhs(self):
        circuit = bundled_circuit("parallel_rlc")
        compiled, batch, ops, lin = build_lin(circuit, TEMPS, "dense")
        n = compiled.size
        freq = log_sweep(1e3, 1e7, 3)
        rhs = np.zeros((len(TEMPS), n, 1), dtype=complex)
        rhs[:, 0, 0] = [1.0, 2.0]
        data, failures = solve_ac_stacked_batch(lin, rhs, freq)
        assert not failures
        # Linearity: doubling the stimulus doubles the response.
        assert np.allclose(data[1], 2.0 * data[0], rtol=1e-9)

    def test_poisoned_sample_gets_nan_slab_not_batchmates(self):
        circuit = bundled_circuit("parallel_rlc")
        compiled, batch, ops, lin = build_lin(circuit, TEMPS, "dense")
        n = compiled.size
        freq = log_sweep(1e3, 1e7, 3)
        rhs = np.eye(n, dtype=complex)[:, :1]
        clean, _ = solve_ac_stacked_batch(lin, rhs, freq)
        lin.g_values = lin.g_values.copy()
        lin.g_values[0, :] = np.nan
        data, failures = solve_ac_stacked_batch(lin, rhs, freq)
        assert 0 in failures and 1 not in failures
        assert np.all(np.isnan(data[0]))
        assert np.allclose(data[1], clean[1], rtol=0, atol=0)


    def test_sample_singular_at_one_frequency_fails_alone(self):
        builder = CircuitBuilder("rc pair")
        builder.resistor("a", "0", 1e3)
        builder.capacitor("a", "0", 1e-9)
        builder.resistor("a", "b", 2e3)
        builder.resistor("b", "0", 5e3)
        builder.capacitor("b", "0", 2e-9)
        compiled, batch, ops, lin = build_lin(builder.build(),
                                              [-40.0, 27.0, 125.0], "dense")
        n = compiled.size
        # Sample 1 keeps its capacitances but loses every conductance:
        # G = 0 with a non-singular C is singular at 0 Hz only.
        lin.g_values = lin.g_values.copy()
        lin.g_values[1] = 0.0
        freq = np.array([0.0, 1e3, 1e6])
        rhs = np.eye(n, dtype=complex)
        data, failures = solve_ac_stacked_batch(lin, rhs, freq,
                                                backend="dense")
        assert set(failures) == {1}
        assert isinstance(failures[1], SingularMatrixError)
        assert "singular at 0 Hz" in str(failures[1])
        assert np.all(np.isnan(data[1]))
        G, C = lin.sample_dense(1)
        assert np.all(np.isfinite(
            solve_ac_stacked(G, C, rhs, freq[1:], backend="dense")))
        for k in (0, 2):
            G, C = lin.sample_dense(k)
            solo = solve_ac_stacked(G, C, rhs, freq, backend="dense")
            assert np.array_equal(data[k], solo)


class TestBatchImpedanceSweeper:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_cube_matches_refinement_path(self, backend):
        circuit = bundled_circuit("opamp_buffer")
        compiled, batch, ops, lin = build_lin(circuit, TEMPS, backend)
        nodes = [compiled.node_names[0], compiled.node_names[1]]
        freq = log_sweep(1e2, 1e8, 4)
        sweeper = BatchImpedanceSweeper(lin, backend=backend)
        cube, failures = sweeper.impedance_cube(nodes, freq)
        assert not failures
        assert cube.shape == (len(TEMPS), len(nodes), len(freq))
        for k in range(len(TEMPS)):
            single = sweeper.sample_impedances(k, nodes, freq)
            for c, node in enumerate(nodes):
                scale = max(float(np.max(np.abs(single[node]))), 1.0)
                assert float(np.max(np.abs(cube[k, c] - single[node]))) \
                    <= TOL * scale


def gaussian_bump(freqs, center, width_decades, amplitude):
    u = np.log10(freqs)
    return amplitude * np.exp(
        -0.5 * ((u - np.log10(center)) / width_decades) ** 2)


class TestFindPeaksGrid:
    FREQS = log_sweep(1e3, 1e9, 40)

    def rows(self):
        f = self.FREQS
        return np.array([
            gaussian_bump(f, 1e6, 0.1, -20.0),
            gaussian_bump(f, 1e7, 0.1, +8.0),
            gaussian_bump(f, 1e6, 0.08, -10.0) +
            gaussian_bump(f, 2e6, 0.08, +6.0),          # MIN_MAX doublet
            gaussian_bump(f, 5e9, 0.3, -12.0),          # end-of-range
            np.zeros_like(f),                           # no peaks
            gaussian_bump(f, 1e5, 0.08, -10.0) +
            gaussian_bump(f, 1e8, 0.08, +6.0),          # distant positive
        ])

    def test_bit_identical_to_scalar_find_peaks(self):
        rows = self.rows()
        grid = find_peaks_grid(self.FREQS, rows)
        assert len(grid) == len(rows)
        for row, peaks in zip(rows, grid):
            scalar = find_peaks(Waveform(self.FREQS, row, x_unit="Hz"))
            assert len(peaks) == len(scalar)
            for batched_peak, scalar_peak in zip(peaks, scalar):
                # Bit-identical, not merely close: the grid kernel must
                # reproduce the scalar shoulder scans exactly.
                assert batched_peak.to_dict() == scalar_peak.to_dict()

    def test_threshold_and_options_forwarded(self):
        rows = self.rows()
        grid = find_peaks_grid(self.FREQS, rows, threshold=9.0,
                               min_max_window_decades=1.0,
                               min_max_ratio=0.1)
        for row, peaks in zip(rows, grid):
            scalar = find_peaks(Waveform(self.FREQS, row, x_unit="Hz"),
                                threshold=9.0, min_max_window_decades=1.0,
                                min_max_ratio=0.1)
            assert [p.to_dict() for p in peaks] == \
                [p.to_dict() for p in scalar]

    def test_nan_rows_come_back_empty(self):
        rows = self.rows()
        rows[2, :] = np.nan
        grid = find_peaks_grid(self.FREQS, rows)
        assert grid[2] == []
        scalar = find_peaks(Waveform(self.FREQS, rows[0], x_unit="Hz"))
        assert [p.to_dict() for p in grid[0]] == \
            [p.to_dict() for p in scalar]

    def test_leading_axes_preserved(self):
        rows = self.rows()
        cube = rows.reshape(2, 3, -1)
        grid = find_peaks_grid(self.FREQS, cube)
        assert len(grid) == 2 and all(len(g) == 3 for g in grid)
        flat = find_peaks_grid(self.FREQS, rows)
        for i in range(2):
            for j in range(3):
                assert [p.to_dict() for p in grid[i][j]] == \
                    [p.to_dict() for p in flat[3 * i + j]]
