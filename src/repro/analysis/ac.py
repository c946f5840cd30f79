"""AC (small-signal) frequency-domain analysis.

The circuit is linearised at its DC operating point and the complex MNA
system ``(G + j*2*pi*f*C) X = B_ac`` is solved at every frequency of the
requested sweep.  This is the analysis the stability tool runs after
attaching an AC current stimulus to the node under test.

Two solver paths exist behind the same interface (see
``docs/solver-backends.md``): the dense path reduces each pencil once
(:class:`SchurPencils`) and evaluates every frequency as a triangular
back-substitution; the sparse path factorizes ``G + j*omega*C`` with
SuperLU per frequency, shared by every right-hand-side column.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np
import scipy.linalg

from repro.analysis.compiled import CompiledCircuit
from repro.analysis.context import AnalysisContext
from repro.analysis.mna import MNASystem
from repro.analysis.op import NewtonOptions, operating_point
from repro.analysis.results import ACResult, OPResult
from repro.analysis.sweeps import FrequencySweep
from repro.circuit.netlist import Circuit
from repro.exceptions import AnalysisError, SingularMatrixError
from repro.linalg import (
    LinearSystem,
    SolverBackend,
    csc_pattern_key,
    matrix_stats,
    resolve_backend,
)
from repro.obs.trace import span as _span

__all__ = ["SchurPencils", "ac_analysis", "linearization_pencils",
           "solve_ac_batch", "solve_ac_stacked", "solve_ac_stacked_batch"]

#: Memory budget of one evaluation block: the ``(P, n, 2, K_c, m)``
#: back-substitution workspace (complex128 bytes).
_WORKSPACE_BYTES = 8 << 20

#: Sinkhorn sweeps of the pencil balancing: eight bring every bundled
#: circuit's driving-point impedances within 1e-11 of a refined-LU oracle.
_BALANCE_SWEEPS = 8

_NON_FINITE = ("AC system matrices contain non-finite entries "
               "(bad operating point or device model)")


def _balance(G: np.ndarray, C: np.ndarray) -> tuple:
    """Power-of-two row and column scales ``(P, n)`` of each pencil:
    Sinkhorn sweeps equalise the row and column 2-norms of
    ``[G / max|G|, C / max|C|]`` (each plane normalised on its own, so
    the scales do not depend on the frequency unit)."""
    def positive(values):
        return np.where(values > 0, values, 1.0)

    weight = sum(np.square(a / positive(a.max(axis=(1, 2), keepdims=True)))
                 for a in (np.abs(G), np.abs(C)))
    col_sq = np.ones(weight.shape[:2])
    for _ in range(_BALANCE_SWEEPS):
        row_sq = 1.0 / positive(np.einsum("pij,pj->pi", weight, col_sq))
        col_sq = 1.0 / positive(np.einsum("pij,pi->pj", weight, row_sq))
    return tuple(np.ldexp(1.0, np.round(0.5 * np.log2(sq)).astype(int))
                 for sq in (row_sq, col_sq))


class SchurPencils:
    """Small-signal pencils ``G_p + j*omega*C_p``, each reduced once.

    The dense AC kernel.  On the first :meth:`solve` each pencil of the
    ``(P, n, n)`` stacks is balanced by exact power-of-two row and column
    scales ``D_r``, ``D_c`` (not optional: MNA planes span many decades,
    and the QZ backward error is relative to each plane's largest entry)
    and reduced by complex QZ, ``D_r G D_c = Q AA Z^H`` and
    ``D_r C D_c = Q BB Z^H`` with ``AA``, ``BB`` upper triangular.  Every
    frequency is then one back-substitution,
    ``X = D_c Z (AA + j*omega*BB)^-1 Q^H D_r B``: O(n^2) per frequency
    and column.  ``select`` keeps chosen ``(row, col)`` entries::

        >>> import numpy as np
        >>> G = np.array([[[2.0, -1.0], [-1.0, 2.0]]])     # one pencil
        >>> C = np.array([[[1e-3, 0.0], [0.0, 1e-9]]])
        >>> pencils = SchurPencils(G, C)
        >>> freq = np.logspace(0, 9, 10)
        >>> X, failures = pencils.solve(freq, np.eye(2))   # two columns
        >>> X.shape, failures                               # (P, K, n, m)
        ((1, 10, 2, 2), {})
        >>> direct = np.array([np.linalg.solve(G[0] + 2j * np.pi * f * C[0],
        ...                                    np.eye(2)) for f in freq])
        >>> scale = np.abs(direct).max(axis=(1, 2), keepdims=True)
        >>> bool(np.all(np.abs(X[0] - direct) <= 1e-12 * scale))
        True
        >>> Z, _ = pencils.solve(freq, np.eye(2), select=[(0, 0), (1, 1)])
        >>> Z.shape                                         # (P, K, pairs)
        (1, 10, 2)
        >>> driving = direct[:, [0, 1], [0, 1]]              # Z(node) entries
        >>> bool(np.allclose(Z[0], driving, rtol=1e-10, atol=0))
        True

    A pencil singular at a requested frequency (a vanishing diagonal
    ``alpha_i + j*omega*beta_i``) fails alone, with the frequency named.
    ``span`` names the trace span reduction and evaluation run in.
    """

    def __init__(self, G, C, span: str = "ac.stacked_batch"):
        self._planes = (np.asarray(G), np.asarray(C))
        self.count = len(self._planes[0])
        self.span = span
        #: Pencils the reduction could not handle -> their exception.
        self.failures: Dict[int, Exception] = {}

    def _reduce(self) -> None:
        G, C = self._planes
        self._planes = None
        count, n = G.shape[0], G.shape[-1]
        self.left, self.right = np.zeros((2, count, n, n), dtype=complex)
        #: ``pairs[p, i, j]`` is ``(AA[i, j], BB[i, j])``.
        self.pairs = np.zeros((count, n, n, 2), dtype=complex)
        finite = (np.isfinite(G).all(axis=(1, 2))
                  & np.isfinite(C).all(axis=(1, 2)))[:, None, None]
        G, C = np.where(finite, G, 0.0), np.where(finite, C, 0.0)
        row, col = _balance(G, C)
        for p in range(count):
            if not finite[p, 0, 0]:
                self.failures[p] = SingularMatrixError(_NON_FINITE)
                continue
            scale = row[p][:, None] * col[p]
            try:
                AA, BB, Q, Z = scipy.linalg.qz(
                    scale * G[p], scale * C[p], output="complex",
                    check_finite=False)
            except (np.linalg.LinAlgError, ValueError) as exc:
                self.failures[p] = SingularMatrixError(
                    f"AC pencil reduction failed: {exc}")
                continue
            self.left[p] = Q.conj().T * row[p]
            self.right[p] = col[p][:, None] * Z
            self.pairs[p] = np.stack([AA, BB], axis=-1)

    def solve(self, frequencies, rhs, select: Optional[Sequence] = None,
              positions: Optional[Sequence[int]] = None,
              chunk_size: Optional[int] = None) -> tuple:
        """``(data, failures)`` of the pencils at ``positions`` (default
        all) for ``rhs`` (one ``(n, m)`` plane, shared or per pencil):
        ``data`` is ``(P, K, n, m)`` or ``(P, K, len(select))``, NaN for
        the positions in ``failures``.  ``chunk_size`` caps a block."""
        freq = np.asarray(frequencies, dtype=float)
        picked = (np.arange(self.count) if positions is None
                  else np.asarray(positions, dtype=np.intp))
        with _span(self.span, pencils=len(picked), frequencies=len(freq)):
            if self._planes is not None:
                self._reduce()
            projected = self.left[picked] @ np.asarray(rhs, dtype=complex)
            count, n, m = projected.shape
            rows, cols = (
                np.indices((n, m)).reshape(2, -1) if select is None
                else np.asarray(select, dtype=np.intp).reshape(-1, 2).T)
            # Entry j is row rows[j] of D_c Z times column cols[j] of Y.
            coef = np.ascontiguousarray(
                self.right[picked][:, rows, :].transpose(0, 2, 1))
            if np.array_equal(cols, np.arange(m)):
                cols = None
            pairs = self.pairs[picked]
            diagonal = np.diagonal(pairs, axis1=1, axis2=2)    # (P, 2, n)
            alpha, beta = diagonal[:, 0, :, None], diagonal[:, 1, :, None]
            out = np.empty((count, len(freq), len(rows)), dtype=complex)
            step = min(chunk_size or len(freq),
                       max(1, _WORKSPACE_BYTES // (count * n * m * 32)))
            # A vanishing diagonal makes the solution non-finite.
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                for k0 in range(0, len(freq), step):
                    omega = 2j * np.pi * freq[k0:k0 + step]
                    out[:, k0:k0 + step] = _evaluate(
                        pairs, 1.0 / (alpha + omega * beta), projected,
                        omega, coef, cols)
            failures = {position: self.failures[p]
                        for position, p in enumerate(picked.tolist())
                        if p in self.failures}
            blown = ~np.isfinite(out).all(axis=2)
            for position in np.flatnonzero(blown.any(axis=1)).tolist():
                failures.setdefault(position, SingularMatrixError(
                    "AC system is singular at "
                    f"{freq[np.argmax(blown[position])]:g} Hz"))
            out[list(failures)] = np.nan
        if select is None:
            out = out.reshape(count, len(freq), n, m)
        return out, failures


def _evaluate(pairs: np.ndarray, inverse_diagonal: np.ndarray,
              projected: np.ndarray, omega: np.ndarray, coef: np.ndarray,
              cols: Optional[np.ndarray]) -> np.ndarray:
    """``(P, K, J)`` solution entries of one block of frequencies.
    ``work`` keeps each solved row ``y_i`` next to ``j*omega*y_i``, so a
    row's tail is one product with the interleaved ``(AA, BB)`` row; rows
    fold into the output elementwise, in one order for every entry."""
    count, n, m = projected.shape
    work = np.empty((count, n, 2, len(omega), m), dtype=complex)
    work[:, :, 0] = projected[:, :, None, :]
    out = np.zeros((count, len(omega), coef.shape[-1]), dtype=complex)
    for i in range(n - 1, -1, -1):
        row = work[:, i, 0]
        if i < n - 1:
            tail = pairs[:, i, i + 1:].reshape(count, 1, -1) @ \
                work[:, i + 1:].reshape(count, 2 * (n - 1 - i), -1)
            row -= tail.reshape(row.shape)
        row *= inverse_diagonal[:, i, :, None]
        if i:
            np.multiply(row, omega[:, None], out=work[:, i, 1])
        out += coef[:, None, i] * (row if cols is None else row[:, :, cols])
    return out


def solve_ac_stacked(G, C, rhs: np.ndarray, frequencies,
                     chunk_size: Optional[int] = None,
                     backend: Union[str, SolverBackend, None] = None,
                     names: Optional[Sequence[str]] = None) -> np.ndarray:
    """Solve ``(G + j*2*pi*f*C) X = rhs`` for every frequency at once.

    ``rhs`` may be a single vector ``(n,)`` (one stimulus — the AC
    analysis) or a matrix ``(n, m)`` (one column per injection site — the
    multi-node impedance sweep); the result has a leading frequency axis,
    ``(K, n)`` or ``(K, n, m)``, regardless of how the frequencies were
    blocked internally::

        >>> import numpy as np
        >>> G = np.array([[2.0, -1.0], [-1.0, 2.0]])   # conductances
        >>> C = np.array([[1e-3, 0.0], [0.0, 1e-3]])   # capacitances
        >>> rhs = np.array([1.0, 0.0])                 # one stimulus
        >>> X = solve_ac_stacked(G, C, rhs, [1.0, 10.0, 100.0], chunk_size=2)
        >>> X.shape                                    # (K frequencies, n)
        (3, 2)
        >>> direct = np.linalg.solve(G + 2j * np.pi * 10.0 * C, rhs)
        >>> bool(np.allclose(X[1], direct))            # blocking is invisible
        True

    The dense backend evaluates a :class:`SchurPencils` reduction; the
    sparse one (automatic for large sparse systems; ``G``/``C`` may then
    be scipy sparse) factorizes each ``G + j*omega*C`` with SuperLU.  A
    singular frequency raises a ``SingularMatrixError`` naming it;
    ``names`` (MNA unknown names) improve sparse diagnostics.
    """
    freq = np.asarray(frequencies, dtype=float)
    if freq.ndim != 1 or len(freq) < 1:
        raise AnalysisError("at least one frequency is required")
    sparse_input = hasattr(G, "tocsc") or hasattr(C, "tocsc")
    if backend is None and sparse_input:
        backend_obj = resolve_backend("sparse")
    else:
        n_unknowns, g_density = matrix_stats(G)
        backend_obj = resolve_backend(backend, size=n_unknowns,
                                      density=max(g_density, matrix_stats(C)[1]))

    # Guard once up front so a pathological linearisation fails loudly
    # instead of poisoning every downstream waveform.
    G_data = G.data if hasattr(G, "tocsc") else G
    C_data = C.data if hasattr(C, "tocsc") else C
    if not (np.all(np.isfinite(G_data)) and np.all(np.isfinite(C_data))):
        raise SingularMatrixError(_NON_FINITE)

    rhs = np.asarray(rhs, dtype=complex)
    single_rhs = rhs.ndim == 1
    B = rhs[:, None] if single_rhs else rhs

    if backend_obj.name == "sparse":
        out = _solve_ac_sparse(G, C, B, freq, backend_obj, names)
    else:
        pencil = SchurPencils(backend_obj.matrix(G)[None],
                              backend_obj.matrix(C)[None], span="ac.stacked")
        solved, failures = pencil.solve(freq, B, chunk_size=chunk_size)
        if failures:
            raise failures[0]
        out = solved[0]
    return out[:, :, 0] if single_rhs else out


def _solve_ac_sparse(G, C, B: np.ndarray, freq: np.ndarray,
                     backend: SolverBackend,
                     names: Optional[Sequence[str]],
                     pattern_key=None) -> np.ndarray:
    """Sparse path: one SuperLU factorization per frequency, all RHS
    columns solved against it at once.  Every ``G + j*omega*C`` of a
    sweep shares one sparsity pattern, so its key is hashed once (or
    passed in, once per same-structure batch) and every factorization
    hits the symbolic-ordering cache."""
    G = backend.matrix(G)
    C = backend.matrix(C)
    n, m = B.shape
    out = np.empty((len(freq), n, m), dtype=complex)
    for k, frequency in enumerate(freq):
        matrix = (G + (2j * np.pi * frequency) * C).tocsc()
        if pattern_key is None:
            pattern_key = csc_pattern_key(matrix)
        try:
            out[k] = LinearSystem(matrix, backend=backend, names=names,
                                  dtype=complex,
                                  pattern_key=pattern_key).solve(B)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"AC system is singular at {frequency:g} Hz: {exc}") from exc
    return out


def solve_ac_batch(batch, frequencies,
                   backend: Union[str, SolverBackend, None] = None
                   ) -> tuple:
    """AC sweeps of a *linear* circuit for a whole scenario batch.

    ``batch`` is a :class:`~repro.analysis.compiled.BatchStampState`
    over one topology; every sample's small-signal system is its static
    ``(G_k, C_k)`` (linear circuits have no operating-point companions).
    The dense backend reduces every sample's pencil
    (:class:`SchurPencils`) and evaluates them together; the sparse
    backend runs each sample's stacked sparse sweep.

    Returns ``(data, failures)``: ``data[k]`` is sample ``k``'s
    ``(K, n)`` complex response and ``failures`` maps failed samples
    (restamp failures carried in from the batch, zero AC stimulus, a
    singular frequency) to their exception; failed slabs are NaN.
    """
    with _span("analysis.ac_batch", samples=len(batch)):
        compiled = batch.compiled
        if not compiled.is_linear:
            raise AnalysisError(
                "solve_ac_batch only handles linear circuits; nonlinear "
                "scenarios linearise per sample through ac_analysis")
        freq = np.asarray(frequencies, dtype=float)
        if freq.ndim != 1 or len(freq) < 1:
            raise AnalysisError("at least one frequency is required")
        n = compiled.size
        density = max(compiled.pattern_G.density(),
                      compiled.pattern_C.density())
        backend_obj = resolve_backend(backend, size=n, density=density)
        data = np.full((len(batch), len(freq), n), np.nan, dtype=complex)
        failures = dict(batch.failures)
        for index in range(len(batch)):
            if index not in failures and not np.any(batch.b_ac[index]):
                failures[index] = AnalysisError(
                    "AC analysis needs at least one source with a non-zero "
                    "AC magnitude")
        healthy = [k for k in range(len(batch)) if k not in failures]
        if backend_obj.name == "sparse":
            for sample in healthy:
                state = batch.sample(sample)
                try:
                    data[sample] = solve_ac_stacked(
                        state.G_csc(), state.C_csc(), state.b_ac, freq,
                        backend=backend_obj, names=compiled.variable_names)
                except (SingularMatrixError, AnalysisError) as exc:
                    failures[sample] = exc
                    data[sample] = np.nan
        elif healthy:
            G = compiled.pattern_G.to_dense_batch(batch.g_values[healthy])
            C = compiled.pattern_C.to_dense_batch(batch.c_values[healthy])
            solved, bad = SchurPencils(G, C, span="analysis.ac_batch").solve(
                freq, batch.b_ac[healthy][:, :, None])
            data[healthy] = solved[..., 0]
            failures.update({healthy[p]: exc for p, exc in bad.items()})
    return data, failures


def solve_ac_stacked_batch(lin, rhs, frequencies,
                           backend: Union[str, SolverBackend, None] = None,
                           select: Optional[Sequence] = None) -> tuple:
    """Frequency sweeps of a whole linearized batch.

    ``lin`` is a :class:`~repro.analysis.compiled.BatchLinearization` —
    N samples' small-signal ``G``/``C`` value planes over one shared
    pattern.  ``rhs`` is either one shared ``(n, m)`` excitation plane
    (one column per injection site — the multi-node impedance cube) or a
    per-sample ``(N, n, m)`` stack (the batched nonlinear AC path).  On
    the dense backend every healthy sample's pencil is reduced
    (:class:`SchurPencils`) and all samples are evaluated together; on
    the sparse backend samples run one after another under one pattern
    key, so every factorization shares one cached symbolic ordering.

    ``select`` (optional) lists ``(row, col)`` entries of each
    per-frequency solution to keep; the result is then
    ``(N, K, len(select))`` — the impedance sweep keeps only
    ``Z(node_c) = X[node_c, c]``.

    Returns ``(data, failures)``: failed samples (linearization failures
    carried in from ``lin``, non-finite planes, a singular frequency
    point) map to their exception and their slabs are NaN — one poisoned
    sample never hurts its batchmates.
    """
    freq = np.asarray(frequencies, dtype=float)
    if freq.ndim != 1 or len(freq) < 1:
        raise AnalysisError("at least one frequency is required")
    n = lin.pattern.n
    n_samples = len(lin)
    rhs = np.asarray(rhs, dtype=complex)
    per_sample_rhs = rhs.ndim == 3
    if rhs.ndim != 2 and not (per_sample_rhs and len(rhs) == n_samples):
        raise AnalysisError(
            "rhs must be (n, m) shared across samples or (N, n, m) "
            f"per-sample; got shape {rhs.shape} for {n_samples} samples")
    entry = (len(select),) if select is not None else (n, rhs.shape[-1])
    data = np.full((n_samples, len(freq)) + entry, np.nan, dtype=complex)

    finite = (np.isfinite(lin.g_values).all(axis=1)
              & np.isfinite(lin.c_values).all(axis=1))
    failures = {int(k): SingularMatrixError(_NON_FINITE)
                for k in np.flatnonzero(~finite)}
    failures.update(lin.failures)
    healthy = [k for k in range(n_samples) if k not in failures]

    span = _span("ac.stacked_batch", samples=n_samples,
                 frequencies=len(freq), select=len(select) if select else 0)
    with span:
        if healthy:
            density = max(lin.pattern.density(), lin.cap_pattern.density())
            backend_obj = resolve_backend(backend, size=n, density=density)
            if backend_obj.name == "sparse":
                _stacked_batch_sparse(lin, rhs, per_sample_rhs, freq, healthy,
                                      backend_obj, lin.compiled.variable_names,
                                      select, data, failures)
            else:
                solved, bad = linearization_pencils(lin, healthy).solve(
                    freq, rhs[healthy] if per_sample_rhs else rhs,
                    select=select)
                data[healthy] = solved
                failures.update({healthy[p]: exc for p, exc in bad.items()})
        span.set(failures=len(failures))
    return data, failures


def linearization_pencils(lin, samples: Sequence[int]) -> SchurPencils:
    """The reduced pencils of ``samples`` of a
    :class:`~repro.analysis.compiled.BatchLinearization`, in order."""
    return SchurPencils(lin.pattern.to_dense_batch(lin.g_values[samples]),
                        lin.cap_pattern.to_dense_batch(lin.c_values[samples]))


def _stacked_batch_sparse(lin, rhs, per_sample_rhs, freq, healthy,
                          backend_obj, names, select, data, failures) -> None:
    """Sparse kernel: per-sample frequency loops under one shared pattern
    key, so every factorization hits the cached symbolic ordering."""
    if select is not None:
        sel_rows, sel_cols = np.asarray(select, dtype=np.intp).T
    pattern_key = None
    for sample in healthy:
        G = lin.pattern.to_csc(lin.g_values[sample])
        C = lin.cap_pattern.to_csc(lin.c_values[sample])
        if pattern_key is None:
            probe = (G + (2j * np.pi * freq[0]) * C).tocsc()
            pattern_key = csc_pattern_key(probe)
        B = rhs[sample] if per_sample_rhs else rhs
        try:
            solved = _solve_ac_sparse(G, C, B, freq, backend_obj, names,
                                      pattern_key=pattern_key)
        except (SingularMatrixError, AnalysisError) as exc:
            failures[sample] = exc
            data[sample] = np.nan
            continue
        if select is not None:
            data[sample] = solved[:, sel_rows, sel_cols]
        else:
            data[sample] = solved


def ac_analysis(circuit: Optional[Circuit],
                sweep: Union[FrequencySweep, Sequence[float], None] = None,
                temperature: float = 27.0,
                gmin: float = 1e-12,
                variables: Optional[Dict[str, float]] = None,
                op: Optional[OPResult] = None,
                options: Optional[NewtonOptions] = None,
                backend: Union[str, SolverBackend, None] = None,
                compiled: Optional[CompiledCircuit] = None) -> ACResult:
    """Run a small-signal AC sweep and return an :class:`ACResult`.

    Parameters
    ----------
    circuit:
        Circuit containing at least one source with an AC stimulus.
    sweep:
        A :class:`FrequencySweep`, an explicit array of frequencies, or
        ``None`` for the default wide log sweep.
    op:
        A previously computed operating point.  When omitted it is
        computed here.  Passing one is how the all-nodes stability run
        avoids recomputing the bias point for every node.
    backend:
        Linear-solver backend: ``"dense"``, ``"sparse"`` or ``None``/
        ``"auto"`` (size/density heuristic; ``REPRO_BACKEND`` overrides).
    compiled:
        A precompiled circuit structure — scenario sweeps compile the
        topology once and restamp values per sample; ``circuit`` may
        then be ``None``.
    """
    sweep = FrequencySweep.coerce(sweep)
    if circuit is None:
        if compiled is None:
            raise AnalysisError("ac_analysis needs a circuit or a "
                                "precompiled CompiledCircuit")
        circuit = compiled.circuit
    ctx = AnalysisContext(temperature=temperature, gmin=gmin,
                          variables=dict(circuit.variables))
    if variables:
        ctx.update_variables(variables)
    system = MNASystem(circuit, ctx, backend=backend, compiled=compiled)
    system.stamp()

    if not np.any(system.b_ac):
        raise AnalysisError("AC analysis needs at least one source with a "
                            "non-zero AC magnitude")

    if op is None:
        op = operating_point(circuit, options=options, system=system)
        x_op = op.x
    else:
        # The caller's OP may have been computed on a different (but
        # structurally compatible) system; map values by variable name so
        # that extra elements (e.g. an injected AC current source) do not
        # disturb the bias point.
        x_op = np.zeros(system.size)
        for i, name in enumerate(system.variable_names):
            if op.has(name):
                x_op[i] = op.current(name) if name.startswith("#branch:") else op.voltage(name)

    form = "sparse" if system.backend.name == "sparse" else "dense"
    G_ss, C_ss = system.small_signal_matrices(x_op, form=form)

    frequencies = sweep.frequencies
    data = solve_ac_stacked(G_ss, C_ss, system.b_ac, frequencies,
                            backend=system.backend,
                            names=system.variable_names)
    return ACResult(system.variable_names, frequencies, data, op=op)
