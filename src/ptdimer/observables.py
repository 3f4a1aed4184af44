"""Columnar observable trajectories shared by the three evolution engines.

Raw moments are unnormalized expectations <c^dag c>, <d^dag d>, <c^dag d>;
renormalized occupations divide by the total <N> so that n_a + n_b = 1. A
trajectory holds one array per observable with one entry per sample: the raw
moments, the state weight (trace or squared norm) and, for the non-Hermitian
engine, the quartic loss moments entering the occupation ODEs. The recorders
turn an engine's whole stack of sampled states, or of the entries it
evolves, into these columns in one call; their sanity checks raise
FloatingPointError. A trajectory warns where the renormalized ratios are
undefined (<N> <= 0) or may be made of numerical error (0 < <N> < atol).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# mode_annihilator is unused here but stays importable: perfbench/tracing.py
# times it as a site of this module
from .fock import HOP, FockSpace, ladder, mode_annihilator  # noqa: F401
from .ode import IntegratorStats


def renormalized_ratios(x, y, z):
    """(n_a, n_b, g1) = (x, y, z)/(x + y); NaN where x + y <= 0."""
    total = x + y
    total = np.where(total > 0.0, total, np.nan)
    # g1 part by part: numpy's complex division overflows on a subnormal <N>
    with np.errstate(over="ignore"):
        g1 = (z.real / total).astype(complex)
        g1.imag = z.imag / total
        return x / total, y / total, g1


@dataclass
class ObservableTrajectory:
    """Observable columns of one engine run, one entry per sample time."""

    engine: str
    omega_b: float
    times: np.ndarray
    n_a_raw: np.ndarray
    n_b_raw: np.ndarray
    coherence: np.ndarray
    weight: np.ndarray
    quartic_a: np.ndarray | None = None
    quartic_b: np.ndarray | None = None
    stats: IntegratorStats | None = None
    warnings: list[str] = field(default_factory=list)
    snapshots: np.ndarray | None = None
    atol: float = 0.0  # integrator atol: positive <N> below it is flagged
    n_a: np.ndarray = field(init=False, repr=False)
    n_b: np.ndarray = field(init=False, repr=False)
    g1: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.n_a, self.n_b, self.g1 = renormalized_ratios(
            self.n_a_raw, self.n_b_raw, self.coherence)
        total = self.n_a_raw + self.n_b_raw
        for what, bad in (
                (f"loss of significance: 0 < <N> < atol={self.atol:.1e}",
                 (total > 0.0) & (total < self.atol)),
                ("renormalized observables undefined (<N> <= 0)",
                 np.isnan(self.n_a))):
            hits = np.flatnonzero(bad)
            if hits.size:
                self.warnings.append(f"{what} at {hits.size} samples, first at "
                                     f"t={self.times[hits[0]]:.6e}")


def _require_real(imag: np.ndarray, tol: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(np.abs(imag) > tol)
    if bad.size:
        i = bad[0]
        raise FloatingPointError(f"{what} has imaginary part {imag[i]:.3e} "
                                 f"beyond tolerance {tol[i]:.1e}")


class ObservableOps:
    """Expectation data of the joint Fock space, for whole state stacks.

    With ``keep`` (sorted basis indices) the recorders take states restricted
    to those indices, as the engines evolve them; with ``at`` (one index array
    per axis of a state) each sample holds only those entries, the rest 0.
    """

    def __init__(self, space: FockSpace, gamma_a: float = 0.0,
                 gamma_b: float = 0.0, keep=None, at=None) -> None:
        self._dim = space.dim
        self._keep = np.arange(space.dim) if keep is None else keep
        self._at = at
        self._every = np.arange(len(self._keep))
        if at is not None:  # position of each entry in a sample, or -1
            self._where = np.full((len(self._keep),) * len(at), -1)
            self._where[at] = np.arange(len(at[0]))
        hop = ladder(space, HOP, self._keep)
        # tr(c^dag d rho) = sum_k data_k rho[col_k, row_k], nonzeros row-major
        self._hop_row, self._hop_col = np.nonzero(hop)
        self._hop_data = hop[self._hop_row, self._hop_col]
        diag_a, diag_b = (n[self._keep] for n in space.number_diagonals())
        self._diag_a, self._diag_b = diag_a, diag_b
        loss = gamma_a * diag_a + gamma_b * diag_b
        self._quartic_a = diag_a * loss
        self._quartic_b = diag_b * loss
        self._top = ((diag_a == space.dim_a - 1)
                     | (diag_b == space.dim_b - 1)).astype(float)

    def _gather(self, states: np.ndarray, idx: tuple) -> np.ndarray:
        """Entries ``idx`` (a tuple of index arrays) of every sampled state."""
        if self._at is None:
            return states[(slice(None),) + idx]
        pos = self._where[idx]
        out = states[:, pos]
        out[:, pos < 0] = 0.0
        return out

    def _populations(self, states: np.ndarray) -> np.ndarray:
        """Diagonal populations (S, k) of a vector or density stack."""
        if (states.ndim - 1 if self._at is None else len(self._at)) == 1:
            return np.abs(self._gather(states, (self._every,))) ** 2
        return self._gather(states, (self._every,) * 2).real

    def embed(self, states: np.ndarray) -> np.ndarray:
        """Full-space stack (S, d) or (S, d, d), exactly zero outside ``at``."""
        full = np.zeros((len(states),) + (self._dim,) * len(self._at),
                        dtype=states.dtype)
        full[(slice(None),) + tuple(self._keep[i] for i in self._at)] = states
        return full

    def leakage_warnings(self, times, states) -> list[str]:
        """Truncation-leakage warning of a run, if any.

        ``states`` is the stack of states sampled at ``times``. Warns once the
        top Fock level of either mode holds more than 1e-6, naming the largest
        such population and the first time it occurs.
        """
        leaks = self._populations(states) @ self._top
        if not leaks.size or leaks.max() <= 1e-6:
            return []
        k = int(np.argmax(leaks))
        return [f"truncation leakage: top-level population "
                f"{leaks[k]:.3e} at t={times[k]:.6e}"]

    # -- stack recorders ---------------------------------------------------

    def record_from_density(self, rhos: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a Lindblad density stack; no quartics."""
        diag = self._gather(rhos, (self._every,) * 2)
        scale = np.maximum(1.0, np.abs(diag.real).sum(axis=1))
        tol = 1e-10 * scale
        _require_real(diag.imag @ self._diag_a, tol, "<c^dag c>")
        _require_real(diag.imag @ self._diag_b, tol, "<d^dag d>")
        _require_real(diag.imag.sum(axis=1), tol, "trace")
        return self._columns(diag.real, scale, self._hop_mixed(rhos),
                             diag.real.sum(axis=1), quartics=False)

    def record_from_pure(self, psis: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a state-vector stack, with quartics."""
        pops = self._populations(psis)
        weight = pops.sum(axis=1)
        hop = (self._gather(psis, (self._hop_row,)).conj()
               * self._gather(psis, (self._hop_col,))) @ self._hop_data
        return self._columns(pops, np.maximum(1.0, weight), hop, weight)

    def record_from_nh_density(self, rhos: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a non-Hermitian density stack, with quartics."""
        pops = self._populations(rhos)
        weight = pops.sum(axis=1)
        return self._columns(pops, np.maximum(1.0, np.abs(weight)),
                             self._hop_mixed(rhos), weight)

    def _hop_mixed(self, rhos: np.ndarray) -> np.ndarray:
        return self._gather(rhos, (self._hop_col, self._hop_row)) \
            @ self._hop_data

    def _columns(self, pops, scale, coherence, weight,
                 quartics: bool = True) -> dict[str, np.ndarray]:
        """Raw occupations from populations (S, d), checked against a
        per-sample floor of -1e-10 * scale, plus the quartics if asked."""
        x = pops @ self._diag_a
        y = pops @ self._diag_b
        bad = np.flatnonzero((x < -1e-10 * scale) | (y < -1e-10 * scale))
        if bad.size:
            i = bad[0]
            raise FloatingPointError(f"raw occupation negative beyond "
                                     f"tolerance: ({x[i]:.3e}, {y[i]:.3e})")
        cols = {"n_a_raw": x, "n_b_raw": y, "coherence": coherence,
                "weight": weight}
        if quartics:
            cols["quartic_a"] = pops @ self._quartic_a
            cols["quartic_b"] = pops @ self._quartic_b
        return cols


def derivative_residual(traj: ObservableTrajectory, params, columns,
                        rates) -> float:
    """Largest gap over interior samples between the central differences of
    ``columns`` and their ``rates``, in time units of the fastest rate
    max(gamma_a, gamma_b, 2g) so that it is dimensionless; needs 5 samples."""
    if len(traj.times) < 5:
        raise ValueError("insufficient sampling density for finite differences")
    scale = max(params.gamma_a, params.gamma_b, 2.0 * params.g)
    if scale <= 0.0:
        raise ValueError("all rates vanish; residual scale undefined")
    tau = traj.times * scale
    return float(max(np.abs(np.gradient(col, tau, edge_order=2)
                            - rate / scale)[1:-1].max()
                     for col, rate in zip(columns, rates)))


def record_from_moments(n_mats: np.ndarray) -> dict[str, np.ndarray]:
    """Columns of a stack (S, 2, 2) of second moments N_jk = <v_j^dag v_k>."""
    x = n_mats[:, 0, 0].real
    y = n_mats[:, 1, 1].real
    if np.any(np.minimum(x, y) < -1e-10 * np.maximum(1.0, x + y)):
        raise FloatingPointError("moment diagonal negative beyond tolerance")
    return {"n_a_raw": x, "n_b_raw": y, "coherence": n_mats[:, 0, 1],
            "weight": np.ones(len(x))}
