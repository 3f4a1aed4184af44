"""Columnar observable trajectories shared by the three evolution engines.

Raw moments are unnormalized expectations <c^dag c>, <d^dag d>, <c^dag d>;
renormalized occupations divide by the total <N> so that n_a + n_b = 1. A
trajectory holds one array per observable with one entry per sample: the raw
moments, the state weight (trace or squared norm) and, for the non-Hermitian
engine, the quartic loss moments entering the occupation ODEs. The recorders
turn an engine's whole stack of sampled states into these columns in one
call; their sanity checks raise FloatingPointError. A trajectory warns where
the renormalized ratios are undefined (<N> <= 0) or made of integration error
(0 < <N> < atol).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import FockSpace, mode_annihilator
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


def _populations(states: np.ndarray) -> np.ndarray:
    """Diagonal populations (S, d) of a vector (S, d) or density (S, d, d) stack."""
    if states.ndim == 2:
        return np.abs(states) ** 2
    return np.diagonal(states, axis1=1, axis2=2).real


class ObservableOps:
    """Expectation data of the joint Fock space, for whole state stacks.

    With ``keep`` (sorted basis indices) the recorders take states restricted
    to those indices, as the engines evolve them.
    """

    def __init__(self, space: FockSpace, gamma_a: float = 0.0,
                 gamma_b: float = 0.0, keep=None) -> None:
        self._dim = space.dim
        self._keep = np.arange(space.dim) if keep is None else keep
        c = mode_annihilator("a", space)
        d = mode_annihilator("b", space)
        hop = (c.dag() @ d).toarray(self._keep)
        # tr(c^dag d rho) = sum_k data_k rho[col_k, row_k], nonzeros row-major
        self._hop_row, self._hop_col = np.nonzero(hop)
        self._hop_data = hop[self._hop_row, self._hop_col]
        diag_a, diag_b = (n[self._keep] for n in space.number_diagonals())
        self._diag_a = diag_a
        self._diag_b = diag_b
        loss = gamma_a * diag_a + gamma_b * diag_b
        self._quartic_a = diag_a * loss
        self._quartic_b = diag_b * loss
        self._top = ((diag_a == space.dim_a - 1)
                     | (diag_b == space.dim_b - 1)).astype(float)

    def embed(self, states: np.ndarray) -> np.ndarray:
        """Full-space copy of a restricted stack (S, k) or (S, k, k), exactly
        zero outside ``keep``."""
        axes = states.ndim - 1
        full = np.zeros((len(states),) + (self._dim,) * axes, dtype=states.dtype)
        full[(slice(None),) + np.ix_(*[self._keep] * axes)] = states
        return full

    def leakage_warnings(self, times, states) -> list[str]:
        """Truncation-leakage warning of a run, if any.

        ``states`` is the stack of states sampled at ``times``. Warns once the
        top Fock level of either mode holds more than 1e-6, naming the largest
        such population and the first time it occurs.
        """
        leaks = _populations(states) @ self._top
        if not leaks.size or leaks.max() <= 1e-6:
            return []
        k = int(np.argmax(leaks))
        return [f"truncation leakage: top-level population "
                f"{leaks[k]:.3e} at t={times[k]:.6e}"]

    # -- stack recorders ---------------------------------------------------

    def record_from_density(self, rhos: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a Lindblad density stack (S, d, d); no quartics."""
        diag = np.diagonal(rhos, axis1=1, axis2=2)
        scale = np.maximum(1.0, np.abs(diag.real).sum(axis=1))
        tol = 1e-10 * scale
        _require_real(diag.imag @ self._diag_a, tol, "<c^dag c>")
        _require_real(diag.imag @ self._diag_b, tol, "<d^dag d>")
        _require_real(diag.imag.sum(axis=1), tol, "trace")
        return self._columns(diag.real, scale, self._hop_mixed(rhos),
                             diag.real.sum(axis=1), quartics=False)

    def record_from_pure(self, psis: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a state-vector stack (S, d), with quartics."""
        pops = _populations(psis)
        weight = pops.sum(axis=1)
        hop = (psis[:, self._hop_row].conj() * psis[:, self._hop_col]) \
            @ self._hop_data
        return self._columns(pops, np.maximum(1.0, weight), hop, weight)

    def record_from_nh_density(self, rhos: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a non-Hermitian density stack (S, d, d), with quartics."""
        pops = _populations(rhos)
        weight = pops.sum(axis=1)
        return self._columns(pops, np.maximum(1.0, np.abs(weight)),
                             self._hop_mixed(rhos), weight)

    def _hop_mixed(self, rhos: np.ndarray) -> np.ndarray:
        return rhos[:, self._hop_col, self._hop_row] @ self._hop_data

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


def record_from_moments(n_mats: np.ndarray) -> dict[str, np.ndarray]:
    """Columns of a stack (S, 2, 2) of second moments N_jk = <v_j^dag v_k>."""
    x = n_mats[:, 0, 0].real
    y = n_mats[:, 1, 1].real
    if np.any(np.minimum(x, y) < -1e-10 * np.maximum(1.0, x + y)):
        raise FloatingPointError("moment diagonal negative beyond tolerance")
    return {"n_a_raw": x, "n_b_raw": y, "coherence": n_mats[:, 0, 1],
            "weight": np.ones(len(x))}
