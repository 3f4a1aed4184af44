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
from .fock import HOP, FockSpace, _move, mode_annihilator  # noqa: F401
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

    ``entries`` names the entries each sample of a stack holds, as the
    engines evolve them: one full-space index array per axis of the state,
    (i,) for vectors or (row, col) for density matrices. Entries left out are
    0. Without ``entries`` each sample is a whole state, (d,) or (d, d).
    """

    def __init__(self, space: FockSpace, gamma_a: float = 0.0,
                 gamma_b: float = 0.0, entries=None) -> None:
        self._space = space
        self._gammas = (gamma_a, gamma_b)
        self._entries = entries
        if entries is not None:
            self._index(entries)

    def _index(self, entries) -> None:
        """Positions of the diagonal entries with their number data, and of
        the hop pairs with their sqrt(n) factors, ordered by hop target."""
        space = self._space
        first = entries[0]
        # the hop target n + (1, -1) grows with n, so sources in entry order
        # are also in target order
        target, factor, inside = (a[first] for a in _move(space, HOP))
        if len(entries) == 1:
            self._diag = np.arange(first.size)
            at = np.minimum(np.searchsorted(first, target), first.size - 1)
            source = np.flatnonzero(inside & (first[at] == target))
            # <c^dag d> = sum conj(psi[target]) psi[source] factor
            self._hop = (at[source], source)
        else:
            self._diag = np.flatnonzero(first == entries[1])
            source = np.flatnonzero(inside & (entries[1] == target))
            # <c^dag d> = sum rho[source, target] factor
            self._hop = (source,)
        self._hop_data = factor[source].astype(complex)
        basis = first[self._diag]
        diag_a, diag_b = (n[basis] for n in space.number_diagonals())
        self._diag_a, self._diag_b = diag_a, diag_b
        loss = self._gammas[0] * diag_a + self._gammas[1] * diag_b
        self._quartic_a = diag_a * loss
        self._quartic_b = diag_b * loss
        self._top = ((diag_a == space.dim_a - 1)
                     | (diag_b == space.dim_b - 1)).astype(float)

    def _flat(self, states: np.ndarray, axes: int) -> np.ndarray:
        """(S, n) stack of the entries; whole states are flattened."""
        if self._entries is not None:
            return states
        dim = self._space.dim
        every = np.arange(dim**axes)
        self._index((every,) if axes == 1 else np.divmod(every, dim))
        return states.reshape(len(states), -1)

    def embed(self, states: np.ndarray) -> np.ndarray:
        """Full-space stack (S, d) or (S, d, d), exactly zero outside the
        entries."""
        shape = (len(states),) + (self._space.dim,) * len(self._entries)
        full = np.zeros(shape, dtype=states.dtype)
        full[(slice(None),) + tuple(self._entries)] = states
        return full

    def leakage_warnings(self, times, states) -> list[str]:
        """Truncation-leakage warning of a run, if any.

        ``states`` is the stack of states sampled at ``times``. Warns once the
        top Fock level of either mode holds more than 1e-6, naming the largest
        such population and the first time it occurs.
        """
        diag = states[:, self._diag]
        pops = np.abs(diag) ** 2 if len(self._entries) == 1 else diag.real
        leaks = pops @ self._top
        if not leaks.size or leaks.max() <= 1e-6:
            return []
        k = int(np.argmax(leaks))
        return [f"truncation leakage: top-level population "
                f"{leaks[k]:.3e} at t={times[k]:.6e}"]

    # -- stack recorders ---------------------------------------------------

    def record_from_density(self, rhos: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a Lindblad density stack; no quartics."""
        rhos = self._flat(rhos, 2)
        diag = rhos[:, self._diag]
        scale = np.maximum(1.0, np.abs(diag.real).sum(axis=1))
        tol = 1e-10 * scale
        _require_real(diag.imag @ self._diag_a, tol, "<c^dag c>")
        _require_real(diag.imag @ self._diag_b, tol, "<d^dag d>")
        _require_real(diag.imag.sum(axis=1), tol, "trace")
        return self._columns(diag.real, scale, rhos[:, self._hop[0]]
                             @ self._hop_data, diag.real.sum(axis=1),
                             quartics=False)

    def record_from_pure(self, psis: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a state-vector stack, with quartics."""
        psis = self._flat(psis, 1)
        pops = np.abs(psis[:, self._diag]) ** 2
        weight = pops.sum(axis=1)
        target, source = self._hop
        hop = (psis[:, target].conj() * psis[:, source]) @ self._hop_data
        return self._columns(pops, np.maximum(1.0, weight), hop, weight)

    def record_from_nh_density(self, rhos: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a non-Hermitian density stack, with quartics."""
        rhos = self._flat(rhos, 2)
        pops = rhos[:, self._diag].real
        weight = pops.sum(axis=1)
        return self._columns(pops, np.maximum(1.0, np.abs(weight)),
                             rhos[:, self._hop[0]] @ self._hop_data, weight)

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


def record_from_moments(n00: np.ndarray, n01: np.ndarray,
                        n11: np.ndarray) -> dict[str, np.ndarray]:
    """Columns of the second moments N_jk = <v_j^dag v_k>, given as the
    sampled entries N00, N01 and N11."""
    x = n00.real
    y = n11.real
    if np.any(np.minimum(x, y) < -1e-10 * np.maximum(1.0, x + y)):
        raise FloatingPointError("moment diagonal negative beyond tolerance")
    return {"n_a_raw": x, "n_b_raw": y, "coherence": n01,
            "weight": np.ones(len(x))}
