"""Observable records shared by the three evolution engines.

Raw moments are unnormalized expectations <c^dag c>, <d^dag d>, <c^dag d>;
renormalized occupations divide by the total <N> so that n_a + n_b = 1. The
record also carries the state weight (trace or squared norm) and, for the
non-Hermitian engine, the quartic loss moments entering the occupation ODEs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import FockSpace, mode_annihilator
from .ode import IntegratorStats


@dataclass(frozen=True)
class ObservableRecord:
    t: float
    n_a_raw: float
    n_b_raw: float
    coherence: complex
    weight: float
    n_a: float
    n_b: float
    g1: complex
    quartic_a: float | None = None
    quartic_b: float | None = None


@dataclass
class ObservableTrajectory:
    """Time series of ObservableRecords produced by one engine."""

    engine: str
    omega_b: float
    times: np.ndarray
    records: list[ObservableRecord]
    stats: IntegratorStats | None = None
    warnings: list[str] = field(default_factory=list)
    snapshots: list | None = None

    def _array(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    @property
    def n_a_raw(self) -> np.ndarray:
        return self._array("n_a_raw")

    @property
    def n_b_raw(self) -> np.ndarray:
        return self._array("n_b_raw")

    @property
    def coherence(self) -> np.ndarray:
        return self._array("coherence")

    @property
    def weight(self) -> np.ndarray:
        return self._array("weight")

    @property
    def n_a(self) -> np.ndarray:
        return self._array("n_a")

    @property
    def n_b(self) -> np.ndarray:
        return self._array("n_b")

    @property
    def g1(self) -> np.ndarray:
        return self._array("g1")

    @property
    def quartic_a(self) -> np.ndarray:
        return self._array("quartic_a")

    @property
    def quartic_b(self) -> np.ndarray:
        return self._array("quartic_b")


def _require_real(value: complex, tol: float, what: str) -> float:
    if abs(value.imag) > tol:
        raise ValueError(f"{what} has imaginary part {value.imag:.3e} "
                         f"beyond tolerance {tol:.1e}")
    return float(value.real)


def renormalized_ratios(x: float, y: float, z: complex,
                        strict: bool = False) -> tuple[float, float, complex]:
    """(n_a, n_b, g1) = (x, y, z)/(x + y); NaN (or raise) when <N> vanishes."""
    total = x + y
    if total <= 0.0:
        if strict:
            raise ValueError("renormalized observables are undefined: "
                             "total occupation <N> is zero")
        return math.nan, math.nan, complex(math.nan, math.nan)
    return x / total, y / total, z / total


class ObservableOps:
    """Precomputed sparse expectation operators on a joint Fock space."""

    def __init__(self, space: FockSpace, gamma_a: float = 0.0,
                 gamma_b: float = 0.0) -> None:
        self.space = space
        c = mode_annihilator("a", space)
        d = mode_annihilator("b", space)
        self.num_a = (c.dag() @ c).matrix
        self.num_b = (d.dag() @ d).matrix
        self.hop = (c.dag() @ d).matrix
        diag_a, diag_b = space.number_diagonals()
        self._diag_a = diag_a
        self._diag_b = diag_b
        loss = gamma_a * diag_a + gamma_b * diag_b
        self._quartic_a = diag_a * loss
        self._quartic_b = diag_b * loss
        self._top_mask = (diag_a == space.dim_a - 1) | (diag_b == space.dim_b - 1)

    # -- expectation primitives ------------------------------------------

    @staticmethod
    def expect_pure(op, psi: np.ndarray) -> complex:
        return complex(np.vdot(psi, op @ psi))

    @staticmethod
    def expect_mixed(op, rho: np.ndarray) -> complex:
        # tr(O rho) as an elementwise sparse contraction with rho^T
        return complex(op.multiply(rho.T).sum())

    def top_level_population(self, diag_populations: np.ndarray) -> float:
        return float(diag_populations[self._top_mask].sum())

    def leakage_warnings(self, times, populations) -> list[str]:
        """Truncation-leakage warning of a run, if any.

        ``populations`` holds the diagonal populations at each of ``times``.
        Warns once the top Fock level of either mode holds more than 1e-6,
        naming the largest such population and the first time it occurs.
        """
        leaks = [self.top_level_population(p) for p in populations]
        if not leaks or max(leaks) <= 1e-6:
            return []
        k = int(np.argmax(leaks))
        return [f"truncation leakage: top-level population "
                f"{leaks[k]:.3e} at t={times[k]:.6e}"]

    # -- record builders ---------------------------------------------------

    def record_from_density(self, t: float, rho: np.ndarray) -> ObservableRecord:
        pops = np.abs(np.diagonal(rho).real)
        scale = max(1.0, float(pops.sum()))
        x = _require_real(self.expect_mixed(self.num_a, rho), 1e-10 * scale,
                          "<c^dag c>")
        y = _require_real(self.expect_mixed(self.num_b, rho), 1e-10 * scale,
                          "<d^dag d>")
        z = self.expect_mixed(self.hop, rho)
        tr = _require_real(complex(np.trace(rho)), 1e-10 * scale, "trace")
        self._check_nonnegative(x, y, scale)
        n_a, n_b, g1 = renormalized_ratios(x, y, z)
        return ObservableRecord(t, x, y, z, tr, n_a, n_b, g1)

    def record_from_pure(self, t: float, psi: np.ndarray,
                         quartics: bool = False) -> ObservableRecord:
        weight = float(np.vdot(psi, psi).real)
        scale = max(1.0, weight)
        pops = np.abs(psi) ** 2
        x = float(np.dot(self._diag_a, pops))
        y = float(np.dot(self._diag_b, pops))
        z = self.expect_pure(self.hop, psi)
        self._check_nonnegative(x, y, scale)
        n_a, n_b, g1 = renormalized_ratios(x, y, z)
        qa = qb = None
        if quartics:
            qa = float(np.dot(self._quartic_a, pops))
            qb = float(np.dot(self._quartic_b, pops))
        return ObservableRecord(t, x, y, z, weight, n_a, n_b, g1, qa, qb)

    def record_from_nh_density(self, t: float, rho: np.ndarray,
                               quartics: bool = True) -> ObservableRecord:
        pops = np.diagonal(rho).real
        weight = float(pops.sum())
        scale = max(1.0, abs(weight))
        x = float(np.dot(self._diag_a, pops))
        y = float(np.dot(self._diag_b, pops))
        z = self.expect_mixed(self.hop, rho)
        self._check_nonnegative(x, y, scale)
        n_a, n_b, g1 = renormalized_ratios(x, y, z)
        qa = qb = None
        if quartics:
            qa = float(np.dot(self._quartic_a, pops))
            qb = float(np.dot(self._quartic_b, pops))
        return ObservableRecord(t, x, y, z, weight, n_a, n_b, g1, qa, qb)

    @staticmethod
    def _check_nonnegative(x: float, y: float, scale: float) -> None:
        floor = -1e-10 * scale
        if x < floor or y < floor:
            raise ValueError(f"raw occupation negative beyond tolerance: "
                             f"({x:.3e}, {y:.3e})")


def record_from_moments(t: float, n_mat: np.ndarray) -> ObservableRecord:
    """ObservableRecord from a 2x2 second-moment matrix N_jk = <v_j^dag v_k>."""
    x = float(n_mat[0, 0].real)
    y = float(n_mat[1, 1].real)
    z = complex(n_mat[0, 1])
    scale = max(1.0, x + y)
    if min(x, y) < -1e-10 * scale:
        raise ValueError("moment diagonal negative beyond tolerance")
    n_a, n_b, g1 = renormalized_ratios(x, y, z)
    return ObservableRecord(t, x, y, z, 1.0, n_a, n_b, g1)
