"""Truncated two-mode Fock space: ladder operators, states, and Hamiltonians.

Joint basis ordering is mode-a major: |n_a, n_b> sits at index n_a*dim_b + n_b.
Every operator of the model is one ladder move with its sqrt(n) factors (c,
c^dag, d, d^dag, the hop c^dag d) or a number diagonal
(``FockSpace.number_diagonals``). ``_move`` applies a move to every basis
index by index arithmetic; the engines close their block and read every term
of their generator from it (``lindblad.liouville_block``), and ``ladder``
writes a move as a dense matrix for tests and direct callers. The dense
Hamiltonians are in the frame rotating at omega_b, like every engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .params import SystemParams


# the largest thermal tail weight a truncation discards, and the largest
# population the top Fock level of a mode may hold before a run warns of
# truncation leakage (``observables.ObservableTrajectory``)
TAIL_TOL = 1e-6


class TruncationError(ValueError):
    """Raised when a requested state does not fit the truncated space."""


def truncation_dim(max_total: int) -> int:
    """Per-mode dimension for states with at most ``max_total`` quanta: N+2.

    The extra two levels leave headroom so that single applications of raising
    operators inside expectation values stay exact.
    """
    if max_total < 0:
        raise ValueError("maximum excitation number must be nonnegative")
    return max_total + 2


def thermal_truncation_dim(nbar: float) -> int:
    """Smallest per-mode dimension whose thermal tail weight is below
    ``TAIL_TOL`` and whose top level starts with at most ``TAIL_TOL``.

    With r = nbar/(1+nbar), the discarded weight of a Bose-Einstein
    distribution truncated at dim levels is r**dim and its top level holds
    (1-r) r**(dim-1), which is the larger for r < 1/2. The second bound keeps
    a run's truncation-leakage check quiet at t = 0.
    """
    if nbar < 0:
        raise ValueError("thermal occupation must be nonnegative")
    if nbar == 0:
        return 2
    ratio = nbar / (1.0 + nbar)
    # start from the smallest dim with ratio**dim < TAIL_TOL (the float log
    # may land one short); the top-level bound adds at most one level
    dim = int(np.ceil(np.log(TAIL_TOL) / np.log(ratio)))
    while ratio**dim >= TAIL_TOL or (1.0 - ratio) * ratio**(dim - 1) > TAIL_TOL:
        dim += 1
    return max(dim, 2)


@dataclass(frozen=True)
class FockSpace:
    """Truncated product space of two bosonic modes."""

    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        if self.dim_a < 2 or self.dim_b < 2:
            raise ValueError("each mode needs at least two Fock levels")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def index(self, n_a: int, n_b: int) -> int:
        """Joint basis index of |n_a, n_b>."""
        if not (0 <= n_a < self.dim_a and 0 <= n_b < self.dim_b):
            raise ValueError(f"occupation ({n_a}, {n_b}) outside "
                             f"({self.dim_a}, {self.dim_b}) truncation")
        return n_a * self.dim_b + n_b

    def number_diagonals(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays n_a[j], n_b[j] of occupations along the joint basis."""
        n_a, n_b = np.divmod(np.arange(self.dim), self.dim_b)
        return n_a.astype(float), n_b.astype(float)


class QuantumState:
    """Pure vector or density matrix on a FockSpace.

    Density matrices must be Hermitian to 1e-12 (relative to their largest
    entry); this is enforced at construction.
    """

    __slots__ = ("space", "data")

    def __init__(self, space: FockSpace, data) -> None:
        arr = np.asarray(data, dtype=complex)
        if arr.ndim == 1:
            if arr.shape != (space.dim,):
                raise ValueError("state vector length does not match space")
        elif arr.ndim == 2:
            if arr.shape != (space.dim, space.dim):
                raise ValueError("density matrix shape does not match space")
            scale = max(1.0, np.abs(arr).max())
            if np.abs(arr - arr.conj().T).max() > 1e-12 * scale:
                raise ValueError("density matrix is not Hermitian")
        else:
            raise ValueError("state must be a vector or a square matrix")
        self.space = space
        self.data = arr

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    def norm(self) -> float:
        """Squared norm for vectors, trace for density matrices."""
        if self.is_pure:
            return float(np.vdot(self.data, self.data).real)
        return float(np.trace(self.data).real)

    def density(self) -> np.ndarray:
        """Dense density matrix (outer product for pure states)."""
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data


# ladder moves (change of n_a, change of n_b)
_LOWER = {"a": (-1, 0), "b": (0, -1)}
HOP = (1, -1)  # c^dag d


@cache
def _move(space: FockSpace, move: tuple[int, int]):
    """Targets, sqrt(n) factors and in-truncation mask of ``move`` applied to
    every basis index; tabulated once per space and move, so the arrays are
    read-only."""
    idx = np.arange(space.dim)
    n_a, n_b = np.divmod(idx, space.dim_b)
    factor = np.ones(space.dim)
    inside = np.ones(space.dim, dtype=bool)
    for n, step, dim in ((n_a, move[0], space.dim_a), (n_b, move[1], space.dim_b)):
        if step:
            factor = factor * np.sqrt(np.maximum(n, n + step))
            inside &= (0 <= n + step) & (n + step < dim)
    tables = idx + move[0] * space.dim_b + move[1], factor, inside
    for table in tables:
        table.flags.writeable = False
    return tables


def ladder(space: FockSpace, move: tuple[int, int]) -> np.ndarray:
    """Dense matrix of one ladder move on the product space.

    ``move = (da, db)``, each step -1, 0 or +1, maps |n_a, n_b> to
    |n_a + da, n_b + db> with a factor sqrt(n) for each lowered mode and
    sqrt(n + 1) for each raised one: (-1, 0) is c, (0, 1) is d^dag and
    (1, -1) is c^dag d. Moves out of the truncation give zero.
    """
    target, factor, inside = _move(space, move)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    source = np.flatnonzero(inside)
    out[target[source], source] = factor[source]
    return out


def mode_annihilator(mode: str, space: FockSpace) -> np.ndarray:
    """c (mode "a") or d (mode "b")."""
    if mode not in _LOWER:
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    return ladder(space, _LOWER[mode])


def beam_splitter_hamiltonian(g: float, space: FockSpace) -> np.ndarray:
    """H = g*(c^dag d + c d^dag) in the frame rotating at omega_b, energy in
    rad/s units.

    The hopping term conserves total excitation number exactly, also on the
    truncated space.
    """
    hop = ladder(space, HOP)
    return g * (hop + hop.conj().T)


def lossy_hamiltonian(params: SystemParams, space: FockSpace) -> np.ndarray:
    """Non-Hermitian H_L = H - i(gamma_a n_a + gamma_b n_b)/2, in the frame
    rotating at omega_b."""
    n_a, n_b = space.number_diagonals()
    loss = params.gamma_a * n_a + params.gamma_b * n_b
    return beam_splitter_hamiltonian(params.g, space) - 0.5j * np.diag(loss)


def fock_product_state(n_a: int, n_b: int, space: FockSpace) -> QuantumState:
    """Product Fock state |n_a, n_b>; requires one level of headroom per mode."""
    if n_a < 0 or n_b < 0:
        raise ValueError("occupations must be nonnegative")
    if n_a > space.dim_a - 2 or n_b > space.dim_b - 2:
        raise TruncationError(
            f"state ({n_a}, {n_b}) needs dims >= ({n_a + 2}, {n_b + 2}), "
            f"space has ({space.dim_a}, {space.dim_b})")
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index(n_a, n_b)] = 1.0
    return QuantumState(space, vec)


def noon_state(n: int, space: FockSpace) -> QuantumState:
    """(|N,0> + |0,N>)/sqrt(2)."""
    if n < 1:
        raise ValueError("N00N state needs N >= 1")
    if n > min(space.dim_a, space.dim_b) - 2:
        raise TruncationError(
            f"N00N N={n} needs per-mode dimension >= {n + 2}")
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.index(n, 0)] = 1.0 / np.sqrt(2.0)
    vec[space.index(0, n)] = 1.0 / np.sqrt(2.0)
    return QuantumState(space, vec)


def _thermal_weights(nbar: float, dim: int) -> np.ndarray:
    if nbar < 0:
        raise ValueError("thermal occupation must be nonnegative")
    if nbar == 0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    ratio = nbar / (1.0 + nbar)
    if ratio**dim >= TAIL_TOL:
        raise TruncationError(
            f"thermal tail weight {ratio**dim:.3g} at dim={dim} exceeds "
            f"{TAIL_TOL:.3g}; need dim >= {thermal_truncation_dim(nbar)}")
    w = ratio ** np.arange(dim) / (1.0 + nbar)
    return w / w.sum()  # renormalize over the truncated ladder


def thermal_density_matrix(nbar_a: float, nbar_b: float,
                           space: FockSpace) -> QuantumState:
    """Product of single-mode thermal states, renormalized on the truncation.

    Raises TruncationError when either mode's discarded tail weight reaches
    ``TAIL_TOL``.
    """
    wa = _thermal_weights(nbar_a, space.dim_a)
    wb = _thermal_weights(nbar_b, space.dim_b)
    rho = np.diag(np.kron(wa, wb).astype(complex))
    return QuantumState(space, rho)

