"""Truncated two-mode Fock space: operators, states, and Hamiltonians.

Joint basis ordering is mode-a major: |n_a, n_b> sits at index n_a*dim_b + n_b.
Operators are dense complex numpy arrays, the form every engine evolves; no
superoperator is ever built. The engines evolve only the basis indices a state
can reach (``reachable_indices``): the beam splitter conserves the excitation
number and zero-temperature losses lower it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import SystemParams


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


def thermal_truncation_dim(nbar: float, tail_tol: float = 1e-6) -> int:
    """Smallest per-mode dimension whose thermal tail weight is below tail_tol.

    The discarded weight of a Bose-Einstein distribution truncated at dim
    levels is (nbar/(1+nbar))**dim.
    """
    if nbar < 0:
        raise ValueError("thermal occupation must be nonnegative")
    if not 0 < tail_tol < 1:
        raise ValueError("tail tolerance must lie in (0, 1)")
    if nbar == 0:
        return 2
    ratio = nbar / (1.0 + nbar)
    # smallest dim with ratio**dim < tail_tol
    dim = int(np.ceil(np.log(tail_tol) / np.log(ratio)))
    while ratio**dim >= tail_tol:  # guard the edge of the float log
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
        grid_a, grid_b = np.meshgrid(np.arange(self.dim_a), np.arange(self.dim_b),
                                     indexing="ij")
        return grid_a.ravel().astype(float), grid_b.ravel().astype(float)


class FockOperator:
    """Dense complex matrix tagged with its FockSpace.

    Supports +, -, scalar *, @ and dag(); binary operations require matching
    spaces.
    """

    __slots__ = ("space", "matrix")

    def __init__(self, space: FockSpace, matrix) -> None:
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (space.dim, space.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match "
                             f"space dimension {space.dim}")
        self.space = space
        self.matrix = mat

    def _check(self, other: "FockOperator") -> None:
        if not isinstance(other, FockOperator):
            raise TypeError("expected a FockOperator")
        if other.space != self.space:
            raise ValueError("operators live on different Fock spaces")

    def __add__(self, other):
        self._check(other)
        return FockOperator(self.space, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check(other)
        return FockOperator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return FockOperator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return FockOperator(self.space, -self.matrix)

    def __matmul__(self, other):
        self._check(other)
        return FockOperator(self.space, self.matrix @ other.matrix)

    def dag(self) -> "FockOperator":
        return FockOperator(self.space, self.matrix.conj().T)

    def toarray(self, keep=None) -> np.ndarray:
        """Copy of the matrix, restricted to the basis indices ``keep`` if given."""
        if keep is None:
            return self.matrix.copy()
        return self.matrix[np.ix_(keep, keep)]

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.matrix))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return np.abs(self.matrix - self.matrix.conj().T).max() <= tol


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
        return self.data.copy()


def reachable_indices(state: QuantumState,
                      operators: list[FockOperator]) -> np.ndarray:
    """Sorted basis indices reachable from the support of ``state``.

    Index i is reached from j when some operator has a nonzero entry [i, j];
    the closure starts from every index on which the state (a vector, or a
    density matrix by row or column) is nonzero.
    """
    reached = state.data != 0
    if not state.is_pure:
        reached = reached.any(axis=0) | reached.any(axis=1)
    pattern = sum(abs(op.matrix) for op in operators)
    frontier = reached
    while frontier.any():
        frontier = (pattern @ frontier.astype(float) > 0) & ~reached
        reached = reached | frontier
    return np.flatnonzero(reached)


def annihilation(dim: int) -> np.ndarray:
    """Single-mode annihilation operator: A[n-1, n] = sqrt(n)."""
    if dim < 2:
        raise ValueError("annihilation operator needs dimension >= 2")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def embed(op, mode: str, space: FockSpace) -> FockOperator:
    """Lift a single-mode operator into the joint space via Kronecker product."""
    mat = np.asarray(op, dtype=complex)
    if mode == "a":
        if mat.shape != (space.dim_a, space.dim_a):
            raise ValueError("operator dimension does not match mode a")
        joint = np.kron(mat, np.eye(space.dim_b))
    elif mode == "b":
        if mat.shape != (space.dim_b, space.dim_b):
            raise ValueError("operator dimension does not match mode b")
        joint = np.kron(np.eye(space.dim_a), mat)
    else:
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    return FockOperator(space, joint)


def mode_annihilator(mode: str, space: FockSpace) -> FockOperator:
    dim = space.dim_a if mode == "a" else space.dim_b
    return embed(annihilation(dim), mode, space)


def mode_number(mode: str, space: FockSpace) -> FockOperator:
    a = annihilation(space.dim_a if mode == "a" else space.dim_b)
    return embed(a.conj().T @ a, mode, space)


def beam_splitter_hamiltonian(omega_b: float, g: float,
                              space: FockSpace) -> FockOperator:
    """H = omega_b*(n_a + n_b) + g*(c^dag d + c d^dag), energy in rad/s units.

    Passing omega_b = 0 gives the interaction-picture Hamiltonian. The hopping
    term conserves total excitation number exactly, also on the truncated
    space.
    """
    c = mode_annihilator("a", space)
    d = mode_annihilator("b", space)
    hop = c.dag() @ d
    h = omega_b * (mode_number("a", space) + mode_number("b", space)) \
        + g * (hop + hop.dag())
    return h


def lossy_hamiltonian(params: SystemParams, space: FockSpace,
                      omega_b: float | None = None) -> FockOperator:
    """Non-Hermitian H_L = H - i(gamma_a n_a + gamma_b n_b)/2.

    ``omega_b`` overrides the mode frequency (0 for the interaction picture);
    by default it is taken from ``params``.
    """
    omega = params.omega_b if omega_b is None else omega_b
    h = beam_splitter_hamiltonian(omega, params.g, space)
    loss = params.gamma_a * mode_number("a", space) \
        + params.gamma_b * mode_number("b", space)
    return h - 0.5j * loss


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


def _thermal_weights(nbar: float, dim: int, tail_tol: float) -> np.ndarray:
    if nbar < 0:
        raise ValueError("thermal occupation must be nonnegative")
    if nbar == 0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    ratio = nbar / (1.0 + nbar)
    if ratio**dim >= tail_tol:
        raise TruncationError(
            f"thermal tail weight {ratio**dim:.3g} at dim={dim} exceeds "
            f"{tail_tol:.3g}; need dim >= {thermal_truncation_dim(nbar, tail_tol)}")
    w = ratio ** np.arange(dim) / (1.0 + nbar)
    return w / w.sum()  # renormalize over the truncated ladder


def thermal_density_matrix(nbar_a: float, nbar_b: float, space: FockSpace,
                           tail_tol: float = 1e-6) -> QuantumState:
    """Product of single-mode thermal states, renormalized on the truncation.

    Raises TruncationError when either mode's discarded tail weight exceeds
    ``tail_tol``.
    """
    wa = _thermal_weights(nbar_a, space.dim_a, tail_tol)
    wb = _thermal_weights(nbar_b, space.dim_b, tail_tol)
    rho = np.diag(np.kron(wa, wb).astype(complex))
    return QuantumState(space, rho)

