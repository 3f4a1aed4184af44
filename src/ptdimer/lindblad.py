"""Lindblad master equation on the truncated two-mode space.

d rho/dt = i[rho, H] + sum_k rate_k D[A_k] rho with thermal up/down channels
on both modes, evaluated in its no-jump + jump form

    d rho/dt = -i(H_eff rho - rho H_eff^dag) + sum_k rate_k A_k rho A_k^dag,
    H_eff = H - (i/2) sum_k rate_k A_k^dag A_k.

Every term is a ladder move (``fock._move``): H's hop moves the row or the
column of a density-matrix entry, the rest of H_eff is diagonal, and a jump
moves both by the same step. So ``liouville_block`` finds by index arithmetic
the entries the initial state reaches (for |5,0> at zero temperature the 91
entries of the Delta N = 0 blocks of N <= 5) and writes each one's generator
row as a gather of at most nine entries; ``ode.integrate_adaptive`` evolves
that block, exactly up to ``ode.EXACT_MAX_ENTRIES`` entries. At zero
temperature H_eff is the lossy Hamiltonian H_L, and the non-Hermitian engine
is the same builder with the zero-temperature channels and no jumps.
``dissipator_apply`` keeps the textbook D[A] form as an independent
reference. Also hosts the closed first-moment system (occupations +
coherence) and its finite-difference consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .fock import HOP, FockSpace, QuantumState, _move
# beam_splitter_hamiltonian and mode_annihilator are unused here but stay
# importable: perfbench/tracing.py times them as sites of this module
from .fock import beam_splitter_hamiltonian, mode_annihilator  # noqa: F401
from .observables import ObservableOps, ObservableTrajectory, \
    derivative_residual
from .ode import OdeProblem, integrate_adaptive
from .params import SystemParams, thermal_occupation


@dataclass(frozen=True)
class LindbladChannel:
    """Jump operator A, as its ladder move (see ``fock.ladder``), with its
    rate >= 0."""

    move: tuple[int, int]
    rate: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.rate) or self.rate < 0.0:
            raise ValueError(f"channel rate must be finite and >= 0, got {self.rate}")


def thermal_channels(params: SystemParams) -> list[LindbladChannel]:
    """Thermal dissipation channels c, c^dag, d, d^dag, in that order.

    Mode a: rate gamma_a*(nbar_a+1) on c and gamma_a*nbar_a on c^dag; likewise
    for mode b. Zero-rate channels are dropped.
    """
    nbar_a = thermal_occupation(params.omega_a, params.temperature)
    nbar_b = thermal_occupation(params.omega_b, params.temperature)
    channels = [LindbladChannel((-1, 0), params.gamma_a * (nbar_a + 1.0)),
                LindbladChannel((1, 0), params.gamma_a * nbar_a),
                LindbladChannel((0, -1), params.gamma_b * (nbar_b + 1.0)),
                LindbladChannel((0, 1), params.gamma_b * nbar_b)]
    return [ch for ch in channels if ch.rate > 0.0]


def dissipator_apply(channel_op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[A] rho = A rho A^dag - (A^dag A rho + rho A^dag A)/2 at unit rate."""
    a = np.asarray(channel_op, dtype=complex)
    ad = a.conj().T
    ada = ad @ a
    rho = np.asarray(rho, dtype=complex)
    return a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada)


def liouville_block(state: QuantumState, omega: float, g: float,
                    channels: list[LindbladChannel], *, jumps: bool = True):
    """Entries ``state`` reaches under d rho/dt = K rho + rho K^dag + jumps,
    their initial values, and the linear RHS on them, as (entries, y0, rhs).

    K = -i H_eff, with H = omega (n_a + n_b) + g (c^dag d + c d^dag) and H_eff
    as in the module docstring. ``entries`` holds one full-space index array
    per axis of the evolved state, (i,) for a vector or (row, col) for a
    density matrix, sorted row-major. The closure starts from the nonzero
    entries of the state and applies H's hops to rows and columns and each
    jump to both, until no new entry inside the truncation appears. Each
    entry's row of the generator is its K diagonal term plus one (source,
    weight) term per move; a source the state never reaches gets weight 0.
    With ``jumps`` off, the generator is the no-jump evolution, and a pure
    state stays a vector, evolved by d psi/dt = K psi; otherwise a pure state
    is promoted to its projector.
    """
    space, data = state.space, state.data
    vector = state.is_pure and not jumps
    if vector or not state.is_pure:
        flat = np.flatnonzero(data)
        values = data.ravel()[flat]
    else:
        idx = np.flatnonzero(data)
        flat = (idx[:, None] * space.dim + idx).ravel()
        values = np.outer(data[idx], data[idx].conj()).ravel()

    table = cache(partial(_move, space))

    def shift(entries, move, axes):
        """``entries`` with ``move`` applied on ``axes``, the product of the
        sqrt(n) factors, and whether every moved index stays in the
        truncation."""
        target, f, ok = table(move)
        out, factor, inside = list(entries), 1.0, True
        for axis in axes:
            idx = entries[axis]
            out[axis] = target[idx]
            factor, inside = factor * f[idx], inside & ok[idx]
        return out, factor, inside

    def split(f):
        return (f,) if vector else np.divmod(f, space.dim)

    def join(entries):
        return entries[0] if vector else entries[0] * space.dim + entries[1]

    hops = [HOP, (-1, 1)] if g != 0 else []
    # (moved axes, forward move, weight of a source from its sqrt(n) factors)
    terms = [((0,), m, lambda f: -1j * (g * f)) for m in hops]
    if not vector:
        terms += [((1,), m, lambda f: (-1j * (g * f)).conj()) for m in hops]
        if jumps:
            terms += [((0, 1), ch.move, lambda f, rate=ch.rate: rate * f)
                      for ch in channels]

    # a set of flat indices keeps the closure's memory to the block's size
    block = set(flat.tolist())
    frontier = flat
    while terms and frontier.size:
        found = set()
        for moved, move, _ in terms:
            target, _, inside = shift(split(frontier), move, moved)
            found.update(join(target)[inside].tolist())
        found -= block
        block |= found
        frontier = np.fromiter(found, dtype=int, count=len(found))
    block = np.array(sorted(block), dtype=int)

    # K on the basis: A^dag A is the square of A's sqrt(n) factor, and n_a,
    # n_b those of c and d
    n_a, n_b = (np.where(ok, f * f, 0.0)
                for _, f, ok in (table((-1, 0)), table((0, -1))))
    h_eff = (omega * (n_a + n_b)).astype(complex)
    for ch in channels:
        _, f, ok = table(ch.move)
        h_eff = h_eff - 0.5j * ch.rate * np.where(ok, f * f, 0.0)
    k = -1j * h_eff
    entries = split(block)
    sources = [np.arange(block.size)]
    weights = [k[entries[0]] if vector
               else k[entries[0]] + k[entries[1]].conj()]
    for moved, move, weight in terms:
        source, factor, inside = shift(entries, (-move[0], -move[1]), moved)
        source = join(source)
        at = np.minimum(np.searchsorted(block, source), block.size - 1)
        hit = inside & (block[at] == source)
        sources.append(np.where(hit, at, 0))
        weights.append(np.where(hit, weight(factor), 0.0))
    sources, weights = np.stack(sources, axis=1), np.stack(weights, axis=1)
    y0 = np.zeros(block.size, dtype=complex)
    y0[np.searchsorted(block, flat)] = values

    def rhs(t, y):
        return (weights * y[sources]).sum(axis=1)
    return tuple(entries), y0, rhs


def lindblad_rhs(rho: np.ndarray, space: FockSpace, omega: float, g: float,
                 channels: list[LindbladChannel]) -> np.ndarray:
    """d rho/dt of the move-built generator (``liouville_block``) at the
    dense density matrix ``rho`` on ``space``."""
    entries, y0, rhs = liouville_block(QuantumState(space, rho), omega, g,
                                       channels)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[entries] = rhs(0.0, y0)
    return out


def evolve_density(state0, params: SystemParams, space: FockSpace,
                   sample_times, *, rtol: float = 1e-9, atol: float = 1e-12,
                   interaction_picture: bool = True,
                   keep_states: bool = False) -> ObservableTrajectory:
    """Evolve a density matrix and record observables at the sample times.

    ``state0`` may be a QuantumState (pure states are promoted to projectors)
    or a raw density matrix; only the entries it reaches are evolved (see the
    module docstring). With ``interaction_picture`` the omega_b*(n_a+n_b)
    rotation is removed from the Hamiltonian; all recorded observables are
    invariant under that choice. A warning is attached when the top Fock
    level of either mode accumulates more than 1e-6 population. With
    ``keep_states`` the ``snapshots`` are the full (S, d, d) sampled states,
    exactly zero outside the evolved entries.
    """
    if not isinstance(state0, QuantumState):
        state0 = QuantumState(space, state0)
    omega = 0.0 if interaction_picture else params.omega_b
    entries, y0, rhs = liouville_block(state0, omega, params.g,
                                       thermal_channels(params))

    samples = np.asarray(sample_times, dtype=float)
    problem = OdeProblem(rhs, y0, (0.0, float(samples[-1])), samples,
                         rtol=rtol, atol=atol, linear=True)
    sol = integrate_adaptive(problem)

    ops = ObservableOps(space, params.gamma_a, params.gamma_b,
                        tuple(e[sol.support] for e in entries))
    return ObservableTrajectory(
        "lindblad", params.omega_b, sol.times,
        **ops.record_from_density(sol.states), stats=sol.stats,
        warnings=ops.leakage_warnings(sol.times, sol.states),
        snapshots=ops.embed(sol.states) if keep_states else None, atol=atol)


def moment_rhs(m, params: SystemParams, temperature: float = 0.0):
    """Closed system for (x, y, z) = (<c^dag c>, <d^dag d>, <c^dag d>).

    dx/dt = 2 g Im z - gamma_a x + gamma_a nbar_a
    dy/dt = -2 g Im z - gamma_b y + gamma_b nbar_b
    dz/dt = i g (y - x) - (gamma_a + gamma_b) z / 2

    The thermal sources vanish at zero temperature; the coherence has no
    thermal source at any temperature.
    """
    x, y, z = m
    nbar_a = thermal_occupation(params.omega_a, temperature)
    nbar_b = thermal_occupation(params.omega_b, temperature)
    g = params.g
    dx = 2.0 * g * z.imag - params.gamma_a * x + params.gamma_a * nbar_a
    dy = -2.0 * g * z.imag - params.gamma_b * y + params.gamma_b * nbar_b
    dz = 1j * g * (y - x) - 0.5 * (params.gamma_a + params.gamma_b) * z
    return np.array([dx, dy, dz], dtype=complex)


def moment_closure_residual(traj: ObservableTrajectory, params: SystemParams,
                            temperature: float = 0.0) -> float:
    """Deviation of a trajectory's raw moments (x, y, z) from the closed
    moment system ``moment_rhs`` (see ``derivative_residual``)."""
    columns = (traj.n_a_raw, traj.n_b_raw, traj.coherence)
    return derivative_residual(traj, params, columns,
                               moment_rhs(columns, params, temperature))
