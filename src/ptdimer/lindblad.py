"""Lindblad master equation on the truncated two-mode space.

d rho/dt = i[rho, H] + sum_k rate_k D[A_k] rho with thermal up/down channels
on both modes, in the frame rotating at omega_b, where H = g (c^dag d + c d^dag)
is the beam-splitter coupling alone, evaluated in its no-jump + jump form

    d rho/dt = -i(H_eff rho - rho H_eff^dag) + sum_k rate_k A_k rho A_k^dag,
    H_eff = H - (i/2) sum_k rate_k A_k^dag A_k.

Every term is a ladder move (``fock._move``): H's hops move the row or the
column of a density-matrix entry, the rest of H_eff is diagonal, and a jump
moves both by the same step. The generator keeps rho Hermitian, so a density
matrix evolves as real coordinates, one per entry: x_rc = Re rho_rc for
r <= c and Im rho_cr for r > c (``observables.hermitian_coordinates``). In
this frame every hop weight is imaginary and every other weight real, so
each term of a coordinate's row reads one coordinate, and every nonzero term
keeps its class, (r > c) xor the parity of n_a(r) + n_a(c). H's hops join
exactly the basis states of one excitation-number slice, so
``liouville_block`` closes rho0's nonzero coordinates over (unordered slice
pair, class) keys under the jumps, takes every coordinate of the keys
reached and writes each one's real row as a gather of at most nine
coordinates, every move's in one pass. For |5,0> at zero temperature that is
the 56 class-0 coordinates of the 91 entries of the Delta N = 0 pairs of
N <= 5; each coherence of a real rho0 whose entries share one class stays
real or imaginary, and the coordinates left out start and stay 0.
``ode.integrate_adaptive`` evolves every coordinate, exactly up to
``ode.EXACT_MAX_ENTRIES``. A pure state without jumps stays a complex vector
on the slices it starts in. At zero temperature H_eff is the lossy
Hamiltonian H_L, and the non-Hermitian engine is the same builder without
jumps, which also takes the zero-temperature channels.
``dissipator_apply`` keeps the textbook D[A] form as an independent
reference. Also hosts the closed first-moment system (occupations +
coherence) and its finite-difference consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
from operator import mul

import numpy as np

from .fock import HOP, QuantumState, _move
# beam_splitter_hamiltonian and mode_annihilator are unused here but stay
# importable: perfbench/tracing.py times them as sites of this module
from .fock import beam_splitter_hamiltonian, mode_annihilator  # noqa: F401
from .observables import ObservableOps, ObservableTrajectory, \
    derivative_residual, hermitian_coordinates, hermitian_values
from .ode import OdeProblem, integrate_adaptive
from .params import SystemParams


@dataclass(frozen=True)
class LindbladChannel:
    """Jump operator A, as its ladder move (see ``fock.ladder``), with its
    rate >= 0."""

    move: tuple[int, int]
    rate: float

    def __post_init__(self) -> None:
        if not isfinite(self.rate) or self.rate < 0.0:
            raise ValueError(f"channel rate must be finite and >= 0, got {self.rate}")


def thermal_channels(params: SystemParams) -> list[LindbladChannel]:
    """Thermal dissipation channels c, c^dag, d, d^dag, in that order.

    Mode a: rate gamma_a*(nbar_a+1) on c and gamma_a*nbar_a on c^dag; likewise
    for mode b. Zero-rate channels are dropped.
    """
    nbar_a, nbar_b = params.nbar_a(), params.nbar_b()
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


def liouville_block(state: QuantumState, params: SystemParams, *,
                    jumps: bool = True):
    """What ``state`` reaches under d rho/dt = K rho + rho K^dag + jumps,
    its initial values, and the linear RHS on it, as (entries, y0, rhs).

    K = -i H_eff, with H_eff as in the module docstring, built from the
    coupling and the ``thermal_channels`` of ``params``. ``entries`` holds
    one full-space index array per axis of the evolved state, (i,) for a
    vector or (row, col) for a density matrix, sorted row-major; ``_block``
    chooses them. A vector evolves, complex, every entry of each component
    (N-slice, or basis state when g = 0) that its support reaches under H's
    hops. A density matrix evolves, real, every coordinate (module
    docstring) that its nonzero ones reach, and ``entries`` names the
    position of each, so it may leave out an entry's mirror. Each row of
    the generator is its K diagonal term plus one (source, weight) term per
    move (``_rows``); a source the block leaves out gets weight 0. The
    rhs gathers the rows for a state or a column stack of states.
    With ``jumps`` off, the generator is the no-jump evolution under H_L, the
    H_eff of the zero-temperature channels at any ``params.temperature``, and
    a pure state stays a vector, evolved by d psi/dt = K psi; otherwise a
    pure state is promoted to its projector. Raises ValueError for a zero
    state.
    """
    g = params.g
    channels = thermal_channels(params) if jumps \
        else thermal_channels(replace(params, temperature=0.0))
    space, data = state.space, state.data
    vector = state.is_pure and not jumps
    if vector or not state.is_pure:
        # a density matrix reads each coordinate from its own entry
        flat = (data != 0).ravel().nonzero()[0]
        values = data.ravel()[flat]
    else:
        idx = data.nonzero()[0]
        flat = (idx[:, None] * space.dim + idx).ravel()
        values = (data[idx, None] * data[idx].conj()).ravel()
    if not vector:
        values = hermitian_coordinates(values, np.divmod(flat, space.dim))
        flat, values = flat[values != 0], values[values != 0]
    if not flat.size:
        raise ValueError("the initial state is zero: no entry to evolve")
    jumping = channels if jumps else []
    numbers = np.divmod(np.arange(space.dim), space.dim_b)  # n_a, n_b
    block = _block(space, np.add(*numbers) if g != 0 else np.arange(space.dim),
                   flat, vector, jumping)
    entries = (block,) if vector else np.divmod(block, space.dim)

    # K's diagonal on the basis: each A^dag A is the exact occupation number,
    # n for a lowering move and n + 1 for a raising one (0 where A leaves the
    # truncation), not the square of its rounded sqrt(n) factor
    h_eff = np.zeros(space.dim, dtype=complex)
    for ch in channels:
        axis = 0 if ch.move[0] else 1
        n = numbers[axis]
        if ch.move[axis] > 0:
            n = np.where(_move(space, ch.move)[2], n + 1, 0)
        h_eff = h_eff - 0.5j * ch.rate * n
    k = -1j * h_eff
    sources, weights = _rows(space, entries, k[entries[0]] if vector
                             else k[entries[0]] + k[entries[1]].conj(),
                             g, jumping)
    y0 = np.zeros(block.size, dtype=values.dtype)
    y0[block.searchsorted(flat)] = values

    def rhs(t, y):
        return np.einsum("it,it...->i...", weights, y[sources])
    return entries, y0, rhs


def _block(space, label, flat, vector, jumping):
    """Sorted flat indices (r dim + c at row r, column c) of what the
    nonzero entries of a vector, or coordinates of a density matrix, at
    ``flat`` reach under H's hops and the ``jumping`` channels.

    Hops are free inside a component of the basis, numbered by ``label``:
    the basis state's N-slice if the modes are coupled, the state itself if
    not. A vector reaches every entry of the components it starts in. A
    density coordinate x_rc is keyed by its unordered component pair
    {X, Y} and its class, (r > c) xor the parity of n_a(r) + n_a(c), which
    every nonzero term keeps (module docstring). Hops are free inside a
    key; a jump takes {X, Y} to {X', Y'} if some member of X and some
    member of Y take its move inside the truncation, two distinct members
    for X = Y in class 1, which holds no diagonal coordinate. The block is
    every coordinate of the keys reached, listed from the components'
    members, so it never takes memory of size dim**2.
    """
    dim = space.dim
    size = int(label[-1]) + 1  # the last basis state has the top label
    if vector:
        mask = np.zeros(size, dtype=bool)
        mask[label[flat]] = True
        return np.flatnonzero(mask[label])
    n_a = np.arange(dim) // space.dim_b

    def kind(rows, cols):
        return (rows > cols) ^ (n_a[rows] + n_a[cols]) % 2

    # with the modes coupled there are at most 2 size**2 keys (X <= Y,
    # class), so a breadth-first search over them is cheap
    rows, cols = np.divmod(flat, dim)
    x, y = label[rows], label[cols]
    keys = set(zip(np.minimum(x, y).tolist(), np.maximum(x, y).tolist(),
                   kind(rows, cols).tolist()))
    # per channel, X' of each X (a move shifts every label by one step,
    # so X <= Y gives X' <= Y') and how many members of X take the move
    moves = []
    for ch in jumping:
        target, _, ok = _move(space, ch.move)
        to = np.zeros(size, dtype=int)
        to[label[ok]] = label[target[ok]]
        moves.append((to.tolist(), np.bincount(label[ok], minlength=size)
                      .tolist()))
    frontier = keys
    while frontier:
        frontier = {(to[x], to[y], c) for x, y, c in frontier
                    for to, movers in moves
                    if min(movers[x], movers[y]) > (c if x == y else 0)} - keys
        keys |= frontier
    # each pair in both orders, once; coordinate o of the ordered pair X, Y
    # is at member o // count[Y] of X and member o % count[Y] of Y
    x, y, c = np.array(list(keys)).T
    twice = x != y
    x, y = np.concatenate((x, y[twice])), np.concatenate((y, x[twice]))
    c = np.concatenate((c, c[twice]))
    members = label.argsort(kind="stable")  # ascending in each component
    count = np.bincount(label)
    first = count.cumsum() - count
    span = count[x] * count[y]
    end = span.cumsum()
    i, j = np.divmod(np.arange(end[-1]) - (end - span).repeat(span),
                     count[y].repeat(span))
    rows = members[first[x].repeat(span) + i]
    cols = members[first[y].repeat(span) + j]
    block = (rows * dim + cols)[kind(rows, cols) == c.repeat(span)]
    block.sort()
    return block


def _rows(space, entries, diagonal, g, jumping):
    """Gather rows (sources, weights) of the generator on the sorted
    ``entries``: each row's K term (``diagonal``), then one term per move:
    H's hops on the row, on the column (not for a vector), and each of the
    ``jumping`` channels on both.

    A move changes two of the entry's occupations (n_a, n_b of each axis).
    Its source is the entry with the move undone; its weight w is g or the
    rate times the two sqrt(n) factors, each of the larger occupation. A
    vector's rows are complex. A density row is that of the coordinate
    x_rc = Re(u rho_rc), u = 1 for r <= c and i for r > c, to which a term
    w rho_st adds Re(u w) Re rho_st - Im(u w) Im rho_st. One of the two is
    zero (module docstring), so the term reads Re rho_st, the coordinate at
    (min, max), with weight Re(u w), or Im rho_st = sign(t - s) x at
    (max, min), with weight -sign(t - s) Im(u w). On keys of the grid
    padded by one level on every side, a source outside the truncation is
    outside the block; a term whose source the block leaves out gets
    weight 0 and source 0.
    """
    hops = [HOP, (-1, 1)] if g != 0 else []
    # the K term's move is zero: its source is the entry itself
    pad_a, pad_b = space.dim_a + 2, space.dim_b + 2
    if len(entries) == 1:
        moves, radix = [(0, 0)] + hops, (pad_b, 1)
    else:
        moves = [(0, 0, 0, 0)] + [m + (0, 0) for m in hops] + \
            [(0, 0) + m for m in hops] + [ch.move * 2 for ch in jumping]
        radix = (pad_b * pad_a * pad_b, pad_a * pad_b, pad_b, 1)
    occupation = np.empty((entries[0].size, 2 * len(entries)), dtype=int)
    for i, axis in enumerate(entries):
        np.divmod(axis, space.dim_b, out=(occupation[:, 2 * i],
                                          occupation[:, 2 * i + 1]))
    key = (occupation + 1) @ radix
    source = key[:, None] - [sum(map(mul, m, radix)) for m in moves]
    # the larger occupation of each mode a move changes: n where it raised
    # n, n + 1 where it lowered n
    pick = [i + len(m) * (step < 0) for m in moves[1:]
            for i, step in enumerate(m) if step]
    larger = np.concatenate((occupation, occupation + 1), axis=1)[:, pick]
    roots = np.sqrt(larger)
    factor = roots[:, ::2] * roots[:, 1::2]
    nh = len(hops)
    weights = np.empty(source.shape, dtype=complex)
    weights[:, 0] = diagonal
    # the row hops, then the column hops and the jumps of a density block
    np.multiply(-1j, g * factor[:, :2 * nh], out=weights[:, 1:1 + 2 * nh])
    if len(entries) == 2:
        np.conjugate(weights[:, 1 + nh:1 + 2 * nh],
                     out=weights[:, 1 + nh:1 + 2 * nh])
        np.multiply(factor[:, 2 * nh:], [ch.rate for ch in jumping],
                    out=weights[:, 1 + 2 * nh:])
        weights *= np.where(entries[0] <= entries[1], 1.0, 1j)[:, None]
        real = weights.real != 0.0
        # s, t are the source's row and column keys; a real term reads the
        # coordinate at (min, max), an imaginary one the one at (max, min)
        s, t = np.divmod(source, pad_a * pad_b)
        source = np.where(real == (s > t), t * pad_a * pad_b + s, source)
        weights = np.where(real, weights.real, np.sign(s - t) * weights.imag)
    at = np.minimum(key.searchsorted(source), key.size - 1)
    hit = key[at] == source
    weights[~hit] = 0.0
    return np.where(hit, at, 0), weights


def lindblad_rhs(state: QuantumState, params: SystemParams) -> np.ndarray:
    """d rho/dt of the move-built generator (``liouville_block``) at
    ``state``, as a dense density matrix (pure states are promoted to
    projectors)."""
    entries, y0, rhs = liouville_block(state, params)
    dim = state.space.dim
    out = np.zeros((dim, dim), dtype=complex)
    values = hermitian_values(rhs(0.0, y0), entries)
    out[entries] = values
    out[entries[::-1]] = values.conj()  # the mirrors the block leaves out
    return out


def evolve_density(state0: QuantumState, params: SystemParams,
                   sample_times, *, rtol: float = 1e-9,
                   atol: float = 1e-12) -> ObservableTrajectory:
    """Evolve a density matrix and record observables at the sample times.

    A pure ``state0`` is promoted to its projector; only the entries it
    reaches on its space are evolved, in the frame rotating at omega_b (see
    the module docstring), which no recorded observable depends on. A
    warning is attached when the top Fock level of either mode accumulates
    more than ``fock.TAIL_TOL`` population.
    """
    entries, y0, rhs = liouville_block(state0, params)

    samples = np.asarray(sample_times, dtype=float)
    problem = OdeProblem(rhs, y0, (0.0, float(samples[-1])), samples,
                         rtol=rtol, atol=atol, linear=True)
    sol = integrate_adaptive(problem)

    ops = ObservableOps(state0.space, entries, params.gamma_a, params.gamma_b)
    return ObservableTrajectory(
        "lindblad", params.omega_b, sol.times,
        **ops.record_from_density(sol.states), stats=sol.stats,
        warnings=ops.leakage_warnings(sol.times, sol.states), atol=atol)


def moment_rhs(m, params: SystemParams):
    """Closed system for (x, y, z) = (<c^dag c>, <d^dag d>, <c^dag d>).

    dx/dt = 2 g Im z - gamma_a x + gamma_a nbar_a
    dy/dt = -2 g Im z - gamma_b y + gamma_b nbar_b
    dz/dt = i g (y - x) - (gamma_a + gamma_b) z / 2

    with the bath occupations of ``params``. The thermal sources vanish at
    zero temperature; the coherence has no thermal source at any temperature.
    """
    x, y, z = m
    nbar_a, nbar_b = params.nbar_a(), params.nbar_b()
    g = params.g
    dx = 2.0 * g * z.imag - params.gamma_a * x + params.gamma_a * nbar_a
    dy = -2.0 * g * z.imag - params.gamma_b * y + params.gamma_b * nbar_b
    dz = 1j * g * (y - x) - 0.5 * (params.gamma_a + params.gamma_b) * z
    return np.array([dx, dy, dz], dtype=complex)


def moment_closure_residual(traj: ObservableTrajectory,
                            params: SystemParams) -> float:
    """Deviation of a trajectory's raw moments (x, y, z) from the closed
    moment system ``moment_rhs`` (see ``derivative_residual``)."""
    columns = (traj.n_a_raw, traj.n_b_raw, traj.coherence)
    return derivative_residual(traj, params, columns,
                               moment_rhs(columns, params))
