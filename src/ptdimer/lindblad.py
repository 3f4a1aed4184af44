"""Lindblad master equation on the truncated two-mode space.

d rho/dt = i[rho, H] + sum_k rate_k D[A_k] rho with thermal up/down channels
on both modes, in the frame rotating at omega_b, where H = g (c^dag d + c d^dag)
is the beam-splitter coupling alone, evaluated in its no-jump + jump form

    d rho/dt = -i(H_eff rho - rho H_eff^dag) + sum_k rate_k A_k rho A_k^dag,
    H_eff = H - (i/2) sum_k rate_k A_k^dag A_k.

Every term is a ladder move (``fock._move``): H's hop moves the row or the
column of a density-matrix entry, the rest of H_eff is diagonal, and a jump
moves both by the same step. H's hops join exactly the basis states of one
excitation-number slice, so ``liouville_block`` closes the initial state's
support over (row slice, column slice) pairs under the jumps, takes every
entry of the pairs reached (for |5,0> at zero temperature the 91 entries of
the Delta N = 0 pairs of N <= 5) and writes each one's generator row as a
gather of at most nine entries, every move's in one pass. The generator
keeps rho Hermitian, so a density block of m entries has m real coordinates,
in the block's entry order: x_rc = Re rho_rc for r <= c and Im rho_cr for
r > c (``observables.coordinate_map``), each row a real gather of at most 18
terms (``_coordinate_rows``). In this frame every hop weight is imaginary and
every other weight real, so from a real rho0 whose entries share one parity
class each coherence stays real or imaginary and one of its two coordinates
is 0 for all t. Only the coordinates rho0 reaches are kept (56 of |5,0>'s
91); ``liouville_block`` alone chooses them, and ``ode.integrate_adaptive``
evolves every one, exactly up to ``ode.EXACT_MAX_ENTRIES``. At zero
temperature H_eff is the lossy Hamiltonian H_L, and the non-Hermitian engine
is the same builder without jumps, which also takes the zero-temperature
channels.
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
    coordinate_map, derivative_residual, hermitian_values
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
    """Entries ``state`` reaches under d rho/dt = K rho + rho K^dag + jumps,
    their initial values, and the linear RHS on them, as (entries, y0, rhs).

    K = -i H_eff, with H_eff as in the module docstring, built from the
    coupling and the ``thermal_channels`` of ``params``. ``entries`` holds
    one full-space index array per axis of the evolved state, (i,) for a
    vector or (row, col) for a density matrix, sorted row-major. They are
    every entry the state reaches under H's hops on rows and columns and
    each jump on both (``_block``): all of each reached component (N-slice,
    or basis state when g = 0) of a vector, all of each reached pair of
    components of a density matrix. Each entry's row of the generator is its
    K diagonal term plus one (source, weight) term per move (``_rows``); a
    source the state never reaches gets weight 0.
    A density matrix's block is closed under transposition, and y0 and the
    RHS are real: they hold the coordinates of the block that the state
    reaches (module docstring), and ``entries`` names the entry of each, so
    it may leave out an entry's mirror. A vector stays complex.
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
        # data.T is data for a vector; a density matrix starts from a
        # support closed under transposition, as its coordinates need
        flat = ((data != 0) | (data.T != 0)).ravel().nonzero()[0]
        values = data.ravel()[flat]
    else:
        idx = data.nonzero()[0]
        flat = (idx[:, None] * space.dim + idx).ravel()
        values = (data[idx, None] * data[idx].conj()).ravel()
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
    y0 = np.zeros(block.size, dtype=complex)
    y0[block.searchsorted(flat)] = values
    if not vector:
        live, sources, weights, y0 = _coordinate_rows(entries, sources,
                                                      weights, y0)
        entries = [axis[live] for axis in entries]

    def rhs(t, y):
        return (weights * y[sources]).sum(axis=1)
    return tuple(entries), y0, rhs


def _block(space, label, flat, vector, jumping):
    """Sorted flat indices (r dim + c for a density entry) of the entries
    reached from the nonzero ``flat`` ones under H's hops and the
    ``jumping`` channels.

    Hops are free inside a component of the basis, numbered by ``label``:
    the basis state's N-slice if the modes are coupled, the state itself if
    not. So the block is every entry of the components (vector) or of the
    component pairs X, Y (density) reached; a jump takes X, Y to X', Y' if
    some member of each takes its move inside the truncation. Listed from
    the components' members, the block never takes memory of size dim**2.
    """
    dim = space.dim
    size = int(label[-1]) + 1  # the last basis state has the top label
    if vector:
        mask = np.zeros(size, dtype=bool)
        mask[label[flat]] = True
        return np.flatnonzero(mask[label])
    # a pair X, Y is keyed X size + Y; with the modes coupled there are at
    # most size**2 pairs, so a breadth-first search over them is cheap
    rows, cols = np.divmod(flat, dim)
    pairs = set((label[rows] * size + label[cols]).tolist())
    if jumping:
        # to[c][X] is X' under channel c, -1 where no member of X moves
        to = np.full((len(jumping), size), -1)
        for row, ch in zip(to, jumping):
            target, _, ok = _move(space, ch.move)
            row[label[ok]] = label[target[ok]]
        to = to.tolist()
        frontier = pairs
        while frontier:
            frontier = {t[x] * size + t[y]
                        for x, y in (divmod(p, size) for p in frontier)
                        for t in to if t[x] >= 0 and t[y] >= 0} - pairs
            pairs |= frontier
    members = label.argsort(kind="stable")  # ascending in each component
    count = np.bincount(label)
    first = count.cumsum() - count
    # entry o of the pair X, Y is member o // count[Y] of X and member
    # o % count[Y] of Y
    x, y = np.divmod(np.array(sorted(pairs)), size)
    span = count[x] * count[y]
    end = span.cumsum()
    i, j = np.divmod(np.arange(end[-1]) - (end - span).repeat(span),
                     count[y].repeat(span))
    block = members[first[x].repeat(span) + i] * dim + \
        members[first[y].repeat(span) + j]
    block.sort()
    return block


def _rows(space, entries, diagonal, g, jumping):
    """Gather rows (sources, weights) of the complex generator on the
    sorted ``entries``: each row's K term (``diagonal``), then one term per
    move: H's hops on the row, on the column (not for a vector), and each
    of the ``jumping`` channels on both.

    A move changes two of the entry's occupations (n_a, n_b of each axis).
    Its source is the entry with the move undone; its weight is g or the
    rate times the two sqrt(n) factors, each of the larger occupation. On
    keys of the grid padded by one level on every side, a source outside
    the truncation is outside the block, and its term gets weight 0 and
    source 0.
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
    at = np.minimum(key.searchsorted(source), key.size - 1)
    hit = key[at] == source
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
    weights[~hit] = 0.0
    return np.where(hit, at, 0), weights


def _coordinate_rows(entries, sources, weights, y0):
    """Gather rows of the real coordinates x = Re(unit rho)
    (``observables.coordinate_map``) that rho0 reaches, from the complex
    rows (``sources``, ``weights``) of a generator that keeps rho Hermitian
    and from rho0's ``y0`` at the ``entries``, which are closed under
    transposition.

    Each term w rho_s of row k adds Re(unit_k w) Re(rho_s) - Im(unit_k w)
    Im(rho_s) to x_k, and each part of rho_s is one coordinate. Of the two
    real terms a complex one gives, the zero ones are dropped: in the
    rotating frame every weight is real or imaginary, so one stays. A
    coordinate is reached if it starts nonzero or a reached one feeds it
    through a nonzero weight; no reached coordinate feeds the others, so
    they start and stay 0 and are dropped, with their terms in the reached
    rows. Returns the mask of the reached coordinates, their rows, with the
    sources numbered among them, and their initial values.
    """
    # every mirror is held, so Re rho = x[real_at], Im rho = sign x[imag_at]
    unit, real_at, imag_at, _, sign = coordinate_map(entries)
    weights = unit[:, None] * weights
    weights = np.concatenate([weights.real, -sign[sources] * weights.imag],
                             axis=1)
    sources = np.concatenate([real_at[sources], imag_at[sources]], axis=1)
    x0 = (unit * y0).real
    feeds = weights != 0.0
    # reach along the feeding terms: row[t] is fed from source[t]
    row, term = feeds.nonzero()
    source = sources[row, term]
    live = x0 != 0.0
    count = np.count_nonzero(live)
    while True:
        live[row[live[source]]] = True
        count, last = np.count_nonzero(live), count
        if count == last:
            break
    del row, term, source  # freed before the compaction's temporaries
    sources, feeds = sources[live], feeds[live]
    feeds &= live[sources]
    sources = (live.cumsum() - 1)[sources]
    # each row's terms first, as few columns as the longest row needs
    keep = (~feeds).argsort(axis=1, kind="stable")[
        :, :feeds.sum(axis=1).max(initial=0)]
    rows = np.arange(keep.shape[0])[:, None]
    return (live, sources[rows, keep],
            np.where(feeds, weights[live], 0.0)[rows, keep], x0[live])


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
