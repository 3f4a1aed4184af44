"""``liouville_block`` against the entry-by-entry closure it replaced.

The reference below closes the state's nonzero entries one entry at a time
under every row hop, column hop and jump, in Python sets, and then writes the
generator rows one move at a time. On a density matrix it then splits each
complex row into the real rows of the coordinates, finds the coordinates the
state reaches by a fixed point over whole sweeps and compacts their rows. The
block builder closes component pairs and coordinate classes instead and
writes every move's real rows in one pass. Its entries and initial values
must come out bit for bit the same, and so must its generator, assembled
from the rows, whose layout differs.
"""
import inspect
from dataclasses import replace

import numpy as np
import pytest

from ptdimer import (
    FockSpace,
    QuantumState,
    fock_product_state,
    noon_state,
    thermal_channels,
    thermal_density_matrix,
)
from ptdimer.fock import HOP, _move
from ptdimer.lindblad import liouville_block
from ptdimer.observables import coordinate_map
from ptdimer.scenarios import parse_config
from conftest import ROOM_T, make_params


def reference_block(state, params, jumps):
    """(entries, y0, sources, weights) of the block, built entry by entry."""
    g = params.g
    channels = thermal_channels(params) if jumps \
        else thermal_channels(replace(params, temperature=0.0))
    space, data = state.space, state.data
    vector = state.is_pure and not jumps
    if vector or not state.is_pure:
        flat = np.flatnonzero((data != 0) | (data.T != 0))
        values = data.ravel()[flat]
    else:
        idx = np.flatnonzero(data)
        flat = (idx[:, None] * space.dim + idx).ravel()
        values = np.outer(data[idx], data[idx].conj()).ravel()

    def shift(entries, move, axes):
        target, f, ok = _move(space, move)
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
    terms = [((0,), m, lambda f: -1j * (g * f)) for m in hops]
    if not vector:
        terms += [((1,), m, lambda f: (-1j * (g * f)).conj()) for m in hops]
        if jumps:
            terms += [((0, 1), ch.move, lambda f, rate=ch.rate: rate * f)
                      for ch in channels]

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

    numbers = space.number_diagonals()
    h_eff = np.zeros(space.dim, dtype=complex)
    for ch in channels:
        _, _, ok = _move(space, ch.move)
        axis = 0 if ch.move[0] else 1
        n = numbers[axis] + (ch.move[axis] > 0)
        h_eff = h_eff - 0.5j * ch.rate * np.where(ok, n, 0.0)
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
    if vector:
        return tuple(entries), y0, sources, weights
    # the reached real coordinates, by a fixed point over whole sweeps
    unit, real_at, imag_at, _, sign = coordinate_map(entries)
    w = unit[:, None] * weights
    weights = np.concatenate([w.real, -sign[sources] * w.imag], axis=1)
    sources = np.concatenate([real_at[sources], imag_at[sources]], axis=1)
    x0 = (unit * y0).real
    feeds = weights != 0.0
    live = x0 != 0.0
    while True:
        reached = live | (feeds & live[sources]).any(axis=1)
        if np.array_equal(reached, live):
            break
        live = reached
    sources, feeds = sources[live], feeds[live]
    feeds &= live[sources]
    sources = (np.cumsum(live) - 1)[sources]
    keep = np.argsort(~feeds, axis=1, kind="stable")[
        :, :np.count_nonzero(feeds, axis=1).max(initial=0)]
    return (tuple(axis[live] for axis in entries), x0[live],
            np.take_along_axis(sources, keep, axis=1),
            np.take_along_axis(np.where(feeds, weights[live], 0.0), keep,
                               axis=1))


def block_rows(state, params, jumps):
    """(entries, y0, sources, weights) of ``liouville_block``: the rows are
    the gather its RHS closes over."""
    entries, y0, rhs = liouville_block(state, params, jumps=jumps)
    rows = inspect.getclosurevars(rhs).nonlocals
    return entries, y0, rows["sources"], rows["weights"]


def generator(sources, weights):
    """The dense generator of gather rows, summed term by term."""
    m = sources.shape[0]
    out = np.zeros((m, m), dtype=weights.dtype)
    np.add.at(out, (np.arange(m).repeat(sources.shape[1]), sources.ravel()),
              weights.ravel())
    return out


def assert_same_bits(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_block(state, params, jumps, what):
    got, want = block_rows(state, params, jumps), \
        reference_block(state, params, jumps)
    assert len(got[0]) == len(want[0]), what
    for axis_got, axis_want in zip(got[0], want[0]):
        assert_same_bits(axis_got, axis_want, f"entries of {what}")
    assert_same_bits(got[1], want[1], f"y0 of {what}")
    assert_same_bits(generator(*got[2:]), generator(*want[2:]),
                     f"generator of {what}")
    assert got[2].flags.c_contiguous and got[3].flags.c_contiguous, what


def sparse_densities(space, seed, count=6):
    """Hermitian matrices of a few random entries, each with a nonzero real
    and imaginary part, at positions of either parity class."""
    rng = np.random.default_rng(seed)
    out = {}
    for k in range(count):
        rho = np.zeros((space.dim, space.dim), dtype=complex)
        n = rng.integers(1, 4)
        rows, cols = rng.integers(0, space.dim, (2, n))
        rho[rows, cols] = rng.uniform(0.5, 1.0, (n, 2)) @ [1.0, 1j] \
            * rng.choice([-1.0, 1.0], n)
        out[f"sparse{k}"] = QuantumState(space, rho + rho.conj().T)
    return out


def states(space):
    """|3,2>, NOON-3 (both parities), a thermal start and sparse complex
    densities; each pure state also as its density matrix."""
    pure = {"fock32": fock_product_state(3, 2, space),
            "noon3": noon_state(3, space)}
    mixed = {f"{name}-rho": QuantumState(space, st.density())
             for name, st in pure.items()}
    mixed["thermal"] = thermal_density_matrix(0.01, 0.005, space)
    mixed.update(sparse_densities(space, space.dim_a))
    return pure, mixed


@pytest.mark.parametrize("dims", [(7, 7), (5, 9)], ids=["7x7", "5x9"])
@pytest.mark.parametrize("temperature", [0.0, ROOM_T], ids=["cold", "room"])
@pytest.mark.parametrize("coupled", [True, False],
                         ids=["coupled", "uncoupled"])
def test_block_is_bitwise_the_entry_closure(dims, temperature, coupled):
    # the room-temperature raising channels reach the top level of each
    # mode, where the truncation stops them; (5, 9) catches a row/column or
    # n_a/n_b mix-up
    space = FockSpace(*dims)
    params = make_params(temperature=temperature) if coupled \
        else make_params(g=0.0, temperature=temperature)
    pure, mixed = states(space)
    cases = [(name, st, False) for name, st in pure.items()]  # vectors
    cases += [(name, st, True) for name, st in pure.items()]  # projectors
    cases += [(name, st, jumps) for name, st in mixed.items()
              for jumps in (True, False)]
    for name, state, jumps in cases:
        assert_same_block(state, params, jumps, f"{name}, jumps={jumps}")


@pytest.mark.parametrize("dims", [(2, 6), (6, 2)], ids=["2x6", "6x2"])
@pytest.mark.parametrize("undamped", ["gamma_a", "gamma_b"])
@pytest.mark.parametrize("temperature", [0.0, ROOM_T], ids=["cold", "room"])
def test_two_level_mode_is_bitwise_the_entry_closure(dims, undamped,
                                                     temperature):
    # in a slice pair {X, X}, class 1 holds no diagonal coordinate, so a
    # jump reaches it only if two distinct members of X move: with a
    # two-level mode, only one member of a slice can lower that mode
    space = FockSpace(*dims)
    params = make_params(temperature=temperature, **{undamped: 0.0})
    for seed in range(4):
        for name, state in sparse_densities(space, seed, 12).items():
            assert_same_block(state, params, True, f"{name} of seed {seed}")


def test_thermal_block_is_bitwise_the_entry_closure():
    # the 819 coordinates of the 1e-4 K start, stepped adaptively
    cfg = parse_config("state = thermal 1e-4\ntemperature = 1e-4\n"
                       "engines = lindblad\nallow_lindblad_thermal = true")
    params = cfg.system_params()
    state = thermal_density_matrix(params.nbar_a(), params.nbar_b(),
                                   FockSpace(*cfg.mode_dims()))
    assert_same_block(state, params, True, "1e-4 K thermal")
