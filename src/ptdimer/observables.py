"""Columnar observable trajectories shared by the three evolution engines.

Raw moments are unnormalized expectations <c^dag c>, <d^dag d>, <c^dag d>;
renormalized occupations divide by the total <N> so that n_a + n_b = 1. A
trajectory holds one array per observable with one entry per sample: the raw
moments, the state weight (trace or squared norm) and, for the non-Hermitian
engine, the quartic loss moments entering the occupation ODEs. The recorders
turn an engine's whole stack of sampled entries into these columns, and the
top-level population, in one call through one linear readout
(``ObservableOps``); their sanity checks raise FloatingPointError. A
trajectory warns of truncation leakage (top-level population > TAIL_TOL),
and where the renormalized ratios are undefined (<N> <= 0) or may be made of
numerical error (0 < <N> < atol).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import HOP, TAIL_TOL, FockSpace, _move
# mode_annihilator is unused here but stays importable: perfbench/tracing.py
# times it as a site of this module
from .fock import mode_annihilator  # noqa: F401
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
    top: np.ndarray | None = None  # top-level population; None off Fock
    stats: IntegratorStats | None = None
    warnings: list[str] = field(default_factory=list)
    atol: float = 0.0  # integrator atol: positive <N> below it is flagged
    n_a: np.ndarray = field(init=False, repr=False)
    n_b: np.ndarray = field(init=False, repr=False)
    g1: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.n_a, self.n_b, self.g1 = renormalized_ratios(
            self.n_a_raw, self.n_b_raw, self.coherence)
        if self.top is not None and np.any(self.top > TAIL_TOL):
            k = int(np.argmax(self.top))
            self.warnings.append(f"truncation leakage: top-level population "
                                 f"{self.top[k]:.3e} at t={self.times[k]:.6e}")
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


def coordinate_map(entries):
    """How a Hermitian rho at the density-matrix ``entries`` (sorted
    row-major) maps to its real coordinates, one per entry, and back.

    x = Re(unit rho), with unit 1 on and above the diagonal and i below it:
    x_rc = Re rho_rc for r <= c and Im rho_cr for r > c. Back, Re rho =
    re x[real_at] and Im rho = im x[imag_at]. A coordinate held at a mirror
    entry that ``entries`` leave out is 0, and its factor re or im is 0.
    Returns (unit, real_at, imag_at, re, im).
    """
    rows, cols = entries
    at = np.arange(rows.size)
    # keys r n + c are sorted with the entries; the mirror of (r, c) is
    # (c, r), held where its key is found
    n = 1 + max(rows.max(initial=0), cols.max(initial=0))
    key, mirror_key = rows * n + cols, cols * n + rows
    mirror = np.minimum(np.searchsorted(key, mirror_key), max(at.size - 1, 0))
    held = key[mirror] == mirror_key
    mirror = np.where(held, mirror, at)
    upper = rows <= cols
    return (np.where(upper, 1.0, 1j), np.where(upper, at, mirror),
            np.where(upper, mirror, at), np.where(upper | held, 1.0, 0.0),
            np.where(upper & ~held, 0.0, np.sign(cols - rows)))


def hermitian_coordinates(values: np.ndarray, entries) -> np.ndarray:
    """Real coordinates (``coordinate_map``) of rho from its ``values``
    (..., m) at ``entries``, each read from its own entry: Re rho_rc for
    r <= c, -Im rho_rc = Im rho_cr for r > c."""
    rows, cols = entries
    return np.where(rows <= cols, values.real, -values.imag)


def hermitian_values(x: np.ndarray, entries) -> np.ndarray:
    """rho at ``entries`` from its real coordinates x (..., m), a coordinate
    not held being 0; exactly Hermitian where an entry and its mirror are
    both held, with a real diagonal."""
    _, real_at, imag_at, re, im = coordinate_map(entries)
    out = np.empty(x.shape, dtype=complex)
    out.real = re * x[..., real_at]
    out.imag = im * x[..., imag_at]
    return out


class ObservableOps:
    """Expectation data of the joint Fock space, for whole state stacks.

    ``entries`` names the entries each sample of a stack holds, as the
    engines evolve them: one full-space index array per axis of the state,
    (i,) for vectors or (row, col) for density matrices, sorted row-major.
    Entries left out are 0. A density stack holds the real coordinates of
    its entries (``coordinate_map``), so a coordinate whose entry is left
    out, such as one of an entry's mirror, is 0.

    One table (d, 6) holds, per held population: n_a, n_b, 1 (the weight),
    the quartics n_a L and n_b L with L = gamma_a n_a + gamma_b n_b, and 1 on
    the top Fock level of either mode (``top``, for the trajectory's leakage
    check). A vector stack reads |psi|^2 @ table, and <c^dag d> as a
    quadratic form. A density stack is linear in its coordinates x and reads
    every column as x @ R, R (m, 8) being the table at the diagonal
    coordinates, then Re and Im <c^dag d>. An engine's one recorder call is
    the only read of its sampled stack.
    """

    def __init__(self, space: FockSpace, entries, gamma_a: float = 0.0,
                 gamma_b: float = 0.0) -> None:
        first = entries[0]
        hop = _move(space, HOP)
        diag = np.arange(first.size) if len(entries) == 1 \
            else np.flatnonzero(first == entries[1])
        n_a, n_b = (n[first[diag]] for n in space.number_diagonals())
        loss = gamma_a * n_a + gamma_b * n_b
        table = np.column_stack((n_a, n_b, np.ones(diag.size), n_a * loss,
                                 n_b * loss, (n_a == space.dim_a - 1)
                                 | (n_b == space.dim_b - 1)))
        if len(entries) == 1:
            # the hop target n + (1, -1) grows with n, so sources in entry
            # order are also in target order
            target, factor, inside = (a[first] for a in hop)
            at = np.minimum(np.searchsorted(first, target), first.size - 1)
            source = np.flatnonzero(inside & (first[at] == target))
            # <c^dag d> = sum conj(psi[target]) psi[source] factor
            self._hop = (at[source], source)
            self._hop_data = factor[source]
            self._readout = table
            return
        target, factor, inside = hop
        rows, cols = entries
        # <c^dag d> = sum rho[s, t] factor over the hops t of s, each above
        # the diagonal: its real part is read at the held entries (s, t) and
        # its imaginary part at the held (t, s) (``coordinate_map``); a
        # coordinate not held is 0
        real = np.flatnonzero(inside[rows] & (target[rows] == cols))
        imag = np.flatnonzero(inside[cols] & (target[cols] == rows))
        self._readout = np.zeros((rows.size, 8))
        self._readout[diag, :6] = table
        self._readout[real, 6] = factor[rows[real]]
        self._readout[imag, 7] = factor[cols[imag]]

    # -- stack recorders ---------------------------------------------------

    def record_from_density(self, rhos: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a Lindblad density stack (coordinates); no quartics."""
        return self._columns(rhos @ self._readout, quartics=False)

    def record_from_pure(self, psis: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a state-vector stack, with quartics."""
        target, source = self._hop
        hop = (psis[:, target].conj() * psis[:, source]) @ self._hop_data
        return self._columns(np.abs(psis) ** 2 @ self._readout, hop)

    def record_from_nh_density(self, rhos: np.ndarray) -> dict[str, np.ndarray]:
        """Columns of a non-Hermitian density stack (coordinates), with
        quartics."""
        return self._columns(rhos @ self._readout)

    @staticmethod
    def _columns(reads, coherence=None,
                 quartics: bool = True) -> dict[str, np.ndarray]:
        """Columns from a stack's readout (S, 6) or (S, 8), the raw
        occupations checked against a per-sample floor of
        -1e-10 max(1, |weight|); <c^dag d> from the readout's last two
        columns if not given."""
        # each column its own array: views would keep the whole readout alive
        # with the trajectory, which slowed the CSV writing that follows
        # (perfbench fock-light, ~8 %)
        x, y, weight, quartic_a, quartic_b, top = (c.copy()
                                                   for c in reads[:, :6].T)
        floor = -1e-10 * np.maximum(1.0, np.abs(weight))
        bad = np.flatnonzero((x < floor) | (y < floor))
        if bad.size:
            i = bad[0]
            raise FloatingPointError(f"raw occupation negative beyond "
                                     f"tolerance: ({x[i]:.3e}, {y[i]:.3e})")
        if coherence is None:
            coherence = reads[:, 6:].copy().view(complex)[:, 0]
        cols = {"n_a_raw": x, "n_b_raw": y, "coherence": coherence,
                "weight": weight, "top": top}
        if quartics:
            cols["quartic_a"], cols["quartic_b"] = quartic_a, quartic_b
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
