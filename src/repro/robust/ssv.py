"""Structured singular value (SSV / mu) bounds.

For a constant complex matrix ``M`` and a block structure ``Delta``, the SSV
is ``mu(M) = 1 / min{ sigma_max(Delta) : det(I - M Delta) = 0 }`` (Eq. 1 of
the paper, rearranged).  Exact computation is NP-hard; as in standard
practice we compute:

* an **upper bound** — ``min_D sigma_max(D M D^{-1})`` over block-compatible
  diagonal scalings, minimized by coordinate descent on log-scales seeded by
  an Osborne-style balancing pass, run in lockstep over a stack of
  matrices (one stacked SVD per trial scaling);
* a **lower bound** — the largest spectral radius ``rho(M U)`` found over
  randomized structured unitary perturbations (a randomized stand-in for the
  Packard-Doyle power iteration, cheap and good enough for validation).

System-level robustness is assessed by sweeping these bounds over a
frequency grid of the closed loop's perturbation channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lti import StateSpace, frequency_grid
from .uncertainty import BlockStructure

__all__ = [
    "mu_upper_bound",
    "mu_upper_bounds",
    "mu_lower_bound",
    "mu_bounds_over_frequency",
    "MuAnalysis",
]


def _scaled_norms(Ms, rows, cols, log_scales):
    """sigma_max(D M D^-1) of every matrix in a stack, one scaling each.

    The diagonal products are applied elementwise, ``(d_left * M) *
    d_right_inv``, which equals the dense ``diag @ M @ diag`` to the bit.
    """
    scales = np.exp(log_scales)
    scaled = (scales[:, rows, None] * Ms) * (1.0 / scales[:, None, cols])
    return np.linalg.svd(scaled, compute_uv=False)[:, 0]


def mu_upper_bounds(Ms, structure: BlockStructure, iterations=60):
    """D-scaled upper bounds on mu for a stack of constant matrices.

    ``Ms`` has shape ``(count, rows, cols)``.  Each matrix runs its own
    coordinate descent — its own log-scales, best value, step and stop
    test — but all of them advance in lockstep, so every trial scaling
    is one stacked SVD over the matrices still descending.  A matrix's
    result does not depend on the rest of the stack.

    Returns ``(bounds, log_scales)`` of shapes ``(count,)`` and
    ``(count, n_blocks)``.
    """
    Ms = np.asarray(Ms, dtype=complex)
    if Ms.ndim != 3 or Ms.shape[1:] != (structure.total_rows,
                                        structure.total_cols):
        # mu convention: Delta maps f -> d, M maps d -> f, so M is rows x cols.
        raise ValueError(
            f"M stack shape {Ms.shape} does not match structure "
            f"({structure.total_rows}x{structure.total_cols})"
        )
    count = Ms.shape[0]
    n_blocks = len(structure)
    log_scales = np.zeros((count, n_blocks))
    if count == 0:
        return np.zeros(0), log_scales
    if n_blocks == 1:
        return np.linalg.svd(Ms, compute_uv=False)[:, 0], log_scales
    # Osborne-style seed: balance block row/column norms.  The norms are
    # of the unscaled matrix, so each block's update only reads its own
    # scale; compute them once.
    slices = list(structure.block_slices())
    row_norms = np.array([[np.linalg.norm(M[row_sl, :])
                           for _, row_sl, _ in slices] for M in Ms])
    col_norms = np.array([[np.linalg.norm(M[:, col_sl])
                           for _, _, col_sl in slices] for M in Ms])
    for _ in range(10):
        row_norm = row_norms * np.exp(log_scales)
        col_norm = col_norms * np.exp(-log_scales)
        ok = (row_norm > 1e-14) & (col_norm > 1e-14)
        log_scales[ok] += 0.5 * (np.log(col_norm[ok]) - np.log(row_norm[ok]))
    log_scales -= log_scales[:, [-1]]  # pin the last block's scale
    rows, cols = structure.expansion()
    best = _scaled_norms(Ms, rows, cols, log_scales)
    # Coordinate descent with shrinking step, per matrix.
    step = np.full(count, 0.5)
    active = np.arange(count)
    for _ in range(iterations):
        if active.size == 0:
            break
        sub = Ms[active]
        improved = np.zeros(active.size, dtype=bool)
        for i in range(n_blocks - 1):  # last scale pinned
            for direction in (+1.0, -1.0):
                trial = log_scales[active]
                trial[:, i] += direction * step[active]
                value = _scaled_norms(sub, rows, cols, trial)
                better = value < best[active] - 1e-12
                if better.any():
                    moved = active[better]
                    best[moved] = value[better]
                    log_scales[moved] = trial[better]
                    improved |= better
        step[active[~improved]] *= 0.5
        active = active[improved | (step[active] >= 1e-4)]
    return best, log_scales


def mu_upper_bound(M, structure: BlockStructure, iterations=60):
    """D-scaled upper bound on mu for a constant matrix.

    Returns ``(bound, log_scales)`` so callers (the D-K iteration) can reuse
    the optimal scalings.  This is :func:`mu_upper_bounds` on a stack of
    one.
    """
    M = np.asarray(M, dtype=complex)
    bounds, log_scales = mu_upper_bounds(M[None], structure, iterations)
    return float(bounds[0]), log_scales[0]


def mu_lower_bound(M, structure: BlockStructure, samples=60, seed=0):
    """Randomized lower bound: max spectral radius over structured unitaries."""
    M = np.asarray(M, dtype=complex)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        U = np.zeros((structure.total_cols, structure.total_rows), dtype=complex)
        r = c = 0
        for block in structure.blocks:
            if block.kind == "repeated":
                phase = np.exp(2j * np.pi * rng.uniform())
                U[c : c + block.cols, r : r + block.rows] = phase * np.eye(block.rows)
            else:
                raw = rng.normal(size=(block.cols, block.rows)) + 1j * rng.normal(
                    size=(block.cols, block.rows)
                )
                q, _ = np.linalg.qr(raw)
                U[c : c + block.cols, r : r + block.rows] = q[: block.cols, : block.rows]
            r += block.rows
            c += block.cols
        radius = float(np.max(np.abs(np.linalg.eigvals(M @ U))))
        best = max(best, radius)
    return best


@dataclass
class MuAnalysis:
    """mu bounds of a perturbation channel swept over frequency."""

    omegas: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    peak_upper: float
    peak_omega: float
    scales_at_peak: np.ndarray
    scales: np.ndarray = None  # (n_freq, n_blocks) optimal log-scales
    channel: StateSpace = None  # the perturbation channel analysed
    structure: BlockStructure = None

    @property
    def robust(self):
        """Whether the SSV condition mu <= 1 holds at every grid point."""
        return bool(self.peak_upper <= 1.0)

    def tolerated_fraction(self):
        """Largest uniform scaling of the declared Delta that is tolerated.

        This is the paper's min(s): values above 1 mean the requested
        guardband/bounds/weights are met with margin.
        """
        return float(1.0 / max(self.peak_upper, 1e-12))


def mu_bounds_over_frequency(
    channel: StateSpace,
    structure: BlockStructure,
    omegas=None,
    points=60,
    lower_samples=20,
):
    """Sweep mu bounds of an LTI perturbation channel over frequency.

    ``channel`` maps the perturbation inputs d to the perturbation outputs f
    (plus, for robust performance, the performance channel folded in as one
    more full block in ``structure``).
    """
    if omegas is None:
        omegas = frequency_grid(channel, points)
        omegas = np.concatenate([[omegas[0] * 0.1], omegas])
    Ms = [channel.at_frequency(omega) for omega in omegas]
    uppers, all_scales = mu_upper_bounds(Ms, structure)
    lowers = np.zeros(len(omegas))
    best_scales = None
    peak = -np.inf
    peak_omega = omegas[0]
    for i, omega in enumerate(omegas):
        lowers[i] = mu_lower_bound(Ms[i], structure, samples=lower_samples,
                                   seed=i)
        upper = float(uppers[i])
        if upper > peak:
            peak = upper
            peak_omega = omega
            best_scales = all_scales[i].copy()
    return MuAnalysis(
        np.asarray(omegas), uppers, lowers, float(peak), float(peak_omega),
        best_scales, all_scales, channel, structure,
    )
