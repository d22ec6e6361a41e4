"""Uncertainty block structures for structured-singular-value analysis.

A Delta structure is a list of blocks, each either a *full* complex block of
given dimensions or a *repeated scalar* block.  Guardbands from the paper
(e.g. the hardware controller's +-40%) become the weight on the uncertainty
channel; input quantization becomes an additional norm-bounded perturbation
sized by the worst-case snap distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["UncertaintyBlock", "BlockStructure", "guardband_weight", "quantization_uncertainty"]


@dataclass(frozen=True)
class UncertaintyBlock:
    """One block of a structured perturbation.

    ``kind`` is "full" (arbitrary complex block) or "repeated" (delta * I).
    ``rows``/``cols`` give the block dimensions (repeated blocks are square).
    """

    kind: str
    rows: int
    cols: int
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("full", "repeated"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("block dimensions must be positive")
        if self.kind == "repeated" and self.rows != self.cols:
            raise ValueError("repeated scalar blocks must be square")


class BlockStructure:
    """An ordered list of uncertainty blocks.

    The convention matches the Delta-N form (Fig. 2 of the paper): the
    perturbation maps the ``f`` outputs of N back into its ``d`` inputs, so
    the structure's total ``rows`` dimension must equal dim(f) and ``cols``
    must equal dim(d).
    """

    _expansion = None  # (row, col) block indices, built on first use

    def __init__(self, blocks):
        self.blocks = list(blocks)
        if not self.blocks:
            raise ValueError("block structure must contain at least one block")

    @property
    def total_rows(self):
        return sum(b.rows for b in self.blocks)

    @property
    def total_cols(self):
        return sum(b.cols for b in self.blocks)

    def block_slices(self):
        """Yield (block, row_slice, col_slice) for each block."""
        r = c = 0
        for block in self.blocks:
            yield block, slice(r, r + block.rows), slice(c, c + block.cols)
            r += block.rows
            c += block.cols

    def random_sample(self, rng, radius=1.0):
        """A random structured Delta with each block of norm <= radius."""
        delta = np.zeros((self.total_cols, self.total_rows), dtype=complex)
        r = c = 0
        for block in self.blocks:
            if block.kind == "repeated":
                phase = np.exp(2j * np.pi * rng.uniform())
                mag = radius * rng.uniform()
                delta[c : c + block.cols, r : r + block.rows] = (
                    mag * phase * np.eye(block.rows)
                )
            else:
                raw = rng.normal(size=(block.cols, block.rows)) + 1j * rng.normal(
                    size=(block.cols, block.rows)
                )
                norm = np.linalg.svd(raw, compute_uv=False)[0]
                delta[c : c + block.cols, r : r + block.rows] = (
                    raw / max(norm, 1e-12) * radius * rng.uniform()
                )
            r += block.rows
            c += block.cols
        return delta

    def expansion(self):
        """Block index of every row and every column, as two int arrays.

        ``scales[rows]`` / ``scales[cols]`` expand one scale per block to
        the diagonal of the left / right D-scaling; computed once per
        structure.
        """
        if self._expansion is None:
            rows = np.repeat(np.arange(len(self.blocks)),
                             [b.rows for b in self.blocks])
            cols = np.repeat(np.arange(len(self.blocks)),
                             [b.cols for b in self.blocks])
            self._expansion = (rows, cols)
        return self._expansion

    def scaling_matrices(self, log_scales):
        """Build (D_left, D_right) from one log-scale per block.

        For full blocks the scaling is ``d * I`` on both sides; the last
        block's scale is pinned to 1 (only ratios matter).
        """
        scales = np.exp(np.asarray(log_scales, dtype=float))
        if scales.size != len(self.blocks):
            raise ValueError("need one scale per block")
        rows, cols = self.expansion()
        return np.diag(scales[rows]), np.diag(1.0 / scales[cols])

    def __len__(self):
        return len(self.blocks)

    def __repr__(self):
        parts = ", ".join(
            f"{b.kind}[{b.rows}x{b.cols}]" + (f":{b.name}" if b.name else "")
            for b in self.blocks
        )
        return f"BlockStructure({parts})"


def guardband_weight(fraction):
    """Uncertainty weight from a guardband percentage (e.g. 0.40 for +-40%).

    The model-uncertainty channel is scaled so that a unit-norm Delta
    produces the guardband-sized relative deviation.
    """
    if fraction <= 0:
        raise ValueError("guardband must be positive")
    return float(fraction)


def quantization_uncertainty(quantized_ranges):
    """Relative uncertainty radius induced by input snapping.

    For each input, half the worst level gap divided by the half-span is a
    norm bound on the snap error expressed in normalized input units; this is
    the Delta_in block of Fig. 1 folded into the design.
    """
    radii = []
    for qr in quantized_ranges:
        half_span = max(qr.span / 2.0, 1e-12)
        radii.append(qr.quantization_radius() / half_span)
    return np.asarray(radii)
