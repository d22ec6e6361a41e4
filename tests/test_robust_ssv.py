"""Tests for structured-singular-value bounds and uncertainty structures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lti import StateSpace
from repro.robust import (
    BlockStructure,
    UncertaintyBlock,
    guardband_weight,
    mu_bounds_over_frequency,
    mu_lower_bound,
    mu_upper_bound,
    mu_upper_bounds,
    quantization_uncertainty,
)
from repro.signals import QuantizedRange
from repro.verify.oracles import _reference_mu_upper_bound


class TestUncertaintyBlocks:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            UncertaintyBlock("weird", 1, 1)

    def test_repeated_must_be_square(self):
        with pytest.raises(ValueError):
            UncertaintyBlock("repeated", 2, 3)

    def test_structure_dimensions(self):
        structure = BlockStructure([
            UncertaintyBlock("full", 2, 3),
            UncertaintyBlock("repeated", 2, 2),
        ])
        assert structure.total_rows == 4
        assert structure.total_cols == 5

    def test_random_sample_norm_bounded(self, rng):
        structure = BlockStructure([
            UncertaintyBlock("full", 2, 2),
            UncertaintyBlock("repeated", 3, 3),
        ])
        for _ in range(10):
            delta = structure.random_sample(rng, radius=0.7)
            assert np.linalg.svd(delta, compute_uv=False)[0] <= 0.7 + 1e-9

    def test_guardband_weight(self):
        assert guardband_weight(0.4) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            guardband_weight(-1.0)

    def test_quantization_uncertainty(self):
        radii = quantization_uncertainty([
            QuantizedRange(0.2, 2.0, step=0.1),  # half-gap 0.05, half-span 0.9
            QuantizedRange(1, 4, step=1),  # half-gap 0.5, half-span 1.5
        ])
        assert radii[0] == pytest.approx(0.05 / 0.9)
        assert radii[1] == pytest.approx(0.5 / 1.5)


class TestMuBounds:
    def test_single_full_block_equals_sigma_max(self, rng):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        structure = BlockStructure([UncertaintyBlock("full", 3, 3)])
        upper, _ = mu_upper_bound(M, structure)
        assert upper == pytest.approx(np.linalg.svd(M, compute_uv=False)[0])

    def test_upper_at_least_lower(self, rng):
        structure = BlockStructure([
            UncertaintyBlock("full", 2, 2),
            UncertaintyBlock("full", 2, 2),
        ])
        for seed in range(5):
            gen = np.random.default_rng(seed)
            M = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
            upper, _ = mu_upper_bound(M, structure)
            lower = mu_lower_bound(M, structure, samples=40, seed=seed)
            assert upper >= lower - 1e-9

    def test_upper_not_above_sigma_max(self, rng):
        """D-scaling can only tighten below the unstructured bound."""
        structure = BlockStructure([
            UncertaintyBlock("full", 2, 2),
            UncertaintyBlock("full", 2, 2),
        ])
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        upper, _ = mu_upper_bound(M, structure)
        assert upper <= np.linalg.svd(M, compute_uv=False)[0] + 1e-9

    def test_block_diagonal_matrix_mu(self):
        """For M block diagonal w.r.t. the structure, mu = max block norm."""
        M = np.zeros((4, 4), dtype=complex)
        M[:2, :2] = np.diag([2.0, 1.0])
        M[2:, 2:] = np.diag([0.5, 0.1])
        structure = BlockStructure([
            UncertaintyBlock("full", 2, 2),
            UncertaintyBlock("full", 2, 2),
        ])
        upper, _ = mu_upper_bound(M, structure)
        lower = mu_lower_bound(M, structure, samples=80)
        assert upper == pytest.approx(2.0, rel=1e-3)
        assert lower == pytest.approx(2.0, rel=0.05)

    def test_shape_mismatch_rejected(self, rng):
        structure = BlockStructure([UncertaintyBlock("full", 2, 2)])
        with pytest.raises(ValueError):
            mu_upper_bound(rng.normal(size=(3, 3)), structure)

    def test_scaling_matrices(self):
        structure = BlockStructure([
            UncertaintyBlock("full", 1, 1),
            UncertaintyBlock("full", 2, 2),
        ])
        d_left, d_right_inv = structure.scaling_matrices([np.log(2.0), 0.0])
        assert d_left[0, 0] == pytest.approx(2.0)
        assert d_right_inv[0, 0] == pytest.approx(0.5)
        assert d_left[1, 1] == pytest.approx(1.0)


class TestMuOverFrequency:
    def test_detects_small_gain_robustness(self):
        # A tiny stable system: loop gain << 1 everywhere -> robust.
        channel = StateSpace([[0.5]], [[0.1]], [[0.1]], [[0.0]], dt=1.0)
        structure = BlockStructure([UncertaintyBlock("full", 1, 1)])
        analysis = mu_bounds_over_frequency(channel, structure, points=15)
        assert analysis.robust
        assert analysis.tolerated_fraction() > 1.0

    def test_flags_large_gain(self):
        channel = StateSpace([[0.5]], [[1.0]], [[5.0]], [[0.0]], dt=1.0)
        structure = BlockStructure([UncertaintyBlock("full", 1, 1)])
        analysis = mu_bounds_over_frequency(channel, structure, points=15)
        assert not analysis.robust
        # Peak of |5/(z-0.5)| is 10 at DC.
        assert analysis.peak_upper == pytest.approx(10.0, rel=0.05)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@st.composite
def _mixed_structures(draw):
    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        size = draw(st.integers(min_value=1, max_value=4))
        if draw(st.booleans()):
            blocks.append(UncertaintyBlock("repeated", size, size))
        else:
            cols = draw(st.integers(min_value=1, max_value=4))
            blocks.append(UncertaintyBlock("full", size, cols))
    return BlockStructure(blocks)


@st.composite
def _matrix_stacks(draw, structure):
    """1-30 matrices: random ones, exact duplicates, near-zero rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (structure.total_rows, structure.total_cols)
    distinct = draw(st.integers(min_value=1, max_value=8))
    base = rng.normal(size=(distinct,) + shape) \
        + 1j * rng.normal(size=(distinct,) + shape)
    base *= rng.uniform(0.1, 10.0, size=(distinct, 1, 1))
    count = draw(st.integers(min_value=1, max_value=30))
    Ms = base[rng.integers(0, distinct, size=count)]
    for k in range(count):
        if rng.uniform() < 0.3:
            row = rng.integers(0, shape[0])
            Ms[k, row, :] *= draw(st.sampled_from([0.0, 1e-17, 1e-9]))
    return Ms


class TestLockstepKernel:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_per_matrix_reference_in_bits(self, data):
        structure = data.draw(_mixed_structures())
        Ms = data.draw(_matrix_stacks(structure))
        bounds, scales = mu_upper_bounds(Ms, structure)
        for k, M in enumerate(Ms):
            ref_bound, ref_scales = _reference_mu_upper_bound(M, structure)
            assert _bits([bounds[k]]) == _bits([ref_bound])
            assert _bits(scales[k]) == _bits(ref_scales)
            # A matrix's result must not depend on its stack neighbours,
            # which stop descending at different iterations.
            alone, alone_scales = mu_upper_bounds(Ms[k:k + 1], structure)
            assert _bits(alone) == _bits([bounds[k]])
            assert _bits(alone_scales[0]) == _bits(scales[k])

    def test_single_matrix_is_stack_of_one(self, rng):
        structure = BlockStructure([
            UncertaintyBlock("full", 2, 1),
            UncertaintyBlock("repeated", 2, 2),
        ])
        M = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        bound, scales = mu_upper_bound(M, structure)
        bounds, stack_scales = mu_upper_bounds(M[None], structure)
        assert isinstance(bound, float)
        assert _bits([bound]) == _bits(bounds)
        assert _bits(scales) == _bits(stack_scales[0])

    def test_stack_shape_mismatch_rejected(self, rng):
        structure = BlockStructure([UncertaintyBlock("full", 2, 2)])
        with pytest.raises(ValueError):
            mu_upper_bounds(rng.normal(size=(3, 3)), structure)
        with pytest.raises(ValueError):
            mu_upper_bounds(rng.normal(size=(4, 3, 3)), structure)

    def test_empty_stack(self):
        structure = BlockStructure([UncertaintyBlock("full", 1, 1),
                                    UncertaintyBlock("full", 1, 1)])
        bounds, scales = mu_upper_bounds(np.zeros((0, 2, 2)), structure)
        assert bounds.shape == (0,)
        assert scales.shape == (0, 2)
