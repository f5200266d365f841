import tracemalloc

import numpy as np
import pytest

from risbeam.channel import ArrayGeometry, ChannelConfig, channel_stats, sample_paths
from risbeam.pattern import AngularGrid, grid_steering_rows
from risbeam.validation import (FD_BLOCK, TABLE_ENTRIES, _dense_excitation,
                                _full_matrix_pattern, relative_error,
                                wirtinger_finite_difference)


def _quartic(c):
    """f(z) = sum |z|^4 + Re(c^H z) of each point in a stack, and its
    conjugate-coordinate gradient 2 |z|^2 z + c / 2."""
    def cost(points):
        axes = tuple(range(1, points.ndim))
        return (np.sum(np.abs(points) ** 4, axis=axes)
                + np.sum(c.conj() * points, axis=axes).real)

    def grad(z):
        return 2.0 * np.abs(z) ** 2 * z + 0.5 * c

    return cost, grad


def _per_point_reference(fn, z, step):
    """One cost call per perturbed point, in the original entry order."""
    grad = np.zeros(z.shape, dtype=complex)
    for idx in np.ndindex(z.shape):
        parts = []
        for unit in (1.0, 1j):
            zp = z.copy()
            zm = z.copy()
            zp[idx] += step * unit
            zm[idx] -= step * unit
            parts.append((fn(zp[None])[0] - fn(zm[None])[0]) / (2.0 * step))
        grad[idx] = 0.5 * (parts[0] + 1j * parts[1])
    return grad


# 28 and 60 points fit one block; 140 points need several and a partial last one
@pytest.mark.parametrize("shape", [(7,), (3, 5), (5, 7)])
class TestWirtingerFiniteDifference:
    def _point(self, shape):
        rng = np.random.default_rng(len(shape))
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return z, c

    def test_matches_per_point_loop(self, shape):
        z, c = self._point(shape)
        cost, _ = _quartic(c)
        sizes = []

        def recording(points):
            assert points.shape[1:] == z.shape
            sizes.append(points.shape[0])
            return cost(points)

        np.testing.assert_array_equal(wirtinger_finite_difference(recording, z, 1e-6),
                                      _per_point_reference(cost, z, 1e-6))
        assert sum(sizes) == 4 * z.size
        assert max(sizes) <= FD_BLOCK

    def test_matches_closed_form(self, shape):
        z, c = self._point(shape)
        cost, grad = _quartic(c)
        assert relative_error(wirtinger_finite_difference(cost, z, 1e-6), grad(z)) < 1e-6


def _oracle_instance(m, oversampling, stack):
    n_bs = 4
    rng = np.random.default_rng(5)
    paths = sample_paths(ChannelConfig(num_paths=3, delay_spread_taps=0), rng)
    stats = channel_stats(paths, ArrayGeometry(m), ArrayGeometry(n_bs))
    grid = AngularGrid(oversampling, m)
    w = rng.standard_normal((n_bs, 2)) + 1j * rng.standard_normal((n_bs, 2))
    tms = (rng.standard_normal(stack + (m, m))
           + 1j * rng.standard_normal(stack + (m, m)))
    v, wnorm2 = _dense_excitation(w, stats)
    return stats, grid, tms, v, wnorm2


class TestFullMatrixOracle:
    # M = 100 on 1000 angles splits the product table into angle blocks of
    # TABLE_ENTRIES // M^2 = 6 with a partial last one; M = 6 is one block
    @pytest.mark.parametrize("m, oversampling, stack", [(6, 8, ()), (6, 8, (3,)),
                                                         (100, 10, (2,))])
    def test_matches_dense_product(self, m, oversampling, stack):
        stats, grid, tms, v, wnorm2 = _oracle_instance(m, oversampling, stack)
        rows = grid_steering_rows(grid)
        explicit = np.array([
            m * m * stats.num_bs_antennas
            * np.real(np.diag(rows @ tm @ v @ tm.conj().T @ rows.conj().T)) / wnorm2
            for tm in tms.reshape((-1, m, m))]).reshape(stack + (grid.size,))
        stacked = _full_matrix_pattern(tms, v, wnorm2, stats, grid)
        assert stacked.shape == explicit.shape
        assert np.max(np.abs(stacked - explicit)) <= 1e-12 * np.max(np.abs(explicit))
        per_matrix = np.array([_full_matrix_pattern(tm, v, wnorm2, stats, grid)
                               for tm in tms.reshape((-1, m, m))]).reshape(stacked.shape)
        assert np.max(np.abs(stacked - per_matrix)) <= 1e-13 * np.max(np.abs(per_matrix))

    def test_angle_blocks_split_the_table(self):
        step = TABLE_ENTRIES // 100 ** 2
        assert 1 < step < 1000 and 1000 % step != 0

    def test_table_memory_is_bounded(self):
        # at M = 100 a whole (grid, M^2) table would take 16 MB and the rows T
        # products of one matrix 1.6 MB each; one angle block takes 1 MB
        stats, grid, tms, v, wnorm2 = _oracle_instance(100, 10, ())
        grid_steering_rows(grid)  # cached: built before the trace
        tracemalloc.start()
        try:
            _full_matrix_pattern(tms, v, wnorm2, stats, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * TABLE_ENTRIES + 5 * tms.nbytes
