import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firedre.kernels as kernels
from firedre.kernels import KernelSpec, as_sample_matrix, bandwidth_grid, gaussian_kernel_matrix, kde
from firedre.linalg import blas_threads


def rand_points(rng, n, d, scale=1.0):
    return rng.standard_normal((n, d)) * scale


class TestKernelValues:
    def test_normalized_point_mass(self):
        # k_1(0, 0) in d=1 is (2 pi)^(-1/2)
        G = gaussian_kernel_matrix([[0.0]], [[0.0]], KernelSpec(t=1.0))
        assert G.shape == (1, 1)
        assert abs(G[0, 0] - (2.0 * np.pi) ** -0.5) < 1e-15

    def test_normalized_at_distance(self):
        # squared distance 2 with t=1 gives the point-mass value times e^{-1}
        G = gaussian_kernel_matrix([[0.0]], [[np.sqrt(2.0)]], KernelSpec(t=1.0))
        expected = (2.0 * np.pi) ** -0.5 * np.exp(-1.0)
        assert abs(G[0, 0] - expected) < 1e-15

    def test_unnormalized_diagonal_is_one(self):
        rng = np.random.default_rng(0)
        X = rand_points(rng, 9, 3)
        G = gaussian_kernel_matrix(X, X, KernelSpec(t=0.7, normalized=False))
        assert np.array_equal(np.diag(G), np.ones(9))

    def test_integrates_to_one_by_quadrature(self):
        # 1-d normalized kernel section integrates to 1
        t = 0.5
        xs = np.linspace(-20.0, 20.0, 100001)
        vals = gaussian_kernel_matrix([[0.0]], xs[:, None], KernelSpec(t=t))[0]
        total = np.trapezoid(vals, xs)
        assert abs(total - 1.0) < 1e-6

    def test_prefactor_scales_with_dimension(self):
        for d in (1, 2, 3):
            G = gaussian_kernel_matrix(np.zeros((1, d)), np.zeros((1, d)), KernelSpec(t=2.0))
            assert abs(G[0, 0] - (4.0 * np.pi) ** (-0.5 * d)) < 1e-15


class TestKernelMatrixProperties:
    def test_transpose_exact(self):
        rng = np.random.default_rng(1)
        A, B = rand_points(rng, 23, 4), rand_points(rng, 17, 4)
        spec = KernelSpec(t=1.3)
        assert np.array_equal(gaussian_kernel_matrix(A, B, spec).T, gaussian_kernel_matrix(B, A, spec))

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_transpose_exact_random_shapes(self, n, m, d, seed):
        rng = np.random.default_rng(seed)
        A, B = rand_points(rng, n, d, 3.0), rand_points(rng, m, d, 3.0)
        spec = KernelSpec(t=0.8, normalized=False)
        assert np.array_equal(gaussian_kernel_matrix(A, B, spec).T, gaussian_kernel_matrix(B, A, spec))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(2)
        X = rand_points(rng, 40, 2)
        G = gaussian_kernel_matrix(X, X, KernelSpec(t=0.5))
        assert np.array_equal(G, G.T)
        w = np.linalg.eigvalsh(G)
        assert w.min() >= -1e-8 * w.max()

    def test_entries_positive_bounded(self):
        rng = np.random.default_rng(3)
        X, Y = rand_points(rng, 15, 3), rand_points(rng, 11, 3)
        spec = KernelSpec(t=0.9)
        G = gaussian_kernel_matrix(X, Y, spec)
        peak = (2.0 * np.pi * 0.9) ** -1.5
        assert np.all(G > 0) and np.all(G <= peak + 1e-15)

    @given(st.integers(-3, 3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_exponent_invariance_power_of_two_rescale(self, log2c, seed):
        # scaling points by c and t by c^2 leaves the unnormalized matrix
        # unchanged, bitwise for power-of-two c
        c = 2.0 ** log2c
        rng = np.random.default_rng(seed)
        A, B = rand_points(rng, 8, 2), rand_points(rng, 6, 2)
        G1 = gaussian_kernel_matrix(A, B, KernelSpec(t=0.7, normalized=False))
        G2 = gaussian_kernel_matrix(c * A, c * B, KernelSpec(t=0.7 * c * c, normalized=False))
        assert np.array_equal(G1, G2)

    def test_exponent_invariance_general_rescale(self):
        rng = np.random.default_rng(4)
        A, B = rand_points(rng, 10, 3), rand_points(rng, 7, 3)
        c = 1.7
        G1 = gaussian_kernel_matrix(A, B, KernelSpec(t=0.4, normalized=False))
        G2 = gaussian_kernel_matrix(c * A, c * B, KernelSpec(t=0.4 * c * c, normalized=False))
        assert np.allclose(G1, G2, rtol=1e-12, atol=0)

    def test_blocked_rows_match_unblocked(self, monkeypatch):
        import firedre.kernels as kernels

        rng = np.random.default_rng(5)
        A, B = rand_points(rng, 50, 3), rand_points(rng, 33, 3)
        spec = KernelSpec(t=1.1)
        full = gaussian_kernel_matrix(A, B, spec)
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", 7 * 33 * 3)
        assert np.array_equal(gaussian_kernel_matrix(A, B, spec), full)


def sq_dists_reference(A, B):
    # float64 sum of squared coordinate differences, added left to right
    out = np.empty((A.shape[0], B.shape[0]))
    for i, a in enumerate(A.tolist()):
        for j, b in enumerate(B.tolist()):
            total = 0.0
            for x, y in zip(a, b):
                total += (x - y) * (x - y)
            out[i, j] = total
    return out


class TestSqDists:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_left_to_right_reference_bitwise(self, d):
        rng = np.random.default_rng(11 + d)
        A, B = rand_points(rng, 19, d, 3.0), rand_points(rng, 23, d, 3.0)
        assert np.array_equal(kernels._sq_dists(A, B), sq_dists_reference(A, B))

    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_transpose_exact_d5(self, n, m, seed):
        rng = np.random.default_rng(seed)
        A, B = rand_points(rng, n, 5, 3.0), rand_points(rng, m, 5, 3.0)
        assert np.array_equal(kernels._sq_dists(A, B), kernels._sq_dists(B, A).T)

    def test_self_distance_diagonal_is_zero_d5(self):
        rng = np.random.default_rng(12)
        A = rand_points(rng, 31, 5, 100.0)
        assert np.all(np.diag(kernels._sq_dists(A, A)) == 0.0)

    @pytest.mark.parametrize("d, scratch", [(1, False), (2, True)])
    def test_scratch_block_only_past_one_coordinate(self, d, scratch):
        # at d = 1 the first coordinate is written straight into the output
        rng = np.random.default_rng(14)
        A, B = rand_points(rng, 256, d), rand_points(rng, 256, d)
        out_bytes = 256 * 256 * 8
        tracemalloc.start()
        try:
            kernels._sq_dists(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak > 1.5 * out_bytes) == scratch

    @pytest.mark.parametrize("block_elems", [1, 33, 7 * 33 + 5, 2 ** 30])
    def test_block_size_independent_d5(self, monkeypatch, block_elems):
        rng = np.random.default_rng(13)
        A, B = rand_points(rng, 50, 5), rand_points(rng, 33, 5)
        full = kernels._sq_dists(A, B)
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
        assert np.array_equal(kernels._sq_dists(A, B), full)


class TestPrecomputedSqDists:
    """gaussian_kernel_matrix(..., sq=D) builds the same Gram from given squared distances."""

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_matches_plain_call_bitwise(self, d, normalized):
        rng = np.random.default_rng(20 + d)
        A, B = rand_points(rng, 37, d, 2.0), rand_points(rng, 29, d, 2.0)
        spec = KernelSpec(t=0.9, normalized=normalized)
        sq = kernels._sq_dists(A, B)
        kept = sq.copy()
        G = gaussian_kernel_matrix(A, B, spec, sq=sq)
        assert np.array_equal(G, gaussian_kernel_matrix(A, B, spec))
        assert np.array_equal(sq, kept)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_index_slices_of_a_larger_sample_bitwise(self, d):
        # D[rows][:, cols] is Fortran-ordered; the Gram still comes out in C
        # order, so its products add in the same order as the plain Gram's
        rng = np.random.default_rng(30 + d)
        X = rand_points(rng, 40, d, 2.0)
        rows, cols = rng.permutation(40)[:13], np.sort(rng.permutation(40)[:27])
        spec = KernelSpec(t=0.6, normalized=False)
        sliced = kernels._sq_dists(X, X)[rows][:, cols]
        assert not sliced.flags.c_contiguous
        G = gaussian_kernel_matrix(X[rows], X[cols], spec, sq=sliced)
        plain = gaussian_kernel_matrix(X[rows], X[cols], spec)
        assert G.flags.c_contiguous
        assert np.array_equal(G, plain)
        v = rng.standard_normal(27)
        assert np.array_equal(G @ v, plain @ v)

    @pytest.mark.parametrize("m", [1, 7, 400, 2000])
    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("tail", [1, 37])
    def test_row_means_in_blocks_bitwise(self, m, normalized, tail):
        rng = np.random.default_rng(m)
        spec = KernelSpec(t=0.9, normalized=normalized)
        for d in (1, 5):
            for blocks in (0, 2, 3):
                # one block of n = tail rows, or several, the last ragged: n is no multiple of 64
                n = blocks * (kernels._BLOCK_ELEMS // m + 64) + tail
                assert len(kernels.row_blocks(n, kernels._BLOCK_ELEMS // m)) == max(1, blocks)
                A, B = rand_points(rng, n, d, 2.0), rand_points(rng, m, d, 2.0)
                G = gaussian_kernel_matrix(A, B, spec)
                whole = G.sum(axis=1) / m
                assert np.array_equal(G.mean(axis=1), whole)
                assert np.array_equal(kernels.kernel_row_means(A, B, spec), whole)
                assert np.array_equal(kernels.kernel_row_means(A, B, spec, sq=kernels._sq_dists(A, B)), whole)
                if normalized:
                    assert np.array_equal(kde(B, A, spec), whole)

    def test_wrong_shape_rejected(self):
        rng = np.random.default_rng(40)
        A, B = rand_points(rng, 5, 2), rand_points(rng, 4, 2)
        with pytest.raises(ValueError, match="sq has shape"):
            gaussian_kernel_matrix(A, B, KernelSpec(t=1.0), sq=kernels._sq_dists(B, A))


class TestKernelErrors:
    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
    def test_bad_bandwidth_rejected(self, t):
        with pytest.raises(ValueError):
            KernelSpec(t=t)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gaussian_kernel_matrix(np.zeros((2, 2)), np.zeros((2, 3)), KernelSpec(t=1.0))

    def test_non_finite_points(self):
        X = np.array([[0.0], [np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            gaussian_kernel_matrix(X, X, KernelSpec(t=1.0))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            as_sample_matrix(np.zeros(4))


class TestBandwidthGrid:
    def test_collinear_points_brute_force(self):
        # 11 points on a line at unit spacing: brute-force 10-NN mean per point
        X = np.arange(11.0)[:, None]
        t0, grid = bandwidth_grid(X, neighbors=10, size=10)
        expected = []
        for i in range(11):
            dists = sorted(abs(j - i) for j in range(11) if j != i)
            expected.append(np.mean(dists[:10]))
        assert abs(t0 - np.mean(expected)) < 1e-12
        assert grid.shape == (10,)
        assert np.allclose(grid, t0 * 2.0 ** np.arange(10))

    def test_random_points_brute_force(self):
        rng = np.random.default_rng(6)
        X = rand_points(rng, 30, 2)
        t0, _ = bandwidth_grid(X, neighbors=10)
        per_point = []
        for i in range(30):
            d = np.sort(np.linalg.norm(X - X[i], axis=1))[1:11]
            per_point.append(d.mean())
        assert abs(t0 - np.mean(per_point)) < 1e-12

    def test_grid_is_ascending_doubling(self):
        rng = np.random.default_rng(7)
        _, grid = bandwidth_grid(rand_points(rng, 20, 1), size=6)
        assert np.all(np.diff(grid) > 0)
        assert np.allclose(grid[1:] / grid[:-1], 2.0)

    @pytest.mark.parametrize("n, d, neighbors", [(11, 1, 10), (60, 1, 10), (200, 5, 10), (90, 2, 3)])
    def test_matches_full_sort_bitwise(self, n, d, neighbors):
        # the full-sort formulation the partition replaced, tied points included
        X = rand_points(np.random.default_rng(n + d), n, d)
        X[1::7] = X[::7][: len(X[1::7])]
        D = np.sqrt(np.maximum(kernels._sq_dists(X, X), 0.0))
        np.fill_diagonal(D, np.inf)
        D.sort(axis=1)
        t0, grid = bandwidth_grid(X, neighbors=neighbors)
        assert t0 == float(D[:, :neighbors].mean())
        assert np.array_equal(grid, t0 * 2.0 ** np.arange(10))

    @pytest.mark.parametrize("n, d", [(1000, 2), (1350, 5)])
    def test_matches_full_sort_bitwise_over_many_blocks(self, n, d):
        # the mean must add in the full matrix's order: summing the same
        # values from a contiguous (n, 10) array differs in the last bit here
        X = np.random.default_rng(0).standard_normal((n, d))
        D = np.sqrt(np.maximum(kernels._sq_dists(X, X), 0.0))
        np.fill_diagonal(D, np.inf)
        D.sort(axis=1)
        assert bandwidth_grid(X)[0] == float(D[:, :10].mean())

    @pytest.mark.parametrize("n, d", [(60, 1), (200, 5)])
    def test_t0_does_not_depend_on_block_size(self, monkeypatch, n, d):
        X = rand_points(np.random.default_rng(n * d), n, d)
        X[1::7] = X[::7][: len(X[1::7])]
        rows, sq_dists = [], kernels._sq_dists

        def spy(A, B):
            rows.append(A.shape[0])
            return sq_dists(A, B)

        monkeypatch.setattr(kernels, "_sq_dists", spy)
        t0 = bandwidth_grid(X)[0]
        assert max(rows) <= max(1, kernels._BLOCK_ELEMS // n)
        for rows_per_block in (1, 7, n - 1, n):
            monkeypatch.setattr(kernels, "_BLOCK_ELEMS", rows_per_block * n)
            rows.clear()
            assert bandwidth_grid(X)[0] == t0
            assert max(rows) == rows_per_block and sum(rows) == n

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 11"):
            bandwidth_grid(np.zeros((10, 1)))

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            bandwidth_grid(np.zeros((12, 1)))


class TestRowBlocks:
    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 129, 191, 255, 256, 320, 640, 1378, 2000, 5000])
    def test_partition(self, rows):
        for least in (0, 1, 32, 63, 64, 192, 1000, 65536):
            blocks = kernels.row_blocks(rows, least)
            edges = [b.start for b in blocks] + [rows]
            assert edges[0] == 0 and all(b.stop == e for b, e in zip(blocks, edges[1:]))  # every row once, in order
            assert all(e % 64 == 0 for e in edges[:-1])
            sizes = [b.stop - b.start for b in blocks]
            assert min(sizes) > 0
            assert len(blocks) == max(1, rows // (least + 64))
            assert len(blocks) == 1 or min(sizes) >= least  # only a lone slice may be under the floor


class TestReadRows:
    """Each read of read_rows is bitwise the same read of the whole Gram, over several blocks, the last ragged."""

    K1, K2, K3 = KernelSpec(t=0.4), KernelSpec(t=0.4, normalized=False), KernelSpec(t=1.3)

    @pytest.fixture
    def used_blocks(self, monkeypatch):
        """The row blocks of each read_rows call, in call order."""
        calls, row_blocks = [], kernels.row_blocks

        def spy(rows, least):
            calls.append(row_blocks(rows, least))
            return calls[-1]

        monkeypatch.setattr(kernels, "row_blocks", spy)
        return calls

    @pytest.mark.parametrize("with_sq", [False, True])
    @pytest.mark.parametrize("lone", [False, True])
    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("rows, m", [(601, 60), (700, 1500), (2000, 300)])
    def test_every_read_equals_the_whole_grams(self, rows, m, d, lone, with_sq, used_blocks):
        rng = np.random.default_rng(rows + m + d)
        X, Z = rand_points(rng, rows, d, 1.5), rand_points(rng, m, d, 1.5)
        v, V = rng.standard_normal(m), rng.standard_normal((m, 6))  # a dgemv read and an n x L dgemm read
        if lone:  # one kernel: its Gram is built over the block's own distances
            wanted = [(self.K1, v), (self.K1, V), (self.K1, None)]
        else:
            wanted = [(self.K1, v), (self.K2, None), (self.K1, V), (self.K3, None), (self.K3, v), (self.K2, V)]
        with blas_threads(1):
            for reads in (wanted, [(k, coef) for k, coef in wanted if coef is not None]):  # all; the products alone
                outs = [np.empty((rows, *np.shape(coef)[1:])) for _, coef in reads]
                kernels.read_rows(X, Z, [(k, out, coef) for (k, coef), out in zip(reads, outs)],
                                  kernels._sq_dists(X, Z) if with_sq else None)
                for (k, coef), out in zip(reads, outs):
                    G = gaussian_kernel_matrix(X, Z, k)
                    assert np.array_equal(out, G.mean(axis=1) if coef is None else G @ coef)
        assert len(used_blocks[1]) > 1 and rows % 64  # the products alone take several blocks, the last ragged

    @pytest.mark.parametrize("rows, m", [(601, 60), (700, 1500), (2000, 300), (5000, 40)])
    def test_blocks_take_the_largest_floor_of_the_reads(self, rows, m, used_blocks):
        rng = np.random.default_rng(rows * m)
        X, Z = rand_points(rng, rows, 2), rand_points(rng, m, 2)
        k, out = KernelSpec(t=1.0), np.empty((rows, 6))
        mean, vector, matrix = (k, out[:, 0], None), (k, out[:, 1], np.ones(m)), (k, out, np.ones((m, 6)))
        mean_rows, matrix_rows = kernels._BLOCK_ELEMS // m, kernels._product_rows(rows, 6 * m)
        for reads, expected in [
            ([mean], kernels.row_blocks(rows, mean_rows)),
            ([vector], kernels.row_blocks(rows, kernels.PRODUCT_ROWS)),
            ([matrix], kernels.product_blocks(rows, 6 * m)),
            ([mean, vector], kernels.row_blocks(rows, max(mean_rows, kernels.PRODUCT_ROWS))),
            ([vector, matrix, mean], kernels.row_blocks(rows, max(mean_rows, matrix_rows))),
        ]:
            kernels.read_rows(X, Z, reads)
            assert used_blocks[-1] == expected

    @staticmethod
    def gram_calls(monkeypatch):
        """The (rows, spec) of each gaussian_kernel_matrix call read_rows makes."""
        calls, gram = [], kernels.gaussian_kernel_matrix

        def spy(A, B, spec, sq=None):
            calls.append((A.shape[0], spec))
            return gram(A, B, spec, sq)

        monkeypatch.setattr(kernels, "gaussian_kernel_matrix", spy)
        return calls

    def read_all(self, X, Z, wanted, sq=None):
        outs = [np.empty((X.shape[0], *np.shape(coef)[1:])) for _, coef in wanted]
        with blas_threads(1):
            kernels.read_rows(X, Z, [(k, out, coef) for (k, coef), out in zip(wanted, outs)], sq)
        return outs

    @pytest.mark.parametrize("with_sq", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("rows, m", [(2600, 60), (2000, 300)])
    def test_power_of_two_chain_agrees_with_the_grams(self, rows, m, d, with_sq, monkeypatch):
        """t = 1 and t = 0.25 (a gap of two halvings), both kinds at each: one exponentiation per block.

        A read k squarings below the largest t is within 2^(k + 2) eps (|G| @ |coef|) of the whole Gram's read,
        the unnormalized Gram's times c(t) for a normalized kernel, as the route scales it (bitwise at k = 0).
        Against the normalized Gram's own product, moving c(t) past the sum alone moves a read by up to about
        9 eps (|G| @ |coef|) at m = 300 with coefficients of both signs: rounding of the sum, not of the ladder.
        """
        rng = np.random.default_rng(10 * rows + d)
        X, Z = rand_points(rng, rows, d, 1.5), rand_points(rng, m, d, 1.5)
        v, V = rng.standard_normal(m), rng.standard_normal((m, 6))
        squarings = {1.0: 0, 0.25: 2}
        specs = [KernelSpec(t, normalized) for t in squarings for normalized in (True, False)]
        wanted = [(k, coef) for k in specs for coef in (v, V, None)]
        sq = kernels._sq_dists(X, Z) if with_sq else None
        kept = None if sq is None else sq.copy()
        calls = self.gram_calls(monkeypatch)
        outs = self.read_all(X, Z, wanted, sq)
        assert sq is None or np.array_equal(sq, kept)  # the caller's distances are left unchanged
        top = KernelSpec(1.0, normalized=False)
        blocks = kernels.row_blocks(rows, max(kernels._BLOCK_ELEMS // m, kernels._product_rows(rows, 6 * m)))
        assert calls == [(b.stop - b.start, top) for b in blocks] and len(blocks) > 1
        for (k, coef), out in zip(wanted, outs):
            G = gaussian_kernel_matrix(X, Z, KernelSpec(k.t, normalized=False))
            c = (2.0 * np.pi * k.t) ** (-0.5 * d) if k.normalized else 1.0
            direct, scale = (G.mean(axis=1), G.mean(axis=1)) if coef is None else (G @ coef, G @ np.abs(coef))
            gap = np.abs(out - c * direct)
            assert np.all(gap <= 2.0 ** (squarings[k.t] + 2) * np.finfo(float).eps * c * scale)
            assert squarings[k.t] or not gap.any()

    @pytest.mark.parametrize("ts", [[0.3, 0.5], [1.0, 2.0 * (1.0 + 2.0 ** -52)], [0.4]])
    def test_lone_kernel_and_non_chains_read_each_gram(self, ts, monkeypatch):
        rng = np.random.default_rng(len(ts))
        X, Z = rand_points(rng, 2000, 2), rand_points(rng, 300, 2)
        v, V = rng.standard_normal(300), rng.standard_normal((300, 6))
        specs = [KernelSpec(t) for t in ts]
        wanted = [(k, coef) for k in specs for coef in (v, V, None)]
        calls = self.gram_calls(monkeypatch)
        outs = self.read_all(X, Z, wanted)
        assert sorted({spec for _, spec in calls}, key=lambda k: k.t) == specs  # each kernel's own Gram
        for (k, coef), out in zip(wanted, outs):
            G = gaussian_kernel_matrix(X, Z, k)
            assert np.array_equal(out, G.mean(axis=1) if coef is None else G @ coef)

    def test_no_reads_compute_nothing(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a Gram or distances were computed with no reads")

        monkeypatch.setattr(kernels, "_sq_dists", fail)
        monkeypatch.setattr(kernels, "gaussian_kernel_matrix", fail)
        kernels.read_rows(np.zeros((300, 1)), np.zeros((5, 1)), [])


class TestReadListProperty:
    """Random read lists against the whole Grams: a group of one bitwise, a chain read within its documented bound."""

    KINDS = st.sampled_from(["mean", "vector", "matrix"])
    # t = 1, 0.5 and 0.25 form a power-of-two chain; 0.7 is off it
    CHAIN = st.sampled_from([KernelSpec(t, normalized) for t in (1.0, 0.5, 0.25) for normalized in (True, False)])
    OFF = st.sampled_from([KernelSpec(0.7, normalized) for normalized in (True, False)])

    @given(
        st.lists(st.tuples(CHAIN, KINDS), min_size=1, max_size=5),
        st.lists(st.tuples(OFF, KINDS), max_size=2),
        st.sampled_from([1, 255, 256, 257, 511, 512, 513, 700, 1100, 1500]),
        st.sampled_from([40, 300]),
        st.integers(1, 3),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_each_read_agrees_with_the_whole_gram(self, on, off, rows, m, d, with_sq):
        rng = np.random.default_rng(rows * m + d)
        X, Z = rand_points(rng, rows, d, 1.5), rand_points(rng, m, d, 1.5)
        coefs = {"mean": None, "vector": rng.standard_normal(m), "matrix": rng.standard_normal((m, 3))}
        wanted = [(k, coefs[kind]) for k, kind in on + off]
        outs = [np.empty((rows, *np.shape(coef)[1:])) for _, coef in wanted]
        with blas_threads(1):
            kernels.read_rows(X, Z, [(k, out, coef) for (k, coef), out in zip(wanted, outs)],
                              kernels._sq_dists(X, Z) if with_sq else None)
            distinct = {k for k, _ in wanted}
            chain = len(distinct) > 1 and len({np.frexp(k.t)[0] for k in distinct}) == 1
            t_max = max(k.t for k in distinct)
            for (k, coef), out in zip(wanted, outs):
                if not chain:  # a group of one: its own Gram
                    G = gaussian_kernel_matrix(X, Z, k)
                    assert np.array_equal(out, G.mean(axis=1) if coef is None else G @ coef)
                    continue
                squarings = int(np.log2(t_max / k.t))
                U = gaussian_kernel_matrix(X, Z, KernelSpec(k.t, normalized=False))
                c = k.scale(d)
                direct, scale = (U.mean(axis=1),) * 2 if coef is None else (U @ coef, U @ np.abs(coef))
                gap = np.abs(out - c * direct)
                assert np.all(gap <= 2.0 ** (squarings + 2) * np.finfo(float).eps * c * scale)
                assert squarings or not gap.any()


class TestKde:
    def test_two_point_hand_computation(self):
        # kde of {0, 1} at 0 is (k(0,0) + k(1,0)) / 2
        spec = KernelSpec(t=0.5)
        got = kde([[0.0], [1.0]], [[0.0]], spec)[0]
        c = (2.0 * np.pi * 0.5) ** -0.5
        expected = 0.5 * (c + c * np.exp(-1.0))
        assert abs(got - expected) < 1e-15

    def test_matches_density_monte_carlo(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((4000, 1))
        eval_pts = np.linspace(-2, 2, 9)[:, None]
        est = kde(X, eval_pts, KernelSpec(t=0.05))
        truth = (2 * np.pi) ** -0.5 * np.exp(-eval_pts[:, 0] ** 2 / 2)
        assert np.max(np.abs(est - truth)) < 0.05

    def test_integrates_to_one(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((50, 1))
        t = 0.3
        xs = np.linspace(X.min() - 6 * np.sqrt(t), X.max() + 6 * np.sqrt(t), 20001)
        dens = kde(X, xs[:, None], KernelSpec(t=t))
        assert abs(np.trapezoid(dens, xs) - 1.0) < 1e-3

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((25, 2))
        E = rng.standard_normal((4, 2))
        spec = KernelSpec(t=0.8)
        base = kde(X, E, spec)
        perm = rng.permutation(25)
        assert np.allclose(kde(X[perm], E, spec), base, rtol=1e-13)

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            kde(np.zeros((3, 1)), np.zeros((1, 1)), KernelSpec(t=1.0, normalized=False))

    def test_positive(self):
        rng = np.random.default_rng(10)
        X = rand_points(rng, 30, 2)
        assert np.all(kde(X, rand_points(rng, 5, 2), KernelSpec(t=0.5)) > 0)
