import numpy as np
import pytest

from firedre.baselines import GaussianDensity
from firedre.data import (
    _row_uniforms,
    first_pc,
    label_resample,
    load_csv,
    pca_resample,
    simulate,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_headerless_numeric(self, tmp_path):
        X, labels = load_csv(write(tmp_path, "1,2\n3,4\n5,6\n"))
        assert np.array_equal(X, [[1, 2], [3, 4], [5, 6]])
        assert labels is None

    def test_header_detected_and_skipped(self, tmp_path):
        X, _ = load_csv(write(tmp_path, "x0,x1\n1,2\n3,4\n"))
        assert np.array_equal(X, [[1, 2], [3, 4]])

    def test_numeric_looking_header_kept_as_data(self, tmp_path):
        # all-numeric first row cannot be distinguished from data, so it is data
        X, _ = load_csv(write(tmp_path, "7,8\n1,2\n"))
        assert np.array_equal(X, [[7, 8], [1, 2]])

    def test_label_column_extraction(self, tmp_path):
        X, labels = load_csv(write(tmp_path, "1,2,0\n3,4,1\n"), label_column=2)
        assert np.array_equal(X, [[1, 2], [3, 4]])
        assert np.array_equal(labels, [0.0, 1.0])
        assert labels.dtype == np.float64

    def test_negative_label_column(self, tmp_path):
        X, labels = load_csv(write(tmp_path, "1,2,5\n3,4,6\n"), label_column=-1)
        assert np.array_equal(X, [[1, 2], [3, 4]])
        assert np.array_equal(labels, [5.0, 6.0])

    def test_string_labels_stay_strings(self, tmp_path):
        X, labels = load_csv(write(tmp_path, "x,y,cls\n1,2,cat\n3,4,dog\n"), label_column=2)
        assert list(labels) == ["cat", "dog"]

    def test_header_rule_ignores_label_cell(self, tmp_path):
        # header decision looks only at feature cells; a string label in the
        # first data row must not trigger header skipping
        X, labels = load_csv(write(tmp_path, "1,2,cat\n3,4,dog\n"), label_column=2)
        assert X.shape == (2, 2)
        assert list(labels) == ["cat", "dog"]

    def test_ragged_row_reports_line(self, tmp_path):
        with pytest.raises(ValueError, match="line 3"):
            load_csv(write(tmp_path, "1,2\n3,4\n5\n"))

    def test_non_numeric_cell_reports_line(self, tmp_path):
        with pytest.raises(ValueError, match="line 2.*oops"):
            load_csv(write(tmp_path, "1,2\n1,oops\n"))

    @pytest.mark.parametrize(
        "text, label_column, where",
        [
            ("1,2\n3,nan\n", None, "line 2: non-finite value 'nan' in column 1"),
            ("x,y\n1,2\n-inf,4\n", None, "line 3: non-finite value '-inf' in column 0"),
            ("1,2,1\n3,4,nan\n", 2, "line 2: non-finite value 'nan' in column 2"),
            ("1,2,1\n3,4,1\ninf,5,Infinity\n", -1, "line 3: non-finite value 'inf' in column 0"),
            ("1,2,1\n3,4,-1\n5,6,inf\n", 2, "line 3: non-finite value 'inf' in column 2"),
        ],
    )
    def test_non_finite_value_reports_line_and_column(self, tmp_path, text, label_column, where):
        path = write(tmp_path, text)
        with pytest.raises(ValueError) as exc:
            load_csv(path, label_column=label_column)
        assert str(exc.value) == f"{path}: {where}"

    @pytest.mark.parametrize(
        "bad_row, where",
        [
            ("3,oops,z", "non-numeric value 'oops' in column 1"),
            ("3,inf,z", "non-finite value 'inf' in column 1"),
            ("3,4", "expected 3 fields, got 2"),
        ],
    )
    def test_line_counts_file_lines_not_records(self, tmp_path, bad_row, where):
        # the quoted label on line 2 spans two file lines, so the bad row is line 4, not record 3
        path = write(tmp_path, f'x0,x1,y\n1,2,"x\ny"\n{bad_row}\n')
        with pytest.raises(ValueError) as exc:
            load_csv(path, label_column=2)
        assert str(exc.value) == f"{path}: line 4: {where}"

    def test_nan_string_label_stays_a_string(self, tmp_path):
        # labels that do not all parse as numbers are strings, and "nan" is one of them
        _, labels = load_csv(write(tmp_path, "1,2,cat\n3,4,nan\n"), label_column=2)
        assert list(labels) == ["cat", "nan"]

    def test_label_column_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="out of range"):
            load_csv(write(tmp_path, "1,2\n"), label_column=5)

    def test_single_column_with_label_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="feature columns"):
            load_csv(write(tmp_path, "1\n2\n"), label_column=0)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_csv(write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(write(tmp_path, "a,b\n"))

    def test_blank_lines_skipped(self, tmp_path):
        X, _ = load_csv(write(tmp_path, "1,2\n\n3,4\n\n"))
        assert X.shape == (2, 2)


class TestFirstPc:
    def test_two_point_oracle(self):
        # points at +-1 on the x-axis: e1 = (1, 0), sigma_v = 1
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        e1, sigma_v = first_pc(X)
        assert np.allclose(e1, [1.0, 0.0], atol=1e-12)
        assert abs(sigma_v - 1.0) < 1e-12

    def test_aligns_with_stretched_axis(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((500, 3)) * np.array([5.0, 1.0, 0.5])
        e1, sigma_v = first_pc(X)
        assert abs(abs(e1[0]) - 1.0) < 0.01
        assert abs(sigma_v - 5.0) < 0.5

    def test_unit_norm_and_sign_convention(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 4))
            e1, _ = first_pc(X)
            assert abs(np.linalg.norm(e1) - 1.0) < 1e-12
            lead = e1[np.abs(e1) > 1e-12 * np.abs(e1).max()][0]
            assert lead > 0

    def test_beats_random_directions(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 5)) @ rng.standard_normal((5, 5))
        e1, sigma_v = first_pc(X)
        Xc = X - X.mean(axis=0)
        for _ in range(100):
            u = rng.standard_normal(5)
            u /= np.linalg.norm(u)
            assert np.mean((Xc @ u) ** 2) <= sigma_v ** 2 + 1e-10

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError, match="at least 2"):
            first_pc(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="degenerate"):
            first_pc(np.ones((5, 2)))


class TestPcaResample:
    def test_matches_recomputed_bernoulli_draws(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 3)) * np.array([3.0, 1.0, 1.0])
        a, b, seed = 1.5, 0.5, 99
        res = pca_resample(X, None, a=a, b=b, seed=seed)
        e1, sigma_v = first_pc(X)
        proj = (X - X.mean(axis=0)) @ e1
        z = (a * proj - b) / sigma_v
        probs = 1.0 / (1.0 + np.exp(-z))
        u = np.array([np.random.default_rng([seed, i]).random() for i in range(60)])
        mask = u < probs
        assert np.array_equal(res.mask, mask)
        assert np.array_equal(res.X, X[mask])
        assert np.array_equal(res.e1, e1)
        assert res.sigma_v == sigma_v

    @pytest.mark.parametrize("seed", [0, 99, 2**32 + 5, 2**64 - 1, 2**70 + 3])
    def test_row_uniforms_equal_per_row_generators_bitwise(self, seed):
        # seeds of one, two and three uint32 words; rows of one and two words
        rows = [0, 1, 2, 17, 2**32 - 1, 2**32, 2**40]
        u = _row_uniforms(seed, np.array(rows, dtype=np.uint64))
        expected = np.array([np.random.default_rng([seed, i]).random() for i in rows])
        assert u.tobytes() == expected.tobytes()

    def test_negative_seed_raises_numpys_error(self):
        with pytest.raises(ValueError) as numpys:
            np.random.default_rng([-1, 0])
        X = np.random.default_rng(9).standard_normal((20, 2))
        for call in (lambda: _row_uniforms(-1, [0]), lambda: pca_resample(X, None, a=1.0, b=0.0, seed=-1)):
            with pytest.raises(ValueError) as ours:
                call()
            assert str(ours.value) == str(numpys.value)

    def test_deterministic(self):
        X = np.random.default_rng(4).standard_normal((50, 2))
        r1 = pca_resample(X, None, a=1.0, b=0.0, seed=5)
        r2 = pca_resample(X, None, a=1.0, b=0.0, seed=5)
        assert np.array_equal(r1.mask, r2.mask)

    def test_per_row_draws_are_independent_of_other_rows(self):
        # dropping the last row must not change any earlier decision
        X = np.random.default_rng(5).standard_normal((30, 2)) * np.array([4.0, 1.0])
        full = pca_resample(X, None, a=2.0, b=0.0, seed=6)
        # same projections: duplicate the sample so PCA stats are unchanged
        again = pca_resample(X, None, a=2.0, b=0.0, seed=6)
        assert np.array_equal(full.mask, again.mask)

    def test_shifts_kept_sample_toward_high_projection(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4000, 2)) * np.array([3.0, 1.0])
        res = pca_resample(X, None, a=3.0, b=1.0, seed=7)
        proj_all = (X - X.mean(axis=0)) @ res.e1
        assert proj_all[res.mask].mean() > proj_all.mean() + 0.5

    def test_labels_follow_mask(self):
        X = np.random.default_rng(7).standard_normal((40, 2))
        labels = np.arange(40.0)
        res = pca_resample(X, labels, a=1.0, b=0.0, seed=8)
        assert np.array_equal(res.labels, labels[res.mask])

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            pca_resample(np.zeros((4, 2)) + np.eye(4, 2), np.ones(3), a=1.0, b=0.0, seed=0)

    def test_impossible_gate_errors(self):
        X = np.random.default_rng(8).standard_normal((20, 2))
        with pytest.raises(ValueError, match="kept no rows"):
            pca_resample(X, None, a=1.0, b=1e6, seed=0)


class TestLabelResample:
    def test_numeric_subset(self):
        X = np.arange(10.0).reshape(5, 2)
        labels = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        res = label_resample(X, labels, keep_labels=[1.0, 2.0])
        assert np.array_equal(res.mask, [False, True, True, True, False])
        assert np.array_equal(res.X, X[[1, 2, 3]])
        assert set(res.labels) == {1.0, 2.0}

    def test_string_labels(self):
        X = np.zeros((3, 1)) + np.arange(3)[:, None]
        labels = np.array(["a", "b", "a"])
        res = label_resample(X, labels, keep_labels=["a"])
        assert np.array_equal(res.mask, [True, False, True])

    def test_no_match_errors(self):
        with pytest.raises(ValueError, match="no rows"):
            label_resample(np.zeros((2, 1)), np.array([1.0, 2.0]), keep_labels=[9.0])

    def test_missing_labels_errors(self):
        with pytest.raises(ValueError, match="labels"):
            label_resample(np.zeros((2, 1)), None, keep_labels=[1.0])


class TestSimulate:
    def test_shape_and_determinism(self):
        g = GaussianDensity(mean=(0.0, 1.0), std=2.0)
        a = simulate(g, 25, seed=42)
        b = simulate(g, 25, seed=42)
        c = simulate(g, 25, seed=43)
        assert a.shape == (25, 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_matches_direct_draw(self):
        g = GaussianDensity(mean=(1.0,), std=0.5)
        a = simulate(g, 10, seed=3)
        b = g.sample(10, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            simulate(GaussianDensity(mean=(0.0,), std=1.0), 0, seed=0)
