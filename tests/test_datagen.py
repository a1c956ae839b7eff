import math
import tracemalloc

import numpy as np
import pytest

import extlasso as xl
from extlasso.datagen import CovarianceSpec, SparsityRegime
from oracles import design_one_shot


def scan_n_from_theta(theta, k, p):
    """Independent oracle: linear scan over the monotone map n -> n/ln n."""
    target = 4.0 * theta * k * math.log(p - k)
    n = 8
    while n / math.log(n) < target:
        n += 1
    return n


class TestDesign:
    def test_identity_sample_covariance(self):
        X = xl.gen_design(10_000, 4, CovarianceSpec("identity", p=4), seed=0)
        cov = X.T @ X / 10_000
        assert np.max(np.abs(cov - np.eye(4))) < 0.05

    def test_ar1_zero_equals_identity(self):
        a = xl.gen_design(50, 6, CovarianceSpec("identity", p=6), seed=9)
        b = xl.gen_design(50, 6, CovarianceSpec("ar1", p=6, rho=0.0), seed=9)
        assert a.tobytes() == b.tobytes()

    def test_explicit_diagonal_variances(self):
        spec = CovarianceSpec("explicit", matrix=np.diag([4.0, 1.0]))
        X = xl.gen_design(4000, 2, spec, seed=3)
        sq = (X ** 2).sum(axis=0)
        assert abs(sq[0] - 4 * 4000) < 0.10 * 4 * 4000
        assert abs(sq[1] - 1 * 4000) < 0.10 * 4000

    def test_ar1_correlation(self):
        X = xl.gen_design(20_000, 3, CovarianceSpec("ar1", p=3, rho=0.6), seed=1)
        cov = X.T @ X / 20_000
        assert cov[0, 1] == pytest.approx(0.6, abs=0.05)
        assert cov[0, 2] == pytest.approx(0.36, abs=0.05)

    def test_non_spd_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(xl.InputError):
            xl.gen_design(10, 2, CovarianceSpec("explicit", matrix=bad), seed=0)

    def test_determinism(self):
        a = xl.gen_design(30, 5, seed=(1, 2, 3))
        b = xl.gen_design(30, 5, seed=(1, 2, 3))
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2055])
    @pytest.mark.parametrize("seed", [4, (7, 6, 2)])
    @pytest.mark.parametrize("spec", [None, CovarianceSpec("ar1", p=9, rho=0.0)])
    def test_streamed_blocks_match_one_shot_draw(self, n, seed, spec):
        """The design is drawn in blocks of 1024 rows that continue one
        stream: under an identity covariance it is byte for byte the
        one-shot draw, whether n fills its last block or not."""
        X = xl.gen_design(n, 9, spec, seed=seed)
        assert X.flags.f_contiguous
        assert X.tobytes(order="A") == \
            design_one_shot(n, 9, spec, seed).tobytes(order="A")

    @pytest.mark.parametrize("spec", [
        CovarianceSpec("ar1", p=7, rho=0.6),
        CovarianceSpec("explicit", matrix=0.5 * np.eye(7) + 0.5)])
    def test_correlated_blocks_match_one_shot_draw(self, spec):
        """Under a general covariance each block is multiplied by L' on its
        own, which may round differently from the one-shot product."""
        X = xl.gen_design(2055, 7, spec, seed=8)
        assert X.flags.f_contiguous
        np.testing.assert_allclose(X, design_one_shot(2055, 7, spec, 8),
                                   rtol=0, atol=1e-12)

    def test_generation_holds_one_design(self):
        """A theta = 8 criterion-2 instance holds X and 1024-row buffers,
        not a second n x p copy: the traced peak stays below 1.3 X.nbytes."""
        tracemalloc.start()
        try:
            inst = xl.gen_instance(11455, 128, k=8, s=5727, sigma=0.1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * inst.X.nbytes


class TestSparseVector:
    def test_empty_support(self):
        v, sup = xl.gen_sparse_vector(10, 0, seed=0)
        assert not v.any() and len(sup) == 0

    def test_full_support(self):
        v, sup = xl.gen_sparse_vector(10, 10, seed=0)
        assert np.all(v != 0) and len(sup) == 10

    def test_support_uniformity(self):
        counts = np.zeros(1000)
        for seed in range(1000):
            _, sup = xl.gen_sparse_vector(1000, 100, seed=seed)
            counts[sup] += 1
        freq = counts / 1000
        assert np.all(np.abs(freq - 0.1) <= 0.03)

    def test_magnitude_floor(self):
        v, sup = xl.gen_sparse_vector(50, 20, seed=5, floor=0.8)
        assert np.all(np.abs(v[sup]) >= 0.8)

    def test_scale(self):
        v1, _ = xl.gen_sparse_vector(30, 10, seed=6)
        v10, _ = xl.gen_sparse_vector(30, 10, seed=6, scale=10.0)
        np.testing.assert_allclose(v10, 10.0 * v1, rtol=1e-15)

    def test_oversized_support_rejected(self):
        with pytest.raises(xl.InputError):
            xl.gen_sparse_vector(5, 6, seed=0)


class TestRegimes:
    def test_sublinear_p128(self):
        # oracle: round-half-up of 0.2*128/ln(25.6) = round(7.8949...) = 8
        raw = 0.2 * 128 / math.log(0.2 * 128)
        assert math.floor(raw + 0.5) == 8
        assert SparsityRegime("sublinear").k_of(128) == 8

    def test_linear_and_fractional(self):
        assert SparsityRegime("linear").k_of(128) == 13  # round(12.8)
        assert SparsityRegime("fractional").k_of(128) == 19  # round(19.027)

    def test_clamped_to_valid_range(self):
        assert 1 <= SparsityRegime("sublinear").k_of(8) <= 8


class TestInstance:
    def test_noiseless_uncorrupted(self):
        inst = xl.gen_instance(20, 6, k=2, s=0, sigma=0.0, seed=8)
        np.testing.assert_array_equal(inst.y, inst.X @ inst.truth.beta_star)

    def test_missing_mode_zeros(self):
        inst = xl.gen_instance(30, 5, k=2, s=12, sigma=0.4, seed=9,
                               corruption_mode="missing")
        S = inst.truth.S
        assert len(S) == 12
        assert np.all(inst.y[S] == 0.0)

    def test_determinism_bit_identical(self):
        a = xl.gen_instance(25, 7, k=3, s=5, sigma=0.2, seed=(4, 5))
        b = xl.gen_instance(25, 7, k=3, s=5, sigma=0.2, seed=(4, 5))
        assert a.to_json() == b.to_json()

    def test_e_scale_multiplies(self):
        a = xl.gen_instance(20, 5, k=2, s=6, sigma=0.0, seed=3, e_scale=1.0)
        b = xl.gen_instance(20, 5, k=2, s=6, sigma=0.0, seed=3, e_scale=1000.0)
        np.testing.assert_allclose(b.truth.e_star, 1000.0 * a.truth.e_star,
                                   rtol=1e-15)

    def test_invalid_s_rejected(self):
        with pytest.raises(xl.InputError):
            xl.gen_instance(10, 4, k=2, s=11, sigma=0.0, seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.1])
    def test_noise_level_must_be_finite_and_non_negative(self, sigma):
        # nan used to pass `sigma < 0`
        with pytest.raises(xl.InputError, match="sigma"):
            xl.gen_instance(20, 5, k=2, sigma=sigma, seed=0)
        with pytest.raises(xl.InputError, match="sigma"):
            xl.GroundTruth(beta_star=np.zeros(5), e_star=np.zeros(20),
                           w=np.zeros(20), sigma=sigma)

    def test_regime_path(self):
        inst = xl.gen_instance(200, 128, regime="sublinear", s=10, sigma=0.1,
                               seed=1)
        assert inst.truth.k == 8
        assert inst.meta.regime == "sublinear"


class TestNFromTheta:
    def test_matches_linear_scan_oracle(self):
        for theta, k, p in [(1.0, 8, 128), (0.25, 8, 128), (2.0, 8, 128),
                            (0.1, 8, 128), (0.5, 5, 64), (3.0, 22, 512)]:
            assert xl.n_from_theta(theta, k, p) == scan_n_from_theta(theta, k, p)

    def test_frozen_values(self):
        # frozen from the linear-scan oracle
        assert xl.n_from_theta(1.0, 8, 128) == 1069
        assert xl.n_from_theta(0.25, 8, 128) == 204
        assert xl.n_from_theta(2.0, 8, 128) == 2383
        assert xl.n_from_theta(0.1, 8, 128) == 64

    def test_monotone_in_theta(self):
        prev = 0
        for theta in np.linspace(0.1, 3.0, 16):
            n = xl.n_from_theta(float(theta), 8, 128)
            assert n >= prev
            prev = n

    def test_floor_of_eight(self):
        assert xl.n_from_theta(1e-6, 1, 3) == 8

    def test_invalid_inputs(self):
        with pytest.raises(xl.InputError):
            xl.n_from_theta(0.0, 8, 128)
        with pytest.raises(xl.InputError):
            xl.n_from_theta(1.0, 8, 8)
