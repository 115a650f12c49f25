import numpy as np
import pytest
from scipy import stats as sps

from lorenzlab.maps import CANON
from lorenzlab.noise import KERNEL_L, NoiseModel, kernel_regularity_check


class TestSampling:
    def test_empty_prefix(self, model):
        assert len(model.stream(0).prefix(0)) == 0

    def test_large_sample_moments_and_range(self):
        m = NoiseModel(eps=0.01, seed=7)
        draws = m.stream(3).prefix(10**6)
        sigma = 0.01 / np.sqrt(3.0)  # std of U(-eps, eps)
        assert abs(draws.mean()) <= 3.0 * sigma / np.sqrt(len(draws))
        assert draws.min() >= -0.01 and draws.max() <= 0.01

    def test_determinism_per_stream(self, model):
        a = model.stream(9).prefix(1000)
        b = model.stream(9).prefix(1000)
        assert np.array_equal(a, b)
        c = model.stream(10).prefix(1000)
        assert not np.array_equal(a, c)

    def test_prefix_independent_of_request_pattern(self, model):
        s1 = model.stream(4)
        first = s1.prefix(10).copy()
        s2 = model.stream(4)
        long = s2.prefix(10_000)
        assert np.array_equal(first, long[:10])

    def test_shift_reproduces_tail(self, model):
        s = model.stream(6)
        full = s.prefix(50)
        shifted = s.shift(20)
        assert np.array_equal(shifted.prefix(30), full[20:])

    def test_triangular_support(self):
        m = NoiseModel(eps=0.02, kind="triangular", seed=1)
        draws = m.stream(0).prefix(10**5)
        assert draws.min() >= -0.02 and draws.max() <= 0.02
        # triangular variance = eps^2/6
        assert np.var(draws) == pytest.approx(0.02**2 / 6.0, rel=0.05)

    def test_quadrature_weights_normalised(self):
        for kind in ("uniform", "triangular"):
            m = NoiseModel(eps=0.01, kind=kind, seed=0)
            nodes, weights = m.quadrature()
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.abs(nodes) <= 0.01)


class TestStreamWindow:
    """Stream values under every request pattern equal one draw of the whole stream.

    A view advances a fresh generator to its offset, so these cover advancing
    far ahead, reading behind earlier reads and interleaving shifted views.
    """

    N = 10**6
    WINDOW = 65536

    @pytest.fixture(params=["uniform", "triangular"])
    def pinned(self, request):
        m = NoiseModel(eps=0.001, kind=request.param, seed=20240901)
        seq = np.random.SeedSequence([np.uint64(m.seed), np.uint64(77)])
        return m, m._draw(np.random.default_rng(seq), self.N)

    def test_forward_windows_through_shift(self, pinned):
        m, ref = pinned
        s = m.stream(77)
        for start in range(0, self.N, self.WINDOW):
            n = min(self.WINDOW, self.N - start)
            assert np.array_equal(s.shift(start).prefix(n), ref[start:start + n])

    def test_read_behind_a_dropped_window(self, pinned):
        m, ref = pinned
        s = m.stream(77)
        for start in (0, 3 * self.WINDOW, 5 * self.WINDOW):
            s.shift(start).prefix(self.WINDOW)
        assert np.array_equal(s.shift(self.WINDOW + 17).prefix(1000), ref[self.WINDOW + 17:self.WINDOW + 1017])
        assert np.array_equal(s.prefix(10), ref[:10])

    def test_jump_far_ahead(self, pinned):
        m, ref = pinned
        s = m.stream(77)
        assert np.array_equal(s.prefix(5), ref[:5])
        far = self.N - 1234
        assert np.array_equal(s.shift(far).prefix(1234), ref[far:])
        assert s.shift(far - 1).prefix(1)[0] == ref[far - 1]

    def test_interleaved_shifted_views(self, pinned):
        m, ref = pinned
        s = m.stream(77)
        views = [s.shift(k) for k in (0, 300, 70_000, 299, 500_000)]
        for n in (1, 257, 4096, 100):
            for v in views:
                assert np.array_equal(v.prefix(n), ref[v.offset:v.offset + n])

    def test_sizes_zero_and_one(self, pinned):
        m, ref = pinned
        s = m.stream(77)
        assert len(s.shift(400_000).prefix(0)) == 0
        assert np.array_equal(s.shift(400_000).prefix(1), ref[400_000:400_001])
        assert len(s.prefix(0)) == 0
        assert s.shift(0).prefix(1)[0] == ref[0]
        assert np.array_equal(s.shift(1).prefix(1), ref[1:2])

    def test_prefix_is_read_only(self, model):
        s = model.stream(12)
        first = s.shift(0).prefix(1)[0]
        with pytest.raises(ValueError):
            s.prefix(5)[0] = 99.0
        assert s.shift(0).prefix(1)[0] == first

    def test_negative_index_rejected(self, model):
        s = model.stream(12)
        with pytest.raises(ValueError):
            s.shift(-1).prefix(1)[0]
        with pytest.raises(ValueError):
            s.shift(-1)
        with pytest.raises(ValueError):
            s.prefix(-1)


class TestKernel:
    def test_wide_sets_trivially_bounded(self):
        # |A| >= 2 eps makes the regularity bound at least 1 >= any probability
        L = KERNEL_L
        for ratio in (1.0, 1.5, 4.0):
            assert L * ratio ** (1.0 / L) >= 1.0

    def test_regularity_report_clean_on_core(self, family):
        m = NoiseModel(eps=0.01, seed=5)
        rep = kernel_regularity_check(family, m)
        assert rep["confirmed_violations"] == 0
        assert rep["worst_ratio"] < 1.0

    def test_taper_zone_dilates_kernel(self, family):
        # where the taper is below 1 the same noise moves the image less,
        # concentrating mass: the uniform-core density bound can be exceeded
        m = NoiseModel(eps=0.01, seed=3)
        x = 0.02  # taper value well below 1
        w = family.taper(x)
        assert w < 0.5
        draws = m.stream(1).prefix(100_000)
        vals = family.eval_vec(draws, np.full(len(draws), x))
        width = vals.max() - vals.min()
        assert width == pytest.approx(2 * 0.01 * w, rel=0.05)

    def test_empirical_kernel_uniform_on_core(self, family):
        # Kolmogorov-Smirnov against the exact uniform law on [f(x)-eps, f(x)+eps]
        m = NoiseModel(eps=0.01, seed=9)
        x = 0.35
        fx = CANON.eval(x)
        draws = m.stream(2).prefix(100_000)
        vals = family.eval_vec(draws, np.full(len(draws), x))
        res = sps.kstest(vals, sps.uniform(loc=fx - 0.01, scale=0.02).cdf)
        assert res.pvalue > 0.01
