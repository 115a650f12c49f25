import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorenzlab.config import ExperimentConfig
from lorenzlab.errors import CriticalHit, CriticalPointEval, NoiseOutOfRange, OutOfBranchRange
from lorenzlab.maps import (
    CANON,
    CRITICAL_GUARD,
    MapParams,
    PerturbedFamily,
    schwarzian,
    summability_stats,
)
from lorenzlab.orbits import random_orbit
from lorenzlab.recurrence import (
    BindingPeriodRecord,
    binding_constants,
    binding_period,
    critical_neighborhood,
    d_star,
)

KERNEL_PARAMS = [
    CANON,
    MapParams(c=0.4, ell=3.0, u=0.85, v=0.8),
    MapParams(c=0.55, ell=2.5, u=0.9, v=0.88),
]


def finite_difference_schwarzian(params: MapParams, x: float, h: float = 1e-3) -> float:
    """Independent finite-difference oracle for the Schwarzian derivative.

    Central differences with one Richardson step to cancel the h^2 error.
    """

    def raw(step):
        f = params.eval
        d1 = (f(x + step) - f(x - step)) / (2.0 * step)
        d2 = (f(x + step) - 2.0 * f(x) + f(x - step)) / (step * step)
        d3 = (
            f(x + 2.0 * step) - 2.0 * f(x + step) + 2.0 * f(x - step) - f(x - 2.0 * step)
        ) / (2.0 * step**3)
        return d3 / d1 - 1.5 * (d2 / d1) ** 2

    return (4.0 * raw(h / 2.0) - raw(h)) / 3.0


class TestMapParams:
    def test_eval_fixed_endpoints(self):
        assert CANON.eval(0.0) == 0.0
        assert CANON.eval(1.0) == 1.0

    def test_eval_closed_form_left(self):
        assert CANON.eval(0.25) == pytest.approx(0.675, abs=1e-15)

    def test_eval_closed_form_right(self):
        assert CANON.eval(0.75) == pytest.approx(0.325, abs=1e-15)

    def test_eval_at_critical_raises(self):
        with pytest.raises(CriticalPointEval):
            CANON.eval(0.5)

    def test_derivative_closed_form(self):
        assert CANON.deriv(0.25) == pytest.approx(1.8, rel=1e-14)
        assert CANON.deriv2(0.25) == pytest.approx(-7.2, rel=1e-14)

    def test_derivative_vanishes_at_critical(self):
        for x in (0.5 - 1e-4, 0.5 - 1e-6, 0.5 - 1e-8):
            assert CANON.deriv(x) < CANON.deriv(x - 1e-3)
        assert CANON.deriv(0.5 - 1e-8) < 1e-7

    def test_critical_values_canon(self):
        assert (CANON.c1_plus, CANON.c1_minus) == pytest.approx((0.1, 0.9))

    def test_critical_values_other(self):
        params = MapParams(c=0.4, ell=3.0, u=0.8, v=0.7)
        assert (params.c1_plus, params.c1_minus) == pytest.approx((0.3, 0.8))

    def test_trivial_map_rejected(self):
        with pytest.raises(ValueError):
            MapParams(c=0.5, ell=2.0, u=0.5, v=0.9)  # u == c
        with pytest.raises(ValueError):
            MapParams(c=0.5, ell=2.0, u=0.3, v=0.9)

    def test_trivial_map_escape_hatch(self):
        params = MapParams(c=0.5, ell=2.0, u=0.2, v=0.9, allow_trivial=True)
        assert params.c1_minus == 0.2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MapParams(c=0.0, ell=2.0, u=0.9, v=0.9)
        with pytest.raises(ValueError):
            MapParams(c=0.5, ell=1.0, u=0.9, v=0.9)
        with pytest.raises(ValueError):
            MapParams(c=0.5, ell=2.0, u=1.2, v=0.9)


class TestInverseBranch:
    def test_inverts_eval_example(self, family):
        assert family.inverse_branch(0.0, 0.675, True, 1e-13) == pytest.approx(0.25, abs=1e-13)

    def test_critical_value_pulls_back_to_c(self, family):
        assert family.inverse_branch(0.0, 0.9, True, 1e-13) == pytest.approx(0.5, abs=1e-13)

    def test_below_right_image_has_no_preimage(self, family):
        assert family.inverse_branch(0.0, 0.05, False, 1e-13) is None

    def test_outside_unit_interval_raises(self, family):
        with pytest.raises(OutOfBranchRange):
            family.inverse_branch(0.0, 1.5, True, 1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        y=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        t=st.floats(min_value=-0.05, max_value=0.05),
        left=st.booleans(),
    )
    @example(y=0.9, t=0.0, left=True)
    @example(y=0.1, t=0.0, left=False)
    @example(y=0.9, t=1.945380332785617e-199, left=True)  # y - t rounds to u: the preimage is c
    def test_round_trip(self, family, y, t, left):
        x = family.inverse_branch(t, y, left, 1e-13)
        if x is None:
            return
        if abs(x - family.base.c) < CRITICAL_GUARD:
            # the preimage is c itself: y is this side's critical value, the branch range's end at c
            lo, hi = family.branch_range(t, left)
            assert y == pytest.approx(hi if left else lo, abs=1e-11)
        else:
            assert family.eval(t, x) == pytest.approx(y, abs=1e-11)

    def test_round_trip_dense(self, family, rng):
        for left in (True, False):
            lo, hi = family.branch_range(0.0, left)
            ys = rng.uniform(lo + 1e-9, hi - 1e-9, 10_000)
            xs = np.array([family.inverse_branch(0.0, float(y), left, 1e-13) for y in ys])
            back = family.eval_vec(0.0, xs)
            assert np.max(np.abs(back - ys)) <= 1e-11

    def test_round_trip_with_noise_in_taper_zone(self, family):
        t = 0.05
        for y in (0.01, 0.05, 0.12):
            x = family.inverse_branch(t, y, True, 1e-13)
            assert x is not None
            assert family.eval(t, x) == pytest.approx(y, abs=1e-11)


class TestPerturbedFamily:
    def test_eps_max_positive_and_margin(self, family):
        assert 0.0 < family.eps_max < 0.1
        # margin factor keeps the range constraint strict
        assert family.eps_max <= 0.9 * min(1.0 - CANON.u, 1.0 - CANON.v) + 1e-12

    @pytest.mark.parametrize("params, pinned", zip(
        KERNEL_PARAMS, ("0.08999999999999998", "0.11000000602556873", "0.08999999999999998"),
    ))
    def test_eps_max_pinned(self, params, pinned):
        assert repr(PerturbedFamily(params).eps_max) == pinned

    def test_noise_out_of_range(self, family):
        with pytest.raises(NoiseOutOfRange):
            family.eval(family.eps_max * 1.5, 0.25)

    def test_additive_on_core(self, family):
        t = 0.01
        assert family.eval(t, 0.3) == pytest.approx(CANON.eval(0.3) + t, abs=1e-15)

    def test_critical_point_fixed_for_all_t(self, family):
        # taper slope vanishes around c, so branch limits shift rigidly
        for t in (-0.02, 0.0, 0.02):
            cm = family.branch_range(t, True)[1]
            cp = family.branch_range(t, False)[0]
            assert cm == pytest.approx(0.9 + t, abs=1e-15)
            assert cp == pytest.approx(0.1 + t, abs=1e-15)

    def test_c2_lipschitz_in_noise(self, family, rng):
        # |f_t - f_s| <= |t - s| because the taper is bounded by 1
        xs = rng.uniform(1e-6, 1.0 - 1e-6, 2000)
        for t, s in ((0.02, -0.015), (0.05, 0.049), (-0.03, 0.01)):
            diff = np.abs(family.eval_vec(t, xs) - family.eval_vec(s, xs)) / abs(t - s)
            assert diff.max() <= 1.0 + 1e-12

    def test_branch_monotonicity_under_noise(self, family):
        for t in (-family.eps_max, family.eps_max):
            for left in (True, False):
                lo, hi = family.branch_domain(left)
                grid = np.linspace(lo + 1e-12, hi - 1e-12, 10_000)
                assert np.all(np.diff(family.eval_vec(t, grid)) > 0.0)

    def test_derivatives_include_taper(self, family):
        x, t = 0.02, 0.01  # inside the left taper zone
        _, d1, d2 = family.jet(t, x)
        assert d1 == pytest.approx(CANON.deriv(x) + t * family.taper_d(x), rel=1e-12)
        assert d2 == pytest.approx(CANON.deriv2(x) + t * family.taper_d2(x), rel=1e-12)


def _reference_step(family, t, x):
    """(f_t(x), Df_t(x)) as PerturbedFamily.step computed them before jet replaced it."""
    family._check_noise(t)
    fx, df = family.base.eval(x), family.base.deriv(x)
    if t == 0.0:
        return fx, df
    m = family.margin
    if m <= x <= 1.0 - m:  # taper core: w = 1 and w' = 0
        return fx + t, df
    return fx + t * family.taper(x), df + t * family.taper_d(x)


def _reference_derivatives(family, t, x):
    """(Df_t(x), D2f_t(x)) as PerturbedFamily.derivatives computed them before jet replaced it."""
    family._check_noise(t)
    d1 = family.base.deriv(x)
    d2 = family.base.deriv2(x)
    if t != 0.0:
        d1 += t * family.taper_d(x)
        d2 += t * family.taper_d2(x)
    return d1, d2


@pytest.mark.parametrize("params", KERNEL_PARAMS, ids=["canon", "ell3", "ell2.5"])
class TestStepKernels:
    def test_step_matches_eval_and_deriv_bit_for_bit(self, params):
        family = PerturbedFamily(params)
        m = family.margin
        # both taper zones, both sides of c on the core, and the core edges
        xs = [0.2 * m, 0.7 * m, m, 0.3, params.c - 1e-3, params.c + 1e-3, 0.8, 1.0 - m, 1.0 - 0.4 * m]
        for t in (0.0, 0.6 * family.eps_max, -0.9 * family.eps_max):
            for x in xs:
                expected = (family.eval(t, x), params.deriv(x) + t * family.taper_d(x))
                assert family.jet(t, x)[:2] == expected

    def test_jet_matches_step_and_derivatives_bit_for_bit(self, params):
        """jet's (f_t, Df_t) are the former step's bits and its (Df_t, D2f_t) the former derivatives'."""
        family = PerturbedFamily(params)
        m, c = family.margin, params.c
        # the fixed endpoints 0 and 1, both taper zones up to their edges, the core edges m and
        # 1 - m, both sides of c on the core, and a random spread
        xs = [0.0, 1e-9, 0.3 * m, 0.999 * m, m, 0.3, c - 1e-3, c + 1e-3, 0.8, 1.0 - m,
              1.0 - 0.999 * m, 1.0 - 0.3 * m, 1.0 - 1e-9, 1.0]
        xs += np.random.default_rng(3).uniform(0.0, 1.0, 200).tolist()
        e = family.eps_max
        for t in (0.0, e / 2.0, -e / 2.0, e, -e):
            for x in xs:
                f, d1, d2 = family.jet(t, x)
                assert (f.hex(), d1.hex()) == tuple(v.hex() for v in _reference_step(family, t, x))
                assert (d1.hex(), d2.hex()) == tuple(v.hex() for v in _reference_derivatives(family, t, x))

    def test_jet_raises_as_step_and_derivatives_did(self, params):
        family = PerturbedFamily(params)
        for call in (family.jet, functools.partial(_reference_step, family),
                     functools.partial(_reference_derivatives, family)):
            with pytest.raises(NoiseOutOfRange):
                call(1.5 * family.eps_max, 0.3)
            with pytest.raises(CriticalPointEval):
                call(0.0, params.c)

    def test_family_has_no_step_or_derivatives(self, params):
        family = PerturbedFamily(params)
        assert not hasattr(family, "step") and not hasattr(family, "derivatives")

    def test_jet_matches_scalar_calls_at_fixed_endpoints(self, params):
        family = PerturbedFamily(params)
        for t in (0.0, family.eps_max / 2.0, -family.eps_max):
            for x in (0.0, 1.0):
                scalar = np.array(family.jet(t, x))
                jet = np.concatenate(family.jet_vec(t, np.array([x])))
                assert scalar.tobytes() == jet.tobytes()

    def test_chained_jet_matches_random_orbit(self, params):
        family = PerturbedFamily(params)
        m = family.margin
        n = 12
        omega = np.random.default_rng(7).uniform(-family.eps_max, family.eps_max, n)
        x0 = np.array([0.3 * m, 0.8 * m, 0.23, 0.31, 0.62, 0.77, 1.0 - 0.6 * m, 1.0 - 0.1 * m])
        g, d1, d2 = x0, np.ones_like(x0), np.zeros_like(x0)
        for j in range(n):
            g, s1, s2 = family.jet_vec(float(omega[j]), g)
            d2 = s2 * d1 * d1 + s1 * d2
            d1 = s1 * d1
        for k, x in enumerate(x0):
            rec = random_orbit(family, float(x), omega, n)
            assert not rec.hit_critical
            assert g[k] == pytest.approx(rec.points[n], rel=1e-10)
            assert d1[k] == pytest.approx(rec.d1[n], rel=1e-10)
            assert d2[k] == pytest.approx(rec.d2[n], rel=1e-10)

    @staticmethod
    def _noise_rows(family):
        """Rows on the core only, reaching into either taper zone, and at c, with the generator
        that drew them, for the noise values."""
        m = family.margin
        c = family.base.c
        rng = np.random.default_rng(11)
        rows = np.array([
            np.linspace(0.2, 0.8, 16),
            np.linspace(0.2 * m, 0.6, 16),
            np.linspace(0.5, 1.0 - 0.3 * m, 16),
            np.linspace(c - 0.01, c, 16),
            rng.uniform(0.0, 1.0, 16),
            rng.uniform(0.0, 1.0, 16),
        ])
        return rows, rng

    def test_row_noise_jet_matches_scalar_calls_bit_for_bit(self, params):
        family = PerturbedFamily(params)
        rows, rng = self._noise_rows(family)
        t = rng.uniform(-family.eps_max, family.eps_max, len(rows))
        t[[1, 4]] = 0.0
        batched = family.jet_vec(t, rows)
        for k in range(len(rows)):
            scalar = family.jet_vec(float(t[k]), rows[k])
            for got, want in zip(batched, scalar):
                assert got[k].tobytes() == want.tobytes()

    def test_element_noise_jet_matches_scalar_calls_bit_for_bit(self, params):
        family = PerturbedFamily(params)
        rows, rng = self._noise_rows(family)
        x = rows.ravel()
        t = rng.uniform(-family.eps_max, family.eps_max, len(x))
        t[::5] = 0.0
        batched = family.jet_vec(t, x)
        assert all(got.shape == x.shape for got in batched)
        for k in range(len(x)):
            scalar = family.jet_vec(float(t[k]), x[k:k + 1])
            for got, want in zip(batched, scalar):
                assert got[k:k + 1].tobytes() == want.tobytes()

    @staticmethod
    def _kernel_points(family, n_random=200):
        p = family.base
        m = family.margin
        # both taper zones, the core edges, both sides of c, and a random spread
        xs = [0.1 * m, 0.5 * m, 0.99 * m, m, 0.3, p.c - 1e-9, p.c - 1e-3, p.c + 1e-3, p.c + 1e-9,
              0.8, 1.0 - m, 1.0 - 0.7 * m, 1.0 - 0.05 * m]
        return np.concatenate([xs, np.random.default_rng(5).uniform(0.0, 1.0, n_random)])

    def test_eval_rows_matches_eval_bit_for_bit(self, params):
        family = PerturbedFamily(params)
        # enough points that libm's pow and numpy's array power differ on some (CANON's z**2.0)
        xs = self._kernel_points(family, 20_000)
        noise = (0.0, 0.5 * family.eps_max, -0.5 * family.eps_max)
        for t in noise:
            want = np.array([family.eval(t, float(x)) for x in xs])
            assert family.eval_rows(t, xs).tobytes() == want.tobytes()
        # one noise value per element
        ts = np.resize(noise, len(xs))
        want = np.array([family.eval(float(t), float(x)) for t, x in zip(ts, xs)])
        assert family.eval_rows(ts, xs).tobytes() == want.tobytes()

    def test_inverse_rows_matches_inverse_branch_bit_for_bit(self, params):
        family = PerturbedFamily(params)
        xs = self._kernel_points(family)
        grid = np.linspace(0.0, 1.0, 129)
        cases = []
        for t in (0.0, 0.5 * family.eps_max, -0.5 * family.eps_max):
            for left in (True, False):
                lo, hi = family.branch_range(t, left)
                # images of taper-zone, core-edge and near-critical points, the range ends
                # and just past them (no preimage: NaN), and a grid over [0, 1]
                ys = np.concatenate([
                    family.eval_rows(t, xs), [lo, hi, lo - 1e-3, hi + 1e-3, lo + 1e-16], grid,
                ])
                ys = ys[(0.0 <= ys) & (ys <= 1.0)]
                want = [family.inverse_branch(t, float(y), left, 1e-12) for y in ys]
                want = np.array([np.nan if r is None else r for r in want])
                assert np.isnan(want).any() and not np.isnan(want).all()
                got = family.inverse_rows(t, ys, left, 1e-12)
                assert got.tobytes() == want.tobytes(), (t, left)
                cases.append((np.full(len(ys), t), ys, np.full(len(ys), left), want))
        # one noise value and one branch per element, in one call
        ts, ys, left, want = (np.concatenate(col) for col in zip(*cases))
        assert family.inverse_rows(ts, ys, left, 1e-12).tobytes() == want.tobytes()


class TestSchwarzian:
    def test_closed_form_value(self):
        assert schwarzian(CANON, 0.25) == pytest.approx(-24.0, rel=1e-13)

    def test_negative_everywhere(self, rng):
        xs = rng.uniform(1e-4, 1 - 1e-4, 500)
        xs = xs[np.abs(xs - 0.5) > 1e-4]
        vals = np.array([schwarzian(CANON, float(x)) for x in xs])
        assert np.all(vals < 0.0)

    def test_matches_quadratic_identity(self):
        # for ell = 2 the third derivative vanishes
        for x in (0.1, 0.3, 0.77):
            expected = -1.5 * (CANON.deriv2(x) / CANON.deriv(x)) ** 2
            assert schwarzian(CANON, x) == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences_cubic_order(self):
        params = MapParams(c=0.5, ell=3.0, u=0.9, v=0.9)
        for x in (0.2, 0.35, 0.7, 0.85):
            fd = finite_difference_schwarzian(params, x)
            assert schwarzian(params, x) == pytest.approx(fd, rel=1e-6)


class TestSummability:
    def test_first_partial_sum(self):
        stats = summability_stats(CANON, CANON.c1_minus, 1)
        assert stats["S_N"] == pytest.approx(1.0)

    def test_canon_baseline_regression(self):
        stats = summability_stats(CANON, CANON.c1_minus, 1000)
        # frozen regression values from the deterministic orbit computation
        assert stats["S_N"] == pytest.approx(2.4876655113854342, rel=1e-12)
        assert stats["tail_min_dfn"] > 1e30
        assert not stats["ld_flag"]

    def test_underflowed_derivative_reports_divergence(self):
        # on this near-critical map Df^n(c1-) underflows to 0.0 at n = 233
        nonld = MapParams(c=0.5, ell=2.0, u=0.6, v=0.52)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = summability_stats(nonld, nonld.c1_minus, 400)
        assert stats["dfn"][233] == 0.0
        assert stats["S_N"] == math.inf
        assert stats["ld_flag"]

    def test_attracting_fixed_point_flags_failure(self):
        trivial = MapParams(c=0.5, ell=2.0, u=0.2, v=0.9, allow_trivial=True)
        stats = summability_stats(trivial, trivial.c1_minus, 300)
        assert stats["tail_min_dfn"] < 1.0
        assert stats["ld_flag"]


# -- the per-function loops that MapParams.walk replaced, kept as its bit-exact oracle --------


def _reference_summability(params, v, n_steps):
    """summability_stats' own loop: (Df^n(v) for n < n_steps, S_N)."""
    x = v
    dfn = 1.0
    partial = 0.0
    dfn_values = np.empty(n_steps, dtype=float)
    for n in range(n_steps):
        dfn_values[n] = dfn
        partial += 1.0 / dfn if dfn > 0.0 else np.inf
        if abs(x - params.c) < CRITICAL_GUARD:
            raise CriticalHit(n, x)
        dfn *= params.deriv(x)
        x = params.eval(x)
    return dfn_values, partial


def _reference_binding_period(params, v, delta, horizon):
    """binding_period's own loop (it ran to x_{horizon + 1}; at horizon 2000 the budget stops first)."""
    theta, L, zeta = binding_constants(params)
    nbL = critical_neighborhood(params, L * delta)
    budget = theta / delta
    x = v
    asum = 0.0
    dfn = 1.0
    orbit = [x]
    asums = [0.0]
    dfns = [1.0]
    outside = []
    for j in range(horizon + 1):
        if abs(x - params.c) < CRITICAL_GUARD:
            raise CriticalHit(j, x)
        outside.append(not nbL.contains(x))
        asum += dfn / abs(x - params.c)
        if asum > budget:
            break
        dfn *= params.deriv(x)
        x = params.eval(x)
        orbit.append(x)
        asums.append(asum)
        dfns.append(dfn)
    n_max = len(asums) - 1
    if n_max < 1:
        return None
    clear_prefix = np.cumprod(outside[: n_max + 1]).astype(bool)
    for M in range(n_max, 0, -1):
        if not clear_prefix[M - 1]:
            continue
        xM = orbit[M]
        dprime = max(d_star(params, xM), delta)
        df_after = dfns[M] * params.deriv(xM)
        if df_after >= (dprime / delta) ** (1.0 - zeta):
            return BindingPeriodRecord(v, delta, M, asums[M], df_after, dprime)
    return None


def _reference_verify(rec, params):
    """BindingPeriodRecord.verify's own loop."""
    theta, L, zeta = binding_constants(params)
    nbL = critical_neighborhood(params, L * rec.delta)
    x = rec.v
    asum = 0.0
    dfn = 1.0
    for _ in range(rec.M):
        if nbL.contains(x):
            return False
        asum += dfn / abs(x - params.c)
        dfn *= params.deriv(x)
        x = params.eval(x)
    if asum > theta / rec.delta * (1.0 + 1e-12):
        return False
    dprime = max(d_star(params, x), rec.delta)
    df_after = dfn * params.deriv(x)
    return df_after >= (dprime / rec.delta) ** (1.0 - zeta) * (1.0 - 1e-12)


def _bits(rec):
    return None if rec is None else [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(rec)]


def _bits_or_hit(fn, *args):
    """_bits of the record fn returns, or (step, point) of the CriticalHit it raises."""
    try:
        return _bits(fn(*args))
    except CriticalHit as err:
        return err.step, err.point


BINDING_LADDER = ExperimentConfig().scales.binding_delta_ladder


@pytest.mark.parametrize("params", KERNEL_PARAMS, ids=["canon", "ell3", "ell2.5"])
class TestWalk:
    def test_yields_the_start_before_any_guard_check(self, params):
        walk = params.walk(params.c)
        assert next(walk) == (0, params.c, 1.0, 0.0)
        with pytest.raises(CriticalHit) as err:
            next(walk)
        assert (err.value.step, err.value.point) == (0, params.c)

    def test_summability_matches_reference_bit_for_bit(self, params):
        for v in (params.c1_minus, params.c1_plus):
            for n_steps in (1, 2, 400, 1000):
                stats = summability_stats(params, v, n_steps)
                dfn, partial = _reference_summability(params, v, n_steps)
                assert stats["dfn"].tobytes() == dfn.tobytes()
                assert stats["S_N"].hex() == partial.hex()

    def test_binding_and_verify_match_reference_bit_for_bit(self, params):
        verdicts = set()
        for v in (params.c1_minus, params.c1_plus):
            for delta in BINDING_LADDER:
                rec = binding_period(params, v, delta, 2000)
                assert _bits(rec) == _bits(_reference_binding_period(params, v, delta, 2000))
                # CANON's records, and a 40-step stand-in where the other maps have none,
                # re-verified at their own and at longer binding periods
                base = rec or BindingPeriodRecord(v, delta, 40, 0.0, 0.0, 0.0)
                for M in (base.M, base.M + 1, base.M + 20, 3 * base.M):
                    probe = dataclasses.replace(base, M=M)
                    verdict = probe.verify(params)
                    assert verdict is _reference_verify(probe, params)
                    verdicts.add(verdict)
        assert verdicts == ({True, False} if params == CANON else {False})  # only CANON's orbits bind here

    def test_critical_start_raises_at_the_reference_step(self, params):
        x0 = PerturbedFamily(params).inverse_branch(0.0, params.c, True, 1e-13)  # within the guard of c in one step
        x1 = params.eval(x0)
        assert abs(x1 - params.c) < CRITICAL_GUARD
        with pytest.raises(CriticalHit) as want:
            _reference_summability(params, x0, 5)
        with pytest.raises(CriticalHit) as got:
            summability_stats(params, x0, 5)
        assert (got.value.step, got.value.point) == (want.value.step, want.value.point) == (1, x1)
        for delta in BINDING_LADDER:
            args = (params, x0, delta, 2000)
            assert _bits_or_hit(binding_period, *args) == _bits_or_hit(_reference_binding_period, *args)
        rec = BindingPeriodRecord(x0, BINDING_LADDER[0], 3, 0.0, 0.0, 0.0)
        if x1 != params.c:
            assert rec.verify(params) is _reference_verify(rec, params) is False  # x1 lies in B(L delta)
        else:
            # c itself is outside B(L delta): the reference divided by |x1 - c| = 0, the walk's guard raises
            with pytest.raises(ZeroDivisionError):
                _reference_verify(rec, params)
            with pytest.raises(CriticalHit) as err:
                rec.verify(params)
            assert (err.value.step, err.value.point) == (1, x1)
