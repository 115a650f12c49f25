import numpy as np
import pytest

from lorenzlab.errors import NotDiffeomorphic
from lorenzlab.expansion import (
    expansion_envelope,
    koebe_check,
    mane_estimate,
    random_koebe_branch,
    total_distortion_trend,
)
from lorenzlab.maps import CANON
from lorenzlab.noise import NoiseModel
from lorenzlab.recurrence import critical_neighborhood


class TestMane:
    def test_envelope_property_and_expansion(self, family):
        nb = critical_neighborhood(CANON, 0.009)
        rep = mane_estimate(family, None, nb.interval(), n_starts=300, horizon=200, seed=0)
        assert rep.envelope_holds()
        assert rep.lam > 1.0

    def test_single_step_reduces_to_min_derivative(self, family):
        nb = critical_neighborhood(CANON, 0.009)
        rep = mane_estimate(family, None, nb.interval(), n_starts=400, horizon=1, seed=0)
        assert rep.n_ref == 1
        # with only length-1 segments the bound collapses to min Df outside U
        min_logdf = rep.samples_logdf.min()
        assert rep.log_intercept + rep.rate == pytest.approx(min_logdf, abs=1e-12)

    def test_monotone_under_nested_neighborhoods(self, family):
        small = critical_neighborhood(CANON, 0.009)
        big = critical_neighborhood(CANON, 0.02)
        rep_small = mane_estimate(family, None, small.interval(), n_starts=400, horizon=200, seed=5)
        rep_big = mane_estimate(family, None, big.interval(), n_starts=400, horizon=200, seed=5)
        assert rep_big.lam >= rep_small.lam - 1e-12

    def test_random_version_expands(self, family, model):
        nb = critical_neighborhood(CANON, 0.009)
        rep = mane_estimate(family, model, nb.interval(), n_starts=300, horizon=200, seed=0)
        assert rep.rate > 0.0
        assert rep.envelope_holds()


class TestEnvelope:
    def test_samples_above_fit(self, family):
        model = NoiseModel(eps=0.005, seed=5)
        env = expansion_envelope(family, model, n_starts=200, horizon=1200)
        for case in ("case1", "case2"):
            data = env[case]
            assert data is not None
            bound = data["log_intercept"] + data["rate"] * data["samples_n"]
            assert np.all(data["samples_logdf"] >= bound - 1e-9)

    def test_prefactor_ladder_reported(self, family):
        # the prefactor growth toward small noise is asymptotic and has no
        # usable rate at desk scales: the ladder is reported, not asserted
        lams = []
        for eps in (0.02, 0.01, 0.005, 0.0025):
            model = NoiseModel(eps=eps, seed=5)
            env = expansion_envelope(family, model, n_starts=250, horizon=1200)
            lams.append(env["lambda_hat"])
        assert all(np.isfinite(v) and v > 0 for v in lams)

    def test_case2_intercept_scaling_within_factor_ten(self, family):
        pres = []
        for eps in (0.02, 0.01, 0.005, 0.0025):
            model = NoiseModel(eps=eps, seed=5)
            env = expansion_envelope(family, model, n_starts=250, horizon=1200)
            pres.append(env["prefactor_hat"])
        assert max(pres) / min(pres) <= 10.0


class TestKoebe:
    def test_zero_steps_trivial(self, family):
        res = koebe_check(family, (0.3, 0.4), 0, [])
        assert res["applicable"]
        assert res["passed"]
        assert res["worst_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_random_branches_all_pass(self, family, rng):
        passed = applicable = 0
        attempts = 0
        while applicable < 40 and attempts < 300:
            attempts += 1
            res = random_koebe_branch(family, rng)
            if res is None or not res["applicable"]:
                continue
            applicable += 1
            passed += bool(res["passed"])
        assert applicable == 40
        assert passed == applicable

    def test_clipped_chain_raises(self, family):
        with pytest.raises(NotDiffeomorphic):
            koebe_check(family, (0.85, 0.95), 1, [0.25])  # a left-branch guide

    def test_violated_precondition_is_not_applicable(self, family):
        # draw 86 of random_koebe_branch at rng 20240901 (rho = 0.05, s = 14): the
        # pullback's root-finding leaves the branch image 1.4e-12 short of the target at
        # each end, past the 1e-12 slack of the tau-well-inside test, so it is gated, not failed
        orbit = [0.08413978436165426]
        for _ in range(14):
            orbit.append(CANON.eval(orbit[-1]))
        target = (orbit[14] - 0.05, orbit[14] + 0.05)
        res = koebe_check(family, target, 14, orbit[:14])
        assert res == {"applicable": False}


class TestDistortionTrend:
    def test_single_step_landing_closed_form(self, family):
        # a start mapping into B(eps) in one step has ratio |B| / (Df(x) d(x,c))
        eps = 0.01
        nb = critical_neighborhood(CANON, eps)
        x = family.inverse_branch(0.0, CANON.c, True, 1e-13) + 1e-4  # lands near c next step
        y = CANON.eval(x)
        assert nb.contains(y)
        ratio = nb.length / (CANON.deriv(x) * abs(x - CANON.c))
        assert ratio > 0

    def test_theta_hat_finite_and_trend(self, family):
        models = [NoiseModel(eps=eps, seed=5) for eps in (0.02, 0.01, 0.005, 0.0025)]
        rows = total_distortion_trend(family, models, n_starts=600, horizon=2500)
        thetas = [r["theta_hat"] for r in rows]
        assert all(np.isfinite(t) for t in thetas)
        assert all(r["n_landings"] > 100 for r in rows)
        # qualitative decay within 20% slack per rung
        assert all(b <= a * 1.2 for a, b in zip(thetas, thetas[1:]))
