import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from lorenzlab.config import ExperimentConfig
from lorenzlab.errors import DeltaOutOfRange, EmptyPullback
from lorenzlab.maps import CANON, CRITICAL_GUARD, MapParams, PerturbedFamily
from lorenzlab.noise import NoiseModel
from lorenzlab.recurrence import (
    BC_R,
    DELTA_STAR,
    _interval_cv_distance,
    _pull_once,
    _pullback_rows,
    backward_contraction_check,
    binding_constants,
    binding_period,
    critical_neighborhood,
    d_star,
    default_scale_grid,
    depth_trace,
    good_return_or_expansion_time,
    good_return_time,
    landing_time,
    pullback_component,
)

NONLD = MapParams(c=0.5, ell=2.0, u=0.6, v=0.52)
#: the CLI tests' family, off the canonical map's symmetry
SKEW = MapParams(c=0.5, ell=2.0, u=0.92, v=0.86)


class TestCriticalNeighborhood:
    def test_closed_form_radii(self):
        nb = critical_neighborhood(CANON, 0.009)
        assert nb.left_radius == pytest.approx(0.05, rel=1e-12)
        assert nb.right_radius == pytest.approx(0.05, rel=1e-12)
        assert nb.length == pytest.approx(0.1, rel=1e-12)
        assert nb.expansion_scale == pytest.approx(0.09, rel=1e-12)

    def test_radii_match_numeric_rootfind(self):
        for delta in (0.009, 0.004, 0.0007):
            nb = critical_neighborhood(CANON, delta)
            left = brentq(lambda x: CANON.eval(x) - (CANON.c1_minus - delta), 1e-9, CANON.c - 1e-12)
            right = brentq(lambda x: CANON.eval(x) - (CANON.c1_plus + delta), CANON.c + 1e-12, 1 - 1e-9)
            assert CANON.c - left == pytest.approx(nb.left_radius, abs=1e-10)
            assert right - CANON.c == pytest.approx(nb.right_radius, abs=1e-10)

    def test_membership_definition(self):
        # x is inside exactly when f(x) lies within delta of its side's value
        nb = critical_neighborhood(CANON, 0.009)
        assert nb.contains(0.46)
        assert CANON.c1_minus - CANON.eval(0.46) < 0.009
        assert not nb.contains(0.44)
        assert CANON.c1_minus - CANON.eval(0.44) > 0.009

    def test_radii_shrink_with_delta(self):
        radii = [critical_neighborhood(CANON, d).length for d in (0.01, 0.005, 0.001, 1e-5)]
        assert all(b < a for a, b in zip(radii, radii[1:]))
        assert radii[-1] < 0.01

    def test_monotone_nesting(self):
        big = critical_neighborhood(CANON, 0.01)
        small = critical_neighborhood(CANON, 0.004)
        assert big.lo < small.lo < small.hi < big.hi

    @pytest.mark.parametrize("params", [CANON, MapParams(c=0.4, ell=3.0, u=0.85, v=0.8)], ids=["canon", "c04_ell3"])
    def test_stored_ends_are_the_computed_floats(self, params):
        """lo and hi, fixed at construction, are c - left_radius and c + right_radius over the CLI's scales."""
        cfg = ExperimentConfig()
        s = cfg.scales
        _, L, _ = binding_constants(params)
        deltas = [
            *default_scale_grid(params, s.delta),  # returns
            *default_scale_grid(params, s.delta0),
            s.delta0, 2.0 * s.delta0,  # nice set and inducing
            *cfg.noise.eps_ladder, *(2.0 * e for e in cfg.noise.eps_ladder),  # expansion and depth
            0.01, 0.005, 0.0025,  # bc-check
            *(L * d for d in s.binding_delta_ladder),  # binding
            DELTA_STAR,
        ]
        for delta in deltas:
            nb = critical_neighborhood(params, delta)
            assert nb.lo.hex() == (params.c - nb.left_radius).hex()
            assert nb.hi.hex() == (params.c + nb.right_radius).hex()
            assert nb.interval() == (nb.lo, nb.hi)
            assert nb == critical_neighborhood(params, delta)

    def test_delta_out_of_range(self):
        with pytest.raises(DeltaOutOfRange):
            critical_neighborhood(CANON, 0.95)
        with pytest.raises(DeltaOutOfRange):
            critical_neighborhood(CANON, 0.0)

    def test_d_star_convention(self):
        # inside the reference neighborhood: image distance to the critical values
        x = 0.49
        assert d_star(CANON, x) == pytest.approx(CANON.c1_minus - CANON.eval(x), rel=1e-12)
        # outside: the reference scale itself
        assert d_star(CANON, 0.2) == 0.05

    def test_reference_scale_derivative_bound(self):
        # Df(x) dominates the expansion scale of d_*(x, c) on the reference window
        nb = critical_neighborhood(CANON, 0.05)
        for x in np.linspace(nb.lo + 1e-6, nb.hi - 1e-6, 201):
            if abs(x - CANON.c) < 1e-6:
                continue
            ds = d_star(CANON, float(x))
            scale = critical_neighborhood(CANON, ds).expansion_scale
            assert CANON.deriv(float(x)) >= scale * (1.0 - 1e-9)


class TestStoppingTimes:
    def test_landing_inside_is_zero(self, family, model):
        assert landing_time(family, 0.46, model.stream(3), 0.009, horizon=50) == 0

    def test_landing_matches_naive_scan(self, family, model):
        stream = model.stream(3)
        got = landing_time(family, 0.25, stream, 0.009, horizon=500)
        nb = critical_neighborhood(CANON, 0.009)
        y = 0.25
        om = stream.prefix(500)
        naive = None
        for s in range(1, 501):
            y = family.eval(float(om[s - 1]), y)
            if nb.contains(y):
                naive = s
                break
        assert got == naive

    def test_horizon_exceeded_returns_none(self, family, model):
        assert landing_time(family, 0.25, model.stream(3), 0.009, horizon=3) is None

    def test_good_return_event_contract(self, family, model):
        ev = good_return_time(family, 0.25, model.stream(3), 0.009, 2.0, horizon=500)
        assert ev is not None
        assert ev.kind == "theta_good" and ev.delta == 0.009
        nb = critical_neighborhood(CANON, 0.009)
        # theta * Df >= A * |B(delta)|, in log space from the stored witnesses
        assert math.log(2.0) + ev.log_df >= ev.log_asum + math.log(nb.length)

    def test_event_witnesses_match_orbit_record(self, family, model):
        from lorenzlab.orbits import random_orbit

        ev = good_return_time(family, 0.25, model.stream(3), 0.009, 2.0, horizon=500)
        rec = random_orbit(family, 0.25, model.stream(3), ev.time)
        assert math.log(rec.d1[ev.time]) == pytest.approx(ev.log_df, rel=1e-10)
        assert math.log(rec.asum[ev.time]) == pytest.approx(ev.log_asum, rel=1e-10)
        # the defining inequality re-evaluates from raw orbit data
        assert 2.0 * rec.d1[ev.time] >= rec.asum[ev.time] * critical_neighborhood(CANON, 0.009).length

    def test_large_theta_reduces_to_landing(self, family, model):
        for k in range(25):
            stream = model.stream(100 + k)
            x = 0.15 + 0.02 * k
            nb = critical_neighborhood(CANON, 0.009)
            if nb.contains(x):
                continue
            land = landing_time(family, x, stream, 0.009, horizon=400)
            ev = good_return_time(family, x, stream, 0.009, 1000.0, horizon=400)
            got = None if ev is None else ev.time
            assert got == land

    def test_capped_time_tau_scale_kind(self, family, model):
        # enormous tau makes the expansion clause unreachable; tiny tau trips it
        ev = good_return_or_expansion_time(
            family, 0.25, model.stream(3), 0.009, 2.0, 1e-9, horizon=500, theta0=0.01
        )
        assert ev is not None and ev.kind == "tau_scale"
        # theta0 * Df >= e * tau * A
        assert math.log(0.01) + ev.log_df >= 1.0 + math.log(1e-9) + ev.log_asum


class TestDepthTrace:
    def test_depth_zero_when_derivative_large(self, family, model):
        # far from c the product Df * d exceeds eps
        assert depth_trace(family, 0.25, np.zeros(2), 0.01, 1).q[0] == 0

    def test_depth_positive_near_critical(self, family):
        q = depth_trace(family, CANON.c + 1e-4, np.zeros(2), 0.01, 1).q[0]
        assert q > 0
        # minimality of q
        df = CANON.deriv(CANON.c + 1e-4)
        d = 1e-4
        assert df * d >= math.exp(-q) * 0.01
        assert df * d < math.exp(-(q - 1)) * 0.01

    def test_nonflatness_depth_display(self, family, model):
        # Df >= O1 (e^{-q} eps / O2)^(1 - 1/ell) for points inside B(eps)
        # Df = (branch coefficient) * d^(ell-1) exactly on each affine power-law branch
        left = CANON.u * CANON.ell / CANON.c**CANON.ell
        right = CANON.v * CANON.ell / (1.0 - CANON.c) ** CANON.ell
        O1, O2 = min(left, right), max(left, right)
        eps = 0.01
        nb = critical_neighborhood(CANON, eps)
        for x in np.linspace(nb.lo + 1e-9, nb.hi - 1e-9, 101):
            if abs(x - CANON.c) < 1e-9:
                continue
            q = depth_trace(family, float(x), np.zeros(2), eps, 1).q[0]
            lhs = CANON.deriv(float(x))
            rhs = O1 * (math.exp(-q) * eps / O2) ** (1.0 - 1.0 / CANON.ell)
            assert lhs >= rhs * (1.0 - 1e-9)

    def test_visit_counter_matches_recount(self, family, model):
        trace = depth_trace(family, 0.31, model.stream(5), 0.01, 300)
        nb = critical_neighborhood(CANON, 0.01)
        recount = sum(1 for x in trace.points if nb.contains(float(x)))
        assert trace.visits(0, trace.n) == recount

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(min_value=0, max_value=199))
    def test_additivity_of_counters(self, family, model, k):
        trace = depth_trace(family, 0.31, model.stream(5), 0.01, 200)
        assert trace.Q(0, 200) == trace.Q(0, k) + trace.Q(k + 1, 200)
        assert trace.visits(0, 200) == trace.visits(0, k) + trace.visits(k + 1, 200)

    def test_bad_membership_flags_approximation(self, family, model):
        trace = depth_trace(family, 0.31, model.stream(5), 0.01, 200)
        report = trace.bad_membership(5, 3.0)
        # clause 2 is an infinite-time limit, read off at the horizon
        assert report["clause2_at_horizon"] == (trace.Q(0, 200) >= 5)


class TestBindingPeriod:
    def test_first_term_budget(self):
        # the one-step distortion sum is 1/d(v, c), within budget for small delta
        delta = 1e-12
        assert 1.0 / abs(CANON.c1_minus - CANON.c) <= 0.008 / delta

    def test_witnesses_reverify(self):
        rec = binding_period(CANON, CANON.c1_minus, 3.125e-12, 2000)
        assert rec is not None
        assert rec.verify(CANON)

    def test_period_within_horizon(self):
        # M never exceeds the horizon; from horizon 71 on, the full search's record comes back
        full = binding_period(CANON, 0.9, 3.125e-12, 2000)
        assert (full.M, full.asum.hex()) == (71, "0x1.95151817ce79ep+28")
        for horizon in range(68, 74):
            rec = binding_period(CANON, 0.9, 3.125e-12, horizon)
            if horizon < full.M:
                assert rec is None or rec.M <= horizon
            else:
                assert dataclasses.astuple(rec) == dataclasses.astuple(full)

    def test_none_at_coarse_scales(self):
        assert binding_period(CANON, CANON.c1_minus, 0.002, 2000) is None

    def test_ladder_nondecreasing(self):
        ladder = (3.125e-12, 1.5625e-12, 7.8125e-13, 3.90625e-13)
        for v in (CANON.c1_minus, CANON.c1_plus):
            ms = []
            for delta in ladder:
                rec = binding_period(CANON, v, delta, 2000)
                assert rec is not None
                ms.append(rec.M)
            assert all(b >= a for a, b in zip(ms, ms[1:]))

    def test_canonical_constants(self):
        # exact, so that the pinned binding artifacts of CANON hold
        assert binding_constants(CANON) == (0.008, 16.0, 0.25)

    def test_constants_within_their_bounds(self):
        for params in (CANON, MapParams(c=0.45, ell=1.5, u=0.9, v=0.9), MapParams(c=0.5, ell=2.0, u=0.92, v=0.86)):
            theta, L, zeta = binding_constants(params)
            assert 0.0 < theta <= 0.008
            assert L > 2.0 ** (params.ell + 1.0)
            assert 0.0 < zeta < 1.0 / params.ell


class TestPullback:
    def test_zero_steps(self, family):
        chain = pullback_component(family, (0.4, 0.6), 0, [])
        assert chain.intervals == [(0.4, 0.6)]
        assert chain.order == 0

    def test_single_step_closed_form(self, family):
        chain = pullback_component(family, (0.6, 0.7), 1, [0.25])  # a left-branch guide
        lo, hi = chain.component
        assert CANON.eval(lo) == pytest.approx(0.6, abs=1e-11)
        assert CANON.eval(hi) == pytest.approx(0.7, abs=1e-11)
        assert chain.order == 0

    def test_order_increments_at_critical_value(self, family):
        # a target reaching beyond the left critical value clips at c
        chain = pullback_component(family, (0.85, 0.95), 1, [0.25])
        assert chain.order == 1
        assert chain.component[1] == CANON.c

    def test_empty_pullback(self, family):
        with pytest.raises(EmptyPullback):
            pullback_component(family, (0.02, 0.05), 1, [0.75])

    def test_short_guide_orbit_rejected(self, family):
        with pytest.raises(ValueError, match="at least s points"):
            pullback_component(family, (0.6, 0.7), 2, [0.25])

    def test_chain_consistency_on_guided_orbit(self, family, model):
        om = model.stream(21).prefix(12)
        orbit = [0.27]
        y = 0.27
        for i in range(12):
            y = family.eval(float(om[i]), y)
            orbit.append(y)
        target = (orbit[12] - 0.01, orbit[12] + 0.01)
        chain = pullback_component(family, target, 12, guide_orbit=orbit[:12], omega=om)
        # f maps each chain interval onto the next, up to endpoint tolerance
        for j in range(12):
            lo, hi = chain.intervals[j]
            nlo, nhi = chain.intervals[j + 1]
            flo = family.eval(float(om[j]), lo + 1e-14)
            fhi = family.eval(float(om[j]), hi - 1e-14)
            assert flo >= nlo - 1e-9
            assert fhi <= nhi + 1e-9
        assert chain.intervals[0][0] <= orbit[0] <= chain.intervals[0][1]

    def test_zero_noise_pullback_ignores_margin(self):
        # at t = 0 inverse_branch is the base inverse, which never reads the taper
        orbit = [0.27]
        for _ in range(15):
            orbit.append(CANON.eval(orbit[-1]))
        target = (orbit[15] - 0.01, orbit[15] + 0.01)
        chains = [
            pullback_component(PerturbedFamily(CANON, margin=margin), target, 15, guide_orbit=orbit[:15])
            for margin in (0.1, 0.05)
        ]
        assert chains[0].intervals == chains[1].intervals
        assert chains[0].order == chains[1].order


class TestBackwardContraction:
    def test_single_step_components_closed_form(self):
        rep = backward_contraction_check(CANON, [0.0025], 1, sample_budget=10, seed=0)
        singles = [r for r in rep["rows"] if r["s"] == 1]
        assert len(singles) >= 1
        nb = critical_neighborhood(CANON, 0.005)
        for row in singles:
            mid = 0.5 * (row["w_lo"] + row["w_hi"])
            assert nb.lo < CANON.eval(mid) < nb.hi

    def test_vacuous_pass_above_ladder(self):
        rep = backward_contraction_check(CANON, [0.0025], 2, sample_budget=10, seed=0)
        assert isinstance(rep["violations"], list)

    def test_detector_fires_on_non_ld_map(self):
        assert NONLD.eval(NONLD.c1_minus) == pytest.approx(0.5008, abs=1e-12)
        rep = backward_contraction_check(NONLD, [0.01], 10, sample_budget=200, seed=1)
        assert len(rep["violations"]) > 0
        v = rep["violations"][0]
        assert v["dist_cv"] < 0.01 and v["length"] >= 0.01

    def test_coarse_scale_violations_are_genuine(self):
        # BC(2) fails at delta = 0.01 for the canonical map: each reported W is
        # carried by f^s, never straddling c, onto the endpoints of B(2 delta)
        delta = 0.01
        rep = backward_contraction_check(CANON, [delta], 10, sample_budget=400, seed=0)
        assert len(rep["violations"]) > 0
        lo_t, hi_t = critical_neighborhood(CANON, BC_R * delta).interval()
        for v in rep["violations"]:
            assert v["dist_cv"] < delta and v["w_hi"] - v["w_lo"] >= delta
            lo, hi = v["w_lo"], v["w_hi"]
            for _ in range(v["s"]):
                assert hi < CANON.c or lo > CANON.c
                lo, hi = CANON.eval(lo), CANON.eval(hi)
            assert lo == pytest.approx(lo_t, abs=1e-12)
            assert hi == pytest.approx(hi_t, abs=1e-12)

    def test_clean_at_fine_scale_for_canonical_map(self):
        rep = backward_contraction_check(CANON, [0.0025], 30, sample_budget=800, seed=2)
        assert len(rep["violations"]) == 0
        assert rep["components_visited"] > 100

    def test_one_shot_ladder_scans_like_a_list(self):
        """A generator ladder is read once: its length sets the per-start budget and its rungs are scanned."""
        ladder = [0.01, 0.005]
        want = backward_contraction_check(CANON, ladder, 10, sample_budget=200, seed=0)
        got = backward_contraction_check(CANON, (d for d in ladder), 10, sample_budget=200, seed=0)
        assert len(want["rows"]) == 36
        assert got == want

    @pytest.mark.parametrize(
        "params, ladder, s_max, budget, seed, one_shot",
        [
            (CANON, [0.01, 0.0025], 0, 100, 3, False),
            (CANON, [0.01, 0.0025], 1, 100, 3, False),
            (CANON, [0.01, 0.005], 10, 200, 0, True),
            (NONLD, [0.01], 10, 400, 20240901, False),
            (SKEW, [0.01, 0.004], 40, 600, 17, False),
        ],
        ids=["s_max-0", "s_max-1", "generator-ladder", "nonld", "skew"],
    )
    def test_rows_equal_scalar_loop(self, params, ladder, s_max, budget, seed, one_shot):
        """The lockstep pass records what the per-start scalar loop recorded, row for row."""
        want = _scalar_backward_contraction(params, ladder, s_max, budget, seed)
        got = backward_contraction_check(
            params, (d for d in ladder) if one_shot else ladder, s_max, sample_budget=budget, seed=seed
        )
        assert len(want["rows"]) >= 2
        assert got == want

    def test_guarded_starts_are_dropped(self, monkeypatch):
        """Starts whose orbits meet the critical guard are dropped, as the scalar loop drops them."""
        real_default_rng = np.random.default_rng
        on_guard = [NONLD.c, NONLD.inverse(NONLD.c, True)]  # on c, and one step before it

        class Draws:
            """The seed's draws, with the first c1_plus offsets moved to put the starts on on_guard."""

            def __init__(self, seed):
                self.rng = real_default_rng(seed)
                self.calls = 0

            def uniform(self, lo, hi, n):
                draws = self.rng.uniform(lo, hi, n)
                if self.calls % 2 == 0:  # each rung draws c1_plus's offsets first
                    draws[: len(on_guard)] = np.array(on_guard) - NONLD.c1_plus
                self.calls += 1
                return draws

        monkeypatch.setattr(np.random, "default_rng", Draws)
        assert abs(NONLD.eval(on_guard[1]) - NONLD.c) < CRITICAL_GUARD
        want = _scalar_backward_contraction(NONLD, [0.01], 10, 400, 5)
        got = backward_contraction_check(NONLD, [0.01], 10, sample_budget=400, seed=5)
        assert got == want


def _scalar_backward_contraction(params, ladder, s_max, sample_budget, seed):
    """backward_contraction_check as its per-start scalar loop computed it: the lockstep pass's oracle."""
    family = PerturbedFamily(params)
    rng = np.random.default_rng(seed)
    rows, seen = [], set()
    per_start = max(1, sample_budget // (2 * max(1, len(ladder))))
    for delta in ladder:
        target = critical_neighborhood(params, BC_R * delta).interval()
        chains = []  # (s, component, order) in record order
        for left in (True, False):  # single-step components in closed form
            try:
                w, at_c = _pull_once(family, 0.0, left, target)
            except EmptyPullback:
                continue
            chains.append((1, w, int(at_c)))
        for v in (params.c1_plus, params.c1_minus):
            starts = v + rng.uniform(-2.0 * delta, 2.0 * delta, per_start)
            for x0 in starts[(starts > 0.0) & (starts < 1.0)]:
                orbit = [x0]
                for _ in range(s_max):
                    if abs(orbit[-1] - params.c) < CRITICAL_GUARD:
                        break
                    orbit.append(params.eval(orbit[-1]))
                else:
                    for s in range(1, s_max + 1):
                        if target[0] < orbit[s] < target[1]:
                            try:
                                chain = pullback_component(family, target, s, guide_orbit=orbit[:s])
                            except EmptyPullback:
                                continue
                            chains.append((s, chain.component, chain.order))
        for s, w, order in chains:
            key = (s, round(w[0], 10), round(w[1], 10))
            if key in seen:
                continue
            seen.add(key)
            dist = _interval_cv_distance(params, w)
            length = w[1] - w[0]
            rows.append({
                "delta": delta, "s": s, "w_lo": w[0], "w_hi": w[1], "length": length,
                "dist_cv": dist, "order": order, "violation": dist < delta and length >= delta,
            })
    return {
        "rows": rows,
        "violations": [row for row in rows if row["violation"]],
        "components_visited": len(rows),
    }


def _landing_chains(params, delta, s_max, per_start, seed):
    """bc-check's landing chains at one rung, from scalar guide orbits: (target, sides, rows, steps)."""
    target = critical_neighborhood(params, BC_R * delta).interval()
    rng = np.random.default_rng(seed)
    sides, rows, steps = [], [], []
    for v in (params.c1_plus, params.c1_minus):
        for x0 in v + rng.uniform(-2.0 * delta, 2.0 * delta, per_start):
            orbit = [float(x0)]
            while len(orbit) <= s_max and abs(orbit[-1] - params.c) >= CRITICAL_GUARD:
                orbit.append(params.eval(orbit[-1]))
            if len(orbit) <= s_max:
                continue
            landings = [s for s in range(1, s_max + 1) if target[0] < orbit[s] < target[1]]
            rows += [len(sides)] * len(landings)
            steps += landings
            sides.append([x < params.c for x in orbit[:s_max]])
    return target, np.array(sides), np.array(rows), np.array(steps)


def _assert_rows_match_scalar(family, target, omega, left, rows, steps):
    """_pullback_rows against pullback_component, chain by chain; returns (lo, hi, order)."""
    lo, hi, order = _pullback_rows(family, target, omega, left, rows, steps)
    c = family.base.c
    for i, (k, s) in enumerate(zip(rows, steps)):
        guide = [c - 0.25 if side else c + 0.25 for side in left[k, :s]]
        try:
            chain = pullback_component(family, target, s, guide_orbit=guide, omega=omega[k, :s])
        except EmptyPullback:
            assert np.isnan(lo[i]) and np.isnan(hi[i]), i
            continue
        assert (lo[i], hi[i]) == chain.component, i
        assert order[i] == chain.order, i
    return lo, hi, order


class TestArrayPullback:
    """The one array pullback step, chain by chain against the scalar pullback_component."""

    def test_c13_rung_at_zero_noise(self):
        target, left, rows, steps = _landing_chains(CANON, 0.01 * 2.0 ** -2.5, 60, 250, 20240901)
        assert len(steps) > 200
        _, _, order = _assert_rows_match_scalar(
            PerturbedFamily(CANON), target, np.zeros(left.shape), left, rows, steps
        )
        assert order.max() >= 1

    def test_nonld_chains(self):
        target, left, rows, steps = _landing_chains(NONLD, 0.01, 10, 200, 1)
        _, _, order = _assert_rows_match_scalar(
            PerturbedFamily(NONLD), target, np.zeros(left.shape), left, rows, steps
        )
        assert order.max() >= 2  # counted, not flagged

    @pytest.mark.parametrize(
        "target", [(0.001, 0.03), (0.05, 0.2), (0.3, 0.7), (0.85, 0.95), (0.97, 0.999), (0.46, 0.53)]
    )
    def test_noisy_chains(self, target):
        """Random sides under stream noise near eps_max: taper-zone preimages, empty chains and chains meeting c."""
        family = PerturbedFamily(CANON)
        model = NoiseModel(eps=0.9 * family.eps_max, seed=11)
        n, depth = 300, 8
        omega = np.array([model.stream(k).prefix(depth) for k in range(n)])
        rng = np.random.default_rng(7)
        left = rng.random((n, depth)) < 0.5
        steps = rng.integers(1, depth + 1, n)
        rows = rng.permutation(n)  # chains need not follow their rows in order
        lo, hi, order = _assert_rows_match_scalar(family, target, omega, left, rows, steps)
        m = family.margin
        kept = ~np.isnan(lo)
        assert kept.any() and not kept.all()
        assert order.max() >= 1
        if target[0] < 0.05 or target[1] > 0.95:  # these preimages reach the taper zones
            ends = np.concatenate([lo[kept], hi[kept]])
            assert np.any(((0.0 < ends) & (ends < m)) | ((1.0 - m < ends) & (ends < 1.0)))
