import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorenzlab.acceptance import _brute_force_scan
from lorenzlab.errors import CriticalHit, NoiseOutOfRange
from lorenzlab.maps import CANON, CRITICAL_GUARD, MapParams, PerturbedFamily
from lorenzlab.noise import NoiseModel
from lorenzlab.orbits import log_scan, random_orbit
from lorenzlab.recurrence import good_return_or_expansion_time, good_return_time

OTHER_PARAMS = [
    MapParams(c=0.4, ell=3.0, u=0.85, v=0.8),
    MapParams(c=0.55, ell=2.5, u=0.9, v=0.88),
]


class TestRandomOrbit:
    def test_single_step_example(self, family):
        rec = random_orbit(family, 0.25, [0.0], 1)
        assert rec.points.tolist() == pytest.approx([0.25, 0.675])
        assert rec.d1.tolist() == pytest.approx([1.0, 1.8])

    def test_empty_composition(self, family):
        rec = random_orbit(family, 0.3, [], 0)
        assert rec.points.tolist() == [0.3]
        assert rec.d1.tolist() == [1.0]
        assert rec.asum.tolist() == [0.0]
        assert rec.d2.tolist() == [0.0]

    def test_first_distortion_term(self, family):
        rec = random_orbit(family, 0.25, [0.0], 1)
        assert rec.asum[1] == pytest.approx(4.0)  # 1/d(0.25, 0.5)

    def test_critical_hit_truncates(self, family):
        rec = random_orbit(family, 0.5 + 1e-16, np.zeros(5), 5)
        assert rec.hit_critical
        assert rec.hit_index == 0
        assert len(rec.points) == 1

    def test_noise_prefix_too_short(self, family):
        with pytest.raises(ValueError):
            random_orbit(family, 0.25, [0.0], 3)

    @settings(max_examples=40, deadline=None)
    @given(
        x0=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=40),
    )
    def test_asum_monotone_and_first_term_bound(self, family, model, x0, seed, n):
        om = model.stream(seed).prefix(n)
        rec = random_orbit(family, x0, om, n)
        if rec.hit_critical or rec.n < 1:
            return
        assert np.all(np.diff(rec.asum) >= 0.0)
        assert rec.asum[1] >= 1.0 / abs(x0 - CANON.c) - 1e-9

    def test_chain_rule_against_stepwise_products(self, family, model):
        n = 25
        om = model.stream(77).prefix(n)
        rec = random_orbit(family, 0.31, om, n)
        prod = 1.0
        for i in range(rec.n):
            d1, _ = family.derivatives(float(om[i]), rec.points[i])
            prod *= d1
        assert rec.d1[rec.n] == pytest.approx(prod, rel=1e-12)

    def test_cocycle_splitting_bitwise(self, family, model):
        n, m = 17, 23
        stream = model.stream(5)
        full = random_orbit(family, 0.27, stream, n + m)
        head = random_orbit(family, 0.27, stream, n)
        tail = random_orbit(family, head.points[-1], stream.shift(n), m)
        assert full.points[n] == head.points[n]
        assert np.array_equal(full.points[n:], tail.points)


_LOG2 = math.log(2.0)


def _logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b) by np.logaddexp's formula."""
    if a == b:
        return a + _LOG2
    if a > b:
        return a + math.log1p(math.exp(b - a))
    return b + math.log1p(math.exp(a - b))


def _reference_log_scan(family, x, noise):
    """log_scan's walk through family.step and _logaddexp: the oracle of its inline step."""
    c = family.base.c
    y, log_df, log_a = x, 0.0, -math.inf
    for s, t in enumerate(noise, 1):
        d = abs(y - c)
        if d < CRITICAL_GUARD:
            raise CriticalHit(s - 1, y)
        y, df = family.step(float(t), y)
        log_a = _logaddexp(log_a, log_df - math.log(d))
        log_df += math.log(df)
        yield s, y, log_df, log_a


def _walk(scan):
    """(rows with every float as its hex bits, the raised error as (type, step, message) or None)."""
    rows = []
    try:
        for s, y, log_df, log_a in scan:
            rows.append((s, y.hex(), log_df.hex(), log_a.hex()))
    except (CriticalHit, NoiseOutOfRange) as exc:
        return rows, (type(exc), getattr(exc, "step", None), str(exc))
    return rows, None


def _tied_start(family):
    """(x, t) whose first two distortion terms, log(1/d0) and log(Df_t(x)/d1), are one double.

    For t on a grid, bisects x on CANON's left branch for the sign change of the
    terms' difference, then steps through the neighbouring doubles until they are equal.
    log A + log 2 lies above 2, where doubles are four ulps of log 2 apart, so many ties
    round it to the same double whether log 2 or its next double is added: the search
    skips those, and the walk pins the constant's last bit.
    """
    c = family.base.c

    def terms(x, t):
        y, df = family.step(t, x)
        return 0.0 - math.log(abs(x - c)), math.log(df) - math.log(abs(y - c))

    for k in range(40):
        t = k * family.eps_max / 40
        lo, hi = 0.17, 0.49  # the difference falls from +inf where f_t(x) = c to -inf at x = c
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            b1, b2 = terms(mid, t)
            lo, hi = (mid, hi) if b2 > b1 else (lo, mid)
        x = lo
        for _ in range(8):
            x = math.nextafter(x, 0.0)
        for _ in range(17):
            b1, b2 = terms(x, t)
            if b1 == b2 and b1 + _LOG2 != b1 + math.nextafter(_LOG2, math.inf):
                return x, t
            x = math.nextafter(x, 1.0)
    raise AssertionError("no start with equal distortion terms on the grid")


class TestLogScan:
    @pytest.fixture(params=[CANON, *OTHER_PARAMS], ids=["canon", "c04_ell3", "c055_ell25"])
    def scan_family(self, request):
        return PerturbedFamily(request.param)

    def test_matches_random_orbit(self, scan_family, model):
        n = 60
        for k, x in enumerate((0.03, 0.21, 0.37, 0.49, 0.52, 0.66, 0.88, 0.97)):
            om = model.stream(900 + k).prefix(n)
            rec = random_orbit(scan_family, x, om, n)
            rows = list(log_scan(scan_family, x, om[: rec.n]))
            assert [r[0] for r in rows] == list(range(1, rec.n + 1))
            # the points are the same bits; the logs agree with the products
            assert np.array_equal([r[1] for r in rows], rec.points[1:])
            np.testing.assert_allclose([r[2] for r in rows], np.log(rec.d1[1:]), rtol=1e-12, atol=0)
            np.testing.assert_allclose([r[3] for r in rows], np.log(rec.asum[1:]), rtol=1e-12, atol=0)

    def test_start_within_guard_raises_at_step_zero(self, scan_family):
        x = scan_family.base.c + 1e-15
        with pytest.raises(CriticalHit) as err:
            next(log_scan(scan_family, x, np.zeros(5)))
        assert err.value.step == 0
        assert err.value.point == x

    def test_hit_after_steps_reports_the_step(self, scan_family):
        # x maps to within 2e-16 of c in one unperturbed step, inside the guard: the hit is at step 1
        x = scan_family.inverse_branch(0.0, scan_family.base.c, "left")
        rows = []
        with pytest.raises(CriticalHit) as err:
            for row in log_scan(scan_family, x, np.zeros(5)):
                rows.append(row)
        assert len(rows) == 1
        assert err.value.step == 1
        assert err.value.point == rows[0][1]
        assert random_orbit(scan_family, x, np.zeros(5), 5).hit_index == 1

    def test_inline_step_matches_family_step_bit_for_bit(self, scan_family):
        """Every yielded (s, y, log_df, log_a) equals the family.step walk's bits."""
        family = scan_family
        m, eps_max = family.margin, family.eps_max
        rng = np.random.default_rng(2026)
        stream_model = NoiseModel(eps=0.005, seed=11)
        for k in range(500):
            n = int(rng.integers(1, 80))
            if k % 4 == 0:  # starts in the taper zones, endpoints included
                x = float(rng.choice([0.0, 1.0, rng.uniform(0.0, m), rng.uniform(1.0 - m, 1.0)]))
            else:
                x = float(rng.uniform(0.0, 1.0))
            kind = k % 5
            if kind == 0:
                noise = np.zeros(n)
            elif kind == 1:
                noise = rng.uniform(-eps_max, eps_max, n).tolist()  # a Python list near the bound
            elif kind == 2:
                noise = stream_model.stream(k).prefix(n)
                assert not noise.flags.writeable
            elif kind == 3:
                noise = rng.uniform(-eps_max, eps_max, n)
                noise[rng.random(n) < 0.3] = 0.0
                noise[rng.random(n) < 0.1] = -0.0
            else:
                noise = rng.uniform(-eps_max, eps_max, 2 * n)[::2]  # a strided view
            assert _walk(log_scan(family, x, noise)) == _walk(_reference_log_scan(family, x, noise))

    def test_errors_raise_at_the_reference_step(self, scan_family):
        """CriticalHit and NoiseOutOfRange come at the same step, with the same step index and message."""
        family = scan_family
        c, eps_max = family.base.c, family.eps_max
        onto_c = family.inverse_branch(0.0, c, "left")  # maps to within the guard of c in one step
        bad = 2.0 * eps_max
        rng = np.random.default_rng(7)
        cases = [
            (c + 1e-15, np.zeros(5)),  # starts within the guard
            (onto_c, np.zeros(5)),  # hits at step 1
            (onto_c, [0.0, bad, 0.0]),  # hits before the bad noise value is read
            (0.3, [0.0, 0.0, bad, 0.0]),  # bad noise at step 3
            (0.3, [-bad]),
            (0.3, [eps_max + 2e-15]),
            (0.3, [eps_max + 1e-15]),  # at the tolerance: accepted
        ]
        for j in range(40):
            noise = rng.uniform(-eps_max, eps_max, 30)
            noise[int(rng.integers(0, 30))] = float(rng.choice([bad, -bad]))
            cases.append((float(rng.uniform(0.05, 0.95)), noise))
        errors = set()
        for x, noise in cases:
            got = _walk(log_scan(family, x, noise))
            assert got == _walk(_reference_log_scan(family, x, noise))
            errors.add(None if got[1] is None else got[1][0])
        assert errors == {None, CriticalHit, NoiseOutOfRange}

    def test_equal_distortion_terms_add_log2(self, family):
        """When the new distortion term equals log A, the walk takes the log A + log 2 branch."""
        x, t = _tied_start(family)
        noise = [t, 0.0]
        rows, err = _walk(log_scan(family, x, noise))
        assert (rows, err) == _walk(_reference_log_scan(family, x, noise))
        log_a1, log_a2 = (float.fromhex(r[3]) for r in rows)
        assert log_a2 == log_a1 + _LOG2

    def test_logaddexp_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        a = rng.normal(0.0, 50.0, 100_000).tolist()
        b = rng.normal(0.0, 50.0, 100_000).tolist()
        b[:1000] = a[:1000]  # a == b
        pairs = list(zip(a, b)) + [
            (-math.inf, 1.5), (1.5, -math.inf), (-math.inf, -math.inf), (-3.25, -3.25), (0.0, 0.0),
        ]
        assert all(_logaddexp(x, y) == float(np.logaddexp(x, y)) for x, y in pairs)


@pytest.mark.parametrize("params", OTHER_PARAMS, ids=["c04_ell3", "c055_ell25"])
def test_stopping_times_match_brute_force(params):
    """The two return scans agree with the c09 oracle away from CANON.

    tau and theta0 are chosen so that both kinds of capped stop occur (at
    the config defaults no tau-scale time falls within the horizon here).
    """
    family = PerturbedFamily(params)
    model = NoiseModel(eps=0.005, seed=7)
    delta, theta, tau, theta0, horizon = 0.009, 2.0, 0.05, 0.5, 300
    rng = np.random.default_rng(31)
    kinds = set()
    for k in range(20):
        x = float(rng.uniform(0.05, 0.95))
        om = model.stream(7_300_000 + k).prefix(horizon)
        ev = good_return_time(family, x, om, delta, theta, horizon=horizon)
        cap = good_return_or_expansion_time(
            family, x, om, delta, theta, tau, horizon=horizon, theta0=theta0,
        )
        plain, capped = _brute_force_scan(family, x, om, delta, theta, tau, theta0, horizon)
        assert (None if ev is None else ev.time) == plain
        assert (None if cap is None else (cap.kind, cap.time)) == capped
        kinds.add(None if cap is None else cap.kind)
    assert kinds == {None, "theta_good", "tau_scale"}
