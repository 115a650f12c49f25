import hashlib
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from lorenzlab import inducing
from lorenzlab.errors import EmptyPullback, VerificationFailed
from lorenzlab.inducing import (
    VERIFY_REASONS,
    build_nice_set,
    inducing_tail_stats,
    markov_inducing_time,
    markov_theta_cap,
    verify_markov_batch,
    verify_markov_time,
)
from lorenzlab.maps import CANON, MapParams, PerturbedFamily, summability_stats
from lorenzlab.noise import NoiseModel
from lorenzlab.recurrence import critical_neighborhood, good_return_time, pullback_component

DELTA0 = 0.002


@pytest.fixture(scope="module")
def nmodel():
    return NoiseModel(eps=0.001, seed=42)


@pytest.fixture(scope="module")
def nice(nmodel):
    from lorenzlab.maps import PerturbedFamily

    family = PerturbedFamily(CANON)
    return build_nice_set(family, DELTA0, nmodel.stream(4_000_000), depth=48)


class TestNiceSet:
    def test_depth_zero_is_base_neighborhood(self, nice):
        nb = critical_neighborhood(CANON, DELTA0)
        lo, hi = nice.intervals[0]
        assert lo == pytest.approx(nb.lo, abs=1e-12)
        assert hi == pytest.approx(nb.hi, abs=1e-12)

    def test_containment_at_every_depth(self, nice):
        nb = critical_neighborhood(CANON, DELTA0)
        nb2 = critical_neighborhood(CANON, 2 * DELTA0)
        assert nice.containment_ok
        for lo, hi in nice.intervals:
            assert nb2.lo - 1e-9 <= lo <= nb.lo + 1e-9
            assert nb.hi - 1e-9 <= hi <= nb2.hi + 1e-9

    def test_depth_monotone_growth(self, nice):
        lengths = [hi - lo for lo, hi in nice.intervals]
        assert all(b >= a - 1e-13 for a, b in zip(lengths, lengths[1:]))

    def test_boundary_orbit_avoids_neighborhood_to_depth(self, family, nmodel, nice):
        nb = critical_neighborhood(CANON, DELTA0)
        om = nmodel.stream(4_000_000).prefix(nice.depth)
        for b in nice.interval:
            y = b
            for i in range(nice.depth):
                y = family.eval(float(om[i]), y)
                assert not nb.contains(y)

    def test_short_verification_horizon_passes(self, family, nmodel):
        ns = build_nice_set(
            family, DELTA0, nmodel.stream(4_000_123), depth=48, verify_horizon=60,
        )
        assert ns.meta["violations"] == []
        ref = ns.meta["boundary_refinement"]
        # the values the mpmath scan gives; the fixed-point scan must keep them
        assert ref["lo"]["bits"] == ref["hi"]["bits"] == 102
        assert (ref["lo"]["orbits_used"], ref["hi"]["orbits_used"]) == (15, 9)
        assert ref["lo"]["achieved_avoidance"] == ref["hi"]["achieved_avoidance"] == 108
        assert ref["lo"]["offset_from_start"] == -3.7084902568136372e-09
        assert ref["hi"]["offset_from_start"] == 1.427366630924441e-07


def _mp_scan_at(factor):
    """A _scan_int stand-in: the mpmath scan at ``factor`` times the refine's bits."""

    def make(family, nb, noise, total_steps, bits):
        body = inducing._scan_mp(family, nb, noise, total_steps)

        def scan(x):
            with mp.workprec(factor * bits):
                return body(x)

        return scan

    return make


def _scans_beside_oracles(monkeypatch):
    """Patch _scan_int to also run the mpmath scan at bits and at 4 * bits.

    The refine still follows the fixed-point scan; returns the list that
    collects one (fixed-point, mpmath, 4x mpmath) triple per candidate.
    """
    triples = []
    fixed_scan = inducing._scan_int
    oracle, reference = _mp_scan_at(1), _mp_scan_at(4)

    def make(family, nb, noise, total_steps, bits):
        scans = [f(family, nb, noise, total_steps, bits) for f in (fixed_scan, oracle, reference)]

        def scan(x):
            triple = tuple(f(x) for f in scans)
            triples.append(triple)
            return triple[0]

        return scan

    monkeypatch.setattr(inducing, "_scan_int", make)
    return triples


def _refinements(monkeypatch, family, model, stream, depth, horizon):
    """Nice sets of one fiber refined with the fixed-point scan ("int"), the
    mpmath scan ("mp") and the mpmath scan at 4x bits ("ref"), and the scan
    triples of the first."""
    fixed_scan = inducing._scan_int

    def build():
        return build_nice_set(
            family, DELTA0, model.stream(stream), depth=depth, verify_horizon=horizon,
        )

    triples = _scans_beside_oracles(monkeypatch)
    built = {"int": build()}
    for name, factor in (("mp", 1), ("ref", 4)):
        monkeypatch.setattr(inducing, "_scan_int", _mp_scan_at(factor))
        built[name] = build()
    monkeypatch.setattr(inducing, "_scan_int", fixed_scan)
    return built, triples


ELL3 = MapParams(c=0.6, ell=3.0, u=0.9, v=0.92)


class TestBoundaryScan:
    """The fixed-point boundary scan against the mpmath scan, its oracle."""

    @pytest.mark.parametrize("stream", [4_000_000, 4_000_001])
    @pytest.mark.parametrize("horizon", [60, 200])
    def test_fixed_point_matches_mpmath_on_canon(self, monkeypatch, family, nmodel, stream, horizon):
        built, triples = _refinements(monkeypatch, family, nmodel, stream, 48, horizon)
        assert len(triples) > 10
        for fixed, at_bits, reference in triples:
            # first hit, trajectory doubles and log Df, bit for bit, against
            # mpmath at 4x bits; mpmath at bits itself rounds one double of
            # one scan (stream 4_000_000, horizon 60) the other way
            assert fixed == reference
            assert fixed[0] == at_bits[0]
            assert fixed[2] == at_bits[2]
        meta = built["int"].meta
        assert meta["boundary_refinement"] == built["mp"].meta["boundary_refinement"]
        assert meta["boundary_refinement"] == built["ref"].meta["boundary_refinement"]
        assert meta["violations"] == built["mp"].meta["violations"] == []
        for side in meta["boundary_refinement"].values():
            assert side["achieved_avoidance"] == horizon + 48
            assert side["scan_steps"] >= side["orbits_used"]

    def test_scan_steps_count_every_scan(self, monkeypatch, family, nmodel):
        triples = _scans_beside_oracles(monkeypatch)
        ns = build_nice_set(
            family, DELTA0, nmodel.stream(4_000_001), depth=48, verify_horizon=60,
        )
        ref = ns.meta["boundary_refinement"]
        assert len(triples) == ref["lo"]["orbits_used"] + ref["hi"]["orbits_used"]
        assert ref["lo"]["scan_steps"] + ref["hi"]["scan_steps"] == sum(
            len(fixed[1]) - 1 for fixed, _, _ in triples
        )

    def test_summable_ell3_family_against_4x_reference(self, monkeypatch):
        for v in (ELL3.c1_minus, ELL3.c1_plus):
            stats = summability_stats(ELL3, v, 400)
            assert stats["S_N"] < 30.0 and not stats["ld_flag"]
        family = PerturbedFamily(ELL3)
        model = NoiseModel(eps=0.001, seed=5)
        n_scans = fixed_matches = mp_matches = 0
        for stream in (4_000_000, 4_000_001, 4_000_002):
            for horizon in (60, 200):
                built, triples = _refinements(monkeypatch, family, model, stream, 24, horizon)
                counts = {name: len(ns.meta["violations"]) for name, ns in built.items()}
                assert counts["int"] == counts["mp"] == counts["ref"]
                for fixed, at_bits, reference in triples:
                    assert fixed[0] == at_bits[0] == reference[0]
                n_scans += len(triples)
                fixed_matches += sum(f[1] == r[1] for f, _, r in triples)
                mp_matches += sum(m[1] == r[1] for _, m, r in triples)
        # bits follows a typical orbit's Lyapunov rate, which falls short on
        # these boundary orbits: mpmath at bits then rounds some trajectory
        # doubles away from the reference, and the 16 guard bits mostly do not
        assert n_scans > 100
        assert mp_matches < fixed_matches

    def test_non_integer_ell_refines_in_mpmath(self, monkeypatch):
        def no_fixed_point(*args):
            raise AssertionError("fixed-point scan used for ell = 2.5")

        calls = []
        mp_scan = inducing._scan_mp

        def counted(*args):
            calls.append(args)
            return mp_scan(*args)

        monkeypatch.setattr(inducing, "_scan_int", no_fixed_point)
        monkeypatch.setattr(inducing, "_scan_mp", counted)
        family = PerturbedFamily(MapParams(c=0.55, ell=2.5, u=0.9, v=0.88))
        model = NoiseModel(eps=0.001, seed=42)
        ns = build_nice_set(
            family, 5e-4, model.stream(4_000_000), depth=24, verify_horizon=60,
        )
        assert len(calls) == 2  # one per side
        assert ns.meta["violations"] == []
        for side in ns.meta["boundary_refinement"].values():
            assert side["achieved_avoidance"] == 84
            assert side["scan_steps"] == 84


class TestMarkovInducing:
    def test_theta_cap_value(self, family):
        cap = markov_theta_cap(family.base.ell, 0.01)
        kappa = 2 ** 0.5
        assert cap == pytest.approx(min(0.01 / (4 * kappa), 1 / (kappa**2 * math.e**3)))

    def test_returned_time_carries_passing_report(self, family, nmodel, nice):
        res = markov_inducing_time(
            family, 0.51, nmodel.stream(4_000_000), nice, theta=0.001, horizon=2000
        )
        assert res is not None
        m, report = res
        assert report.time == m
        assert report.nonlinearity <= 1.0
        assert report.min_df >= report.floor
        assert report.chain_order == 0

    def test_theta_above_cap_rejected(self, family, nmodel, nice):
        with pytest.raises(ValueError):
            markov_inducing_time(
                family, 0.51, nmodel.stream(0), nice, theta=0.5, horizon=100
            )

    def test_point_outside_fiber_rejected(self, family, nmodel, nice):
        with pytest.raises(ValueError):
            markov_inducing_time(
                family, 0.2, nmodel.stream(0), nice, theta=0.001, horizon=100
            )

    def test_never_exceeds_good_return_time(self, family, nmodel, nice):
        # the theta-good return (when it exists) is itself a verified landing
        theta = 0.001
        both = checked = 0
        for k in range(12):
            stream = nmodel.stream(4_100_000 + k)
            x = 0.5 + 0.012 * (1 + (k % 3))
            if not nice.contains(x):
                continue
            res = markov_inducing_time(family, x, stream, nice, theta=theta, horizon=1500)
            ev = good_return_time(family, x, stream, DELTA0, theta, horizon=1500)
            checked += 1
            if res is not None and ev is not None:
                both += 1
                assert res[0] <= ev.time
        assert checked > 0  # the inequality is vacuous when no good return exists

    def test_nonlinearity_grid_convergence(self, family, nmodel, nice):
        res = markov_inducing_time(
            family, 0.51, nmodel.stream(4_000_000), nice, theta=0.001,
            horizon=2000, grid_points=128,
        )
        m, coarse = res
        om = nmodel.stream(4_000_000).prefix(m + 64)
        fine = verify_markov_time(
            family, om, 0.51, m, coarse.target, nice.length, grid_points=256
        )
        rel = abs(fine.nonlinearity - coarse.nonlinearity) / fine.nonlinearity
        assert rel <= 0.1


class TestVerifyMarkov:
    def test_rejects_wrong_time(self, family, nmodel, nice):
        om = nmodel.stream(4_000_000).prefix(64)
        with pytest.raises(VerificationFailed) as info:
            verify_markov_time(family, om, 0.51, 1, nice.interval, nice.length)
        assert info.value.reason in VERIFY_REASONS


class _FlatBandFamily(PerturbedFamily):
    """Sets Df_t to 0 on a band of x.

    No admissible family has a flat spot off c (eps_max keeps both branches
    strictly increasing), so this stands in to reach the orientation check;
    its windows fail the nonlinearity and floor checks too, which tests the
    order of the three.  Both verifiers take derivatives through
    ``jet_vec`` only.
    """

    def jet_vec(self, t, x):
        fx, d1, d2 = super().jet_vec(t, x)
        return fx, np.where((x > 0.30) & (x < 0.31), 0.0, d1), d2


# (family, delta): the target is B(2 delta), the base length |B(delta)|;
# the deltas give targets of comparable width
ORACLE_CASES = {
    "canon": (PerturbedFamily(CANON), 0.002),
    "c04_ell3": (PerturbedFamily(MapParams(c=0.4, ell=3.0, u=0.85, v=0.8)), 2e-4),
    "c055_ell25": (PerturbedFamily(MapParams(c=0.55, ell=2.5, u=0.9, v=0.88)), 5e-4),
    "canon_flat_band": (_FlatBandFamily(CANON), 0.002),
}


def _oracle_rows(family, delta, seed, members=60, horizon=600, eps=0.001):
    """Seeded (x0, noise row) candidates against the target B(2 delta).

    Landings of orbits from B(delta) and from all of [0, 1] (so that some
    pullbacks cross the taper zones): the first three landings and those
    after step 150 up to the seventh (long chains can empty); one row in
    six with zero noise and one in six with every third value zero; rows
    one step before a first landing; starts on the critical guard and one
    step before it; and starts placed on the ends of the scalar pullback
    window.
    """
    p = family.base
    rng = np.random.default_rng(seed)
    nb = critical_neighborhood(p, delta)
    target = critical_neighborhood(p, 2.0 * delta).interval()
    rows = []
    for k in range(members):
        x0 = rng.uniform(0.0, 1.0) if k % 2 else rng.uniform(nb.lo, nb.hi)
        om = rng.uniform(-eps, eps, horizon)
        if k % 6 == 0:
            om[:] = 0.0
        elif k % 6 == 1:
            om[::3] = 0.0
        y = x0
        landings = 0
        for s in range(1, horizon + 1):
            if abs(y - p.c) < 1e-14:
                break
            y = family.eval(float(om[s - 1]), y)
            if target[0] < y < target[1]:
                if landings == 0 and s > 1:
                    rows.append((x0, om[: s - 1]))
                landings += 1
                if landings <= 3 or s > 150:
                    rows.append((x0, om[:s]))
                if s > 150 and landings > 6:
                    break
    om = rng.uniform(-eps, eps, 5)
    rows.append((p.c + 5e-15, om))
    rows.append((family.inverse_branch(float(om[0]), p.c, "left"), om))
    for x0, om in rows[:: 3]:
        orbit = [x0]
        for t in om:
            if abs(orbit[-1] - p.c) < 1e-14:
                break
            orbit.append(family.eval(float(t), orbit[-1]))
        else:
            try:
                chain = pullback_component(family, target, len(om), guide_orbit=orbit, omega=om)
            except EmptyPullback:
                continue
            rows.extend((end, om) for end in chain.component)
    return rows, target, nb.length


def _scalar_code(family, om, x0, target, base_length):
    try:
        verify_markov_time(family, om, x0, len(om), target, base_length, grid_points=64)
    except VerificationFailed as exc:
        return VERIFY_REASONS.index(exc.reason)
    return -1


def _enters_taper_zone(family, om, x0, target):
    """True when a perturbed step of the scalar pullback has an end in a taper zone."""
    orbit = [x0]
    for t in om:
        if abs(orbit[-1] - family.base.c) < 1e-14:
            return False
        orbit.append(family.eval(float(t), orbit[-1]))
    try:
        chain = pullback_component(family, target, len(om), guide_orbit=orbit, omega=om)
    except EmptyPullback:
        return False
    m = family.margin
    return any(
        om[j] != 0.0 and any(0.0 < e < m or 1.0 - m < e < 1.0 for e in chain.intervals[j])
        for j in range(len(om))
    )


@pytest.fixture(scope="module")
def oracle():
    """Per case, rows of (scalar code, batched code, zero-noise, taper-zone)."""
    out = {}
    for seed, (name, (family, delta)) in enumerate(ORACLE_CASES.items()):
        rows, target, base_length = _oracle_rows(family, delta, seed)
        by_m = {}
        for x0, om in rows:
            by_m.setdefault(len(om), []).append((x0, om))
        table = []
        for m, group in by_m.items():
            codes = verify_markov_batch(
                family, np.array([om for _, om in group]), np.array([x0 for x0, _ in group]),
                target, base_length, grid_points=64,
            )
            for (x0, om), code in zip(group, codes):
                table.append((
                    _scalar_code(family, om, x0, target, base_length),
                    int(code),
                    bool(np.any(om == 0.0)),
                    _enters_taper_zone(family, om, x0, target),
                ))
        out[name] = table
    return out


class TestBatchedVerification:
    """verify_markov_batch against the scalar verify_markov_time, row by row."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_codes_equal_scalar_verifier(self, oracle, case):
        table = oracle[case]
        mismatches = [(s, b) for s, b, _, _ in table if s != b]
        assert len(table) > 100
        assert mismatches == []

    def test_rows_reach_every_outcome(self, oracle):
        outcomes = {s for table in oracle.values() for s, _, _, _ in table}
        assert outcomes == {-1, *range(len(VERIFY_REASONS))}
        assert {s for s, _, _, _ in oracle["canon_flat_band"]} >= {
            -1, VERIFY_REASONS.index("not_orientation_preserving")
        }

    def test_rows_exercise_zero_noise_and_taper_zones(self, oracle):
        replayed = {-1, *range(VERIFY_REASONS.index("pullback_empty"), len(VERIFY_REASONS))}
        for case, table in oracle.items():
            assert any(zero and s in replayed for s, _, zero, _ in table), case
            assert any(taper for _, _, _, taper in table), case
        assert any(zero and s == -1 for s, _, zero, _ in oracle["canon"])

    def test_empty_batch(self, family):
        codes = verify_markov_batch(family, np.empty((0, 7)), np.empty(0), (0.4, 0.6), 0.01)
        assert codes.shape == (0,)


@pytest.fixture(scope="module")
def stats(family, nmodel):
    return inducing_tail_stats(
        family, nmodel, DELTA0, n_members=2000, horizon=4096, theta=0.001,
    )


class TestTailStats:

    def test_survival_nonincreasing_and_bounded(self, stats):
        ms, surv = stats.survival()
        assert np.all(np.diff(surv) <= 1e-12)
        assert surv[0] <= 1.0

    def test_censoring_reported(self, stats):
        assert 0.0 <= stats.censoring_fraction < 0.05
        fit = stats.loglog_slope()
        assert fit["fit_range"][1] <= stats.horizon

    def test_slope_consistent_with_integrable_tail(self, stats):
        assert stats.loglog_slope()["slope"] <= -1.0

    def test_subsample_exact_companions_agree(self, stats):
        sub = stats.verified_subsample
        assert sub["checked"] > 0
        assert sub["agree"] == sub["checked"]

    def test_moment_stabilises_under_doubling(self, family, nmodel, stats):
        half = inducing_tail_stats(
            family, nmodel, DELTA0, n_members=1000, horizon=4096, theta=0.001,
        )
        m_full = stats.moment(2.0)
        m_half = half.moment(2.0)
        assert abs(m_full - m_half) / m_full <= 0.2

    def test_times_pinned(self, stats):
        # sha256 of the arrays computed by the per-candidate scalar loop that
        # the batched verifier replaced
        digest = lambda a: hashlib.sha256(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()
        assert digest(stats.times) == "bf4ea966c3a8c7552b3b9d36654edf0a36b04be820e27dc21c407e4bf12bf885"
        assert digest(stats.theta_good_times) == (
            "c1130846d44e78ec44a7d995ef4a8aab42f5496a96ebc83cc7833bf7164d8a5d"
        )

    def test_verification_counts(self, stats):
        counts = stats.meta["verify"]
        assert set(counts["failures"]) == set(VERIFY_REASONS)
        assert counts["accepted"] == int(np.sum(stats.times > 0))
        assert counts["attempts"] == counts["accepted"] + sum(counts["failures"].values())
        sub = stats.verified_subsample
        assert sub["agree"] <= stats.meta["inside_hull"] <= sub["checked"]

    def test_capped_theta_good_returns_are_censored(self, stats):
        # at reachable scales the capped-theta good return never fires; the
        # tail is measured through directly verified inducing times instead
        assert float(np.mean(stats.theta_good_times < 0)) == 1.0

    def test_memory_follows_alive_members(self, family, nmodel):
        # about 1.2 KB a member when only the alive members' draws are held, in
        # one copy (most members are verified within the first 64-step block);
        # a name left on the previous draws array raises it to about 1.6 KB, and
        # holding a stream and its prefix per member for the whole run to over 7 KB
        n_members = 1000
        tracemalloc.start()
        try:
            inducing_tail_stats(
                family, nmodel, DELTA0, n_members=n_members, horizon=256, theta=0.001,
                verify_subsample=0,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n_members <= 1.4 * 1024
