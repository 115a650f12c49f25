import hashlib
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from lorenzlab import cli, inducing
from lorenzlab.config import load_config
from lorenzlab.errors import EmptyPullback, VerificationFailed
from lorenzlab.inducing import (
    VERIFY_REASONS,
    build_nice_set,
    inducing_tail_stats,
    markov_theta_cap,
    verify_markov_batch,
    verify_markov_time,
)
from lorenzlab.maps import CANON, MapParams, PerturbedFamily, summability_stats
from lorenzlab.noise import NoiseModel
from lorenzlab.recurrence import critical_neighborhood, pullback_component

DELTA0 = 0.002


@pytest.fixture(scope="module")
def nmodel():
    return NoiseModel(eps=0.001, seed=42)


@pytest.fixture(scope="module")
def nice(nmodel):
    from lorenzlab.maps import PerturbedFamily

    family = PerturbedFamily(CANON)
    return build_nice_set(family, DELTA0, nmodel.stream(4_000_000), depth=48, verify_horizon=0)


# x = 0.51 on stream 4 000 000 first lands at a time that verifies onto its own
# 512-point fiber at MARKOV_M (found by a landing-by-landing search at theta = 0.001)
MARKOV_M = 40


def _stream_and_fiber(family, nmodel, m):
    """Stream 4 000 000's first m + 64 values and its 512-point fiber at m."""
    om = nmodel.stream(4_000_000).prefix(m + 64)
    fiber = inducing._fibers(family, DELTA0, om[None, m : m + 48], 48, inducing._FIBER_GRID)
    return om, tuple(fiber[1][0].tolist())


@pytest.fixture(scope="module")
def markov_case(family, nmodel):
    """The stream's first MARKOV_M + 64 values and the fiber at MARKOV_M."""
    return _stream_and_fiber(family, nmodel, MARKOV_M)


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
        depth = len(nice.intervals) - 1
        om = nmodel.stream(4_000_000).prefix(depth)
        for b in nice.interval:
            y = b
            for i in range(depth):
                y = family.eval(float(om[i]), y)
                assert not nb.contains(y)

    def test_criterion_14_fibers_pinned(self):
        # criterion 14's 20 fibers at the default config, without verification:
        # each fiber's per-depth (lo, hi) and its boundary, stacked
        cfg = load_config(None, {})
        family = cfg.perturbed_family()
        model = cfg.noise_model(min(cfg.noise.eps, cfg.scales.delta0))
        fibers = [
            build_nice_set(family, cfg.scales.delta0, model.stream(inducing.STREAM_NICE + k), depth=48, verify_horizon=0)
            for k in range(20)
        ]
        assert all(ns.containment_ok for ns in fibers)
        stacked = np.array([[*ns.intervals, ns.interval] for ns in fibers], dtype=np.float64)
        assert stacked.shape == (20, 50, 2)
        assert hashlib.sha256(stacked.tobytes()).hexdigest() == (
            "6dbb14de64c3f7e218f64eb2de3301c63c408fe4958b75354df54c5e0ae5d9ad"
        )

    def test_short_verification_horizon_passes(self, family, nmodel):
        ns = build_nice_set(
            family, DELTA0, nmodel.stream(4_000_123), depth=48, verify_horizon=60,
        )
        assert ns.meta["violations"] == []
        ref = ns.meta["boundary_refinement"]
        # the values the mpmath scan gives; the fixed-point scan must keep them
        assert ref["lo"]["bits"] == ref["hi"]["bits"] == 102
        assert (ref["lo"]["orbits_used"], ref["hi"]["orbits_used"]) == (16, 5)
        assert ref["lo"]["achieved_avoidance"] == ref["hi"]["achieved_avoidance"] == 108
        assert ref["lo"]["offset_from_start"] == -3.7084902568136372e-09
        assert ref["hi"]["offset_from_start"] == 2.1652460659064554e-07

    def test_directed_moves_improve(self, monkeypatch, family, nmodel):
        """On the fiber above some directed move improves its side's first hit,
        and each side's accepted point avoids B(delta) in all three scans."""
        directed, improved = [], []
        move, refine = inducing._directed_move, inducing._refine_boundary_mp

        def recorded_move(*args):
            cand = move(*args)
            if cand is not None:
                directed.append(cand)
            return cand

        def recorded_refine(nb, nb2, side, start, total_steps, bits, scan, trace):
            best = []  # the side's best first hit so far

            def scan_seen(x):
                hit, Ys = scan(x)
                if directed and x is directed[-1]:
                    improved.append(hit > best[-1])
                best.append(max(best[-1:] + [hit]))
                return hit, Ys

            return refine(nb, nb2, side, start, total_steps, bits, scan_seen, trace)

        triples = _scans_beside_oracles(monkeypatch)
        monkeypatch.setattr(inducing, "_directed_move", recorded_move)
        monkeypatch.setattr(inducing, "_refine_boundary_mp", recorded_refine)
        ns = build_nice_set(
            family, DELTA0, nmodel.stream(4_000_123), depth=48, verify_horizon=60,
        )
        assert ns.meta["violations"] == []
        assert len(improved) == len(directed) and any(improved)
        nb = critical_neighborhood(CANON, DELTA0)
        assert _avoiders_outside([s for triple in triples for s in triple], nb, 108) >= 6

    def test_tracking_failure_names_its_side(self, monkeypatch, family, nmodel, tmp_path):
        # the fiber above tracks its hi side in 5 scans and its lo side in 16
        monkeypatch.setattr(inducing, "_MAX_ORBITS", 10)
        ns = build_nice_set(
            family, DELTA0, nmodel.stream(4_000_123), depth=48, verify_horizon=60,
        )
        ref = ns.meta["boundary_refinement"]
        assert ns.meta["violations"] == ["lo"]
        assert ref["lo"]["achieved_avoidance"] < 108
        assert ref["hi"]["achieved_avoidance"] == 108
        assert ref["hi"]["orbits_used"] == 5

        # the nice-set subcommand counts each fiber's failed sides
        monkeypatch.setattr(inducing, "_MAX_ORBITS", 2)
        cfg = load_config(None, {})
        cfg.horizons.verify_horizon = 60
        _, results = cli.run_nice_set(cfg, str(tmp_path))
        cli_family, model = cfg.perturbed_family(), cfg.noise_model(cfg.noise.eps)
        failed = [
            build_nice_set(
                cli_family, cfg.scales.delta0, model.stream(inducing.STREAM_NICE + k), depth=48, verify_horizon=60,
            ).meta["violations"]
            for k in range(4)
        ]
        assert any(failed)
        assert [f["violations"] for f in results["fibers"]] == [len(sides) for sides in failed]


def _mp_scan_at(factor):
    """A _scan_int stand-in: the mpmath (scan, trace) pair at ``factor`` times the refine's bits."""

    def make(family, nb, noise, total_steps, bits):
        body, trace = inducing._scan_mp(family, nb, noise, total_steps)

        def scan(x):
            with mp.workprec(factor * bits):
                return body(x)

        return scan, trace

    return make


def _scans_beside_oracles(monkeypatch):
    """Patch _scan_int to also run the mpmath scan at bits and at 4 * bits.

    Every candidate is traced by all three scans, so each is compared in
    full, though the refine itself traces only the improvers; the refine
    still follows the fixed-point scan.  Each scan's trace of a candidate
    from the previous candidate's trace must give the running log Df sums
    of a trace from step 0 bit for bit.  Returns the list that collects one
    (fixed-point, mpmath, 4x mpmath) triple of (first hit, trajectory
    doubles, log Df) per candidate.
    """
    triples = []
    fixed_scan = inducing._scan_int
    oracle, reference = _mp_scan_at(1), _mp_scan_at(4)

    def make(family, nb, noise, total_steps, bits):
        pairs = [f(family, nb, noise, total_steps, bits) for f in (fixed_scan, oracle, reference)]
        previous = [None] * len(pairs)

        def scan(x):
            scanned = [each(x) for each, _ in pairs]
            traced = [trace(Ys) for (_, Ys), (_, trace) in zip(scanned, pairs)]
            for (_, Ys), (_, trace), prev, full in zip(scanned, pairs, previous, traced):
                if prev is not None:
                    assert trace(Ys, prev) == full
            previous[:] = traced
            triples.append(tuple((hit, traj, sums[-1]) for (hit, _), (traj, sums) in zip(scanned, traced)))
            return scanned[0]

        return scan, pairs[0][1]

    monkeypatch.setattr(inducing, "_scan_int", make)
    return triples


def _avoiders_outside(scans, nb, total):
    """Assert that every scan whose first hit is past ``total`` has trajectory
    doubles 1..total outside B(delta), and count those scans.

    Each scan is (first hit, trajectory doubles, log Df).  A side's niceness
    is read off the first hit alone; this is the property that makes it so.
    """
    avoiders = 0
    for hit, traj, _ in scans:
        if hit > total:
            avoiders += 1
            assert len(traj) == total + 1
            assert not any(nb.lo < y < nb.hi for y in traj[1:])
    return avoiders


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
        # two fibers, stream and stream + 2, so that each case sees more than
        # 10 scans under directed moves
        triples = []
        for fiber in (stream, stream + 2):
            built, scans = _refinements(monkeypatch, family, nmodel, fiber, 48, horizon)
            triples += scans
            meta = built["int"].meta
            assert meta["boundary_refinement"] == built["mp"].meta["boundary_refinement"]
            assert meta["boundary_refinement"] == built["ref"].meta["boundary_refinement"]
            assert meta["violations"] == built["mp"].meta["violations"] == []
            for side in meta["boundary_refinement"].values():
                assert side["achieved_avoidance"] == horizon + 48
                assert side["scan_steps"] >= side["orbits_used"]
        nb = critical_neighborhood(CANON, DELTA0)
        # each side's accepted point, by all three scans
        assert _avoiders_outside([s for triple in triples for s in triple], nb, horizon + 48) >= 12
        assert len(triples) > 10
        for fixed, at_bits, reference in triples:
            # first hit, trajectory doubles and log Df, bit for bit, against
            # mpmath at 4x bits; mpmath at bits itself can round a double the
            # other way, so only its first hits and log Df are compared
            assert fixed == reference
            assert fixed[0] == at_bits[0]
            assert fixed[2] == at_bits[2]
        if horizon == 200:
            # late in a long search the moves fall below a double of x, so
            # consecutive candidates share trajectory prefixes, which the
            # traces checked by _scans_beside_oracles reuse
            assert any(a[1][:2] == b[1][:2] for (a, _, _), (b, _, _) in zip(triples, triples[1:]))

    def test_trace_from_any_previous_trace(self):
        """A trace from a previous trace gives the sums from step 0 when the
        two trajectories share all, part or none of a prefix, or one is a
        prefix of the other."""
        traj = [0.3, 0.7, 0.2, 0.9, 0.4]
        full = inducing._trace_doubles(CANON, traj, None)
        assert len(full[1]) == len(traj)
        for old in (traj, traj[:3], traj + [0.6], [0.3, 0.7, 0.25, 0.1], [0.31], [0.3]):
            prev = inducing._trace_doubles(CANON, old, None)
            assert inducing._trace_doubles(CANON, traj, prev) == full

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
        for stream in (4_000_000, 4_000_001, 4_000_002, 4_000_003):
            for horizon in (60, 200):
                built, triples = _refinements(monkeypatch, family, model, stream, 24, horizon)
                counts = {name: len(ns.meta["violations"]) for name, ns in built.items()}
                assert counts["int"] == counts["mp"] == counts["ref"]
                for fixed, at_bits, reference in triples:
                    assert fixed[0] == at_bits[0] == reference[0]
                nb = critical_neighborhood(ELL3, DELTA0)
                avoiders = _avoiders_outside([s for triple in triples for s in triple], nb, horizon + 24)
                assert avoiders >= 3 * (2 - counts["int"])
                n_scans += len(triples)
                fixed_matches += sum(f[1] == r[1] for f, _, r in triples)
                mp_matches += sum(m[1] == r[1] for _, m, r in triples)
        # bits follows a typical orbit's Lyapunov rate, which falls short on
        # these boundary orbits: mpmath at bits then rounds some trajectory
        # doubles away from the reference, and the 16 guard bits mostly do not
        assert n_scans > 100
        assert mp_matches < fixed_matches

    @pytest.mark.parametrize("params", [CANON, ELL3], ids=["canon", "ell3"])
    @pytest.mark.parametrize("horizon", [60, 1048])
    def test_int_windows_match_the_double_tests(self, nmodel, params, horizon):
        """At each edge of the core and c-graze windows, the fixed-point scan's
        int test on Y agrees with the double test on Y / 2^S, and the double
        test flips within two units of Y either side."""
        family = PerturbedFamily(params)
        total = horizon + 48
        noise = nmodel.stream(4_000_000).prefix(total)
        # the refine's bits at this horizon
        bits = int(1.3 * inducing._estimate_lyapunov_bits(family, noise, 0.3141) * total) + 64
        S = bits + inducing._GUARD_BITS
        scan, _ = inducing._scan_int(family, critical_neighborhood(params, DELTA0), noise, 1, bits)
        margin, c = family.margin, params.c

        def fails(yf):  # the scan's double test: left the core or grazed c
            return not margin <= yf <= 1.0 - margin or abs(yf - c) < 1e-12

        for edge in (margin, 1.0 - margin, c - 1e-12, c + 1e-12):
            ds = [edge]
            for _ in range(4):
                ds = [math.nextafter(ds[0], -math.inf), *ds, math.nextafter(ds[-1], math.inf)]
            ((a, b),) = [(a, b) for a, b in zip(ds, ds[1:]) if fails(a) != fails(b)]
            # Y / 2^S rounds to a below the midpoint of a and b, to b above it
            mid = sum((n << S) // d for n, d in (a.as_integer_ratio(), b.as_integer_ratio())) // 2
            assert fails(a) == fails((mid - 2) / (1 << S)) != fails((mid + 2) / (1 << S)) == fails(b)
            with mp.workprec(S + 64):
                for Y in range(mid - 2, mid + 3):
                    _, Ys = scan(mp.ldexp(Y, -S))
                    assert Ys[0] == Y
                    assert (len(Ys) == 1) == fails(Y / (1 << S))

    def test_non_integer_ell_refines_in_mpmath(self, monkeypatch):
        def no_fixed_point(*args):
            raise AssertionError("fixed-point scan used for ell = 2.5")

        calls = []
        scans = []  # per candidate, the scan at bits and at 4x bits
        mp_scan = inducing._scan_mp

        def counted(*args):
            calls.append(args)
            body, trace = mp_scan(*args)

            def scan(x):
                hit, Ys = body(x)
                with mp.workprec(4 * mp.mp.prec):
                    reference = body(x)
                scans.extend([(hit, *trace(Ys)), (reference[0], *trace(reference[1]))])
                return hit, Ys

            return scan, trace

        monkeypatch.setattr(inducing, "_scan_int", no_fixed_point)
        monkeypatch.setattr(inducing, "_scan_mp", counted)
        params = MapParams(c=0.55, ell=2.5, u=0.9, v=0.88)
        model = NoiseModel(eps=0.001, seed=42)
        ns = build_nice_set(
            PerturbedFamily(params), 5e-4, model.stream(4_000_000), depth=24, verify_horizon=60,
        )
        assert len(calls) == 1  # one per fiber
        assert ns.meta["violations"] == []
        assert _avoiders_outside(scans, critical_neighborhood(params, 5e-4), 84) >= 4
        for side in ns.meta["boundary_refinement"].values():
            assert side["achieved_avoidance"] == 84
            assert side["scan_steps"] == 84


class TestMarkovInducing:
    def test_theta_cap_value(self, family):
        cap = markov_theta_cap(family.base.ell, 0.01)
        kappa = 2 ** 0.5
        assert cap == pytest.approx(min(0.01 / (4 * kappa), 1 / (kappa**2 * math.e**3)))

    def test_returned_time_carries_passing_report(self, family, nice, markov_case):
        om, target = markov_case
        report = verify_markov_time(family, om, 0.51, MARKOV_M, target, nice.length)
        assert report.target == target
        assert report.nonlinearity <= 1.0
        assert report.min_df >= report.floor
        assert (report.nonlinearity, report.min_df, report.floor) == pytest.approx(
            (0.6409116675363032, 130.6084003117565, 7.199288897270584), rel=1e-9
        )

    def test_nonlinearity_grid_convergence(self, family, nmodel, nice, monkeypatch):
        # x = 0.3 on stream 4 000 000 first lands in its fiber at step 130 and verifies onto it
        # there.  Every grid holds the window's end points, so a max of |D2f^m|/Df^m at an end
        # would read the same on every grid; here it lies inside the window and the nonlinearity
        # grows as the grid refines: 0.14571, 0.14818, 0.14944 and 0.15011 at 64, 128, 256 and
        # 1024 points.
        m = 130
        om, target = _stream_and_fiber(family, nmodel, m)
        coarse = verify_markov_time(family, om, 0.3, m, target, nice.length)
        monkeypatch.setattr(inducing, "_TAIL_GRID", 256)
        fine = verify_markov_time(family, om, 0.3, m, target, nice.length)
        rel = abs(fine.nonlinearity - coarse.nonlinearity) / fine.nonlinearity
        assert 0.0 < rel <= 0.1


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
    rows.append((family.inverse_branch(float(om[0]), p.c, True, 1e-13), om))
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
        verify_markov_time(family, om, x0, len(om), target, base_length)
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
    """Per case, rows of (scalar code, batched code, zero-noise, taper-zone).

    Each case's rows go through one batched call in the order they were
    drawn, so its times are mixed and not sorted; the noise rows are padded
    with NaN past their time, which no verification may read.
    """
    out = {}
    for seed, (name, (family, delta)) in enumerate(ORACLE_CASES.items()):
        rows, target, base_length = _oracle_rows(family, delta, seed)
        m = np.array([len(om) for _, om in rows])
        omega = np.full((len(rows), m.max()), np.nan)
        for k, (_, om) in enumerate(rows):
            omega[k, : len(om)] = om
        assert np.any(np.diff(m) > 0) and np.any(np.diff(m) < 0)
        codes = verify_markov_batch(family, omega, np.array([x0 for x0, _ in rows]), m, target, base_length)
        out[name] = [
            (
                _scalar_code(family, om, x0, target, base_length),
                int(code),
                bool(np.any(om == 0.0)),
                _enters_taper_zone(family, om, x0, target),
            )
            for (x0, om), code in zip(rows, codes)
        ]
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
        codes = verify_markov_batch(family, np.empty((0, 7)), np.empty(0), np.empty(0, dtype=int), (0.4, 0.6), 0.01)
        assert codes.shape == (0,)


def _per_step_tail(family, model, delta, n_members, horizon, theta, depth=48):
    """inducing_tail_stats' scan verifying every step's candidates at that step.

    The loop the block-wise verification replaced, kept as its reference: a
    member leaves the moment it is accepted or hits the guard.  Returns
    (times, theta_good_times, critical_hits, meta["verify"]).
    """
    nb = critical_neighborhood(family.base, delta)
    hull = inducing.estimate_companion_hull(family, model, delta, depth)
    c = family.base.c
    log_theta, log_len = math.log(theta), math.log(nb.length)
    log_floor = 2.0 + math.log((hull[1] - hull[0]) / nb.length)
    guard = inducing.CRITICAL_GUARD
    x0 = model.generator(inducing.STREAM_TAIL).uniform(nb.lo, nb.hi, n_members)
    x0 = np.where(np.abs(x0 - c) < 10 * guard, nb.hi - 1e-6, x0)
    times = np.full(n_members, -1, dtype=np.int64)
    h_times = np.full(n_members, -1, dtype=np.int64)
    failures = np.zeros(len(VERIFY_REASONS), dtype=np.int64)
    critical_hits = 0
    alive = np.arange(n_members)
    x = x0.copy()
    log_df = np.zeros(n_members)
    log_a = np.full(n_members, -np.inf)
    attempts = np.zeros(n_members, dtype=np.int64)
    hist = np.empty((n_members, 0))
    s = 0
    while s < horizon and len(alive):
        block = min(inducing._TAIL_BLOCK, horizon - s)
        hist = np.pad(hist, ((0, 0), (0, block)))
        for row, i in enumerate(alive):
            hist[row, s:] = model.stream(inducing.STREAM_TAIL + i).shift(s).prefix(block)
        for b in range(block):
            s_cur = s + b + 1
            d = np.abs(x - c)
            leave = d < guard
            critical_hits += int(np.count_nonzero(leave))
            x, df, _ = family.jet_vec(hist[:, s + b], x)
            log_a = np.logaddexp(log_a, log_df - np.log(np.maximum(d, guard)))
            log_df += np.log(np.maximum(df, 1e-300))
            inside = (x > nb.lo) & (x < nb.hi)
            good = inside & (log_theta + log_df >= log_a + log_len)
            if good.any():
                members = alive[good]
                h_times[members[h_times[members] < 0]] = s_cur
            cand = np.nonzero(inside & ~leave & (log_df >= log_floor))[0]
            cand = cand[attempts[cand] < inducing._MAX_VERIFICATIONS]
            if len(cand):
                attempts[cand] += 1
                codes = verify_markov_batch(
                    family, hist[cand, :s_cur], x0[alive[cand]], np.full(len(cand), s_cur), hull, nb.length,
                )
                ok = codes < 0
                times[alive[cand[ok]]] = s_cur
                leave[cand[ok]] = True
                failures += np.bincount(codes[~ok], minlength=len(VERIFY_REASONS))
            if leave.any():
                keep = ~leave
                alive, x, log_df, log_a, attempts, hist = (
                    a[keep] for a in (alive, x, log_df, log_a, attempts, hist)
                )
        s += block
    accepted = int(np.sum(times > 0))
    verify = {
        "attempts": accepted + int(failures.sum()),
        "accepted": accepted,
        "failures": dict(zip(VERIFY_REASONS, failures.tolist())),
    }
    return times, h_times, critical_hits, verify


def _guard_after_acceptance(family, model, delta, times, guard):
    """Members whose orbit comes within ``guard`` of c later in the block they were accepted in.

    The orbit is walked with family.eval, which can part from the scan's
    array arithmetic in the last bits; this only counts the case as covered.
    """
    c = family.base.c
    nb = critical_neighborhood(family.base, delta)
    x0 = model.generator(inducing.STREAM_TAIL).uniform(nb.lo, nb.hi, len(times))
    x0 = np.where(np.abs(x0 - c) < 10 * guard, nb.hi - 1e-6, x0)
    count = 0
    for i in np.nonzero(times > 0)[0]:
        m = int(times[i])
        end = -(-m // inducing._TAIL_BLOCK) * inducing._TAIL_BLOCK
        om = model.stream(inducing.STREAM_TAIL + int(i)).prefix(end)
        y = float(x0[i])
        for j in range(end):
            if j >= m and abs(y - c) < guard:
                count += 1
                break
            y = family.eval(float(om[j]), y)
    return count


# (params, delta, eps, theta): CANON at the tail's scales; test_maps' two
# other families, at their noise bound so that orbits leave their attracting
# cycles (the ell = 3 one still never reaches the derivative floor, so only
# its guard exits and theta-good returns are compared); and the summable ELL3
TAIL_CASES = {
    "canon": (CANON, DELTA0, 0.001, 0.001),
    "c04_ell3": (MapParams(c=0.4, ell=3.0, u=0.85, v=0.8), 0.01, 0.1, 50.0),
    "c055_ell25": (MapParams(c=0.55, ell=2.5, u=0.9, v=0.88), 0.002, 0.085, 50.0),
    "ell3_summable": (ELL3, DELTA0, 0.001, 50.0),
}


class TestBlockVerification:
    """inducing_tail_stats against the per-step loop, _per_step_tail."""

    @pytest.fixture(autouse=True)
    def _no_subsample(self, monkeypatch):
        # the per-step loop has no exact-companion subsample
        monkeypatch.setattr(inducing, "_VERIFY_SUBSAMPLE", 0)

    @staticmethod
    def _compare(case, n_members, horizon):
        params, delta, eps, theta = TAIL_CASES[case]
        family = PerturbedFamily(params)
        model = NoiseModel(eps=eps, seed=11)
        got = inducing_tail_stats(family, model, delta, n_members, horizon, theta, depth=48)
        times, h_times, critical_hits, verify = _per_step_tail(family, model, delta, n_members, horizon, theta)
        assert got.times.tolist() == times.tolist()
        assert got.theta_good_times.tolist() == h_times.tolist()
        assert got.critical_hits == critical_hits
        assert got.censored == int(np.sum(times < 0))
        assert got.meta["verify"] == verify
        return got

    @pytest.mark.parametrize("case", list(TAIL_CASES))
    def test_matches_per_step_loop(self, case):
        # 200 = three blocks of 64 and one of 8
        got = self._compare(case, 300, 200)
        counts = got.meta["verify"]
        if case != "c04_ell3":
            assert 0 < counts["accepted"] < counts["attempts"]
        if case != "canon":
            assert np.any(got.theta_good_times > 0)

    def test_cap_binds_inside_a_block(self, monkeypatch):
        monkeypatch.setattr(inducing, "_MAX_VERIFICATIONS", 2)
        got = self._compare("canon", 400, 150)
        assert got.censored > 0  # members that ran out of attempts
        assert got.meta["verify"]["attempts"] <= 2 * 400

    @pytest.mark.parametrize("case", list(TAIL_CASES))
    def test_guard_exits_after_acceptance(self, monkeypatch, case):
        guard = 3e-4
        monkeypatch.setattr(inducing, "CRITICAL_GUARD", guard)
        got = self._compare(case, 300, 200)
        assert got.critical_hits > 0
        if case == "canon":
            params, delta, eps, _ = TAIL_CASES[case]
            model = NoiseModel(eps=eps, seed=11)
            assert _guard_after_acceptance(PerturbedFamily(params), model, delta, got.times, guard) > 0


# the families of the fiber test: CANON and the CLI tests' ell = 1.5 and (u, v) = (0.92, 0.86)
FIBER_FAMILIES = {
    "canon": CANON,
    "ell15": MapParams(c=0.5, ell=1.5, u=0.9, v=0.9),
    "u092_v086": MapParams(c=0.5, ell=2.0, u=0.92, v=0.86),
}


def _per_fiber(family, delta, noise, depth):
    """inducing._fibers one row at a time: each call has at most two sides, so they walk one by one."""
    parts = [inducing._fibers(family, delta, row[None], depth, inducing._FIBER_GRID) for row in noise]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _assert_same_fibers(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.fixture
def walks(monkeypatch):
    """The names of the boundary walks inducing._fibers calls, one entry a call."""
    seen = []
    for name in ("_point_escapes", "_escapes_rows"):
        walk = getattr(inducing, name)
        monkeypatch.setattr(inducing, name, lambda *args, walk=walk, name=name: seen.append(name) or walk(*args))
    return seen


class TestFiberIntervals:
    """inducing._fibers: one call over many rows against one call a row, the lockstep walk against the scalar."""

    @pytest.mark.parametrize("name", list(FIBER_FAMILIES))
    def test_hull_streams_match_scalar_build(self, nmodel, walks, name):
        family = PerturbedFamily(FIBER_FAMILIES[name])
        depth = 48
        noise = np.stack([
            nmodel.stream(inducing.STREAM_HULL + j).prefix(depth) for j in range(inducing._HULL_SAMPLES)
        ])
        got = inducing._fibers(family, DELTA0, noise, depth, inducing._FIBER_GRID)
        assert set(walks) == {"_escapes_rows"}
        walks.clear()
        want = _per_fiber(family, DELTA0, noise, depth)
        assert set(walks) == {"_point_escapes"}
        _assert_same_fibers(got, want)
        # and the hull is the one the per-fiber boundaries give
        lo_w, hi_w = want[1].T.tolist()
        lo_spread, hi_spread = max(lo_w) - min(lo_w), max(hi_w) - min(hi_w)
        assert inducing.estimate_companion_hull(family, nmodel, DELTA0, depth) == (
            min(lo_w) - inducing._HULL_MARGIN * lo_spread, max(hi_w) + inducing._HULL_MARGIN * hi_spread,
        )

    def test_fiber_without_escaping_grid_point(self, family, nmodel, walks):
        # at delta 0.03 and depth 8 every grid point of some sides lands in
        # B(delta): containment fails there and the boundary is the grid's end;
        # the other sides are bisected in the same call
        delta, depth = 0.03, 8
        noise = np.stack([
            nmodel.stream(inducing.STREAM_HULL + j).prefix(depth) for j in range(inducing._HULL_SAMPLES)
        ])
        got = inducing._fibers(family, delta, noise, depth, inducing._FIBER_GRID)
        assert set(walks) == {"_escapes_rows"}
        _assert_same_fibers(got, _per_fiber(family, delta, noise, depth))
        nb2 = critical_neighborhood(CANON, 2.0 * delta)
        failed = got[1] == (nb2.lo, nb2.hi)  # the grids' last points
        assert failed.any() and (~failed).any()
        assert (got[2] == ~failed.any(axis=1)).all()

    @pytest.mark.parametrize("sides, walk", [
        (inducing._LOCKSTEP_SIDES - 2, "_point_escapes"),
        (inducing._LOCKSTEP_SIDES, "_escapes_rows"),
    ])
    def test_walk_chosen_by_side_count(self, family, nmodel, walks, sides, walk):
        depth = 48
        noise = np.stack([nmodel.stream(inducing.STREAM_HULL + j).prefix(depth) for j in range(sides // 2)])
        got = inducing._fibers(family, DELTA0, noise, depth, inducing._FIBER_GRID)
        assert got[2].all()  # every side is bisected
        assert set(walks) == {walk}
        _assert_same_fibers(got, _per_fiber(family, DELTA0, noise, depth))

    def test_no_fibers(self, family):
        intervals, boundaries, containment = inducing._fibers(
            family, DELTA0, np.empty((0, 48)), 48, inducing._FIBER_GRID,
        )
        assert intervals.shape == (0, 49, 2)
        assert boundaries.shape == (0, 2)
        assert containment.shape == (0,)


@pytest.fixture(scope="module")
def stats(family, nmodel):
    return inducing_tail_stats(
        family, nmodel, DELTA0, n_members=2000, horizon=4096, theta=0.001, depth=48,
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
            family, nmodel, DELTA0, n_members=1000, horizon=4096, theta=0.001, depth=48,
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

    def test_memory_follows_alive_members(self, family, nmodel, monkeypatch):
        # about 1.2 KB a member when only the alive members' draws are held, in
        # one copy (most members are verified within the first 64-step block);
        # a name left on the previous draws array raises it to about 1.6 KB, and
        # holding a stream and its prefix per member for the whole run to over 7 KB
        n_members = 1000
        monkeypatch.setattr(inducing, "_VERIFY_SUBSAMPLE", 0)
        tracemalloc.start()
        try:
            inducing_tail_stats(family, nmodel, DELTA0, n_members=n_members, horizon=256, theta=0.001, depth=48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n_members <= 1.4 * 1024
