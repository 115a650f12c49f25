import numpy as np
import pytest

from lorenzlab import transfer
from lorenzlab.acceptance import _project_density
from lorenzlab.errors import NoConvergence, PartitionMismatch, PartitionTooCoarse
from lorenzlab.maps import CANON, CRITICAL_GUARD, MapParams, PerturbedFamily
from lorenzlab.noise import NoiseModel
from lorenzlab.transfer import (
    Density,
    Partition,
    UlamMatrix,
    birkhoff_density,
    build_ulam,
    l1_distance,
    partition_for,
    stability_sweep,
    stationary_density,
    tv_distance,
)


class TestPartition:
    def test_refinement_places_edges(self, family):
        part = partition_for(family, 100)
        for point in (CANON.c, CANON.c1_plus, CANON.c1_minus):
            assert part.has_edge_at(point)

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            Partition(np.array([0.0, 0.5, 0.4, 1.0]))
        with pytest.raises(ValueError):
            Partition(np.array([0.1, 0.5, 1.0]))

    def test_coarse_partition_rejected_by_builder(self, family):
        plain = Partition.uniform(100, ())  # no edge at c = 0.5? uniform(100) has one
        part_no_c = Partition(np.array([0.0, 0.3, 0.8, 1.0]))
        with pytest.raises(PartitionTooCoarse):
            build_ulam(family, None, part_no_c)


class TestDensity:
    def test_mass_validation(self, part64):
        with pytest.raises(ValueError):
            Density(part64, np.ones(part64.n_bins) * 2.0)

    def test_uniform_density_integrates_to_one(self, part64):
        d = Density.uniform(part64)
        assert np.sum(d.weights * part64.widths) == pytest.approx(1.0, abs=1e-13)


_det_cache = {}


def _cached_det(family, part):
    key = id(part)
    if key not in _det_cache:
        _det_cache[key] = build_ulam(family, None, part)
    return _det_cache[key]


def _scalar_ulam(family, model, part):
    """build_ulam's matrix per edge and per row: scalar inverse_branch, one row's overlaps at a time."""
    edges = part.edges
    n = part.n_bins
    c_idx = int(np.argmin(np.abs(edges - family.base.c)))

    def deterministic(t):
        D = np.zeros((n, n))
        for left, rows in ((True, range(c_idx)), (False, range(c_idx, n))):
            dom_lo, dom_hi = family.branch_domain(left)
            rng_lo, rng_hi = family.branch_range(t, left)
            pre = np.array([
                dom_lo if y <= rng_lo else dom_hi if y >= rng_hi else family.inverse_branch(t, y, left, 1e-13)
                for y in edges.tolist()
            ])
            for i in rows:
                a, b = edges[i], edges[i + 1]
                D[i] = np.maximum(np.minimum(pre[1:], b) - np.maximum(pre[:-1], a), 0.0) / (b - a)
        return D

    if model is None:
        P = deterministic(0.0)
    else:
        P = np.zeros((n, n))
        for t, w in zip(*model.quadrature()):
            P += w * deterministic(float(t))
    return P / P.sum(axis=1, keepdims=True)


class TestUlamMatrix:
    @pytest.mark.parametrize("kind", [None, "uniform", "triangular"])
    def test_matches_scalar_reference(self, family, part64, kind):
        model = None if kind is None else NoiseModel(eps=0.01, kind=kind, seed=3)
        assert np.array_equal(build_ulam(family, model, part64).matrix, _scalar_ulam(family, model, part64))

    def test_rows_stochastic(self, family):
        part = partition_for(family, 512)
        det = build_ulam(family, None, part)
        assert np.max(np.abs(det.matrix.sum(axis=1) - 1.0)) <= 1e-10

    def test_randomized_rows_stochastic(self, family):
        part = partition_for(family, 128)
        model = NoiseModel(eps=0.01, seed=3)
        rnd = build_ulam(family, model, part)
        assert np.max(np.abs(rnd.matrix.sum(axis=1) - 1.0)) <= 1e-10

    def test_row_support_contiguous(self, family, part64):
        det = _cached_det(family, part64)
        i = np.searchsorted(part64.edges, 0.25, side="right") - 1
        support = np.nonzero(det.matrix[i])[0]
        assert np.array_equal(support, np.arange(support[0], support[-1] + 1))
        # mass lands exactly on the interval image of the bin
        a, b = part64.edges[i], part64.edges[i + 1]
        ya, yb = CANON.eval(a), CANON.eval(b)
        assert part64.edges[support[0]] <= ya <= part64.edges[support[0] + 1]
        assert part64.edges[support[-1]] <= yb <= part64.edges[support[-1] + 1]

    def test_matrix_entries_are_exact_fractions(self, family, part64):
        det = _cached_det(family, part64)
        i = np.searchsorted(part64.edges, 0.25, side="right") - 1
        a, b = part64.edges[i], part64.edges[i + 1]
        j = np.searchsorted(part64.edges, CANON.eval(0.5 * (a + b)), side="right") - 1
        lo = max(CANON.inverse(part64.edges[j], True), a)
        hi = min(CANON.inverse(part64.edges[j + 1], True), b)
        assert det.matrix[i, j] == pytest.approx((hi - lo) / (b - a), abs=1e-12)


class TestStationary:
    def test_identity_returns_initial(self, part64):
        P = UlamMatrix(part64, np.eye(part64.n_bins), mode="custom")
        rng = np.random.default_rng(0)
        ini = Density.from_masses(part64, rng.uniform(0.5, 1.0, part64.n_bins))
        out, info = stationary_density(P, initial=ini, tol=1e-12)
        assert l1_distance(out, ini) <= 1e-12

    def test_doubly_stochastic_gives_uniform(self):
        part = Partition.uniform(64, ())  # equal widths: uniform masses = uniform density
        n = part.n_bins
        P = np.roll(np.eye(n), 1, axis=1) * 0.5 + np.roll(np.eye(n), -1, axis=1) * 0.5
        mat = UlamMatrix(part, P, mode="custom")
        out, _ = stationary_density(mat, tol=1e-11)
        assert l1_distance(out, Density.uniform(part)) <= 1e-8

    def test_residual_honoured(self, family, part64):
        det = _cached_det(family, part64)
        pi, info = stationary_density(det, tol=1e-10)
        resid = np.abs(pi.masses @ det.matrix - pi.masses).sum()
        assert resid <= 1e-10
        assert info["residual"] <= 1e-10

    def test_no_convergence_reports_residual(self, part64, monkeypatch):
        n = part64.n_bins
        P = np.roll(np.eye(n), 1, axis=1)  # pure rotation: slowly mixing under damping
        mat = UlamMatrix(part64, P, mode="custom")
        masses = np.zeros(n)
        masses[0] = 1.0
        point = Density.from_masses(part64, masses)
        monkeypatch.setattr(transfer, "_MAX_ITERS", 8)
        with pytest.raises(NoConvergence) as err:
            stationary_density(mat, tol=1e-14, initial=point)
        assert err.value.residual > 0


class TestDistances:
    def test_zero_for_equal(self, part64):
        d = Density.uniform(part64)
        assert l1_distance(d, d) == 0.0

    def test_disjoint_unit_masses(self):
        part = Partition(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        a = Density.from_masses(part, np.array([1.0, 0, 0, 0]))
        b = Density.from_masses(part, np.array([0, 0, 0, 1.0]))
        assert l1_distance(a, b) == pytest.approx(2.0)
        assert tv_distance(a, b) == pytest.approx(1.0)

    def test_uniform_vs_point_mass_two_bins(self):
        part = Partition(np.array([0.0, 0.5, 1.0]))
        uniform = Density.uniform(part)
        point = Density.from_masses(part, np.array([1.0, 0.0]))
        assert l1_distance(uniform, point) == pytest.approx(1.0)

    def test_partition_mismatch(self, family):
        a = Density.uniform(partition_for(family, 32))
        b = Density.uniform(partition_for(family, 64))
        with pytest.raises(PartitionMismatch):
            l1_distance(a, b)


class TestProjectDensity:
    def test_own_partition_is_identity(self, part64):
        rng = np.random.default_rng(5)
        dens = Density.from_masses(part64, rng.uniform(0.5, 1.5, part64.n_bins))
        proj = _project_density(dens, part64)
        np.testing.assert_allclose(proj.weights, dens.weights, rtol=1e-12)

    def test_mass_conserved_across_unaligned_grids(self, family):
        rng = np.random.default_rng(6)
        src = Partition.uniform(300, ())
        dens = Density.from_masses(src, rng.uniform(0.5, 1.5, src.n_bins))
        target = partition_for(family, 64)
        proj = _project_density(dens, target)
        assert proj.masses.sum() == pytest.approx(1.0, abs=1e-12)
        # the piecewise-linear CDF of the source, read at every target edge
        cdf = np.concatenate([[0.0], np.cumsum(dens.masses)])
        expected = np.diff(np.interp(target.edges, src.edges, cdf))
        np.testing.assert_allclose(proj.masses, expected, atol=1e-12)

    def test_nested_grid_sums_fine_masses(self, family):
        fine = partition_for(family, 4096)
        coarse = partition_for(family, 512)
        assert np.all(np.isin(coarse.edges, fine.edges))
        pi, _ = stationary_density(build_ulam(family, None, fine), tol=1e-10)
        owner = np.searchsorted(coarse.edges, 0.5 * (fine.edges[:-1] + fine.edges[1:])) - 1
        sums = np.bincount(owner, weights=pi.masses, minlength=coarse.n_bins)
        np.testing.assert_allclose(_project_density(pi, coarse).masses, sums, rtol=1e-9, atol=1e-15)


# its orbit lies in a taper zone on about one step in nine at eps 0.0265; eps_max is 0.027
_TAPER_FAMILY = PerturbedFamily(MapParams(c=0.5, ell=2.0, u=0.97, v=0.97), margin=0.05)


def _reference_birkhoff(family, model, x0, n_steps, burn_in, partition):
    """Slow oracle for birkhoff_density: one family.eval per step, same restart rule."""
    c = family.base.c
    noise = np.zeros(n_steps) if model is None else model.stream(transfer.STREAM_BIRKHOFF).prefix(n_steps)
    points = np.empty(n_steps - burn_in)
    x, restarts = x0, 0
    for i in range(n_steps):
        if abs(x - c) < CRITICAL_GUARD:
            restarts += 1
            x = c + (CRITICAL_GUARD * 1e3 + 1e-9 * restarts) * (1 if restarts % 2 else -1)
        x = family.eval(float(noise[i]), x)
        if i >= burn_in:
            points[i - burn_in] = x
    counts = np.histogram(points, bins=partition.edges)[0]
    return Density.from_masses(partition, counts.astype(float)), restarts


class TestBirkhoff:
    def test_point_mass_single_step(self, family, part64):
        dens, info = birkhoff_density(family, None, 0.3, 2, 1, part64)
        assert np.sum(dens.masses > 0) == 1
        assert info["recorded"] == 1

    def test_matches_ulam_loosely(self, family):
        part = partition_for(family, 256)
        det = build_ulam(family, None, part)
        pi, _ = stationary_density(det)
        bd, _ = birkhoff_density(family, None, 0.3141, 2_000_000, 10_000, part)
        assert l1_distance(bd, pi) < 0.45  # operator-resolution bias dominates

    def test_two_starting_points_agree(self, family):
        part = partition_for(family, 512)
        a, _ = birkhoff_density(family, None, 0.3141, 10_000_000, 10_000, part)
        b, _ = birkhoff_density(family, None, 0.6022, 10_000_000, 10_000, part)
        assert l1_distance(a, b) <= 0.05

    @pytest.mark.parametrize(
        "law, x0, n_steps, burn_in",
        [
            (None, 0.3141, 140_000, 1_000),
            ("uniform", 0.3141, 140_000, 1_000),
            ("uniform", 0.3141, 140_000, 70_000),
            ("triangular", 0.3141, 140_000, 70_000),
            (None, CANON.c, 140_000, 70_000),
            ("uniform", CANON.c, 140_000, 1_000),
            ("uniform", 1e-3, 140_000, 1_000),  # starts in the taper zone
            ("uniform", 0.3141, 100_500, 1_500),  # the run and the burn-in end inside a segment
            ("taper", 0.3141, 140_000, 1_000),
            ("taper", 0.3141, 100_500, 70_001),
            ("guard", 0.3141, 140_000, 1_000),
        ],
    )
    def test_matches_family_eval_reference(self, family, law, x0, n_steps, burn_in, monkeypatch):
        # 140 000 steps cross two 65 536-step blocks; a 70 000-step burn-in skips the first block
        case, eps = law, 0.001
        if case == "taper":
            # Every block of this family's orbit enters the taper zone, so each one leaves the core
            # step for the scalar step mid-block.  At this eps and seed the core step's garbage
            # points after one such input also overflow z**ell once.
            family, law, eps = _TAPER_FAMILY, "uniform", 0.0265
        if case == "guard":  # a wide guard puts critical restarts inside segments
            monkeypatch.setattr(transfer, "CRITICAL_GUARD", 1e-4)
            monkeypatch.setitem(globals(), "CRITICAL_GUARD", 1e-4)
            law = "uniform"
        model = None if law is None else NoiseModel(eps=eps, kind=law, seed=20240901)
        part = partition_for(family, 512)
        dens, info = birkhoff_density(family, model, x0, n_steps, burn_in, part)
        ref, ref_restarts = _reference_birkhoff(family, model, x0, n_steps, burn_in, part)
        assert np.array_equal(dens.weights, ref.weights)
        assert info == {"restarts": ref_restarts, "recorded": n_steps - burn_in}
        if x0 == CANON.c or case == "guard":  # starting on c or a wide guard forces a restart
            assert info["restarts"] >= 1
        if case == "taper":
            m = family.margin
            assert dens.masses[(part.edges[:-1] < m) | (part.edges[1:] > 1.0 - m)].sum() > 0.05

    def test_refinement_consistency(self, family):
        pa = partition_for(family, 256)
        pb = partition_for(family, 512)
        da, _ = stationary_density(build_ulam(family, None, pa))
        db, _ = stationary_density(build_ulam(family, None, pb))
        assert l1_distance(_project_density(db, pa), da) <= 0.1


class TestSweep:
    def test_ladder_order_enforced(self, family, part64):
        with pytest.raises(ValueError):
            stability_sweep(family, [NoiseModel(eps=0.005), NoiseModel(eps=0.01)], part64)

    def test_rung_above_eps_max_rejected(self, family, part64):
        with pytest.raises(ValueError):
            stability_sweep(family, [NoiseModel(eps=0.5), NoiseModel(eps=0.01)], part64)

    def test_zero_noise_distance_is_zero(self, family, part64):
        det = _cached_det(family, part64)
        pi, _ = stationary_density(det)
        assert l1_distance(pi, pi) == 0.0

    def test_non_converging_rung_is_recorded_and_the_sweep_goes_on(self, family, part64, monkeypatch):
        models = [NoiseModel(eps=0.02), NoiseModel(eps=0.01), NoiseModel(eps=0.005)]
        want = stability_sweep(family, models[2:], part64)[0]
        solve = transfer.stationary_density
        calls = []

        def first_rung_fails(matrix, *args, **kwargs):
            calls.append(matrix.mode)
            if len(calls) == 2:  # the zero-noise solve, then the first rung
                raise NoConvergence(iterations=1234, residual=5.5e-3)
            return solve(matrix, *args, **kwargs)

        monkeypatch.setattr(transfer, "stationary_density", first_rung_fails)
        rows, _, _ = stability_sweep(family, models, part64)
        assert calls == ["deterministic", "randomized", "randomized", "randomized"]
        failed = rows[0]
        assert failed["eps"] == 0.02 and failed["error"] == "no convergence"
        assert np.isnan(failed["l1"]) and np.isnan(failed["tv"])
        assert (failed["residual"], failed["iterations"]) == (5.5e-3, 1234)
        assert all(r["error"] == "" and np.isfinite(r["l1"]) for r in rows[1:])
        assert rows[2] == want[0]  # a later rung is solved as in a sweep without the failure

    def test_small_sweep_runs(self, family):
        part = partition_for(family, 128)
        models = [NoiseModel(eps=0.02), NoiseModel(eps=0.01)]
        rows, zeta0, info = stability_sweep(family, models, part)
        assert len(rows) == 2
        assert all(np.isfinite(r["l1"]) for r in rows)
