"""Tests for RUMR, Fixed-RUMR, and the online gamma estimator."""

import math

import pytest

from repro.core.rumr import RUMR, GammaEstimator, fixed_rumr
from repro.core.umr import UMR
from repro.errors import SchedulingError
from repro.platform.presets import das2_cluster, grail_lan
from repro.simulation.master import simulate_run


class TestGammaEstimator:
    def test_no_samples_gives_zero(self):
        est = GammaEstimator()
        assert est.pooled_cov() == 0.0
        assert est.lower_confidence_bound() == 0.0

    def test_constant_residuals_give_zero(self):
        est = GammaEstimator()
        for w in range(4):
            for _ in range(10):
                est.add(w, 1.0)
        assert est.pooled_cov() == 0.0

    def test_pooling_removes_per_worker_bias(self):
        """A constant per-worker prediction bias (from single-sample
        probing) must not register as uncertainty."""
        est = GammaEstimator()
        for w, bias in enumerate((0.8, 1.0, 1.3)):
            for _ in range(20):
                est.add(w, bias)  # zero variance within each worker
        assert est.pooled_cov() < 1e-12

    def test_within_worker_variance_detected(self):
        est = GammaEstimator()
        import numpy as np

        rng = np.random.default_rng(0)
        for w in range(4):
            for r in rng.normal(1.0, 0.2, size=100):
                est.add(w, float(r))
        assert est.pooled_cov() == pytest.approx(0.2, rel=0.15)

    def test_lcb_below_estimate(self):
        est = GammaEstimator()
        import numpy as np

        rng = np.random.default_rng(1)
        for r in rng.normal(1.0, 0.2, size=30):
            est.add(0, float(r))
        assert 0.0 < est.lower_confidence_bound() < est.pooled_cov()

    def test_lcb_tightens_with_samples(self):
        import numpy as np

        rng = np.random.default_rng(2)
        small, large = GammaEstimator(), GammaEstimator()
        values = rng.normal(1.0, 0.2, size=500)
        for r in values[:10]:
            small.add(0, float(r))
        for r in values:
            large.add(0, float(r))
        ratio_small = small.lower_confidence_bound() / small.pooled_cov()
        ratio_large = large.lower_confidence_bound() / large.pooled_cov()
        assert ratio_large > ratio_small

    def test_invalid_residuals_ignored(self):
        est = GammaEstimator()
        est.add(0, -1.0)
        est.add(0, float("nan"))
        est.add(0, float("inf"))
        assert est.total_samples == 0


def _naive_estimate(samples: dict[int, list[float]]) -> tuple[float, float, int, int]:
    """(pooled_cov, lcb, total, effective): re-sums every residual of
    every worker with the two-pass formula, in first-seen worker order."""
    sq_sum = total = 0.0
    dof = count = 0
    for residuals in samples.values():
        n = len(residuals)
        total += sum(residuals)
        count += n
        if n >= 2:
            mean = sum(residuals) / n
            sq_sum += sum((r - mean) ** 2 for r in residuals)
            dof += n - 1
    cov = 0.0
    if dof >= 1 and total / count > 0:
        cov = math.sqrt(sq_sum / dof) / (total / count)
    lcb = cov * max(0.0, 1.0 - 1.645 / math.sqrt(2.0 * dof)) if dof >= 1 else 0.0
    return cov, lcb, count, dof + 1


class TestGammaEstimatorIncremental:
    """The estimator keeps per-worker partial sums; every float it reports
    must equal (``==``, not approx) a from-scratch recomputation."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_two_pass_after_every_add(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        est = GammaEstimator()
        reference: dict[int, list[float]] = {}
        for _ in range(400):
            worker = int(rng.integers(0, 7))
            residual = float(rng.normal(1.0 + 0.05 * worker, 0.15))
            if rng.random() < 0.05:
                residual = float(rng.choice([-1.0, 0.0, math.nan, math.inf]))
            est.add(worker, residual)
            if residual > 0 and math.isfinite(residual):
                reference.setdefault(worker, []).append(residual)
            cov, lcb, total, effective = _naive_estimate(reference)
            assert est.pooled_cov() == cov
            assert est.lower_confidence_bound() == lcb
            assert est.total_samples == total
            assert est.effective_samples == effective
        assert est.samples == reference

    def test_preloaded_samples_are_summarized(self):
        samples = {3: [1.0, 1.2, 0.9], 0: [1.1]}
        est = GammaEstimator(samples={k: list(v) for k, v in samples.items()})
        cov, lcb, total, effective = _naive_estimate(samples)
        assert (est.pooled_cov(), est.lower_confidence_bound()) == (cov, lcb)
        assert (est.total_samples, est.effective_samples) == (total, effective)


class TestFixedRUMR:
    def test_phase_loads_split_80_20(self, small_grid):
        report = simulate_run(small_grid, fixed_rumr(0.2), total_load=2000.0, seed=0)
        phases = report.phase_load()
        assert phases["rumr-umr"] == pytest.approx(0.8 * 2000.0, rel=0.05)
        assert phases["rumr-factoring"] == pytest.approx(0.2 * 2000.0, rel=0.2)

    def test_custom_fraction(self, small_grid):
        report = simulate_run(small_grid, fixed_rumr(0.5), total_load=2000.0, seed=0)
        phases = report.phase_load()
        assert phases["rumr-factoring"] == pytest.approx(1000.0, rel=0.1)

    def test_factoring_phase_comes_after_umr_phase(self, small_grid):
        report = simulate_run(small_grid, fixed_rumr(0.2), total_load=2000.0, seed=0)
        last_umr_send = max(
            c.send_start for c in report.chunks if c.phase == "rumr-umr"
        )
        first_factoring_send = min(
            c.send_start for c in report.chunks if c.phase == "rumr-factoring"
        )
        assert first_factoring_send >= last_umr_send

    def test_name_and_annotation(self):
        s = fixed_rumr(0.2)
        assert s.name == "fixed-rumr"

    def test_invalid_fraction(self):
        with pytest.raises(SchedulingError):
            RUMR(fixed_phase2_fraction=0.0)
        with pytest.raises(SchedulingError):
            RUMR(fixed_phase2_fraction=1.0)


class TestOnlineRUMR:
    def test_degenerates_to_umr_at_gamma_zero(self, small_grid):
        """Paper: 'in this case we have no uncertainty and RUMR
        degenerates to pure UMR'."""
        rumr = simulate_run(small_grid, RUMR(), total_load=2000.0, seed=3)
        umr = simulate_run(small_grid, UMR(), total_load=2000.0, seed=3)
        assert rumr.makespan == pytest.approx(umr.makespan, rel=1e-9)
        assert rumr.annotations["rumr_switched"] is False
        assert all(c.phase == "rumr-umr" for c in rumr.chunks)

    def test_switches_at_high_gamma_on_grail(self):
        """Paper Section 5: at gamma ~ 20% 'the RUMR algorithm successfully
        switches to its second phase in every one of the ten runs'."""
        grid = grail_lan()
        switched = 0
        for seed in range(10):
            report = simulate_run(
                grid, RUMR(), total_load=1830.0, gamma=0.20,
                autocorrelation=0.6, seed=seed,
            )
            if report.annotations["rumr_switched"]:
                switched += 1
        assert switched >= 9

    def test_rarely_switches_at_moderate_gamma_on_das2(self):
        """Paper Section 4: at gamma = 10% the switch comes too late in
        most runs -- 'Factoring is in fact never used'."""
        grid = das2_cluster(nodes=16)
        switched = 0
        for seed in range(8):
            report = simulate_run(
                grid, RUMR(), total_load=10_000.0, gamma=0.10, seed=seed
            )
            if report.annotations["rumr_switched"]:
                switched += 1
        assert switched <= 3

    def test_switch_annotations_recorded(self):
        grid = grail_lan()
        report = simulate_run(
            grid, RUMR(), total_load=1830.0, gamma=0.20,
            autocorrelation=0.6, seed=0,
        )
        ann = report.annotations
        assert ann["rumr_mode"] == "online"
        assert "rumr_gamma_estimate" in ann
        if ann["rumr_switched"]:
            assert ann["rumr_phase2_load"] > 0
            assert "rumr_detection_time" in ann

    def test_load_conserved_with_switch(self):
        grid = grail_lan()
        report = simulate_run(
            grid, RUMR(), total_load=1830.0, gamma=0.20,
            autocorrelation=0.6, seed=1,
        )
        assert sum(c.units for c in report.chunks) == pytest.approx(1830.0)

    def test_switched_run_ends_with_factoring_chunks(self):
        grid = grail_lan()
        for seed in range(5):
            report = simulate_run(
                grid, RUMR(), total_load=1830.0, gamma=0.20,
                autocorrelation=0.6, seed=seed,
            )
            if not report.annotations["rumr_switched"]:
                continue
            last_chunk = max(report.chunks, key=lambda c: c.send_start)
            assert last_chunk.phase == "rumr-factoring"
            return
        pytest.fail("no run switched")
