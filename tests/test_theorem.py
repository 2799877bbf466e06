"""Two-lifetime learning experiment and the misprediction-window formula."""

import pytest

from lavasim.theorem import (
    TheoremConfig,
    gap_regression,
    misprediction_probability,
    misprediction_probability_mc,
    two_class_experiment,
)


class TestClosedForm:
    def test_zero_epsilon(self):
        assert misprediction_probability(0.0, 0.1, 10.0, 100.0) == 0.0

    def test_certain_error(self):
        assert misprediction_probability(1.0, 1.0, 1.0, 1.0) == 1.0

    def test_example_value(self):
        # 1 - (1-0.05)^(0.1*1.0*100) = 1 - 0.95^10
        assert misprediction_probability(0.05, 0.1, 1.0, 100.0) == \
            pytest.approx(1.0 - 0.95 ** 10)

    def test_monotone_in_window(self):
        p = [misprediction_probability(0.05, 0.1, 1.0, w) for w in (10, 50, 250)]
        assert p[0] < p[1] < p[2]

    def test_matches_monte_carlo(self):
        for eps, rho, rate, window in [(0.05, 0.1, 1.0, 50.0),
                                       (0.05, 0.1, 1.0, 100.0),
                                       (0.02, 0.3, 0.5, 80.0)]:
            closed = misprediction_probability(eps, rho, rate, window)
            mc = misprediction_probability_mc(eps, rho, rate, window,
                                              trials=200_000, seed=1)
            assert abs(closed - mc) < 0.02


class TestConfigValidation:
    def test_lifetime_order(self):
        with pytest.raises(ValueError):
            TheoremConfig(short_s=100.0, long_s=50.0)

    def test_rate_floor(self):
        with pytest.raises(ValueError):
            TheoremConfig(m=1, rate_per_host=0.001)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            TheoremConfig(epsilon=1.5)


class TestExperiment:
    def test_deterministic(self):
        cfg = TheoremConfig(m=20)
        assert two_class_experiment(cfg, 4) == two_class_experiment(cfg, 4)

    def test_learning_not_worse(self):
        """Relabeling hosts that hold a revealed long job frees them for the
        long class, so learning needs no more hosts on average."""
        for seed in range(8):
            no_learn, learn = two_class_experiment(TheoremConfig(m=40), seed=seed)
            assert learn <= no_learn + 0.5

    def test_gap_grows_with_m(self, theorem_rows):
        reg = gap_regression(theorem_rows)
        assert reg.slope > 0
        assert reg.pvalue < 0.05

    @pytest.mark.parametrize("cfg,seed,expected", [
        (TheoremConfig(m=20), 0, (14.778333317803824, 13.304230721969892)),
        (TheoremConfig(m=80), 3, (56.01759473429355, 49.90259129732162)),
        (TheoremConfig(epsilon=0.0, m=40), 1, (24.247523295185307, 24.247523295185307)),
    ], ids=["m20-seed0", "m80-seed3", "eps0-m40-seed1"])
    def test_pinned_values(self, cfg, seed, expected):
        """Exact averages recorded from a hand-written label/occupancy index
        that took the fullest matching host; ``best_host`` must make the
        same choices."""
        assert two_class_experiment(cfg, seed=seed) == expected

    def test_zero_epsilon_control(self, zero_epsilon_rows):
        """With no label noise the two policies see identical labels, so the
        gap is exactly zero on every draw."""
        gaps = [r[2] - r[3] for r in zero_epsilon_rows]
        # identical labels, identical placements; only the reveal no-ops
        # perturb the float accumulation order
        assert all(abs(g) < 1e-9 for g in gaps)
