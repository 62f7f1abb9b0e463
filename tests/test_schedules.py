import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affiter import (
    CertificateUnavailableError,
    ConfigurationError,
    EtaSchedule,
    InvalidScheduleError,
    RelaxationSchedule,
    WeightSchedule,
    cesaro,
    chi_value,
    constant_relaxation,
    inertial,
    memoryless,
    validate_weights,
    window,
)
from affiter import space
from affiter.schedules import (
    abs_weighted_sums,
    eta_values,
    orbit_mean,
    orbit_mean_blocks,
    relaxation_at,
)

EPS = np.finfo(np.float64).eps

# independent oracles for the geometric chi sums: for constant eta the terms
# are exp((eta-1) d), d >= 0, so chi == 1 / (1 - exp(eta - 1))
CHI_ETA_ZERO = 1.0 / (1.0 - math.exp(-1.0))        # = 1.5819767068693265
CHI_ETA_HALF = 1.0 / (1.0 - math.exp(-0.5))        # = 2.5414940825367984
BOUND_ETA_HALF = math.e / 0.5                      # = 5.43656365691809


class TestEtaSchedule:
    def test_eta0_is_always_zero(self):
        for sched in (
            EtaSchedule(kind="constant", eta=0.7),
            EtaSchedule(kind="nesterov", tau=3.0),
            EtaSchedule(kind="custom", fn=lambda n: 0.4, eta=0.4),
        ):
            assert sched.value(0) == 0.0

    def test_nesterov_values(self):
        sched = EtaSchedule(kind="nesterov", tau=2.0)
        assert sched.value(1) == 0.0
        assert sched.value(5) == pytest.approx(4.0 / 7.0)

    def test_band_validation(self):
        with pytest.raises(ConfigurationError):
            EtaSchedule(kind="constant", eta=1.0)
        with pytest.raises(ConfigurationError):
            EtaSchedule(kind="nesterov", tau=1.5)


class TestWeightRows:
    def test_memoryless_kronecker(self):
        assert memoryless().row(3) == {3: 1.0}

    def test_inertial_two_term_row(self):
        sched = inertial(EtaSchedule(kind="constant", eta=0.5))
        assert sched.row(5) == {5: 1.5, 4: -0.5}
        assert sched.row(0) == {0: 1.0}

    def test_window_rows(self):
        w2 = window(2)
        assert w2.row(0) == {0: 1.0}
        assert w2.row(4) == {4: 0.5, 3: 0.5}

    def test_window_head_renormalized(self):
        w5 = window(5)
        head = w5.row(2)
        assert head == {0: pytest.approx(1 / 3), 1: pytest.approx(1 / 3), 2: pytest.approx(1 / 3)}

    def test_cesaro_row_sums(self):
        row = cesaro().row(10_000)
        assert len(row) == 10_001
        assert abs(math.fsum(row.values()) - 1.0) <= 1e-12

    def test_support_bounds(self):
        assert memoryless().support_bound == 1
        assert window(4).support_bound == 4
        assert inertial(EtaSchedule(kind="constant", eta=0.3)).support_bound == 2
        assert cesaro().support_bound is None

    def test_mann_product_bound(self):
        assert window(2).mann_product_bound() == pytest.approx(0.25)
        assert memoryless().mann_product_bound() == 0.0
        assert cesaro().mann_product_bound() == 0.0

    @settings(deadline=None, max_examples=50)
    @given(st.floats(0.0, 0.99), st.integers(1, 500))
    def test_inertial_abs_sum_below_three(self, eta, n):
        sched = inertial(EtaSchedule(kind="constant", eta=eta))
        abs_sum = math.fsum(abs(w) for w in sched.row(n).values())
        assert abs_sum == pytest.approx(1.0 + 2.0 * eta * (n >= 1), abs=1e-12)
        assert abs_sum <= 3.0


def _weight_schedule(data, horizon):
    """Draw a weight family; inertial draws include rows with eta_n = 0.

    A custom eta draws ``horizon`` values and holds the last one from then on.
    """
    family = data.draw(st.sampled_from(
        ["memoryless", "window", "cesaro", "constant", "nesterov", "custom"]
    ))
    if family == "memoryless":
        return memoryless()
    if family == "window":
        return window(data.draw(st.integers(1, 12)))
    if family == "cesaro":
        return cesaro()
    if family == "constant":
        return inertial(EtaSchedule(kind="constant", eta=data.draw(st.floats(0.0, 0.99))))
    if family == "nesterov":
        return inertial(EtaSchedule(kind="nesterov", tau=data.draw(st.floats(2.0, 10.0))))
    values = sorted(data.draw(st.lists(
        st.just(0.0) | st.floats(0.0, 0.99), min_size=horizon, max_size=horizon
    )))
    return inertial(EtaSchedule(kind="custom", eta=0.99, fn=lambda n: values[min(n, horizon - 1)]))


class TestAbsWeightedSums:
    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_sums_equal_the_row_fsum_bit_for_bit(self, data):
        n_max = data.draw(st.integers(0, 40))
        schedule = _weight_schedule(data, n_max + 1)
        dists = data.draw(st.lists(
            st.floats(0.0, 1e100), min_size=n_max + 2, max_size=n_max + 2
        ))
        etas = eta_values(schedule, n_max + 1)
        got = abs_weighted_sums(schedule, np.array(dists), etas)
        expected = [
            math.fsum(abs(w) * dists[j] for j, w in schedule.row(n).items())
            for n in range(n_max + 1)
        ]
        assert got.size == n_max + 1
        if schedule.family == "cesaro":
            # a compensated running sum times 1/(n+1): within 2 eps of the row
            # fsum, plus one smallest subnormal per underflowing product
            for n, (v, e) in enumerate(zip(got.tolist(), expected)):
                assert abs(v - e) <= 2.0 * EPS * e + (n + 3) * math.ulp(0.0)
        else:
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(0.0, 1e300) | st.sampled_from([5e-324, math.inf, math.nan]),
                    min_size=1, max_size=60))
    def test_cesaro_sums_are_the_scalar_neumaier_loop_bit_for_bit(self, dists):
        # the scalar loop that abs_weighted_sums ran before it took array operations
        s = c = 0.0
        expected = []
        for k, x in enumerate(dists[:-1], start=1):
            t = s + x
            c += (s - t) + x if s >= x else (x - t) + s
            s = t
            expected.append((s + c) * (1.0 / k))
        with np.errstate(all="ignore"):
            got = abs_weighted_sums(cesaro(), np.array(dists), None)
        # a NaN is a NaN whatever its sign bit, which the two forms may set apart
        canonical = lambda v: np.where(np.isnan(v), math.nan, v).tobytes()
        assert canonical(got) == canonical(np.array(expected, dtype=np.float64))

    def test_cesaro_sums_stay_within_two_eps_of_the_row_fsum_at_n_2000(self):
        # distances of a slowly converging orbit and of a noisy one, 2001 each
        rng = np.random.default_rng(11)
        n = np.arange(2001.0)
        for dists in (3.0 / np.sqrt(n + 1.0) + 1e-3 * rng.random(2001),
                      np.abs(rng.standard_normal(2001)) * 10.0 ** rng.integers(-6, 6, 2001)):
            got = abs_weighted_sums(cesaro(), dists, None)
            expected = np.array([
                math.fsum((dists[:k] * (1.0 / k)).tolist()) for k in range(1, 2001)
            ])
            assert np.all(np.abs(got - expected) <= 2.0 * EPS * expected)
            assert np.any(got != expected)  # the two sums do round apart


class TestOrbitMeanBlocks:
    """The block form of each weight kernel against its step kernel, bit for bit."""

    SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf])

    @settings(deadline=None, max_examples=120)
    @given(family=st.one_of(st.integers(1, 12).map(window), st.just(cesaro()),
                            st.lists(st.booleans(), min_size=1, max_size=5)),
           dim=st.sampled_from([1, 2, 3, 1000, space.BLOCK_FLOATS + 1]),
           steps=st.integers(0, 40), rows_per_block=st.integers(1, 16),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_the_step_kernels(self, family, dim, steps, rows_per_block, seed):
        if dim > 1000:
            steps = min(steps, 14)  # 0.5 MB a point
        if isinstance(family, list):
            # inertial, with eta_n = 0 on the rows the pattern marks
            zeros = family
            family = inertial(EtaSchedule(kind="custom", eta=0.5,
                                          fn=lambda n: 0.0 if zeros[n % len(zeros)] else 0.4))
        rng = np.random.default_rng(seed)
        scale = rng.choice([1e-300, 1e-8, 1.0, 1e8, 1e300], (steps + 1, 1))
        orbit = rng.standard_normal((steps + 1, dim)) * scale
        special = rng.random(orbit.shape) < min(0.2, 8.0 / dim)
        orbit[special] = rng.choice(self.SPECIAL, np.count_nonzero(special))
        etas = eta_values(family, steps)
        # small blocks, so that each carry crosses block boundaries
        with mock.patch.object(space, "BLOCK_FLOATS", rows_per_block * dim), \
                mock.patch.object(space, "FIRST_BLOCK_FLOATS", dim):
            points = space.Rows(dim, steps + 1)
            for x in orbit:
                points.append(x)
        assert all(len(block) <= rows_per_block for block in points._blocks)
        kernel = orbit_mean(family, etas)
        with np.errstate(all="ignore"):
            expected = [kernel(n, points[n]).tobytes() for n in range(steps)]
            blocks = list(orbit_mean_blocks(family, etas, points.blocks(steps)))
        assert [start for start, _rows in blocks] == points._starts[: len(blocks)]
        assert [row.tobytes() for _start, rows in blocks for row in rows] == expected


class TestChi:
    def test_eta_zero_geometric_value(self):
        entry = chi_value(memoryless(), 5)
        assert entry.value == pytest.approx(CHI_ETA_ZERO, abs=1e-6)

    def test_constant_half(self):
        sched = inertial(EtaSchedule(kind="constant", eta=0.5))
        entry = chi_value(sched, 9)
        assert entry.value == pytest.approx(CHI_ETA_HALF, abs=1e-6)
        assert entry.value <= BOUND_ETA_HALF
        assert entry.analytic_bound == pytest.approx(BOUND_ETA_HALF)

    def test_constant_eta_is_index_independent(self):
        sched = inertial(EtaSchedule(kind="constant", eta=0.3))
        values = {chi_value(sched, n).value for n in (0, 3, 50)}
        assert max(values) - min(values) <= 1e-12

    def test_nesterov_bound_holds_up_to_100(self):
        sched = inertial(EtaSchedule(kind="nesterov", tau=2.0))
        for n in range(101):
            entry = chi_value(sched, n)
            assert entry.value <= (n + 7.0) / 2.0
            assert entry.analytic_bound == (n + 7.0) / 2.0

    def test_sup_eta_one_unavailable(self):
        sched = inertial(EtaSchedule(kind="custom", fn=lambda n: 1 - 1 / (n + 1), eta=0.99))
        # declared sup 0.99 is fine; a sequence approaching 1 without a
        # usable declared bound has no certificate
        chi_value(sched, 0)

        class SupOneEta:
            kind = "custom"
            tau = 2.0

            def value(self, n):
                return 0.5

            def sup(self):
                return 1.0

        bad = WeightSchedule(family="inertial", eta=SupOneEta())
        with pytest.raises(CertificateUnavailableError):
            chi_value(bad, 0)


class TestValidateWeights:
    def test_memoryless_passes_with_constant_chi(self):
        report = validate_weights(memoryless(), 100)
        assert report.ok
        assert report.decay_status == "exact-zero"
        assert "chi = 1" in report.chi_certificate
        assert report.sup_abs_row_sum == 1.0

    def test_inertial_large_eta_reports_chi(self):
        report = validate_weights(inertial(EtaSchedule(kind="constant", eta=0.99)), 50)
        assert report.ok
        # geometric series 1/(1 - exp(-0.01)) is large but finite
        assert report.chi_sup == pytest.approx(1.0 / (1.0 - math.exp(-0.01)), rel=1e-6)
        assert report.sup_abs_row_sum == pytest.approx(2.98)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_row_sums_equal_the_row_fsums_over_every_row(self, data):
        horizon = data.draw(st.integers(1, 300))
        schedule = _weight_schedule(data, horizon + 1)
        rows = [schedule.row(n) for n in range(horizon + 1)]
        report = validate_weights(schedule, horizon)
        assert report.sup_abs_row_sum == max(math.fsum(map(abs, r.values())) for r in rows)
        assert report.max_row_sum_deviation == max(abs(math.fsum(r.values()) - 1.0) for r in rows)

    def test_custom_eta_outside_the_band_at_one_row_is_caught(self):
        # row 2500 lies past the first 2000 rows and between geometric samples
        eta = EtaSchedule(kind="custom", eta=0.9, fn=lambda n: 1.5 if n == 2500 else 0.5)
        with pytest.raises(InvalidScheduleError, match=re.escape(
            "custom eta value 1.5 at n=2500 outside [0, 1)"
        )):
            validate_weights(inertial(eta), 5000)

    def test_cesaro_builds_only_the_toeplitz_probe_row(self, monkeypatch):
        calls = []
        row = WeightSchedule.row
        monkeypatch.setattr(WeightSchedule, "row", lambda self, n: calls.append(n) or row(self, n))
        assert validate_weights(cesaro(), 2000).ok
        assert len(calls) <= 1

    @pytest.mark.parametrize(
        "schedule",
        [
            memoryless(),
            window(2),
            window(5),
            cesaro(),
            inertial(EtaSchedule(kind="constant", eta=0.5)),
            inertial(EtaSchedule(kind="nesterov", tau=2.0)),
        ],
        ids=["memoryless", "window2", "window5", "cesaro", "inertial_const", "inertial_nesterov"],
    )
    def test_toeplitz_transform_near_one_at_1e4(self, schedule):
        report = validate_weights(schedule, 10_000)
        assert report.toeplitz_deviation <= 1e-3


class TestRelaxation:
    def test_fb_band_cap_and_consistency(self):
        rs = RelaxationSchedule(policy="fb_band", value=None, epsilon=0.1)
        lam = relaxation_at(rs, 0, phi_n=2.0 / 3.0)
        # cap = 1 + 0.9 * (1 - 0.5) = 1.45 and eps + (1-eps)/phi = 0.1 + 0.9 * 1.5 agrees
        assert lam == pytest.approx(1.45)
        assert lam == pytest.approx(0.1 + 0.9 * 1.5)

    @pytest.mark.parametrize("policy", ["fraction_of_inverse_phi", "overrelaxed"])
    def test_only_constant_and_fb_band_are_policies(self, policy):
        # no builder selected the other two, and affiter run rejected them
        with pytest.raises(ConfigurationError, match=f"unknown relaxation policy '{policy}'"):
            RelaxationSchedule(policy=policy, epsilon=0.1)

    def test_constant_accepted_within_cap(self):
        assert relaxation_at(constant_relaxation(1.0), 3, 0.5) == 1.0

    def test_constant_above_cap_names_bound(self):
        with pytest.raises(ConfigurationError, match="1/phi"):
            relaxation_at(constant_relaxation(5.0), 0, 2.0 / 3.0)

    def test_fb_band_floor(self):
        rs = RelaxationSchedule(policy="fb_band", value=0.01, epsilon=0.1)
        with pytest.raises(ConfigurationError, match="floor"):
            relaxation_at(rs, 0, 2.0 / 3.0)

    def test_fb_band_requested_above_cap(self):
        rs = RelaxationSchedule(policy="fb_band", value=1.5, epsilon=0.1)
        with pytest.raises(ConfigurationError, match="cap"):
            relaxation_at(rs, 0, 2.0 / 3.0)
