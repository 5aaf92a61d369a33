"""Tests for the transceiver power-allocation solvers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iseasim.channel import mse_at_rx, mse_min_rx
from iseasim.solvers import (
    SOLVER_NAMES,
    FdmInstance,
    TdmInstance,
    brute_force_oracle,
    design_md,
    design_mse,
    fdm_md_optimal,
    fdm_mse_dual,
    random_fdm_instance,
    random_tdm_instance,
    rx_mse_optimal,
    solve,
    solve_batch,
    tdm_md_optimal,
    tdm_mse_optimal,
)
from iseasim.solvers import _bisect_fixed, _DualCore
from iseasim.validation import ValidationError


def rel_gap(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestInstanceValidation:
    def test_tdm_requires_positive_data(self):
        with pytest.raises(ValidationError):
            TdmInstance(gains=[1.0, 0.0], budgets=[1.0, 1.0],
                        moments=[1.0, 1.0], est_vars=[1.0, 1.0], noise_var=0.1)

    def test_tdm_allows_zero_noise_and_delta(self):
        TdmInstance(gains=[1.0], budgets=[1.0], moments=[1.0],
                    est_vars=[1.0], noise_var=0.0, delta=0.0)

    def test_fdm_requires_positive_noise(self):
        with pytest.raises(ValidationError):
            FdmInstance(gains=np.ones((1, 2)), budgets=[1.0],
                        moments=np.ones((1, 2)), est_vars=np.ones((1, 2)),
                        noise_var=0.0)


class TestTdmMseOptimal:
    def test_single_device_closed_form(self):
        h, P, nu2, sv, noise = 1.3, 2.0, 0.8, 0.5, 0.1
        inst = TdmInstance(gains=[h], budgets=[P], moments=[nu2],
                           est_vars=[sv], noise_var=noise)
        rep = tdm_mse_optimal(inst)
        b_full = np.sqrt(P / nu2)
        a_expected = h * sv * b_full / (h * h * sv * b_full ** 2 + noise)
        assert rep.design.tx[0, 0] == pytest.approx(b_full)
        assert rep.design.rx[0] == pytest.approx(a_expected)

    def test_noiseless_reaches_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            inst = random_tdm_instance(rng, 3)
            inst = TdmInstance(gains=inst.gains, budgets=inst.budgets,
                               moments=inst.moments, est_vars=inst.est_vars,
                               noise_var=0.0, delta=inst.delta)
            assert tdm_mse_optimal(inst).objective <= 1e-12

    def test_reference_instance_matches_oracle(self):
        inst = TdmInstance(gains=[1.0, 0.6, 0.3], budgets=np.ones(3),
                           moments=np.ones(3), est_vars=np.ones(3),
                           noise_var=0.1)
        rep = tdm_mse_optimal(inst)
        oracle = brute_force_oracle(inst, "mse", grid_resolution=21)
        assert rel_gap(rep.objective, oracle.objective) < 1e-3

    def test_threshold_partition_is_monotone(self):
        # full-power devices must have weaker effective links than
        # inverting devices
        rng = np.random.default_rng(1)
        for _ in range(50):
            inst = random_tdm_instance(rng, int(rng.integers(2, 5)))
            rep = tdm_mse_optimal(inst)
            u = inst.gains * np.sqrt(inst.budgets / inst.moments)
            full = np.array(rep.extras["full_power"])
            if full.any() and (~full).any():
                assert u[full].max() <= u[~full].min() + 1e-9


class TestTdmMdOptimal:
    def test_single_device_full_power(self):
        inst = TdmInstance(gains=[0.9], budgets=[1.5], moments=[1.2],
                           est_vars=[0.7], noise_var=0.2, delta=2.0)
        rep = tdm_md_optimal(inst)
        assert rep.design.tx[0, 0] == pytest.approx(np.sqrt(1.5 / 1.2))

    def test_equal_links_all_full_power(self):
        # 1-D oracle over the common cap value
        K = 4
        inst = TdmInstance(gains=np.full(K, 1.1), budgets=np.full(K, 2.0),
                           moments=np.full(K, 1.0), est_vars=np.full(K, 0.5),
                           noise_var=0.3, delta=1.0)
        rep = tdm_md_optimal(inst)
        b_full = np.sqrt(2.0 / 1.0)
        np.testing.assert_allclose(rep.design.tx[:, 0], b_full, rtol=1e-12)
        u = 1.1 * b_full
        caps = np.linspace(0.0, u, 2000)
        vals = []
        for tau in caps:
            c = np.minimum(np.full(K, u), tau)
            vals.append(c.sum() ** 2 / (np.sum(c * c) + 0.3 / 0.5))
        assert rep.extras["tau"] >= caps[int(np.argmax(vals))] - 1e-6

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            inst = random_tdm_instance(rng, 3, homogeneous_vars=True)
            rep = tdm_md_optimal(inst)
            oracle = brute_force_oracle(inst, "md", grid_resolution=17)
            assert rel_gap(rep.objective, oracle.objective) < 1e-3

    def test_heterogeneous_vars_rejected(self):
        inst = TdmInstance(gains=[1.0, 1.0], budgets=[1.0, 1.0],
                           moments=[1.0, 1.0], est_vars=[0.5, 0.9],
                           noise_var=0.1, delta=1.0)
        with pytest.raises(ValidationError, match="brute_force_oracle"):
            tdm_md_optimal(inst)

    def test_zero_delta_rejected(self):
        inst = TdmInstance(gains=[1.0], budgets=[1.0], moments=[1.0],
                           est_vars=[1.0], noise_var=0.1, delta=0.0)
        with pytest.raises(ValidationError):
            tdm_md_optimal(inst)


class TestTdmEquivalence:
    def test_designs_achieve_identical_metrics(self):
        # homogeneous estimate variances: the MSE-optimal and MD-optimal
        # per-slot designs induce the same MSE and the same MD
        rng = np.random.default_rng(3)
        for _ in range(50):
            inst = random_tdm_instance(rng, int(rng.integers(1, 4)),
                                       homogeneous_vars=True)
            if inst.delta <= 0:
                continue
            rep_mse = tdm_mse_optimal(inst)
            rep_md = tdm_md_optimal(inst)
            assert rel_gap(design_mse(inst, rep_md.design), rep_mse.objective) < 1e-6
            assert rel_gap(design_md(inst, rep_mse.design), rep_md.objective) < 1e-6


class TestFdmMseDual:
    def test_single_subcarrier_matches_tdm(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ti = random_tdm_instance(rng, 3)
            fi = FdmInstance(gains=ti.gains[:, None], budgets=ti.budgets,
                             moments=ti.moments[:, None],
                             est_vars=ti.est_vars[:, None],
                             noise_var=max(ti.noise_var, 1e-3),
                             delta=np.array([max(ti.delta, 0.1)]))
            ti2 = TdmInstance(gains=ti.gains, budgets=ti.budgets,
                              moments=ti.moments, est_vars=ti.est_vars,
                              noise_var=max(ti.noise_var, 1e-3),
                              delta=max(ti.delta, 0.1))
            rep_f = fdm_mse_dual(fi)
            rep_t = tdm_mse_optimal(ti2)
            assert rel_gap(rep_f.objective, rep_t.objective) < 1e-4

    def test_flat_symmetric_instance_splits_evenly(self):
        K, N = 2, 3
        inst = FdmInstance(gains=np.full((K, N), 1.2), budgets=np.full(K, 1.5),
                           moments=np.full((K, N), 0.8),
                           est_vars=np.full((K, N), 0.4), noise_var=0.2,
                           delta=np.full(N, 1.0))
        rep = fdm_mse_dual(inst)
        power = inst.moments * rep.design.tx ** 2
        spread = power.max(axis=1) - power.min(axis=1)
        np.testing.assert_array_less(spread, 1e-6 * power.max())

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            inst = random_fdm_instance(rng, 2, 2)
            rep = fdm_mse_dual(inst)
            oracle = brute_force_oracle(inst, "mse")
            assert rel_gap(rep.objective, oracle.objective) < 1e-3
            assert rep.kkt_residual <= 1e-6

    def test_duality_gap_reported_small(self):
        rng = np.random.default_rng(6)
        inst = random_fdm_instance(rng, 3, 2)
        rep = fdm_mse_dual(inst)
        assert rep.extras["dual_value"] <= rep.objective + 1e-9
        assert rep.extras["duality_gap"] < 1e-3 * max(rep.objective, 1e-9)


class TestFdmMdOptimal:
    def test_single_subcarrier_matches_tdm(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ti = random_tdm_instance(rng, 3, homogeneous_vars=True)
            noise = max(ti.noise_var, 1e-3)
            delta = max(ti.delta, 0.1)
            fi = FdmInstance(gains=ti.gains[:, None], budgets=ti.budgets,
                             moments=ti.moments[:, None],
                             est_vars=ti.est_vars[:, None],
                             noise_var=noise, delta=np.array([delta]))
            ti2 = TdmInstance(gains=ti.gains, budgets=ti.budgets,
                              moments=ti.moments, est_vars=ti.est_vars,
                              noise_var=noise, delta=delta)
            assert rel_gap(fdm_md_optimal(fi).objective,
                           tdm_md_optimal(ti2).objective) < 1e-4

    def test_single_device_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            inst = random_fdm_instance(rng, 1, 2)
            rep = fdm_md_optimal(inst)
            oracle = brute_force_oracle(inst, "md")
            assert rel_gap(rep.objective, oracle.objective) < 1e-3

    def test_uniform_delta_flat_channel_splits_evenly(self):
        K, N = 3, 2
        inst = FdmInstance(gains=np.full((K, N), 0.9), budgets=np.full(K, 2.0),
                           moments=np.full((K, N), 1.1),
                           est_vars=np.full((K, N), 0.6), noise_var=0.15,
                           delta=np.full(N, 2.0))
        rep = fdm_md_optimal(inst)
        power = inst.moments * rep.design.tx ** 2
        spread = power.max(axis=1) - power.min(axis=1)
        np.testing.assert_array_less(spread, 1e-6 * power.max())

    def test_zero_delta_subcarrier_gets_zero_power(self):
        inst = FdmInstance(gains=np.ones((2, 2)), budgets=np.ones(2),
                           moments=np.ones((2, 2)), est_vars=np.full((2, 2), 0.5),
                           noise_var=0.1, delta=np.array([1.0, 0.0]))
        rep = fdm_md_optimal(inst)
        np.testing.assert_array_equal(rep.design.tx[:, 1], 0.0)

    def test_z_consistency_within_tolerance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            inst = random_fdm_instance(rng, 2, 2)
            rep = fdm_md_optimal(inst)
            assert rep.extras["z_consistency"] <= 1e-8

    def test_all_zero_delta_rejected(self):
        inst = FdmInstance(gains=np.ones((1, 1)), budgets=[1.0],
                           moments=np.ones((1, 1)), est_vars=np.ones((1, 1)),
                           noise_var=0.1, delta=np.array([0.0]))
        with pytest.raises(ValidationError):
            fdm_md_optimal(inst)


class TestBaselines:
    def test_equal_meets_power_exactly(self):
        rng = np.random.default_rng(10)
        inst = random_fdm_instance(rng, 3, 2)
        design = solve(inst, "equal").design
        np.testing.assert_allclose(design.device_power(), inst.budgets,
                                   rtol=1e-12)

    def test_equal_single_subcarrier_is_full_power(self):
        rng = np.random.default_rng(11)
        inst = random_fdm_instance(rng, 2, 1)
        design = solve(inst, "equal").design
        np.testing.assert_allclose(design.tx[:, 0],
                                   np.sqrt(inst.budgets / inst.moments[:, 0]))

    def test_equal_never_beats_the_mse_solver(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            inst = random_fdm_instance(rng, int(rng.integers(1, 4)),
                                       int(rng.integers(1, 3)))
            mse_equal = design_mse(inst, solve(inst, "equal").design)
            mse_opt = fdm_mse_dual(inst).objective
            assert mse_opt <= mse_equal * (1 + 1e-9)

    def test_inversion_branches(self):
        strong = FdmInstance(gains=np.full((1, 2), 50.0), budgets=[1.0],
                             moments=np.ones((1, 2)), est_vars=np.ones((1, 2)),
                             noise_var=0.1, delta=np.ones(2))
        design = solve(strong, "channel_inversion").design
        np.testing.assert_allclose(design.tx, 1.0 / 50.0)
        weak = FdmInstance(gains=np.full((1, 2), 0.01), budgets=[1.0],
                           moments=np.ones((1, 2)), est_vars=np.ones((1, 2)),
                           noise_var=0.1, delta=np.ones(2))
        design = solve(weak, "channel_inversion").design
        np.testing.assert_allclose(design.tx, np.sqrt(0.5))

    def test_inversion_never_violates_power(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            inst = random_fdm_instance(rng, 3, 2)
            design = solve(inst, "channel_inversion").design
            assert np.all(design.device_power() <= inst.budgets * (1 + 1e-9))


class TestFdmDominance:
    def test_objective_ordering_between_designs(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            inst = random_fdm_instance(rng, int(rng.integers(1, 4)),
                                       int(rng.integers(1, 3)))
            rep_c = fdm_mse_dual(inst)
            rep_d = fdm_md_optimal(inst)
            assert design_mse(inst, rep_c.design) \
                <= design_mse(inst, rep_d.design) * (1 + 1e-6)
            assert design_md(inst, rep_d.design) \
                >= design_md(inst, rep_c.design) * (1 - 1e-6)


def _stack(instances):
    """solve_batch inputs of a list of instances; a TDM slot is one column."""
    def col(a):
        return a[:, None] if isinstance(instances[0], TdmInstance) else a

    return (np.stack([col(i.gains) for i in instances]),
            np.stack([i.budgets for i in instances]),
            np.stack([col(i.moments) for i in instances]),
            np.stack([col(i.est_vars) for i in instances]),
            np.array([i.noise_var for i in instances]),
            np.stack([np.atleast_1d(i.delta) for i in instances]))


class TestSolveBatch:
    def test_batch_equals_each_instance_alone(self):
        rng = np.random.default_rng(23)
        fdm = [random_fdm_instance(rng, 3, 4) for _ in range(6)]
        tdm = [random_tdm_instance(rng, 5, homogeneous_vars=True) for _ in range(6)]
        for name in SOLVER_NAMES:
            instances = tdm if name.startswith("tdm") else fdm
            tx, rx, kkt = solve_batch(name, *_stack(instances))
            for i, inst in enumerate(instances):
                tx1, rx1, kkt1 = solve_batch(name, *_stack([inst]))
                np.testing.assert_array_equal(tx[i], tx1[0])
                np.testing.assert_array_equal(rx[i], rx1[0])
                np.testing.assert_array_equal(kkt[i], kkt1[0])

    def test_single_instance_api_is_row_zero(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            inst = random_fdm_instance(rng, int(rng.integers(1, 5)),
                                       int(rng.integers(1, 5)))
            batch = _stack([inst])
            for name, report in (("fdm_mse", fdm_mse_dual(inst)),
                                 ("fdm_md", fdm_md_optimal(inst))):
                tx, rx, kkt = solve_batch(name, *batch)
                np.testing.assert_array_equal(report.design.tx, tx[0])
                np.testing.assert_array_equal(report.design.rx, rx[0])
                assert report.kkt_residual == kkt[0]
            for name in ("equal", "channel_inversion"):
                design = solve(inst, name).design
                tx, rx, _ = solve_batch(name, *batch)
                np.testing.assert_array_equal(design.tx, tx[0])
                np.testing.assert_array_equal(design.rx, rx[0])
            inst = random_tdm_instance(rng, int(rng.integers(1, 9)), homogeneous_vars=True)
            batch = _stack([inst])
            for name, report in (("tdm_mse", tdm_mse_optimal(inst)),
                                 ("tdm_md", tdm_md_optimal(inst))):
                tx, rx, kkt = solve_batch(name, *batch)
                np.testing.assert_array_equal(report.design.tx, tx[0])
                np.testing.assert_array_equal(report.design.rx, rx[0])
                assert report.kkt_residual == kkt[0]

    def test_unknown_name_rejected(self):
        rng = np.random.default_rng(25)
        with pytest.raises(ValidationError, match="genie"):
            solve_batch("genie", *_stack([random_fdm_instance(rng, 2, 2)]))

    def test_tdm_needs_one_slot_column(self):
        rng = np.random.default_rng(26)
        with pytest.raises(ValidationError, match="one TDM slot"):
            solve_batch("tdm_mse", *_stack([random_fdm_instance(rng, 2, 2)]))

    @pytest.mark.parametrize("name, arg, value", [
        ("fdm_md", "noise", np.nan),
        ("fdm_mse", "noise", 0.0),
        ("equal", "noise", -0.1),
        ("fdm_md", "budgets", np.nan),
        ("fdm_mse", "budgets", 0.0),
        ("equal", "gains", -1.0),
        ("channel_inversion", "gains", 0.0),
        ("fdm_mse", "gains", np.inf),
        ("fdm_md", "moments", 0.0),
        ("tdm_mse", "est_vars", np.nan),
        ("fdm_md", "delta", -1.0),
        ("fdm_mse", "delta", np.nan),
    ])
    def test_bad_input_names_the_argument(self, name, arg, value):
        rng = np.random.default_rng(27)
        if name.startswith("tdm"):
            instances = [random_tdm_instance(rng, 3, homogeneous_vars=True) for _ in range(2)]
        else:
            instances = [random_fdm_instance(rng, 3, 2) for _ in range(2)]
        batch = dict(zip(("gains", "budgets", "moments", "est_vars", "noise", "delta"),
                         _stack(instances)))
        batch[arg].reshape(2, -1)[-1, -1] = value  # one entry of the last instance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{arg} must be finite"):
                solve_batch(name, **batch)

    @pytest.mark.parametrize("name", ["tdm_mse", "equal", "channel_inversion"])
    def test_zero_noise_is_allowed_where_tdm_instances_allow_it(self, name):
        rng = np.random.default_rng(28)
        inst = random_tdm_instance(rng, 3)
        gains, budgets, moments, est_vars, _, delta = _stack([inst])
        tx, _, _ = solve_batch(name, gains, budgets, moments, est_vars, 0.0, delta)
        assert np.all(np.isfinite(tx))


def _tdm_loop_reference(inst, kind):
    """Per-instance loop form of the TDM closed forms, one threshold
    candidate at a time: (b, rx, kkt, extras) that the batched kernel must
    reproduce bit for bit."""
    h, sv, noise = inst.gains, inst.est_vars, inst.noise_var
    b_full = np.sqrt(inst.budgets) / np.sqrt(inst.moments)
    u = h * b_full
    order = np.argsort(u, kind="stable")
    K = inst.num_devices
    if kind == "mse":
        best = None
        for j in range(1, K + 1):
            p = order[:j]
            a = np.sum(h[p] * sv[p] * b_full[p]) / (np.sum(u[p] ** 2 * sv[p]) + noise)
            b = np.minimum(b_full, 1.0 / (a * h))
            mse = mse_at_rx(h[:, None], b[:, None], np.array([a]), sv[:, None], noise)
            if best is None or mse < best[0]:
                best = (mse, a, b, j)
        _, a, b, j = best
        a_opt = rx_mse_optimal(inst, b[:, None])[0]
        return b, [a], abs(a - a_opt) / max(a_opt, 1e-300), {
            "threshold_index": j, "a_star": float(a), "order": order.tolist(),
            "full_power": (b >= b_full * (1.0 - 1e-12)).tolist()}
    us = u[order]
    noise_eq = noise / sv[0]

    def value(cap):
        c = np.minimum(us, cap)
        s1 = np.sum(c)
        return s1 * s1 / (np.sum(c * c) + noise_eq)

    best_val, best_tau = None, None
    for j in range(1, K + 1):
        tau = max((np.sum(us[:j] ** 2) + noise_eq) / np.sum(us[:j]), us[j - 1])
        tau = min(tau, us[j]) if j < K else tau
        if best_val is None or value(tau) > best_val:
            best_val, best_tau = value(tau), tau
    b = np.minimum(u, best_tau) / h
    kkt = max(0.0, *((value(best_tau * s) - best_val) / max(best_val, 1e-300)
                     for s in (1.0 - 1e-7, 1.0 + 1e-7)))
    return b, rx_mse_optimal(inst, b[:, None]), kkt, {
        "tau": float(best_tau), "order": order.tolist()}


class TestTdmBatchMatchesLoopReference:
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 8, 9, 16])
    def test_bit_identical_to_the_candidate_loop(self, K):
        rng = np.random.default_rng(100 + K)
        for homogeneous in (True, False):
            for _ in range(20):
                inst = random_tdm_instance(rng, K, homogeneous_vars=homogeneous)
                solved = ((tdm_mse_optimal, "mse"), (tdm_md_optimal, "md"))
                for solver, kind in solved if homogeneous else solved[:1]:
                    report = solver(inst)
                    b, rx, kkt, extras = _tdm_loop_reference(inst, kind)
                    np.testing.assert_array_equal(report.design.tx[:, 0], b)
                    np.testing.assert_array_equal(report.design.rx, rx)
                    assert report.kkt_residual == kkt
                    assert report.extras == extras


_POSITIVE = st.floats(0.05, 3.0)


@st.composite
def _solver_stacks(draw, name):
    """Random solve_batch inputs for `name`: B <= 3 instances of K <= 4
    devices on N <= 3 subcarriers (one slot for the TDM solvers, with
    per-instance homogeneous variances for tdm_md)."""
    B, K = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    N = 1 if name.startswith("tdm") else draw(st.integers(1, 3))

    def positive(*shape):
        return draw(hnp.arrays(np.float64, shape, elements=_POSITIVE))

    est_vars = (np.broadcast_to(positive(B, 1, 1), (B, K, N)) if name == "tdm_md"
                else positive(B, K, N))
    return (positive(B, K, N), positive(B, K), positive(B, K, N), est_vars,
            positive(B), positive(B, N))


@pytest.mark.parametrize("name", SOLVER_NAMES)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=st.data())
def test_solve_batch_rows_equal_each_instance_alone(name, data):
    batch = data.draw(_solver_stacks(name))
    tx, rx, kkt = solve_batch(name, *batch)
    for i in range(tx.shape[0]):
        tx1, rx1, kkt1 = solve_batch(name, *(a[i:i + 1] for a in batch))
        np.testing.assert_array_equal(tx[i], tx1[0])
        np.testing.assert_array_equal(rx[i], rx1[0])
        np.testing.assert_array_equal(kkt[i], kkt1[0])


@st.composite
def _multiplier_stacks(draw):
    """(c1, c2, nu^2, budgets) of the per-device multiplier root: B <= 16
    stacks of K <= 8 devices on N <= 16 subcarriers, with c1 and c2 over 6
    decades, nu^2 over 3, budgets from 1e-4 to 1e6, and a drawn share of
    shut-off subcarriers (c1 = c2 = 0).  Hypothesis draws the shapes, the
    share and the seed of the values."""
    B, K, N = draw(st.integers(1, 16)), draw(st.integers(1, 8)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c1 = 10.0 ** rng.uniform(-3.0, 3.0, (B, K, N))
    c2 = 10.0 ** rng.uniform(-3.0, 3.0, (B, K, N))
    off = rng.random((B, K, N)) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    c1[off] = 0.0
    c2[off] = 0.0
    return (c1, c2, 10.0 ** rng.uniform(-1.5, 1.5, (B, K, N)),
            10.0 ** rng.uniform(-4.0, 6.0, (B, K)))


def _dual_core(moments, budgets):
    B, K, N = moments.shape
    return _DualCore(np.ones((B, K, N)), budgets, moments, np.ones((B, K, N)),
                     np.ones(B), np.ones((B, N)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(stack=_multiplier_stacks())
def test_newton_multiplier_matches_the_bisection_reference(stack):
    c1, c2, moments, budgets = stack
    core = _dual_core(moments, budgets)

    def used(lam):
        return core.power_used(core._b_shape(c1, c2, lam))

    lam = core._lambda_for(c1, c2)
    active = used(np.zeros_like(budgets)) > budgets
    ref = np.where(active, _bisect_fixed(lambda x: used(x) - budgets, budgets.shape), 0.0)
    np.testing.assert_allclose(lam, ref, rtol=1e-10, atol=0.0)
    assert np.all(np.abs(used(lam) - budgets)[active] <= 1e-12 * budgets[active])
    for i in range(lam.shape[0]):
        alone = _dual_core(moments[i:i + 1], budgets[i:i + 1])._lambda_for(
            c1[i:i + 1], c2[i:i + 1])
        np.testing.assert_array_equal(alone[0], lam[i])


class TestBruteForceOracle:
    def test_single_variable_convex_instance(self):
        inst = TdmInstance(gains=[1.0], budgets=[1.0], moments=[1.0],
                           est_vars=[1.0], noise_var=0.2, delta=1.0)
        rep = tdm_mse_optimal(inst)
        oracle = brute_force_oracle(inst, "mse", grid_resolution=15)
        assert rel_gap(oracle.objective, rep.objective) < 1e-6

    def test_never_better_than_proven_optimum(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            inst = random_tdm_instance(rng, int(rng.integers(1, 4)))
            rep = tdm_mse_optimal(inst)
            oracle = brute_force_oracle(inst, "mse")
            assert oracle.objective >= rep.objective * (1 - 1e-3) - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        inst = random_fdm_instance(rng, 2, 2)
        a = brute_force_oracle(inst, "mse")
        b = brute_force_oracle(inst, "mse")
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.design.tx, b.design.tx)

    def test_dimension_limit(self):
        rng = np.random.default_rng(17)
        inst = random_fdm_instance(rng, 4, 2)
        with pytest.raises(ValidationError, match="6 free"):
            brute_force_oracle(inst, "mse")

    def test_bad_objective_rejected(self):
        rng = np.random.default_rng(18)
        inst = random_fdm_instance(rng, 2, 2)
        with pytest.raises(ValidationError):
            brute_force_oracle(inst, "snr")


class TestFeasibilityInvariant:
    def test_every_solver_returns_feasible_designs(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            fi = random_fdm_instance(rng, int(rng.integers(1, 4)),
                                     int(rng.integers(1, 3)))
            for name in ("fdm_mse", "fdm_md", "equal", "channel_inversion"):
                report = solve(fi, name)
                used = report.design.device_power()
                assert np.all(used <= fi.budgets * (1 + 1e-9))
            ti = random_tdm_instance(rng, int(rng.integers(1, 4)),
                                     homogeneous_vars=True)
            for name in ("tdm_mse", "tdm_md"):
                report = solve(ti, name)
                used = report.design.device_power()
                assert np.all(used <= ti.budgets * (1 + 1e-9))

    def test_unknown_solver_rejected(self):
        rng = np.random.default_rng(20)
        with pytest.raises(ValidationError):
            solve(random_fdm_instance(rng, 1, 1), "genie")


class TestRxHelpers:
    def test_rx_rule_minimizes_the_per_subcarrier_mse(self):
        rng = np.random.default_rng(21)
        inst = random_fdm_instance(rng, 3, 2)
        tx = np.sqrt(inst.budgets[:, None] / (2 * inst.moments)) * 0.7
        rx = rx_mse_optimal(inst, tx)

        def total(rx_vec):
            mis = rx_vec[None, :] * inst.gains * tx - 1.0
            return float(np.sum(mis * mis * inst.est_vars)
                         + np.sum(rx_vec ** 2) * inst.noise_var)
        best = total(rx)
        for bump in (0.99, 1.01):
            assert total(rx * bump) >= best - 1e-12
        assert total(rx) == pytest.approx(
            np.sum(mse_min_rx(inst.gains, tx, inst.est_vars, inst.noise_var)), rel=1e-12)

    def test_solve_report_serialization(self, tmp_path):
        rng = np.random.default_rng(22)
        inst = random_fdm_instance(rng, 2, 2)
        rep = fdm_mse_dual(inst)
        path = tmp_path / "report.json"
        rep.save(path)
        import json
        doc = json.loads(path.read_text())
        assert doc["objective"] == rep.objective
        assert doc["converged"] is True
