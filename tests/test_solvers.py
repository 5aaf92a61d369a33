"""Tests for the transceiver power-allocation solvers."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iseasim import pipeline, solvers
from iseasim.channel import POWER_SLACK, md_received, mse_at_rx, mse_min_rx, receive_rule
from iseasim.solvers import (
    KKT_TOL,
    POLISH_SWEEPS,
    SOLVER_NAMES,
    TDM_SOLVERS,
    FdmInstance,
    TdmInstance,
    brute_force_oracle,
    design_md,
    design_mse,
    fdm_md_optimal,
    fdm_mse_dual,
    oracle_validation_suite,
    random_fdm_instance,
    random_tdm_instance,
    rx_mse_optimal,
    solve,
    solve_batch,
    tdm_md_optimal,
    tdm_mse_optimal,
)
from iseasim.solvers import (_bisect_fixed, _dual_rows, _DualCore, _fdm_batch,
                             _golden_section, _grid_starts, _PerDevice)
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
        # The instance classes apply the same rules to the same value.
        g, budgets, moments, est_vars, noise, delta = (batch[key][-1] for key in batch)
        if name.startswith("tdm"):
            cls, g, moments, est_vars, delta = (TdmInstance, g[:, 0], moments[:, 0],
                                                est_vars[:, 0], delta[0])
        else:
            cls = FdmInstance
        field = "noise_var" if arg == "noise" else arg
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            cls(gains=g, budgets=budgets, moments=moments, est_vars=est_vars,
                noise_var=noise, delta=delta)

    @pytest.mark.parametrize("name, arg, match", [
        ("fdm_md", "delta", "^fdm_md_optimal requires delta > 0 on some subcarrier"),
        ("fdm_mse", "noise", "^noise must be finite and > 0, got 0.0"),
        ("fdm_md", "noise", "^noise must be finite and > 0, got 0.0"),
    ])
    def test_solver_rules_are_the_same_for_solve_and_solve_batch(self, name, arg, match):
        # Rules of a solver, not of the instance classes: an FdmInstance
        # may have delta = 0 everywhere and a TdmInstance zero noise.
        rng = np.random.default_rng(29)
        if arg == "delta":
            good = random_fdm_instance(rng, 3, 2)
            bad = replace(good, delta=np.zeros(2))
        else:
            good = random_tdm_instance(rng, 3)
            bad = replace(good, noise_var=0.0)
        with pytest.raises(ValidationError, match=match):
            solve(bad, name)
        with pytest.raises(ValidationError, match=match):
            solve_batch(name, *_stack([good, bad]))

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_zero_size_inputs(self, name):
        K, N = 2, 1 if name in TDM_SOLVERS else 3
        tx, rx, kkt = solve_batch(name, np.ones((0, K, N)), 1.0, 1.0, 1.0, 0.1, 1.0)
        assert (tx.shape, rx.shape, kkt.shape) == ((0, K, N), (0, N), (0,))
        for shape in ((2, 0, N), (2, K, 0), (0, 0, 0)):
            with pytest.raises(ValidationError, match="^gains must hold at least one device"):
                solve_batch(name, np.ones(shape), 1.0, 1.0, 1.0, 0.1, 1.0)

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
                    if K < 8:
                        np.testing.assert_array_equal(report.design.tx[:, 0], b)
                        np.testing.assert_array_equal(report.design.rx, rx)
                        assert report.kkt_residual == kkt
                        assert report.extras == extras
                        continue
                    # The kernel's prefix sums add in index order and the
                    # loop's np.sum adds 8 or more devices pairwise, so the
                    # floats may differ in rounding; the choices may not.
                    for got, want in ((report.design.tx[:, 0], b), (report.design.rx, rx)):
                        np.testing.assert_allclose(got, want, rtol=1e-12,
                                                   atol=1e-12 * np.abs(want).max())
                    assert abs(report.kkt_residual - kkt) <= 1e-12
                    assert report.extras.keys() == extras.keys()
                    for key, want in extras.items():
                        if key in ("a_star", "tau"):
                            assert report.extras[key] == pytest.approx(want, rel=1e-12)
                        else:
                            assert report.extras[key] == want


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
def _wide_stacks(draw, name):
    """Random solve_batch inputs for `name` over several decades: B <= 4
    instances of K devices on N subcarriers, with K >= 8 (TDM) or N >= 8
    (FDM and the baselines) in about half the draws (one slot for the TDM
    solvers, with per-instance homogeneous variances for tdm_md)."""
    B = draw(st.integers(1, 4))
    if name in TDM_SOLVERS:
        K, N = draw(st.integers(1, 4) | st.integers(8, 12)), 1
    else:
        K, N = draw(st.integers(1, 5)), draw(st.integers(1, 4) | st.integers(8, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def decades(lo, hi, *shape):
        return 10.0 ** rng.uniform(lo, hi, shape)

    est_vars = decades(-2.0, 1.0, B, K, N)
    if name == "tdm_md":
        est_vars = np.broadcast_to(est_vars[:, :1], (B, K, N))
    return (decades(-2.0, 1.0, B, K, N), decades(-2.0, 2.0, B, K),
            decades(-2.0, 1.0, B, K, N), est_vars, decades(-3.0, 1.0, B),
            decades(-1.0, 1.0, B, N))


@pytest.mark.parametrize("name", SOLVER_NAMES)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_solve_batch_designs_keep_every_power_budget(name, data):
    batch = data.draw(_wide_stacks(name))
    _, budgets, moments = batch[:3]
    tx, _, _ = solve_batch(name, *batch)
    used = np.sum(moments * tx * tx, axis=-1)
    assert np.all(used <= budgets * (1.0 + POWER_SLACK))


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


def _solver_layout(*arrays):
    """The (B, ...) arrays of a batch on N = arrays[0].shape[-1]
    subcarriers, in the memory layout `solve_batch` gives the dual core."""
    B, N = arrays[0].shape[0], arrays[0].shape[-1]
    return tuple(_dual_rows(a, np.arange(B), N) for a in arrays)


def _dual_core(moments, budgets):
    B, K, N = moments.shape
    return _DualCore(*_solver_layout(np.ones((B, K, N)), budgets, moments,
                                     np.ones((B, K, N)), np.ones(B), np.ones((B, N))))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(stack=_multiplier_stacks(), warm=st.sampled_from([0.0, 1.0 - 1e-6, 1.0, 10.0, 1e6]))
def test_newton_multiplier_matches_the_bisection_reference(stack, warm):
    # c1 and c2 in the layout `_step` computes them in from the core's
    # arrays, so the root runs on the solver's own memory order.  Every
    # example checks the cold start and a warm start at `warm` times the
    # root.
    c1, c2, moments, budgets = _solver_layout(*stack)
    B, K, N = c1.shape
    assert N == 1 or B == 1 or c1.strides[0] == c1.itemsize
    core = _dual_core(moments, budgets)

    def used(lam):
        return core.power_used(core._b_shape(c1, c2, lam))

    active = used(np.zeros_like(budgets)) > budgets
    ref = np.where(active, _bisect_fixed(lambda x: used(x) - budgets, budgets.shape), 0.0)
    for lam0 in (None, warm * ref):
        lam = core._lambda_for(c1, c2, lam0)
        np.testing.assert_allclose(lam, ref, rtol=1e-10, atol=0.0)
        assert np.all(np.abs(used(lam) - budgets)[active] <= 1e-12 * budgets[active])
        for i in range(lam.shape[0]):
            alone = _dual_core(moments[i:i + 1], budgets[i:i + 1])._lambda_for(
                c1[i:i + 1], c2[i:i + 1], None if lam0 is None else lam0[i:i + 1])
            np.testing.assert_array_equal(alone[0], lam[i])


@pytest.mark.parametrize("N", [1, 4, 9])
def test_warm_and_cold_multipliers_in_one_batch_equal_themselves_alone(N):
    # Rows warm-started at, just below and far above their root stop after
    # fewer or more Newton steps than the cold rows between them; each
    # row's bits must not depend on how long the others run.
    rng = np.random.default_rng(N)
    B, K = 16, 3
    c1, c2, moments, budgets = _solver_layout(
        10.0 ** rng.uniform(-3.0, 3.0, (B, K, N)), 10.0 ** rng.uniform(-3.0, 3.0, (B, K, N)),
        10.0 ** rng.uniform(-1.5, 1.5, (B, K, N)), 10.0 ** rng.uniform(-4.0, 6.0, (B, K)))
    assert N == 1 or c1.strides[0] == c1.itemsize
    core = _dual_core(moments, budgets)
    cold = core._lambda_for(c1, c2)
    factors = np.array([0.0, 1.0, 1.0 - 1e-6, 0.0, 10.0, 0.0, 1e6, 0.0] * (B // 8))
    warm = factors > 0
    lam0 = factors[:, None] * cold
    lam = core._lambda_for(c1, c2, lam0)
    np.testing.assert_array_equal(lam[~warm], cold[~warm])
    for i in range(B):
        alone = _dual_core(moments[i:i + 1], budgets[i:i + 1])._lambda_for(
            c1[i:i + 1], c2[i:i + 1], lam0[i:i + 1] if warm[i] else None)
        np.testing.assert_array_equal(alone[0], lam[i])


class _FixedSweepCore(_DualCore):
    """The dual core with the polish that runs every instance for exactly
    POLISH_SWEEPS sweeps, the reference of the per-instance stop rule.
    Like the polish, it carries the multipliers from sweep to sweep as
    warm starts."""

    def polish(self, kind, b):
        upd = self.rx_update if kind == "mse" else self.z_update
        better = np.less if kind == "mse" else np.greater
        aux = upd(b)
        aux_prev = aux
        lam = None
        for sweep in range(1, POLISH_SWEEPS + 1):
            lam, b = self._step(kind, aux, lam)
            aux_next = upd(b)
            if sweep % 12 == 0:
                d1 = aux - aux_prev
                d2 = aux_next - aux
                num = np.sum(d2 * d1, axis=1)
                den = np.sum(d1 * d1, axis=1)
                rho = np.clip(np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0),
                              0.0, 0.999)
                aux_acc = np.maximum(aux_next + d2 * (rho / (1.0 - rho))[:, None], 0.0)
                lam_acc, b_acc = self._step(kind, aux_acc, lam)
                take = better(self.objective(kind, b_acc),
                              self.objective(kind, b))
                aux_next = np.where(take[:, None], upd(b_acc), aux_next)
                lam = np.where(take[:, None], lam_acc, lam)
            aux_prev = aux
            aux = aux_next
        lam, b = self._step(kind, aux, lam)
        return lam, aux, b, np.full(self.B, POLISH_SWEEPS)


def _pipeline_batch(snr_db, trials=200):
    """The FDM solver inputs of the default accuracy sweep's first
    `trials` trials at comm SNR snr_db."""
    config = pipeline.ExperimentConfig()
    ctx = pipeline.build_context(config, "comm_snr", snr_db,
                                 config.comm_snr_db.index(snr_db))
    gains = pipeline._draw_trials(ctx, range(trials))[3]
    moments, est_vars, delta = ctx.design_stats
    B, K, N = gains.shape
    return (gains, np.broadcast_to(ctx.budgets, (B, K)).copy(),
            np.broadcast_to(moments, (B, K, N)).copy(),
            np.broadcast_to(est_vars, (B, K, N)).copy(),
            np.full(B, ctx.noise_var), np.broadcast_to(delta, (B, N)).copy())


def _polish_reference_batches():
    # The shapes on which 120 sweeps leave some KKT residual above KKT_TOL
    # (2x2, 3x2, 3x4), two small ones, and pipeline batches from both SNR
    # ends and the middle.
    rng = np.random.default_rng(5)
    for K, N in ((2, 2), (3, 2), (3, 4), (1, 2), (3, 1)):
        yield f"{K}x{N}", _stack([random_fdm_instance(rng, K, N) for _ in range(1000)])
    for snr_db in (-20.0, 10.0, 40.0):
        yield f"{snr_db:g} dB", _pipeline_batch(snr_db)


class TestPolishStopRule:
    @pytest.mark.parametrize("kind", ["mse", "md"])
    def test_matches_the_fixed_sweep_polish(self, kind):
        for label, batch in _polish_reference_batches():
            _, _, b, kkt, sweeps = _DualCore(*batch).run(kind)
            _, _, b_ref, kkt_ref, _ = _FixedSweepCore(*batch).run(kind)
            core = _DualCore(*batch)
            obj, obj_ref = core.objective(kind, b), core.objective(kind, b_ref)
            gap = np.abs(obj - obj_ref) / np.abs(obj_ref)
            assert gap.max() <= 1e-12, (label, gap.max())
            assert np.all(kkt <= np.maximum(kkt_ref, 1e-11)), label
            assert np.sum(kkt > KKT_TOL) == np.sum(kkt_ref > KKT_TOL), label
            assert sweeps.min() < POLISH_SWEEPS and sweeps.max() <= POLISH_SWEEPS, label

    def test_reported_sweeps(self):
        rng = np.random.default_rng(37)
        counts = [solver(random_fdm_instance(rng, int(rng.integers(1, 4)),
                                             int(rng.integers(1, 4)))).iterations
                  for _ in range(10) for solver in (fdm_mse_dual, fdm_md_optimal)]
        assert all(isinstance(c, int) and 2 <= c <= POLISH_SWEEPS for c in counts)
        # One device on one subcarrier spends its whole budget there from
        # the equal-power start, so its auxiliary never moves and it stops
        # at the first check.
        inst = random_fdm_instance(rng, 1, 1)
        assert fdm_mse_dual(inst).iterations == fdm_md_optimal(inst).iterations == 2

    @pytest.mark.parametrize("kind", ["mse", "md"])
    def test_rows_that_stop_at_different_sweeps_equal_themselves_alone(self, kind):
        batch = _pipeline_batch(10.0, 60)
        out = _fdm_batch(kind, *batch)
        sweeps = out[-1]
        assert len(set(sweeps.tolist())) > 2 and sweeps.max() == POLISH_SWEEPS
        for i in range(sweeps.size):
            alone = _fdm_batch(kind, *(a[i:i + 1] for a in batch))
            for x, x1 in zip(out, alone):
                np.testing.assert_array_equal(x[i], x1[0])
        # a batch in which every row stops before the cap
        early = np.flatnonzero(sweeps < POLISH_SWEEPS)
        for x, x1 in zip(out, _fdm_batch(kind, *(a[early] for a in batch))):
            np.testing.assert_array_equal(x[early], x1)


class _COrderedCoreReference:
    """The dual core as it ran before its arrays were laid out batch
    innermost: C-ordered (B, K, N) arrays, sums over N through np.sum
    along the innermost axis, rows selected by fancy indexing.  Only
    comments were removed, and the multiplier root follows the core's
    warm start and stop rule; `solve_batch` must reproduce its bits below
    8 subcarriers."""

    def __init__(self, gains, budgets, moments, est_vars, noise, delta):
        self.g = gains
        self.budgets = budgets
        self.mom = moments
        self.sv = est_vars
        self.noise = noise[:, None]
        self.delta = delta
        self.B, self.K, self.N = gains.shape

    def power_used(self, b):
        return np.sum(self.mom * b * b, axis=2)

    def _b_shape(self, c1, c2, lam):
        den = c2 + lam[:, :, None] * self.mom
        b = np.where(den > 0, c1 / np.where(den > 0, den, 1.0), 0.0)
        return np.minimum(b, 1e120)

    def _lambda_for(self, c1, c2, lam0=None):
        mom, budgets = self.mom, self.budgets
        active = self.power_used(self._b_shape(c1, c2, np.zeros((self.B, self.K)))) > budgets
        s0 = np.maximum(np.max((c1 * np.sqrt(mom / budgets[:, :, None]) - c2) / mom,
                               axis=2), 0.0)
        lam = s0 if lam0 is None else np.maximum(lam0, s0)
        moving = active
        for _ in range(solvers.NEWTON_STEPS if lam0 is None else solvers.NEWTON_STEPS + 1):
            den = c2 + lam[:, :, None] * mom
            pos = den > 0
            den = np.where(pos, den, 1.0)
            mb2 = mom * np.where(pos, c1 / den, 0.0) ** 2
            used = mb2.sum(axis=2)
            slope = (mb2 * mom / den).sum(axis=2)
            step = moving & (slope > 0)
            new = np.maximum(lam + used * (np.sqrt(used / budgets) - 1.0)
                             / np.where(step, slope, 1.0), s0)
            lam_next = np.where(step, new, lam)
            moving = step & (np.abs(lam_next - lam) > solvers.NEWTON_TOL * lam_next)
            lam = lam_next
            if not moving.any():
                break
        return np.where(active, lam, 0.0)

    def rx_update(self, b):
        return receive_rule(self.g, b, self.sv, self.noise)

    def z_update(self, b):
        hb = self.g * b
        num = np.sum(hb, axis=1)
        den = np.sum(hb * hb * self.sv, axis=1) + self.noise
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)

    def _coeffs(self, kind, aux):
        a3 = aux[:, None, :]
        if kind == "mse":
            c1 = a3 * self.g * self.sv
            c2 = a3 * a3 * self.g ** 2 * self.sv
        else:
            d3 = self.delta[:, None, :]
            c1 = d3 * self.g * a3
            c2 = d3 * self.sv * self.g ** 2 * a3 * a3
        return c1, c2

    def objective(self, kind, b):
        if kind == "mse":
            return np.sum(mse_min_rx(self.g, b, self.sv, self.noise), axis=1)
        return np.sum(md_received(self.g, b, self.sv, self.noise, self.delta), axis=1)

    def _step(self, kind, aux, lam0=None):
        c1, c2 = self._coeffs(kind, aux)
        lam = self._lambda_for(c1, c2, lam0)
        b = self._b_shape(c1, c2, lam)
        return lam, b

    def _rows(self, keep):
        return _COrderedCoreReference(self.g[keep], self.budgets[keep], self.mom[keep],
                                      self.sv[keep], self.noise[keep, 0], self.delta[keep])

    def polish(self, kind, b):
        better = np.less if kind == "mse" else np.greater
        core = self
        upd = core.rx_update if kind == "mse" else core.z_update
        aux = upd(b)
        aux_prev = aux
        lam = None
        final = np.empty_like(aux)
        final_lam = np.empty_like(self.budgets)
        sweeps = np.full(self.B, POLISH_SWEEPS)
        rows = np.arange(self.B)
        for sweep in range(1, POLISH_SWEEPS + 1):
            if not rows.size:
                break
            lam, b = core._step(kind, aux, lam)
            aux_next = upd(b)
            if sweep % 12 == 0:
                d1 = aux - aux_prev
                d2 = aux_next - aux
                num = np.sum(d2 * d1, axis=1)
                den = np.sum(d1 * d1, axis=1)
                rho = np.clip(np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0),
                              0.0, 0.999)
                aux_acc = np.maximum(aux_next + d2 * (rho / (1.0 - rho))[:, None], 0.0)
                lam_acc, b_acc = core._step(kind, aux_acc, lam)
                take = better(core.objective(kind, b_acc),
                              core.objective(kind, b))
                aux_next = np.where(take[:, None], upd(b_acc), aux_next)
                lam = np.where(take[:, None], lam_acc, lam)
            aux_prev = aux
            aux = aux_next
            if sweep % 2 or sweep % 12 == 0 or sweep == POLISH_SWEEPS:
                continue
            done = (np.max(np.abs(aux - aux_prev), axis=1)
                    <= solvers.POLISH_TOL * np.max(np.abs(aux), axis=1))
            if done.any():
                final[rows[done]] = aux[done]
                final_lam[rows[done]] = lam[done]
                sweeps[rows[done]] = sweep
                keep = np.flatnonzero(~done)
                rows, aux, aux_prev, lam = rows[keep], aux[keep], aux_prev[keep], lam[keep]
                core = core._rows(keep)
                upd = core.rx_update if kind == "mse" else core.z_update
        final[rows] = aux
        final_lam[rows] = lam
        lam, b = self._step(kind, final, final_lam)
        return lam, final, b, sweeps

    def run(self, kind):
        lam, aux, b, sweeps = self.polish(kind, solvers.equal_power(self.budgets, self.mom))
        used = self.power_used(b)
        over = used > self.budgets
        scale = np.where(over, np.sqrt(self.budgets / np.maximum(used, solvers.TINY)), 1.0)
        b = b * scale[:, :, None]
        used = np.minimum(self.power_used(b), self.budgets)
        slack_rel = (self.budgets - used) / self.budgets
        overuse = np.max(np.maximum(-slack_rel, 0.0), axis=1)
        compl = np.max(lam / (1.0 + lam) * np.abs(slack_rel), axis=1)
        aux_new = (self.rx_update if kind == "mse" else self.z_update)(b)
        aux_scale = np.maximum(np.max(np.abs(aux_new), axis=1), solvers.TINY)
        aux_resid = np.max(np.abs(aux - aux_new), axis=1) / aux_scale
        kkt = np.maximum(np.maximum(overuse, compl), aux_resid)
        return lam, aux, b, kkt, sweeps


def _c_ordered_reference(kind, gains, budgets, moments, est_vars, noise, delta):
    """(tx, rx, kkt) of `_COrderedCoreReference` on a C-ordered batch."""
    _, aux, tx, kkt, _ = _COrderedCoreReference(gains, budgets, moments, est_vars,
                                                noise, delta).run(kind)
    rx = aux if kind == "mse" else receive_rule(gains, tx, est_vars, noise[:, None])
    return tx, rx, kkt


# Shapes (K, N) where numpy's innermost-axis sums go pairwise (N >= 8) or
# where K >= 8, next to the reference shape (3, 4) and an N = 1 shape
# whose device sums are the C layout's pairwise ones.
_LAYOUT_SHAPES = [(3, 4), (2, 8), (3, 9), (9, 3), (4, 12), (1, 16), (8, 8), (9, 1)]


def _objective(kind, gains, tx, est_vars, noise, delta):
    """Each row's MSE (kind "mse") or received MD, summed over subcarriers."""
    if kind == "mse":
        return np.sum(mse_min_rx(gains, tx, est_vars, noise[:, None]), axis=-1)
    return np.sum(md_received(gains, tx, est_vars, noise[:, None], delta), axis=-1)


class TestBatchInnermostLayout:
    @pytest.mark.parametrize("K, N", _LAYOUT_SHAPES)
    @pytest.mark.parametrize("kind", ["mse", "md"])
    def test_rows_match_the_c_ordered_core_and_themselves_alone(self, kind, K, N):
        rng = np.random.default_rng(100 * K + N)
        batch = _stack([random_fdm_instance(rng, K, N) for _ in range(24)])
        gains, _, _, est_vars, noise, delta = batch
        tx, rx, kkt = solve_batch(f"fdm_{kind}", *batch)
        for x in (tx, rx, kkt):
            assert x.flags.c_contiguous
        ref = _c_ordered_reference(kind, *batch)
        if N < 8:
            for x, x_ref in zip((tx, rx, kkt), ref):
                assert x.tobytes() == x_ref.tobytes()
        else:
            # The solver adds its subcarrier sums in index order and the C
            # layout's np.sum adds 8 or more pairwise, so the iterates may
            # part in rounding: each row must reach the same objective, and
            # a certificate wherever the reference has one.
            np.testing.assert_allclose(_objective(kind, gains, tx, est_vars, noise, delta),
                                       _objective(kind, gains, ref[0], est_vars, noise, delta),
                                       rtol=1e-12)
            assert np.all((kkt <= KKT_TOL) | (ref[2] > KKT_TOL))
        for i in range(tx.shape[0]):
            alone = solve_batch(f"fdm_{kind}", *(a[i:i + 1] for a in batch))
            for x, x1 in zip((tx, rx, kkt), alone):
                np.testing.assert_array_equal(x[i], x1[0])

    @pytest.mark.parametrize("kind", ["mse", "md"])
    def test_the_core_keeps_the_inputs_solve_batch_laid_out(self, monkeypatch, kind):
        received, cores = [], []
        init = _DualCore.__init__

        def recording_init(core, *arrays):
            init(core, *arrays)
            received.append(arrays)
            cores.append(core)

        monkeypatch.setattr(_DualCore, "__init__", recording_init)
        batch = _stack([random_fdm_instance(np.random.default_rng(3), 3, 4)
                        for _ in range(40)])
        solve_batch(f"fdm_{kind}", *batch)
        core = cores[0]
        kept = (core.g, core.budgets, core.mom, core.sv, core.noise, core.delta)
        for arr, given_arr in zip(kept, received[0]):
            assert arr.strides[0] == arr.itemsize  # the batch axis is innermost
            assert np.shares_memory(arr, given_arr)

    @pytest.mark.parametrize("kind", ["mse", "md"])
    def test_solve_batch_copies_each_input_once(self, kind):
        # The 1,800-row chunk of the reference sweep: 9 points of 200 trials.
        batch = tuple(np.concatenate(parts) for parts in zip(
            *(_pipeline_batch(snr_db) for snr_db in pipeline.ExperimentConfig().comm_snr_db)))
        laid_out = _solver_layout(*batch)

        def peak(solve):
            tracemalloc.start()
            try:
                solve()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def solve():
            solve_batch(f"fdm_{kind}", *batch)

        peak(solve)  # first-call allocations
        one_copy = sum(a.nbytes for a in batch)
        # The peak of solve_batch exceeds that of the core run on inputs
        # laid out beforehand by one laid-out copy of the inputs, and no
        # more.
        assert peak(solve) <= peak(lambda: _DualCore(*laid_out).run(kind)) \
            + one_copy + 64 * 1024


def _oracle_value(inst, objective):
    """The oracle's objective value(tx) on (..., K, N) transmit magnitudes,
    with the instance's (budgets, moments (K, N))."""
    if isinstance(inst, TdmInstance):
        g, moments, sv = inst.gains[:, None], inst.moments[:, None], inst.est_vars[:, None]
        delta = np.array([inst.delta])
    else:
        g, moments, sv, delta = inst.gains, inst.moments, inst.est_vars, inst.delta
    noise = inst.noise_var

    def value(tx):
        if objective == "mse":
            return np.sum(mse_min_rx(g, tx, sv, noise), axis=-1)
        return -np.sum(md_received(g, tx, sv, noise, delta), axis=-1)
    return value, inst.budgets, moments


def _oracle_loop_reference(inst, objective, grid_resolution=9, refine_sweeps=60):
    """Serial form of the brute-force oracle: the whole grid at once, then
    coordinate descent one start at a time with a scalar golden-section
    search per coordinate.  Returns what the batched oracle must reproduce
    bit for bit (objective, tx, rx, iterations, starts), plus the sweeps
    each start ran and the grid's six smallest values."""
    value, budgets, moments = _oracle_value(inst, objective)
    K, N = moments.shape

    def params_to_tx(params):
        if N == 1:
            return np.sqrt(params[..., :K] * budgets / moments[:, 0])[..., :, None]
        s, t = params[..., 0::2], params[..., 1::2]
        return np.stack([np.sqrt(s * t * budgets / moments[:, 0]),
                         np.sqrt(s * (1.0 - t) * budgets / moments[:, 1])], axis=-1)

    def golden_min(fun, lo, hi, iters=44):
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = fun(c), fun(d)
        for _ in range(iters):
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = fun(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = fun(d)
        x = 0.5 * (a + b)
        return x, fun(x)

    dims = K if N == 1 else 2 * K
    axis = np.linspace(0.0, 1.0, grid_resolution)
    mesh = np.meshgrid(*([axis] * dims), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = value(params_to_tx(grid))
    order = np.argsort(vals, kind="stable")
    starts = grid[order[:5]]

    best_p, best_v, sweeps = None, None, []
    for start in starts:
        p = start.copy()
        v = float(value(params_to_tx(p)))
        for sweep in range(refine_sweeps):
            improved = False
            for d in range(dims):
                def along(x, d=d, p=p):
                    q = p.copy()
                    q[d] = x
                    return float(value(params_to_tx(q)))
                x, vx = golden_min(along, 0.0, 1.0)
                if vx < v - 1e-15 * max(1.0, abs(v)):
                    p[d] = x
                    v = vx
                    improved = True
            if not improved:
                break
        sweeps.append(sweep + 1 if refine_sweeps else 0)
        if best_v is None or v < best_v:
            best_p, best_v = p, v
    tx = params_to_tx(best_p)
    return SimpleNamespace(
        objective=-best_v if objective == "md" else best_v, tx=tx,
        rx=rx_mse_optimal(inst, tx), iterations=int(vals.size), starts=starts,
        sweeps=sweeps, smallest=vals[order[:6]])


def _identical_devices(rng, K, N):
    one = random_fdm_instance(rng, 1, N)
    return FdmInstance(gains=np.repeat(one.gains, K, 0), budgets=np.repeat(one.budgets, K),
                       moments=np.repeat(one.moments, K, 0),
                       est_vars=np.repeat(one.est_vars, K, 0),
                       noise_var=one.noise_var, delta=one.delta)


_ORACLE_CASES = [(K, N, objective, grid)
                 for K in (1, 2, 3) for N in (1, 2) for objective in ("mse", "md")
                 for grid in (9, 17)
                 # the serial reference holds the whole grid in memory:
                 # 17^6 points of the 3x2 shape would take gigabytes
                 if grid ** (K * N) <= 9 ** 6]


class TestOracleMatchesLoopReference:
    @staticmethod
    def assert_same(inst, objective, grid, sweeps=60):
        report = brute_force_oracle(inst, objective, grid, sweeps)
        ref = _oracle_loop_reference(inst, objective, grid, sweeps)
        assert report.objective == ref.objective
        np.testing.assert_array_equal(report.design.tx, ref.tx)
        np.testing.assert_array_equal(report.design.rx, ref.rx)
        assert report.iterations == ref.iterations
        return ref

    @pytest.mark.parametrize("K, N, objective, grid", _ORACLE_CASES)
    def test_bit_identical_to_the_serial_loop(self, K, N, objective, grid):
        rng = np.random.default_rng(1000 + 100 * K + 10 * N + grid)
        instances = [random_fdm_instance(rng, K, N)]
        if N == 1:
            instances.append(random_tdm_instance(rng, K))
        for inst in instances:
            self.assert_same(inst, objective, grid)

    def test_starts_that_stop_at_different_sweeps(self):
        inst = random_fdm_instance(np.random.default_rng(36), 2, 2)
        sweeps = self.assert_same(inst, "mse", 9).sweeps
        assert len(set(sweeps)) > 1, sweeps
        for cap in (0, 1, min(sweeps)):
            self.assert_same(inst, "mse", 9, cap)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_homogeneous_tdm_instances_at_the_suite_grid(self, K):
        # The TDM call that oracle_validation_suite and criterion 5 make.
        inst = random_tdm_instance(np.random.default_rng(40 + K), K, homogeneous_vars=True)
        for objective in ("mse", "md"):
            self.assert_same(inst, objective, 17)

    def test_six_devices_on_one_slot(self):
        # Six search dimensions, the most the oracle accepts.
        inst = random_fdm_instance(np.random.default_rng(46), 6, 1)
        for objective in ("mse", "md"):
            self.assert_same(inst, objective, 5)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_tdm_instances_without_noise(self, K):
        # At noise 0 the grid points where every device is off have a zero
        # denominator, which the receive rule's guard maps to 0: no 0 / 0
        # may be taken there.
        inst = replace(random_tdm_instance(np.random.default_rng(50 + K), K), noise_var=0.0)
        for objective in ("mse", "md"):
            with np.errstate(divide="raise", invalid="raise"):
                self.assert_same(inst, objective, 17)

    @pytest.mark.parametrize("grid", [1, 2, 3])
    def test_grids_with_fewer_points_per_slice_than_starts(self, grid):
        rng = np.random.default_rng(32)
        for K, N in ((1, 1), (2, 1), (1, 2)):
            self.assert_same(random_fdm_instance(rng, K, N), "md", grid)

    @pytest.mark.parametrize("K, N", [(2, 1), (3, 1), (2, 2)])
    def test_grid_starts_break_ties_in_grid_order(self, K, N):
        # Swapping two identical devices' parameters leaves the objective
        # bit for bit equal, so grid values tie in pairs.
        inst = _identical_devices(np.random.default_rng(34), K, N)
        for objective in ("mse", "md"):
            ref = _oracle_loop_reference(inst, objective, 9, refine_sweeps=0)
            assert np.unique(ref.smallest).size < ref.smallest.size
            np.testing.assert_array_equal(_grid_starts(_PerDevice(inst, objective), 9)[0],
                                          ref.starts)


def _golden_lockstep_reference(fun, size):
    """The golden-section search with one lock-step numpy step per call of
    fun, which maps a (size,) vector of points to their values."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.zeros(size), np.ones(size)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(solvers.GOLDEN_ITERS):
        left = fc <= fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        step = invphi * (b - a)
        x = np.where(left, b - step, a + step)
        fx = fun(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    x = 0.5 * (a + b)
    return x, fun(x)


_elementwise_sin = np.frompyfunc(math.sin, 1, 1)


@st.composite
def _golden_problems(draw, kind):
    """`size` <= 5 problems of one kind of function on [0, 1], with a drawn
    parameter per problem (the last axis of the points).  Every operation
    rounds each element on its own, so values do not depend on the shape
    of the array of points (math.sin stands in for np.sin, whose SIMD
    loops need not round as its scalar loop does)."""
    size = draw(st.integers(1, 5))

    def per_problem(lo, hi):
        return draw(hnp.arrays(np.float64, size, elements=st.floats(lo, hi)))

    if kind == "constant":
        level = per_problem(-10.0, 10.0)
        return size, lambda x: np.zeros_like(x) + level
    if kind == "plateaus":
        center, steps = per_problem(0.0, 1.0), np.floor(per_problem(2.0, 20.0))
        return size, lambda x: np.floor(np.abs(x - center) * steps)
    if kind == "sin":
        freq, phase = per_problem(10.0, 200.0), per_problem(0.0, 2 * math.pi)
        return size, lambda x: _elementwise_sin(freq * x + phase).astype(np.float64)
    lo, width, center = per_problem(0.0, 0.7), per_problem(0.05, 0.3), per_problem(0.0, 1.0)
    return size, lambda x: np.where((x >= lo) & (x <= lo + width), np.nan, (x - center) ** 2)


class TestGoldenSection:
    """The lookahead search against the lock-step search it replaced: the
    same (x, f(x)) bit for bit, for every remainder of GOLDEN_ITERS over
    the lookahead depth.  Constant values tie at every step (every step
    goes left), plateaus tie at some, sin has many local minima, and NaN
    values send the step right (`fc <= fd` is false)."""

    @pytest.mark.parametrize("iters", [0, 1, 2, 3, 4, 5, 6, 7, 44])
    @pytest.mark.parametrize("kind", ["constant", "plateaus", "sin", "nan"])
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(data=st.data())
    def test_bit_identical_to_the_lockstep_search(self, kind, iters, data):
        size, fun = data.draw(_golden_problems(kind))
        calls = []

        def counted(x):
            calls.append(x.shape)
            return fun(x)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "GOLDEN_ITERS", iters)
            x, fx = _golden_section(counted, size)
            ref_x, ref_fx = _golden_lockstep_reference(fun, size)
        assert x.shape == fx.shape == (size,)
        assert x.tobytes() == ref_x.tobytes()
        assert fx.tobytes() == ref_fx.tobytes()
        # One call for the two inner points and the first _LOOKAHEAD steps,
        # one per _LOOKAHEAD steps after those and one for the midpoint.
        lookahead = solvers._LOOKAHEAD
        assert len(calls) == 2 + -(-max(iters - lookahead, 0) // lookahead)
        assert all(shape[1:] == (size,) for shape in calls)


class TestOracleInputs:
    @pytest.mark.parametrize("kwargs, name", [
        ({"grid_resolution": 0}, "grid_resolution"),
        ({"grid_resolution": 2.5}, "grid_resolution"),
        ({"grid_resolution": True}, "grid_resolution"),
        ({"refine_sweeps": -1}, "refine_sweeps"),
        ({"refine_sweeps": 1.5}, "refine_sweeps"),
    ])
    def test_bad_counts_name_the_argument(self, kwargs, name):
        inst = random_fdm_instance(np.random.default_rng(33), 2, 1)
        with pytest.raises(ValidationError, match=name):
            brute_force_oracle(inst, "mse", **kwargs)

    @pytest.mark.parametrize("n", [0, -2])
    def test_suite_needs_an_instance(self, n):
        with pytest.raises(ValidationError, match="instances"):
            oracle_validation_suite(n, 0)


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

    @pytest.mark.parametrize("K, N", [(3, 2), (6, 1)])
    def test_peak_memory_stays_at_one_grid_slice(self, K, N):
        inst = random_fdm_instance(np.random.default_rng(19), K, N)
        brute_force_oracle(inst, "mse")  # first-call allocations
        tracemalloc.start()
        try:
            brute_force_oracle(inst, "mse")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20

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
