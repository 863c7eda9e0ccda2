import dataclasses
import math

import numpy as np
import pytest

from hawksteer import qstate
from hawksteer.qstate import (
    DenseState,
    InvalidStateError,
    TwoQubitXState,
    embed_dense,
)
from hawksteer.selfcheck import random_xstates
from hawksteer.steering_ent import (
    BRANCH_CORNER,
    BRANCH_INNER,
    concurrence_oracle,
    concurrence_xstate,
    steerability_ent,
    tau_states,
    witness_thresholds,
)

SQRT3 = math.sqrt(3.0)
BELL = TwoQubitXState(0.5, 0.0, 0.0, 0.5, c14=0.5, c23=0.0)
MIXED = TwoQubitXState(0.25, 0.25, 0.25, 0.25, c14=0.0, c23=0.0)


def hawking_reduction(x: float, pair: str) -> TwoQubitXState:
    """Two-mode reductions at omega/T = x, written out from first principles."""
    c_sq = 1.0 / (math.exp(-x) + 1.0)
    s_sq = 1.0 / (math.exp(x) + 1.0)
    c, s = math.sqrt(c_sq), math.sqrt(s_sq)
    if pair == "AB":
        return TwoQubitXState(c_sq / 2, s_sq / 2, 0.0, 0.5, c14=c / 2, c23=0.0)
    if pair == "ABbar":
        return TwoQubitXState(c_sq / 2, s_sq / 2, 0.5, 0.0, c14=0.0, c23=s / 2)
    return TwoQubitXState(c_sq / 2, 0.0, 0.5, s_sq / 2, c14=c * s / 2, c23=0.0)


class TestRandomXStates:
    def test_float_fields_equal_the_float64_draws(self):
        # The same draws as with np.float64 fields, handed over as Python floats.
        for seed in (0, 7, 20240817):
            rng = np.random.default_rng(seed)
            want = []
            for _ in range(100):
                pops = rng.dirichlet(np.ones(4))
                c14 = rng.uniform(-1.0, 1.0) * np.sqrt(pops[0] * pops[3])
                c23 = rng.uniform(-1.0, 1.0) * np.sqrt(pops[1] * pops[2])
                want.append(TwoQubitXState(*pops, c14=c14, c23=c23))
            got = random_xstates(100, seed)
            assert got == want, seed
            for s in got:
                assert all(type(getattr(s, f.name)) is float for f in dataclasses.fields(s))


class TestConcurrence:
    def test_bell(self):
        assert concurrence_xstate(BELL) == 1.0
        assert concurrence_oracle(embed_dense(BELL)) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        s = TwoQubitXState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert concurrence_xstate(s) == 0.0
        assert concurrence_oracle(embed_dense(s)) == 0.0

    def test_ab_reduction_closed_form(self):
        for x in (0.3, 1.0, 4.0):
            c = 1.0 / math.sqrt(math.exp(-x) + 1.0)
            got = concurrence_xstate(hawking_reduction(x, "AB"))
            assert got == pytest.approx(c, abs=1e-14)

    def test_bbbar_reduction_closed_form(self):
        for x in (0.3, 1.0, 4.0):
            cs = 1.0 / math.sqrt(math.exp(x) + math.exp(-x) + 2.0)
            got = concurrence_xstate(hawking_reduction(x, "BBbar"))
            assert got == pytest.approx(cs, abs=1e-14)

    def test_oracle_on_abbar_at_unit_ratio(self):
        s = hawking_reduction(1.0, "ABbar")
        want = 1.0 / math.sqrt(math.exp(1.0) + 1.0)  # ~0.5186
        assert want == pytest.approx(0.5186, abs=1e-4)
        assert concurrence_oracle(embed_dense(s)) == pytest.approx(want, abs=1e-10)
        assert concurrence_xstate(s) == pytest.approx(want, abs=1e-12)

    def test_oracle_matches_closed_form_randomly(self):
        for s in random_xstates(300):
            closed = concurrence_xstate(s)
            oracle = concurrence_oracle(embed_dense(s))
            assert abs(closed - oracle) <= 1e-10

    def test_oracle_rejects_wrong_dim(self):
        with pytest.raises(InvalidStateError):
            concurrence_oracle(DenseState(np.eye(2) / 2))


class TestWitnessThresholds:
    def test_bell(self):
        q = witness_thresholds(BELL)
        assert q.qa == pytest.approx((2.0 - SQRT3) / 8.0, abs=1e-15)
        assert q.qb == 0.0
        assert q.qc == pytest.approx((2.0 + SQRT3) / 8.0, abs=1e-15)

    def test_maximally_mixed(self):
        # (2-sqrt3)/32 + (2+sqrt3)/32 + (1/4)(1/2)(1/2) = 1/8 + 1/16 = 3/16.
        q = witness_thresholds(MIXED)
        assert q.qa == pytest.approx(3.0 / 16.0, abs=1e-15)
        assert q.qb == 0.0
        assert q.qc == pytest.approx(3.0 / 16.0, abs=1e-15)

    def test_ab_reduction_high_temperature(self):
        s = TwoQubitXState(0.25, 0.25, 0.0, 0.5, c14=0.5 / math.sqrt(2.0), c23=0.0)
        q = witness_thresholds(s)
        assert q.qb == pytest.approx(-1.0 / 64.0, abs=1e-15)

    def test_sum_identity(self):
        # qa + qc has no sqrt(3) part.
        for s in random_xstates(200):
            q = witness_thresholds(s)
            want = (2.0 * (s.p11 * s.p44 + s.p22 * s.p33)
                    + 0.5 * (s.p11 + s.p44) * (s.p22 + s.p33))
            assert q.qa + q.qc == pytest.approx(want, abs=1e-12)

    def test_nonnegative_on_valid_states(self):
        for s in random_xstates(500):
            q = witness_thresholds(s)
            assert q.qa >= 0.0
            assert q.qc >= 0.0


class TestSteerability:
    def test_bell_normalized_to_one(self):
        rep = steerability_ent(BELL)
        assert rep.t_ab == pytest.approx(1.0, abs=1e-12)
        assert rep.t_ba == pytest.approx(1.0, abs=1e-12)
        assert rep.delta == pytest.approx(0.0, abs=1e-12)
        assert rep.branch_ab == BRANCH_CORNER

    def test_ab_reduction_closed_forms(self):
        for x in (0.3, 1.0, 4.0):
            c_sq = 1.0 / (math.exp(-x) + 1.0)
            s_sq = 1.0 - c_sq
            rep = steerability_ent(hawking_reduction(x, "AB"))
            assert rep.t_ab == pytest.approx(c_sq - c_sq * s_sq / SQRT3, abs=1e-12)
            assert rep.t_ba == pytest.approx(c_sq - s_sq / SQRT3, abs=1e-12)

    def test_bbbar_reduction_closed_forms(self):
        for x in (0.2, 1.0, 5.0):
            c_sq = 1.0 / (math.exp(-x) + 1.0)
            s_sq = 1.0 - c_sq
            rep = steerability_ent(hawking_reduction(x, "BBbar"))
            assert rep.t_ab == pytest.approx(
                max(0.0, s_sq * (c_sq - 1.0 / SQRT3)), abs=1e-12)
            assert rep.t_ba == 0.0

    def test_abbar_inner_branch(self):
        rep = steerability_ent(hawking_reduction(1.0, "ABbar"))
        assert rep.branch_ab == BRANCH_INNER
        assert rep.t_ab > 0.0

    def test_exchange_symmetry_via_dense_swap(self):
        swap = np.eye(4)[[0, 2, 1, 3]]
        for s in random_xstates(200):
            m = embed_dense(s).matrix
            (swapped,) = qstate._xstates(DenseState(swap @ m @ swap).matrix[None])
            a, b = steerability_ent(s), steerability_ent(swapped)
            assert a.t_ab == b.t_ba
            assert a.t_ba == b.t_ab

    def test_steering_implies_entanglement(self):
        for s in random_xstates(1000):
            rep = steerability_ent(s)
            if rep.t_ab > 1e-10 or rep.t_ba > 1e-10:
                assert concurrence_xstate(s) > 0.0

    def test_bounded_by_one_empirically(self):
        for s in random_xstates(1000):
            rep = steerability_ent(s)
            assert rep.t_ab <= 1.0 + 1e-12
            assert rep.t_ba <= 1.0 + 1e-12


class TestTauStates:
    def test_bell_tau1_entries(self):
        tau1, _ = tau_states(BELL)
        k, w = SQRT3 / 3.0, (3.0 - SQRT3) / 12.0
        assert tau1.p11 == pytest.approx(k / 2 + w, abs=1e-15)
        assert tau1.p22 == pytest.approx(w, abs=1e-15)
        assert tau1.p33 == pytest.approx(w, abs=1e-15)
        assert tau1.p44 == pytest.approx(k / 2 + w, abs=1e-15)
        assert tau1.c14 == pytest.approx(k / 2, abs=1e-15)
        assert concurrence_xstate(tau1) > 0.0

    def test_maximally_mixed_is_fixed_point(self):
        tau1, tau2 = tau_states(MIXED)
        for tau in (tau1, tau2):
            for got in tau.populations:
                assert got == pytest.approx(0.25, abs=1e-15)
            assert tau.c14 == 0.0
            assert concurrence_xstate(tau) == 0.0

    def test_tau_states_are_valid(self):
        for s in random_xstates(200):
            # Construction validates: a tau state that broke the X-state
            # invariant would raise here.
            tau1, tau2 = tau_states(s)
            assert abs(sum(tau1.populations) - 1.0) <= 1e-12
            assert abs(sum(tau2.populations) - 1.0) <= 1e-12

    def test_ab_reduction_consistency_at_unit_ratio(self):
        s = hawking_reduction(1.0, "AB")
        tau1, _ = tau_states(s)
        rep = steerability_ent(s)
        assert rep.t_ba > 0.0
        assert concurrence_xstate(tau1) > 0.0

    def test_witness_quantifier_consistency(self):
        # tau1 entangled <-> B can steer A; tau2 <-> A can steer B.
        for s in random_xstates(1000):
            tau1, tau2 = tau_states(s)
            rep = steerability_ent(s)
            assert (rep.t_ba > 1e-10) == (concurrence_xstate(tau1) > 1e-10)
            assert (rep.t_ab > 1e-10) == (concurrence_xstate(tau2) > 1e-10)
