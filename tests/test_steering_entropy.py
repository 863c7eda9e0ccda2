import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import swapped
from hawksteer import steering_entropy
from hawksteer.hawking import PAIRS, amplitudes_at, reductions_at
from hawksteer.qstate import TwoQubitXState, XStateColumns, bloch_coefficients, embed_dense
from hawksteer.selfcheck import random_xstates, reduced_state_population
from hawksteer.steering_ent import concurrence_xstate, steerability_ent
from hawksteer.steering_entropy import (
    A_TO_B,
    B_TO_A,
    STEER_FLUSH,
    BlochXCoefficients,
    entropy_sum_closed_form,
    entropy_sum_from_oracle,
    entropy_sum_oracle,
    oracle_affine_calibration,
    steerability_entropy,
)

BELL = TwoQubitXState(0.5, 0.0, 0.0, 0.5, c14=0.5, c23=0.0)
MIXED = TwoQubitXState(0.25, 0.25, 0.25, 0.25, c14=0.0, c23=0.0)


def hawking_ab_state(x: float) -> TwoQubitXState:
    """The Alice-Bob reduction at omega/T = x, built from first principles."""
    c_sq = 1.0 / (math.exp(-x) + 1.0)
    return TwoQubitXState(c_sq / 2, (1 - c_sq) / 2, 0.0, 0.5,
                          c14=math.sqrt(c_sq) / 2, c23=0.0)


SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def shannon(p):
    p = np.clip(np.asarray(p, dtype=float).ravel(), 0.0, None)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def loop_entropy_sum_oracle(d, direction):
    """Reference oracle: one projector product and one trace per outcome pair."""
    total = 0.0
    eye = np.eye(2)
    for axis in "xyz":
        projs = [0.5 * (eye + SIGMA[axis]), 0.5 * (eye - SIGMA[axis])]
        joint = np.empty((2, 2))
        for a in range(2):
            for b in range(2):
                joint[a, b] = np.trace(d.matrix @ np.kron(projs[a], projs[b])).real
        if direction == B_TO_A:
            joint = joint.T
        total += shannon(joint) - shannon(joint.sum(axis=1))
    return total


class TestClosedForm:
    def test_bell_gives_six(self):
        b = bloch_coefficients(BELL)
        assert entropy_sum_closed_form(b, A_TO_B) == pytest.approx(6.0, abs=1e-12)
        assert entropy_sum_closed_form(b, B_TO_A) == pytest.approx(6.0, abs=1e-12)

    def test_maximally_mixed_vs_oracle(self):
        # The closed form gives 0 here while the raw conditional-entropy sum
        # is 3 bits; the two are reconciled by the calibrated affine map.
        b = bloch_coefficients(MIXED)
        d = embed_dense(MIXED)
        assert entropy_sum_closed_form(b, A_TO_B) == pytest.approx(0.0, abs=1e-12)
        assert entropy_sum_oracle(d, A_TO_B) == pytest.approx(3.0, abs=1e-12)
        assert entropy_sum_from_oracle(d, A_TO_B) == pytest.approx(0.0, abs=1e-10)

    def test_hawking_state_matches_oracle(self):
        s = hawking_ab_state(1.0)
        for direction in (A_TO_B, B_TO_A):
            closed = entropy_sum_closed_form(bloch_coefficients(s), direction)
            mapped = entropy_sum_from_oracle(embed_dense(s), direction)
            assert closed == pytest.approx(mapped, abs=1e-10)

    def test_result_bounded_by_six(self):
        for s in random_xstates(100):
            v = entropy_sum_closed_form(bloch_coefficients(s), A_TO_B)
            assert v <= 6.0 + 1e-12

    def test_out_of_range_coefficient(self):
        bad = BlochXCoefficients(c1=1.5, c2=0.0, c3=0.0, p=0.0, q=0.0)
        with pytest.raises(ValueError, match="coefficient out of range"):
            entropy_sum_closed_form(bad, A_TO_B)

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            entropy_sum_closed_form(bloch_coefficients(BELL), "sideways")


class TestOracle:
    def test_bell_measures_zero_conditional_entropy(self):
        # Perfectly correlated outcomes on every axis.
        assert entropy_sum_oracle(embed_dense(BELL)) == pytest.approx(0.0, abs=1e-12)

    def test_product_state_saturates_bound(self):
        s = TwoQubitXState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert entropy_sum_oracle(embed_dense(s)) == pytest.approx(2.0, abs=1e-12)

    def test_calibration_is_affine_minus_two(self):
        slope, intercept = oracle_affine_calibration()
        assert slope == pytest.approx(-2.0, abs=1e-12)
        assert intercept == pytest.approx(6.0, abs=1e-12)

    def test_calibration_is_exact(self):
        assert oracle_affine_calibration() == (-2.0, 6.0)

    def test_stacked_oracle_equals_loop_bitwise(self):
        for s in random_xstates(500) + reduced_state_population():
            d = embed_dense(s)
            for direction in (A_TO_B, B_TO_A):
                assert entropy_sum_oracle(d, direction) == loop_entropy_sum_oracle(d, direction)

    def test_rejects_negative_probability(self):
        from hawksteer.qstate import DenseState
        # Passes the eigenvalue tolerance, but its |01> population is below LOG_CLAMP.
        m = np.diag([0.5, -1e-11, 0.25, 0.25 + 1e-11])
        with pytest.raises(ValueError, match="probability -1.000e-11"):
            entropy_sum_oracle(DenseState(m))

    def test_rejects_wrong_dim(self):
        from hawksteer.qstate import DenseState
        with pytest.raises(ValueError):
            entropy_sum_oracle(DenseState(np.eye(2) / 2))


class TestSteerability:
    def test_bell_normalized_to_one(self):
        rep = steerability_entropy(BELL)
        assert rep.s_ab == 1.0
        assert rep.s_ba == 1.0
        assert rep.delta == 0.0

    def test_high_temperature_asymptote(self):
        # C^2 = S^2 = 1/2 limit of the Alice-Bob reduction.
        c = 1.0 / math.sqrt(2.0)
        s = TwoQubitXState(0.25, 0.25, 0.0, 0.5, c14=c / 2, c23=0.0)
        rep = steerability_entropy(s)
        # Frozen from a 30-digit evaluation of the same expressions.
        assert rep.s_ab == pytest.approx(0.149123963307143899, abs=1e-12)
        assert rep.s_ba == pytest.approx(0.054763025536710331, abs=1e-12)
        assert rep.delta == pytest.approx(0.0944, abs=5e-4)

    def test_separable_diagonal_states_unsteerable(self):
        for pops in ((1.0, 0.0, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25),
                     (0.4, 0.1, 0.3, 0.2)):
            rep = steerability_entropy(TwoQubitXState(*pops, 0.0, 0.0))
            assert rep.s_ab == 0.0
            assert rep.s_ba == 0.0

    def test_never_negative(self):
        for s in random_xstates(200):
            rep = steerability_entropy(s)
            assert rep.s_ab >= 0.0
            assert rep.s_ba >= 0.0
            assert rep.delta >= 0.0

    def test_coherence_sign_flip_invariance(self):
        # Phase flip on one qubit negates both coherences; steering is blind to it.
        for s in random_xstates(100):
            flipped = TwoQubitXState(*s.populations, c14=-s.c14, c23=-s.c23)
            a, b = steerability_entropy(s), steerability_entropy(flipped)
            assert a.s_ab == pytest.approx(b.s_ab, abs=1e-12)
            assert a.s_ba == pytest.approx(b.s_ba, abs=1e-12)

    def test_swap_symmetry(self):
        # Exchanging the qubits maps (p, q) -> (q, p), i_ab <-> i_ba and s_ab <-> s_ba exactly.
        for s in random_xstates(100):
            a = steerability_entropy(s)
            b = steerability_entropy(swapped(s))
            assert a.i_ab == b.i_ba
            assert a.i_ba == b.i_ab
            assert a.s_ab == b.s_ba
            assert a.s_ba == b.s_ab
            assert a.delta == b.delta


def xlogx(x):
    """x log2 x of one float, one np.log2 call each, clamped and checked as in the closed form."""
    if x <= 0.0:
        if x < -steering_entropy.LOG_CLAMP:
            raise ValueError(f"coefficient out of range: log argument {x:.3e}")
        return 0.0
    return x * np.log2(x)


def pair(c):
    return xlogx(1.0 + c) + xlogx(1.0 - c)


def old_closed_form(b, direction):
    """One direction's sum as it was evaluated on its own, every term recomputed."""
    quad = 0.5 * math.fsum((
        xlogx((1.0 + b.c3) + (b.p + b.q)),
        xlogx((1.0 + b.c3) - (b.p + b.q)),
        xlogx((1.0 - b.c3) + (b.q - b.p)),
        xlogx((1.0 - b.c3) + (b.p - b.q)),
    ))
    local = b.p if direction == A_TO_B else b.q
    return math.fsum((quad, pair(b.c1), pair(b.c2), -pair(local)))


def outcome(fn, *args):
    """fn(*args) as ("value", bits) or ("error", message)."""
    try:
        return "value", np.array(fn(*args), dtype=np.float64).view(np.int64).tolist()
    except ValueError as exc:
        return "error", str(exc)


def xstates():
    """Random, rank-deficient and boundary X-states, and pipeline reductions.

    Populations reach down to subnormal, so eigenvalues sit anywhere between
    exact zero and the bulk.
    """
    def build(raw, zeros, f14, f23):
        raw = [0.0 if z else r for r, z in zip(raw, zeros)]
        if sum(raw) == 0.0:
            raw[0] = 1.0
        pops = [r / sum(raw) for r in raw]
        return TwoQubitXState(*pops, c14=f14 * math.sqrt(pops[0] * pops[3]),
                              c23=f23 * math.sqrt(pops[1] * pops[2]))

    # +-1 puts a coherence on its PSD boundary |c14| = sqrt(p11 p44).
    frac = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0]))
    pops = st.tuples(*[st.floats(0.0, 1.0)] * 4)
    zeros = st.one_of(st.just((False,) * 4), st.tuples(*[st.booleans()] * 4))
    # T / omega log-uniform in [1e-320, 1e300]; below ~1e-308, omega / T is inf,
    # the frozen limit.
    reduction = st.builds(
        lambda u, k: reductions_at(amplitudes_at(1.0 / 10.0 ** u))[k],
        st.floats(-320.0, 300.0), st.integers(0, len(PAIRS) - 1))
    return st.one_of(st.builds(build, pops, zeros, frac, frac), reduction)


class TestSharedTerms:
    """Both directions from one evaluation of the terms they share."""

    @settings(max_examples=300, deadline=None)
    @given(xstates())
    def test_report_equals_per_direction_closed_form(self, s):
        b = bloch_coefficients(s)
        rep = steerability_entropy(s)
        assert rep.i_ab == entropy_sum_closed_form(b, A_TO_B) == old_closed_form(b, A_TO_B)
        assert rep.i_ba == entropy_sum_closed_form(b, B_TO_A) == old_closed_form(b, B_TO_A)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.one_of(st.floats(-2.5, 2.5),
                                 st.sampled_from([-1.0, 1.0, 1.0 + 1e-12, -1.0 - 1e-11]))] * 5))
    def test_first_failing_term_raises_in_old_order(self, fields):
        # Out-of-range log arguments fail in the old order: quad, c1, c2, p, q.
        # (A p or q beyond +-1 already puts a quad argument below zero.)
        b = BlochXCoefficients(*fields)

        def both_old(b):
            return [old_closed_form(b, A_TO_B), old_closed_form(b, B_TO_A)]

        def both_new(b):
            # steerability_entropy's own path, fed coefficients no valid state has.
            with mock.patch.object(steering_entropy, "bloch_coefficients", lambda s: b):
                rep = steerability_entropy(BELL)
            return [rep.i_ab, rep.i_ba]

        assert outcome(both_new, b) == outcome(both_old, b)
        for direction in (A_TO_B, B_TO_A):
            assert outcome(entropy_sum_closed_form, b, direction) == \
                outcome(old_closed_form, b, direction)


SQRT3 = math.sqrt(3.0)


def reference_measures(s):
    """The one-state measures as first written: per-term np.log2, max() and if/else.

    The nine numbers of a BipartitionReport.
    """
    b = bloch_coefficients(s)
    i_ab, i_ba = old_closed_form(b, A_TO_B), old_closed_form(b, B_TO_A)
    s_ab, s_ba = ((i - 2.0) / 4.0 for i in (i_ab, i_ba))
    s_ab, s_ba = (x if x > STEER_FLUSH else 0.0 for x in (s_ab, s_ba))
    corner, inner = s.p11 * s.p44, s.p22 * s.p33
    cross = 0.25 * (s.p11 + s.p44) * (s.p22 + s.p33)
    qa = 0.5 * (2.0 - SQRT3) * corner + 0.5 * (2.0 + SQRT3) * inner + cross
    qb = 0.25 * (s.p11 - s.p44) * (s.p22 - s.p33)
    qc = 0.5 * (2.0 + SQRT3) * corner + 0.5 * (2.0 - SQRT3) * inner + cross
    t = []
    for sign in (-1.0, 1.0):
        c = 8.0 / SQRT3 * (s.c14 * s.c14 - qa + sign * qb)
        i = 8.0 / SQRT3 * (s.c23 * s.c23 - qc + sign * qb)
        t.append(max(0.0, c) if c >= i else max(0.0, i))
    conc = 2.0 * max(abs(s.c14) - np.sqrt(s.p22 * s.p33), abs(s.c23) - np.sqrt(s.p11 * s.p44), 0.0)
    return i_ab, i_ba, s_ab, s_ba, abs(s_ab - s_ba), t[0], t[1], abs(t[0] - t[1]), conc


def measures(s):
    """The same from steerability_entropy, steerability_ent and concurrence_xstate."""
    e, w = steerability_entropy(s), steerability_ent(s)
    return (e.i_ab, e.i_ba, e.s_ab, e.s_ba, e.delta, w.t_ab, w.t_ba, w.delta,
            concurrence_xstate(s))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_column_equals_per_state(states):
    values = measures(XStateColumns.of(states))
    for v in values:
        assert isinstance(v, np.ndarray) and v.shape == (len(states),)
        assert v.dtype == np.float64
    rows = [measures(s) for s in states]
    for s, got in zip(states, rows):
        want = reference_measures(s)
        assert np.array_equal(bits(got), bits(want)), s
        assert tuple(map(type, got)) == tuple(map(type, want)), s
    assert np.array_equal(bits(np.array(values).T),
                          bits(np.reshape(rows, (-1, len(values)))))


class TestColumnMeasures:
    """The measures of N states as one column against each state's, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(xstates(), min_size=1, max_size=40))
    def test_random_rank_deficient_boundary_and_reductions(self, states):
        assert_column_equals_per_state(states)
        # The swapped states measure the other direction.
        assert_column_equals_per_state([swapped(s) for s in states])

    def test_one_state_and_none(self):
        # MIXED clamps its concurrence and both witness values to 0.0.
        for states in ([MIXED], [BELL], [MIXED, BELL], []):
            assert_column_equals_per_state(states)

    def test_selfcheck_states(self):
        states = random_xstates(1000) + reduced_state_population()
        assert_column_equals_per_state(states + [swapped(s) for s in states])

    def test_nan_and_signed_zero_fields(self):
        # No validated state has them, but a column keeps one state's
        # semantics for NaN and -0.0 too (max(0.0, x) drops both).
        rows = [[0.5, 0.0, 0.0, 0.5, 0.5, 0.0], [0.5, -0.0, -0.0, 0.5, 0.5, -0.0],
                [-0.0, 0.5, 0.5, -0.0, -0.0, 0.5], [0.25, 0.25, 0.25, 0.25, math.nan, 0.0],
                [0.25, math.nan, 0.25, 0.25, 0.1, 0.1], [math.nan] * 6]
        values = measures(XStateColumns(*np.array(rows).T))
        for k, row in enumerate(rows):
            # One state's fields as floats, not validated.
            want = reference_measures(XStateColumns(*row))
            got = measures(XStateColumns(*row))
            assert np.array_equal(bits(got), bits(want)), row
            assert tuple(map(type, got)) == tuple(map(type, want)), row
            assert np.array_equal(bits([v[k] for v in values]), bits(want)), row

    @pytest.mark.parametrize("at", [0, 4, 9])
    def test_bad_state_raises_its_one_state_text(self, at):
        # c1's pair fails before c2's; the q after it fails on quad, an earlier
        # term, but in a later state.
        bad = BlochXCoefficients(c1=1.5, c2=1.7, c3=0.0, p=0.0, q=0.0)
        later = BlochXCoefficients(c1=0.0, c2=0.0, c3=0.0, p=0.0, q=2.0)
        good = [bloch_coefficients(s) for s in random_xstates(9)]
        rows = good[:at] + [bad] + ([later] if at < 9 else []) + good[at:]
        col = BlochXCoefficients(*np.array(rows).T)
        for direction in (A_TO_B, B_TO_A):
            want = outcome(old_closed_form, bad, direction)
            assert want[0] == "error"
            assert outcome(entropy_sum_closed_form, col, direction) == want

        def both(b):
            return [old_closed_form(b, A_TO_B), old_closed_form(b, B_TO_A)]

        def report(states):
            rep = steerability_entropy(states)
            return [rep.i_ab, rep.i_ba]

        with mock.patch.object(steering_entropy, "bloch_coefficients", lambda s: col):
            assert outcome(report, XStateColumns.of(random_xstates(len(rows)))) == \
                outcome(both, bad)
