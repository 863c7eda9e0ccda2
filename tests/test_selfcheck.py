import numpy as np
from hypothesis import example, given, settings

from hawksteer import selfcheck
from hawksteer.qstate import TwoQubitXState, bloch_coefficients, embed_dense
from hawksteer.selfcheck import ORACLE_TOL
from hawksteer.steering_ent import concurrence_oracle, concurrence_xstate
from hawksteer.steering_entropy import (
    A_TO_B,
    B_TO_A,
    entropy_sum_closed_form,
    entropy_sum_from_oracle,
)
from test_steering_entropy import bits, xstates


def test_oracle_diffs_equal_per_state_loop():
    # The closed forms as one column per check give every diff the
    # per-state closed form gave, bit for bit, on selfcheck's own states.
    states = selfcheck.oracle_states()
    assert len(states) == 1600
    want_c = [concurrence_xstate(s) - concurrence_oracle(embed_dense(s)) for s in states]
    want_e = [[entropy_sum_closed_form(bloch_coefficients(s), direction)
               - entropy_sum_from_oracle(embed_dense(s), direction) for s in states]
              for direction in (A_TO_B, B_TO_A)]
    assert np.array_equal(bits(selfcheck.concurrence_diffs(states)), bits(want_c))
    assert np.array_equal(bits(selfcheck.entropy_diffs(states)), bits(want_e))


class TestOraclesMatchClosedForms:
    @settings(max_examples=300, deadline=None)
    @given(xstates())
    @example(TwoQubitXState(0.5, 0.0, 0.0, 0.5, c14=0.5, c23=0.0))  # Bell state
    @example(TwoQubitXState(0.25, 0.25, 0.25, 0.25, c14=0.0, c23=0.0))  # maximally mixed
    @example(TwoQubitXState(1.0, 0.0, 0.0, 0.0, c14=0.0, c23=0.0))  # a pure product state
    # An eigenvalue near 1e-15, uncoupled and coupled: flushed to zero, either
    # put the concurrence oracle off by ~1e-7.
    @example(TwoQubitXState(0.3333333333333322, 0.3333333333333322, 0.3333333333333322,
                            3.333333333333322e-15, c14=0.0, c23=-0.3333333333333322))
    @example(TwoQubitXState(0.38422033606318895, 7.287118825085238e-15, 0.28323087322658247,
                            0.3325487907102212, c14=0.16312381952198468,
                            c23=-2.5169362936540224e-09))
    # A roundoff-scale eigenvalue on the PSD boundary, which must count as zero.
    @example(TwoQubitXState(0.3584155161170136, 0.0, 0.3584155161170136, 0.2831689677659728,
                            c14=-0.31857832903410604, c23=0.0))
    def test_within_oracle_tol(self, s):
        d = embed_dense(s)
        assert abs(concurrence_oracle(d) - concurrence_xstate(s)) <= ORACLE_TOL
        b = bloch_coefficients(s)
        for direction in (A_TO_B, B_TO_A):
            diff = entropy_sum_from_oracle(d, direction) - entropy_sum_closed_form(b, direction)
            assert abs(diff) <= ORACLE_TOL, direction
