import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawksteer.hawking import (
    FROZEN,
    PAIRS,
    CriticalTemperatures,
    HawkingParams,
    amplitudes,
    amplitudes_at,
    closed_form_report,
    closed_form_report_from_amplitudes,
    critical_temperatures,
    monogamy_residuals,
    monogamy_threshold,
    pipeline_report,
    tripartite_state,
)

SQRT3 = math.sqrt(3.0)


class TestAmplitudes:
    def test_high_temperature_limit(self):
        a = amplitudes(HawkingParams(1e12, 1.0))
        assert a.c_amp ** 2 == pytest.approx(0.5, abs=1e-10)
        assert a.s_amp ** 2 == pytest.approx(0.5, abs=1e-10)

    def test_low_temperature_no_overflow(self):
        # omega/T = 800 would overflow exp(x); the small amplitude must
        # just underflow smoothly instead.
        a = amplitudes(HawkingParams(1.0 / 800.0, 1.0))
        assert a.c_amp == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < a.s_amp < 1e-80

    def test_unit_ratio(self):
        a = amplitudes(HawkingParams(1.0, 1.0))
        assert a.c_amp ** 2 == pytest.approx(1.0 / (math.exp(-1.0) + 1.0), abs=1e-15)
        assert a.c_amp ** 2 == pytest.approx(0.731059, abs=1e-6)

    def test_normalization(self):
        for t in np.geomspace(1e-3, 1e4, 50):
            a = amplitudes(HawkingParams(t, 1.0))
            assert a.c_amp ** 2 + a.s_amp ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_scale_invariance(self):
        assert amplitudes(HawkingParams(2.0, 1.0)) == amplitudes(HawkingParams(6.0, 3.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="temperature"):
            HawkingParams(0.0, 1.0)
        with pytest.raises(ValueError, match="omega"):
            HawkingParams(1.0, -1.0)

    def test_mass_relation(self):
        p = HawkingParams(0.5, 1.0)
        assert p.mass == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-15)


class TestTripartiteState:
    def test_structure(self):
        a = amplitudes(HawkingParams(1.0, 1.0))
        m = tripartite_state(a).matrix
        assert m[0, 6].real == pytest.approx(a.c_amp / 2, abs=1e-15)
        assert m[3, 6].real == pytest.approx(a.s_amp / 2, abs=1e-15)
        assert m[6, 6].real == pytest.approx(0.5, abs=1e-15)

    def test_purity(self):
        for t in (0.2, 1.0, 50.0):
            m = tripartite_state(amplitudes(HawkingParams(t, 1.0))).matrix
            assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-12)

    def test_frozen_limit_is_bell_pair(self):
        m = tripartite_state(FROZEN).matrix
        expect = np.zeros((8, 8))
        for i, j in ((0, 0), (0, 6), (6, 0), (6, 6)):
            expect[i, j] = 0.5
        assert np.array_equal(m.real, expect)


class TestClosedFormVsPipeline:
    @pytest.mark.parametrize("t,pair", [(1.0, "AB"), (3.0, "ABbar"), (0.5, "BBbar")])
    def test_agreement(self, t, pair):
        p = HawkingParams(t, 1.0)
        a, b = closed_form_report(p, pair), pipeline_report(p, pair)
        for f in ("i_ab", "i_ba", "s_ab", "s_ba", "delta"):
            assert getattr(a.entropy, f) == pytest.approx(getattr(b.entropy, f),
                                                          abs=1e-10)
        for f in ("t_ab", "t_ba", "delta"):
            assert getattr(a.ent, f) == pytest.approx(getattr(b.ent, f), abs=1e-10)
        assert a.concurrence == pytest.approx(b.concurrence, abs=1e-10)

    def test_unknown_pair(self):
        with pytest.raises(ValueError, match="pair"):
            closed_form_report(HawkingParams(1.0, 1.0), "AA")
        with pytest.raises(ValueError, match="pair"):
            pipeline_report(HawkingParams(1.0, 1.0), "AA")


def report_fields(rep):
    e, t = rep.entropy, rep.ent
    return (e.i_ab, e.i_ba, e.s_ab, e.s_ba, e.delta, t.t_ab, t.t_ba, t.delta,
            rep.concurrence)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestColumnarKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=40))
    def test_columns_equal_float_kernel_bitwise(self, log_ratios):
        ratios = [10.0 ** u for u in log_ratios]  # T / omega, log-uniform
        cols = amplitudes_at(1.0 / np.array(ratios))
        amps = [amplitudes(HawkingParams(r, 1.0)) for r in ratios]
        assert np.array_equal(bits(cols.c_amp), bits([a.c_amp for a in amps]))
        assert np.array_equal(bits(cols.s_amp), bits([a.s_amp for a in amps]))
        for pair in PAIRS:
            col = closed_form_report_from_amplitudes(cols, pair)
            rows = [closed_form_report_from_amplitudes(a, pair) for a in amps]
            assert np.array_equal(bits(np.array(report_fields(col)).T),
                                  bits([report_fields(r) for r in rows])), pair
            assert {(r.ent.branch_ab, r.ent.branch_ba) for r in rows} == {
                (col.ent.branch_ab, col.ent.branch_ba)}


@pytest.fixture(scope="module")
def crit() -> CriticalTemperatures:
    return critical_temperatures(1.0)


class TestCriticalTemperatures:

    def test_ent_birth_closed_form(self, crit):
        p = crit.t_birth_ent_abar_to_a
        assert p.closed_form == pytest.approx(1.0 / math.log(SQRT3), abs=1e-12)
        assert p.closed_form == pytest.approx(1.8205, abs=1e-4)
        assert p.discrepancy <= 1e-6 * p.closed_form

    def test_peak_closed_form(self, crit):
        p = crit.t_peak_bbbar
        assert p.closed_form == pytest.approx(1.0 / math.log(2.0 + SQRT3), abs=1e-12)
        assert p.closed_form == pytest.approx(0.7593, abs=1e-4)
        assert p.discrepancy <= 1e-6 * p.closed_form

    def test_death_closed_form(self, crit):
        p = crit.t_death_bbbar
        assert p.closed_form == pytest.approx(-1.0 / math.log(SQRT3 - 1.0), abs=1e-12)
        assert p.closed_form == pytest.approx(3.20610, abs=1e-5)
        assert p.discrepancy <= 1e-6 * p.closed_form

    def test_entropy_births_numeric_only(self, crit):
        a = crit.t_birth_entropy_abar_to_a
        b = crit.t_birth_entropy_a_to_abar
        assert a.closed_form is None and b.closed_form is None
        assert a.numeric == pytest.approx(5.8021, rel=1e-3)
        assert b.numeric == pytest.approx(1.0734509, rel=1e-6)

    def test_omega_scaling(self, crit):
        doubled = critical_temperatures(2.0)
        for p1, p2 in zip(crit.points(), doubled.points()):
            assert p2.numeric == pytest.approx(2.0 * p1.numeric, rel=1e-9)

    def test_rejects_bad_omega(self):
        for omega in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="omega"):
                critical_temperatures(omega)


class TestMonogamy:
    def test_residuals_tiny_at_unit_temperature(self):
        r = monogamy_residuals(HawkingParams(1.0, 1.0))
        assert r.r3 is None and r.r4 is None  # T below omega/ln(sqrt 3)
        for v in r.applicable:
            assert abs(v) <= 1e-12

    def test_low_temperature_not_applicable(self):
        r = monogamy_residuals(HawkingParams(0.1, 1.0))
        assert r.r3 is None and r.r4 is None
        assert abs(r.r1) <= 1e-12 and abs(r.r2) <= 1e-12

    def test_high_temperature_all_four(self):
        r = monogamy_residuals(HawkingParams(100.0, 1.0))
        assert len(r.applicable) == 4
        for v in r.applicable:
            assert abs(v) <= 1e-12

    def test_threshold_value(self):
        assert monogamy_threshold(1.0) == pytest.approx(1.0 / math.log(SQRT3), abs=1e-15)

    def test_grid(self):
        for t in np.geomspace(1e-2, 1e4, 50):
            r = monogamy_residuals(HawkingParams(float(t), 1.0))
            for v in r.applicable:
                assert abs(v) <= 1e-12


class TestPhysicalInvariants:
    GRID = np.geomspace(0.05, 1e3, 120)

    def reports(self, pair):
        return [closed_form_report(HawkingParams(float(t), 1.0), pair)
                for t in self.GRID]

    def test_ab_degrades_monotonically(self):
        for field, group in (("s_ab", "entropy"), ("s_ba", "entropy"),
                             ("t_ab", "ent"), ("t_ba", "ent")):
            vals = [getattr(getattr(r, group), field) for r in self.reports("AB")]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_ab_directional_ordering(self):
        # Alice holds the undisturbed mode, so A -> B never loses to B -> A.
        for r in self.reports("AB"):
            assert r.ent.t_ab >= r.ent.t_ba - 1e-12
            assert r.entropy.s_ab >= r.entropy.s_ba - 1e-12

    def test_abbar_grows_monotonically(self):
        for field, group in (("s_ab", "entropy"), ("t_ab", "ent")):
            vals = [getattr(getattr(r, group), field) for r in self.reports("ABbar")]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_ent_births_before_entropy(self):
        # The entanglement-based quantifier is the more sensitive one:
        # along ABbar it turns on at a lower temperature in each direction.
        for r in self.reports("ABbar"):
            if r.entropy.s_ab > 1e-12:
                assert r.ent.t_ab > 1e-12
            if r.entropy.s_ba > 1e-12:
                assert r.ent.t_ba > 1e-12

    def test_bbbar_unimodal(self):
        vals = [r.ent.t_ab for r in self.reports("BBbar")]
        peak = int(np.argmax(vals))
        assert 0 < peak < len(vals) - 1
        rising, falling = vals[:peak + 1], vals[peak:]
        assert all(a <= b + 1e-12 for a, b in zip(rising, rising[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(falling, falling[1:]))

    def test_asymptotic_pairing(self):
        # As T -> inf the AB and ABbar reductions become the same state.
        ab = closed_form_report(HawkingParams(1e6, 1.0), "AB")
        abbar = closed_form_report(HawkingParams(1e6, 1.0), "ABbar")
        assert ab.entropy.s_ab == pytest.approx(abbar.entropy.s_ab, abs=1e-5)
        assert ab.ent.t_ab == pytest.approx(abbar.ent.t_ab, abs=1e-5)
        assert ab.concurrence == pytest.approx(abbar.concurrence, abs=1e-5)

    def test_concurrence_identities(self):
        for t in self.GRID:
            reps = {pair: closed_form_report(HawkingParams(float(t), 1.0), pair)
                    for pair in PAIRS}
            cab, cabbar = reps["AB"].concurrence, reps["ABbar"].concurrence
            assert cab ** 2 + cabbar ** 2 == pytest.approx(1.0, abs=1e-12)
            assert reps["BBbar"].concurrence == pytest.approx(cab * cabbar, abs=1e-12)

    def test_frozen_amplitudes_give_bell_measures(self):
        r = closed_form_report_from_amplitudes(FROZEN, "AB")
        assert r.entropy.s_ab == 1.0
        assert r.ent.t_ab == pytest.approx(1.0, abs=1e-12)
        assert r.concurrence == 1.0
