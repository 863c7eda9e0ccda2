import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawksteer import hawking
from hawksteer.hawking import (
    PAIRS,
    CriticalTemperatures,
    HawkingAmplitudes,
    HawkingParams,
    amplitudes,
    amplitudes_at,
    closed_form_ent,
    closed_form_entropy,
    closed_form_report,
    closed_form_report_from_amplitudes,
    critical_temperatures,
    monogamy_grid,
    monogamy_threshold,
    pipeline_columns,
    pipeline_report,
    reduced_xstate,
    reductions_at,
    tripartite_states,
)
from hawksteer.qstate import partial_traces
from hawksteer.selfcheck import ENT_FIELDS, ENTROPY_FIELDS, MONOGAMY_TOL, PIPELINE_TOL
from hawksteer.steering_ent import BRANCH_CORNER, BRANCH_INNER, steerability_ent
from hawksteer.steering_entropy import keep_above, steerability_entropy, steerability_from_sum

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
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="temperature"):
                HawkingParams(bad, 1.0)
            with pytest.raises(ValueError, match="omega"):
                HawkingParams(1.0, bad)


class TestTripartiteState:
    def test_structure(self):
        a = amplitudes(HawkingParams(1.0, 1.0))
        m = tripartite_states(a).matrix
        assert m[0, 6].real == pytest.approx(a.c_amp / 2, abs=1e-15)
        assert m[3, 6].real == pytest.approx(a.s_amp / 2, abs=1e-15)
        assert m[6, 6].real == pytest.approx(0.5, abs=1e-15)

    def test_purity(self):
        for t in (0.2, 1.0, 50.0):
            m = tripartite_states(amplitudes(HawkingParams(t, 1.0))).matrix
            assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-12)

    def test_frozen_limit_is_exact(self):
        # T = 0 is x = omega / T = inf: C is exactly 1.0 and S exactly +0.0, as floats.
        a = amplitudes_at(math.inf)
        assert type(a.c_amp) is float and type(a.s_amp) is float
        assert a.c_amp == 1.0 and a.s_amp == 0.0
        assert math.copysign(1.0, a.s_amp) == 1.0

    def test_frozen_limit_is_bell_pair(self):
        m = tripartite_states(amplitudes_at(math.inf)).matrix
        expect = np.zeros((8, 8))
        for i, j in ((0, 0), (0, 6), (6, 0), (6, 6)):
            expect[i, j] = 0.5
        assert np.array_equal(m.real, expect)

    def test_shared_matrix_is_read_only(self):
        # The memo shares one temperature's reductions: a tuple of frozen states.
        shared = reductions_at(amplitudes(HawkingParams(0.7, 1.0)))
        assert type(shared) is tuple and len(shared) == len(PAIRS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared[0].p11 = 0.0

    def test_pipeline_reports_independent_of_call_order(self):
        keys = [(float(t), pair) for t in np.geomspace(0.05, 50.0, 12) for pair in PAIRS]

        def report(t, pair):
            return bits(report_fields(pipeline_report(HawkingParams(t, 1.0), pair)))

        fresh = {}
        for key in keys:
            reductions_at.cache_clear()
            fresh[key] = report(*key)
        for order in (keys, sorted(keys, key=lambda k: (k[1], k[0])), keys[::-1]):
            reductions_at.cache_clear()
            for key in order:
                assert np.array_equal(report(*key), fresh[key]), key

    def test_memo_stays_bounded(self):
        first = reductions_at(amplitudes(HawkingParams(0.3, 1.0)))
        gone = weakref.ref(first[0])
        del first
        for t in np.geomspace(1.0, 1e3, 200):
            for pair in PAIRS:
                pipeline_report(HawkingParams(float(t), 1.0), pair)
        info = reductions_at.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        gc.collect()
        assert gone() is None


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


def separate_ab_abbar(a, pair):
    """Reference: the AB and ABbar closed forms written out one pair at a time.

    Returns the report fields in report_fields order and the branch.
    """
    xlg, sqrt3 = hawking._xlg, hawking.SQRT3
    c, s = a.c_amp, a.s_amp
    c2, s2 = c * c, s * s
    xc, xs = xlg(c2), xlg(s2)
    if pair == "AB":
        lp = xlg(1.0 + c) + xlg(1.0 - c)
        raw_ab = 0.25 * (2.0 * lp + xc + xs)
        raw_ba = 0.25 * (2.0 * lp - xlg(1.0 + s2) + xs)
        t_ab, t_ba, conc, branch = c2 - c2 * s2 / sqrt3, c2 - s2 / sqrt3, c, BRANCH_CORNER
    else:
        lp = xlg(1.0 + s) + xlg(1.0 - s)
        raw_ab = 0.25 * (2.0 * lp + xc + xs)
        raw_ba = 0.25 * (2.0 * lp - xlg(1.0 + c2) + xc)
        t_ab, t_ba, conc, branch = s2 - c2 * s2 / sqrt3, s2 - c2 / sqrt3, s, BRANCH_INNER
    i_ab, i_ba = 4.0 * raw_ab + 2.0, 4.0 * raw_ba + 2.0
    s_ab, s_ba = steerability_from_sum(i_ab), steerability_from_sum(i_ba)
    t_ab, t_ba = keep_above(t_ab, 0.0), keep_above(t_ba, 0.0)
    return (i_ab, i_ba, s_ab, s_ba, abs(s_ab - s_ba), t_ab, t_ba, abs(t_ab - t_ba), conc), branch


class TestSharedABBranch:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-320.0, 300.0), min_size=1, max_size=40))
    def test_equals_separate_formulas_bitwise(self, log_ratios):
        # T / omega log-uniform in [1e-320, 1e300]; Python floats divide 1 / 1e-320
        # to inf quietly, which is the frozen limit x = inf.
        xs = [1.0 / 10.0 ** u for u in log_ratios]
        inputs = [amplitudes_at(np.array(xs))] + [amplitudes_at(x) for x in xs]
        for pair in ("AB", "ABbar"):
            for a in inputs:
                rep = closed_form_report_from_amplitudes(a, pair)
                want, branch = separate_ab_abbar(a, pair)
                assert np.array_equal(bits(report_fields(rep)), bits(want)), pair
                assert (rep.ent.branch_ab, rep.ent.branch_ba) == (branch, branch), pair


class TestClosedFormHalves:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-320.0, 300.0), min_size=1, max_size=40))
    def test_halves_equal_full_report_bitwise(self, log_ratios):
        # Each half called as a critical finder step calls it, against the full
        # report's field: == and the same sign of zero, for floats and columns.
        # T / omega log-uniform in [1e-320, 1e300], plus the frozen limit.
        xs = [1.0 / 10.0 ** u for u in log_ratios]
        inputs = [amplitudes_at(math.inf), amplitudes_at(np.array(xs)),
                  *(amplitudes_at(x) for x in xs)]
        for a in inputs:
            for pair in PAIRS:
                full = closed_form_report_from_amplitudes(a, pair)
                for half, want in ((closed_form_entropy, full.entropy),
                                   (closed_form_ent, full.ent)):
                    got = half(a, pair, a.c_amp * a.c_amp, a.s_amp * a.s_amp)
                    for f in dataclasses.fields(want):
                        g, w = getattr(got, f.name), getattr(want, f.name)
                        assert type(g) is type(w), (pair, f.name)
                        if isinstance(w, str):
                            assert g == w, (pair, f.name)
                        else:
                            assert np.array_equal(g, w), (pair, f.name)
                            assert np.array_equal(bits(g), bits(w)), (pair, f.name)

    def test_halves_reject_unknown_pair(self):
        for half in (closed_form_entropy, closed_form_ent):
            with pytest.raises(ValueError, match="pair"):
                half(amplitudes_at(math.inf), "AA", 1.0, 0.0)


def field_types(values) -> tuple[type, ...]:
    return tuple(map(type, values))


class TestStackedPipeline:
    """pipeline_columns against pipeline_report, monogamy_grid against one-point grids:
    bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 64).flatmap(
               lambda n: st.lists(st.floats(-320.0, 300.0), min_size=n, max_size=n)),
           st.sampled_from([1.0, 0.37, 2.5]))
    def test_grid_equals_per_state_bitwise(self, log_ratios, omega):
        # Stack sizes drawn uniformly from 1..64, not lists' small-biased sizes.
        # T / omega log-uniform in [1e-320, 1e300].
        params = [HawkingParams(omega * 10.0 ** u, omega) for u in log_ratios]
        columns = pipeline_columns(params)
        assert list(columns) == list(PAIRS)
        for pair in PAIRS:
            col = columns[pair]
            assert col.pair == pair
            got = np.column_stack(report_fields(col))
            assert got.shape == (len(params), 9)
            for i, p in enumerate(params):
                want = pipeline_report(p, pair)
                assert np.array_equal(bits(got[i]), bits(report_fields(want)))
                assert (col.ent.branch_ab[i], col.ent.branch_ba[i]) == \
                    (want.ent.branch_ab, want.ent.branch_ba)
        for p, got in zip(params, monogamy_grid(params)):
            assert repr(got) == repr(monogamy_grid([p])[0])

    def test_grid_around_threshold(self):
        # r3 and r4 switch on just above T = omega / ln(sqrt 3).
        for omega in (1.0, 0.37):
            th = monogamy_threshold(omega)
            temps = [math.nextafter(th, 0.0), th, math.nextafter(th, math.inf),
                     *(th * np.geomspace(0.9, 1.1, 9))]
            params = [HawkingParams(float(t), omega) for t in temps]
            got = monogamy_grid(params)
            assert [repr(r) for r in got] == [repr(monogamy_grid([p])[0]) for p in params]
            assert [r.r3 is None for r in got] == [t <= th for t in temps]

    def test_empty_grid(self):
        columns = pipeline_columns([])
        assert list(columns) == list(PAIRS)
        assert all(len(field) == 0 for col in columns.values() for field in report_fields(col))
        assert monogamy_grid([]) == []


def sized_log_ratios(max_size: int = 64):
    """Lists of log10(T / omega), log-uniform in [-320, 300], sizes drawn uniformly from 1..max_size."""
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(st.floats(-320.0, 300.0), min_size=n, max_size=n))


class TestPipelineVsClosedForm:
    """The stacked pipeline against the closed-form column report, over the whole domain."""

    @settings(max_examples=40, deadline=None)
    @given(sized_log_ratios(), st.sampled_from([1.0, 0.37]))
    # T -> 0: S = 0, so the concurrence and log arguments hit exact zeros.
    @example([-320.0], 1.0)
    @example([-320.0, -5.0, -3.2, 0.0, 300.0], 0.37)
    def test_within_pipeline_tol(self, log_ratios, omega):
        params = [HawkingParams(omega * 10.0 ** u, omega) for u in log_ratios]
        columns = pipeline_columns(params)
        # Temperature by temperature, so the three pairs share remembered reductions.
        per_state = dict(zip(PAIRS, zip(*([pipeline_report(p, pair) for pair in PAIRS]
                                          for p in params))))
        closed = hawking.amplitudes_grid(params)
        for pair in PAIRS:
            want = closed_form_report_from_amplitudes(closed, pair)
            for half, fields in (("entropy", ENTROPY_FIELDS), ("ent", ENT_FIELDS)):
                for f in fields:
                    w = getattr(getattr(want, half), f)
                    got = [getattr(getattr(r, half), f) for r in per_state[pair]]
                    assert np.abs(np.asarray(got) - w).max() <= PIPELINE_TOL, (pair, f)
                    assert np.array_equal(bits(got), bits(getattr(getattr(columns[pair], half), f)))
            got = [r.concurrence for r in per_state[pair]]
            assert np.abs(np.asarray(got) - want.concurrence).max() <= PIPELINE_TOL, pair
            assert np.array_equal(bits(got), bits(columns[pair].concurrence))


class TestMonogamyAroundThreshold:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.sampled_from([1.0, 0.37]), st.floats(-3.0, 3.0).map(lambda u: 10.0 ** u)),
           st.lists(st.floats(-3.0, 3.0), max_size=61), st.randoms(use_true_random=False))
    def test_residuals_within_tol_and_r3_r4_from_threshold(self, omega, log_factors, rnd):
        # A grid through T = omega / ln(sqrt 3) and its float neighbours, the
        # rest log-uniform within three decades of it, in random order.
        th = monogamy_threshold(omega)
        temps = [math.nextafter(th, 0.0), th, math.nextafter(th, math.inf),
                 *(th * 10.0 ** u for u in log_factors)]
        rnd.shuffle(temps)
        residuals = monogamy_grid([HawkingParams(t, omega) for t in temps])
        for t, r in zip(temps, residuals):
            assert (r.r3 is None, r.r4 is None) == (t <= th, t <= th), t
            assert len(r.applicable) == (2 if t <= th else 4)
            assert max(abs(v) for v in r.applicable) <= MONOGAMY_TOL, (t, r)


def directional_bits(s) -> tuple[np.ndarray, np.ndarray]:
    """Bits of (i, s, t) for A->B and for B->A."""
    e, t = steerability_entropy(s), steerability_ent(s)
    return bits((e.i_ab, e.s_ab, t.t_ab)), bits((e.i_ba, e.s_ba, t.t_ba))


class TestExchangeSymmetry:
    """Reversing a pair's kept order swaps every directional field, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-320.0, 300.0))
    def test_reversed_kept_order_swaps_directions(self, log_ratio):
        # T / omega log-uniform in [1e-320, 1e300], through the pipeline's gather.
        a = amplitudes(HawkingParams(10.0 ** log_ratio, 1.0))
        kept = [hawking._KEPT[pair] for pair in PAIRS]
        states = partial_traces(tripartite_states(HawkingAmplitudes(
            np.array([a.c_amp]), np.array([a.s_amp]))), *kept, *(k[::-1] for k in kept))
        for pair, fwd, rev in zip(PAIRS, states[:3], states[3:]):
            assert rev == fwd.swapped(), pair
            ab, ba = directional_bits(fwd)
            rev_ab, rev_ba = directional_bits(rev)
            assert np.array_equal(ab, rev_ba) and np.array_equal(ba, rev_ab), pair
            # The closed-form reduction, exchanged, swaps the same way.
            closed = reduced_xstate(a, pair)
            ab, ba = directional_bits(closed)
            rev_ab, rev_ba = directional_bits(closed.swapped())
            assert np.array_equal(ab, rev_ba) and np.array_equal(ba, rev_ab), pair


class TestExtremeRatios:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-320.0, 300.0))
    def test_fields_finite_and_in_range(self, log_ratio):
        # T / omega from subnormal to 1e300; T as np.float64, as sweep grids give it.
        p = HawkingParams(np.float64(10.0 ** log_ratio), 1.0)
        for pair in PAIRS:
            rep = closed_form_report(p, pair)
            e, t = rep.entropy, rep.ent
            assert math.isfinite(e.i_ab) and math.isfinite(e.i_ba), pair
            for v in (e.s_ab, e.s_ba, e.delta, t.t_ab, t.t_ba, t.delta, rep.concurrence):
                assert 0.0 <= v <= 1.0, (pair, v)


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
        # 1e305, 5e-324 and 1e-321 put an end of the scan grid [1e-3, 1e4] * omega
        # at inf or 0; 2.4e-312 and 1e-320 keep the grid positive, but the
        # bisection's xtol 1e-12 * omega underflows to 0.
        for omega in (-1.0, math.inf, math.nan, 1e305, 5e-324, 1e-321, 2.4e-312, 1e-320):
            with pytest.raises(ValueError, match="omega"):
                critical_temperatures(omega)

    def test_bracket_failures_are_reported(self, monkeypatch):
        # No steerability reaches 2, so nothing crosses the level: each birth
        # and the death report their bracket failure, while the peak is found.
        monkeypatch.setattr(hawking, "BIRTH_EPS", 2.0)
        ct = critical_temperatures(1.0)
        for pt in ct.points():
            kind = pt.name.split("_")[1]
            if kind == "peak":
                assert pt.error is None and pt.discrepancy <= 1e-6 * pt.closed_form
                continue
            assert pt.error == f"bracket failure: no {kind} in [1e-3, 1e4] * omega=1.0"
            assert math.isnan(pt.numeric) and pt.discrepancy is None, pt


# The admissible ends README states: 1e-12 * omega must stay > 0 (the
# bisection's xtol) and 1e4 * omega finite (the top of the scan grid).
OMEGA_MIN, OMEGA_MAX = 2.47032822921e-312, 1.7976931348623158e+304


class TestCriticalAdmissibleRange:
    def test_ends_are_the_last_admissible_omegas(self):
        assert 1e-12 * OMEGA_MIN > 0.0 and 1e4 * OMEGA_MAX < math.inf
        for outside in (math.nextafter(OMEGA_MIN, 0.0), math.nextafter(OMEGA_MAX, math.inf)):
            with pytest.raises(ValueError, match="omega"):
                critical_temperatures(outside)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None)
    @given(st.floats(math.log(OMEGA_MIN), math.log(OMEGA_MAX)).map(
        lambda u: min(max(math.exp(u), OMEGA_MIN), OMEGA_MAX)))
    @example(OMEGA_MIN)
    @example(OMEGA_MAX)
    def test_every_point_found(self, omega):
        # omega log-uniform over the whole admissible range; criterion 3's
        # tolerances, and the entropic A-bar -> A birth near 5.8021 omega.
        ct = critical_temperatures(omega)
        for pt in ct.points():
            assert pt.error is None and math.isfinite(pt.numeric), (omega, pt)
            if pt.closed_form is not None:
                assert pt.discrepancy <= 1e-6 * pt.closed_form, (omega, pt)
        birth = ct.t_birth_entropy_abar_to_a.numeric
        assert abs(birth - 5.8021 * omega) <= 1e-3 * (5.8021 * omega), omega


class TestMonogamy:
    def test_residuals_tiny_at_unit_temperature(self):
        [r] = monogamy_grid([HawkingParams(1.0, 1.0)])
        assert r.r3 is None and r.r4 is None  # T below omega/ln(sqrt 3)
        for v in r.applicable:
            assert abs(v) <= 1e-12

    def test_low_temperature_not_applicable(self):
        [r] = monogamy_grid([HawkingParams(0.1, 1.0)])
        assert r.r3 is None and r.r4 is None
        assert abs(r.r1) <= 1e-12 and abs(r.r2) <= 1e-12

    def test_high_temperature_all_four(self):
        [r] = monogamy_grid([HawkingParams(100.0, 1.0)])
        assert len(r.applicable) == 4
        for v in r.applicable:
            assert abs(v) <= 1e-12

    def test_threshold_value(self):
        assert monogamy_threshold(1.0) == pytest.approx(1.0 / math.log(SQRT3), abs=1e-15)

    def test_grid(self):
        params = [HawkingParams(float(t), 1.0) for t in np.geomspace(1e-2, 1e4, 50)]
        for r in monogamy_grid(params):
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
        r = closed_form_report_from_amplitudes(amplitudes_at(math.inf), "AB")
        assert r.entropy.s_ab == 1.0
        assert r.ent.t_ab == pytest.approx(1.0, abs=1e-12)
        assert r.concurrence == 1.0
