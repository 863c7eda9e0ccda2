import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_dense_check, reference_xstate_fields, swapped
from hawksteer import qstate
from hawksteer.hawking import amplitudes_at, reduced_xstate, tripartite_states
from hawksteer.qstate import (
    MODES,
    POP_CLAMP,
    TRACE_TOL,
    DenseState,
    InvalidStateError,
    TwoQubitXState,
    bloch_coefficients,
    embed_dense,
    partial_traces,
)
from hawksteer.steering_ent import concurrence_oracle
from hawksteer.steering_entropy import entropy_sum_oracle

BELL = TwoQubitXState(0.5, 0.0, 0.0, 0.5, c14=0.5, c23=0.0)
MIXED = TwoQubitXState(0.25, 0.25, 0.25, 0.25, c14=0.0, c23=0.0)
THREE_PAIRS = (("A", "B"), ("A", "Bbar"), ("B", "Bbar"))


def valid_xstates():
    """Hypothesis strategy for valid X-states."""
    def build(raw, f14, f23):
        total = sum(raw)
        pops = [r / total for r in raw]
        return TwoQubitXState(
            *pops,
            c14=f14 * math.sqrt(pops[0] * pops[3]),
            c23=f23 * math.sqrt(pops[1] * pops[2]),
        )

    frac = st.floats(-1.0, 1.0, allow_nan=False)
    pop = st.floats(1e-3, 1.0, allow_nan=False)
    return st.builds(build, st.tuples(pop, pop, pop, pop), frac, frac)


def ulps(x: float) -> tuple[float, float, float]:
    """x and its two neighbouring floats."""
    return math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)


EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, *ulps(-POP_CLAMP), POP_CLAMP, 0.5, 1.0)
# p11 + p22 + p33 + p44 is exact for (t - 0.5, two of ZEROS, 0.5) with t near 1.
TRACES = tuple(v for t in (1.0 - TRACE_TOL, 1.0, 1.0 + TRACE_TOL) for v in ulps(t))
ZEROS = (0.0, -0.0, -POP_CLAMP, math.nextafter(-POP_CLAMP, 0.0))


@st.composite
def xstate_fields(draw):
    """Six X-state fields at the validator's edges: NaN, +-inf, +-0.0, -POP_CLAMP and its
    neighbours, traces within an ulp of 1 +- TRACE_TOL, |c| within an ulp of its limit."""
    value = st.one_of(st.sampled_from(EDGES), st.floats(-1.5, 1.5), st.floats())
    shape = draw(st.sampled_from(("free", "trace", "exact trace")))
    if shape == "exact trace":
        p22, p33 = draw(st.sampled_from(ZEROS)), draw(st.sampled_from(ZEROS))
        p11, p44 = draw(st.sampled_from(TRACES)) - 0.5, 0.5
    else:
        p11, p22, p33 = draw(value), draw(value), draw(value)
        p44 = draw(st.sampled_from(TRACES)) - (p11 + p22 + p33) if shape == "trace" \
            else draw(value)

    def coherence(a, b):
        clamped = [0.0 if -POP_CLAMP <= v < 0.0 else v for v in (a, b)]
        edge = math.sqrt(max(clamped[0], 0.0) * max(clamped[1], 0.0)) + POP_CLAMP
        return draw(st.one_of(value, st.sampled_from([s * v for v in ulps(edge)
                                                      for s in (1.0, -1.0)])))

    return p11, p22, p33, p44, coherence(p11, p44), coherence(p22, p33)


def outcome(build, *args):
    """("ok", result) of build(*args), or the type and message of the InvalidStateError or
    numpy RuntimeWarning (raised as an error) that stopped it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", build(*args)
        except (InvalidStateError, RuntimeWarning) as exc:
            return type(exc).__name__, str(exc)


class TestValidation:
    """The X-state invariant is checked once, when the state is built."""

    @settings(max_examples=1500, deadline=None)
    @given(xstate_fields(), st.booleans())
    # |c14| = inf within its limit (p11 = inf): no inf - inf, so no RuntimeWarning, for it.
    @example((math.inf, 0.0, 0.0, 0.5, math.inf, 0.0), True)
    def test_matches_reference_validator(self, fields, numpy_scalars):
        if numpy_scalars:
            fields = tuple(map(np.float64, fields))

        def stored(*args):
            return [(type(v), repr(v)) for v in dataclasses.astuple(TwoQubitXState(*args))]

        want = outcome(lambda *args: [(type(v), repr(v)) for v in reference_xstate_fields(*args)],
                       *fields)
        assert outcome(stored, *fields) == want

    def test_bell_ok(self):
        assert TwoQubitXState(*BELL.populations, c14=BELL.c14, c23=BELL.c23) == BELL

    def test_negative_population(self):
        with pytest.raises(InvalidStateError, match="negative population p22"):
            TwoQubitXState(1.1, -0.1, 0.0, 0.0, 0.0, 0.0)

    def test_psd_block_violation(self):
        with pytest.raises(InvalidStateError, match=r"PSD block violated: \|c14\|"):
            TwoQubitXState(0.5, 0.0, 0.0, 0.5, c14=0.6, c23=0.0)

    def test_trace_violation(self):
        with pytest.raises(InvalidStateError, match="trace != 1"):
            TwoQubitXState(0.5, 0.5, 0.5, 0.0, 0.0, 0.0)

    def test_noise_population_clamped(self):
        s = TwoQubitXState(0.5 + 5e-13, 0.0, -5e-13, 0.5, 0.0, 0.0)
        assert s.p33 == 0.0

    def test_nan_in_any_field_rejected(self):
        fields = ("p11", "p22", "p33", "p44", "c14", "c23")
        for name in fields:
            values = dict(zip(fields, (0.5, 0.0, 0.0, 0.5, 0.5, 0.0)))
            values[name] = math.nan
            with pytest.raises(InvalidStateError) as info:
                TwoQubitXState(**values)
            assert name in str(info.value), name

    def test_replace_revalidates(self):
        with pytest.raises(InvalidStateError, match="c14"):
            dataclasses.replace(BELL, c14=0.6)

    def test_all_diagnostics_in_order(self):
        with pytest.raises(InvalidStateError) as info:
            TwoQubitXState(0.6, 0.0, 0.0, 0.6, c14=0.7, c23=0.0)
        assert str(info.value) == (
            "trace != 1: residual 2.000e-01; "
            "PSD block violated: |c14| > sqrt(p11*p44) by 1.000e-01")


class TestBloch:
    def test_bell(self):
        b = bloch_coefficients(BELL)
        assert (b.c1, b.c2, b.c3, b.p, b.q) == (1.0, -1.0, 1.0, 0.0, 0.0)

    def test_maximally_mixed(self):
        b = bloch_coefficients(MIXED)
        assert (b.c1, b.c2, b.c3, b.p, b.q) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_hawking_ab_reduction_at_unit_ratio(self):
        # omega/T = 1: C^2 = 1/(e^-1 + 1), populations (C^2/2, S^2/2, 0, 1/2).
        c_sq = 1.0 / (math.exp(-1.0) + 1.0)
        c = math.sqrt(c_sq)
        s = TwoQubitXState(c_sq / 2, (1 - c_sq) / 2, 0.0, 0.5, c14=c / 2, c23=0.0)
        b = bloch_coefficients(s)
        assert b.c1 == pytest.approx(c, abs=1e-15)
        assert b.c2 == pytest.approx(-c, abs=1e-15)
        assert b.c3 == pytest.approx(c_sq, abs=1e-15)
        assert b.p == pytest.approx(0.0, abs=1e-15)
        assert b.q == pytest.approx(c_sq - 1.0, abs=1e-15)

    def test_rejects_invalid(self):
        with pytest.raises(InvalidStateError):
            bloch_coefficients(TwoQubitXState(0.5, 0.0, 0.0, 0.5, 0.6, 0.0))

    @given(valid_xstates(), valid_xstates(), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_affine_linearity(self, s1, s2, lam):
        mix = TwoQubitXState(
            *(lam * a + (1 - lam) * b
              for a, b in zip(s1.populations, s2.populations)),
            c14=lam * s1.c14 + (1 - lam) * s2.c14,
            c23=lam * s1.c23 + (1 - lam) * s2.c23,
        )
        bm = bloch_coefficients(mix)
        b1 = bloch_coefficients(s1)
        b2 = bloch_coefficients(s2)
        for f in ("c1", "c2", "c3", "p", "q"):
            expect = lam * getattr(b1, f) + (1 - lam) * getattr(b2, f)
            assert getattr(bm, f) == pytest.approx(expect, abs=1e-12)


class TestEmbedExtract:
    def test_bell_matrix(self):
        m = embed_dense(BELL).matrix
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[3, 3] = expect[0, 3] = expect[3, 0] = 0.5
        assert np.array_equal(m.real, expect)

    def test_maximally_mixed(self):
        assert np.array_equal(embed_dense(MIXED).matrix.real, np.eye(4) / 4)

    @given(valid_xstates())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_exact(self, s):
        xs = qstate._xstates(embed_dense(s).matrix[None])
        assert xs == [s]
        assert all(type(v) is float for v in dataclasses.astuple(xs[0]))

    def test_extract_rejects_off_pattern(self):
        m = np.eye(4) / 4 + 0.0j
        m[0, 1] = m[1, 0] = 1e-6
        with pytest.raises(InvalidStateError, match="non-X"):
            qstate._xstates(DenseState(m).matrix[None])


def one_trace(rho: DenseState, kept) -> TwoQubitXState:
    """partial_traces of one 8x8 matrix, as a stack of one, to one pair."""
    (red,) = partial_traces(DenseState(rho.matrix[None]), kept)
    return red


class TestPartialTrace:
    @pytest.mark.parametrize("kept,pair", [
        (("A", "B"), "AB"), (("A", "Bbar"), "ABbar"), (("B", "Bbar"), "BBbar"),
    ])
    def test_reductions_match_closed_forms(self, kept, pair):
        # 100-point grid: every reduction matches its analytic matrix.
        for t in np.geomspace(0.05, 100.0, 100):
            a = amplitudes_at(1.0 / t)
            got = one_trace(tripartite_states(a), kept)
            want = embed_dense(reduced_xstate(a, pair)).matrix
            assert np.max(np.abs(embed_dense(got).matrix - want)) <= 1e-12

    def test_trace_and_psd_preserved(self):
        for t in (0.3, 1.0, 7.0):
            rho = tripartite_states(amplitudes_at(1.0 / t))
            for kept in (("A", "B"), ("A", "Bbar"), ("B", "Bbar")):
                red = one_trace(rho, kept)
                assert sum(red.populations) == pytest.approx(1.0, abs=1e-12)
                m = embed_dense(red).matrix
                assert np.linalg.eigvalsh(m)[0] >= -1e-10

    def test_kept_order_swaps_qubits(self):
        rho = tripartite_states(amplitudes_at(0.5))
        ab = one_trace(rho, ("A", "B"))
        ba = one_trace(rho, ("B", "A"))
        assert ba == swapped(ab)

    def test_rejects_bad_labels(self):
        rho = tripartite_states(amplitudes_at(1.0))
        with pytest.raises(ValueError):
            one_trace(rho, ("A", "A"))
        with pytest.raises(ValueError):
            one_trace(rho, ("A", "C"))

    def test_rejects_non_x_reduction(self):
        # (|000> + |100>)/sqrt2 reduces to a state with a |00><10| coherence.
        v = np.zeros(8)
        v[0b000] = v[0b100] = 1.0 / math.sqrt(2.0)
        rho = DenseState(np.outer(v, v))
        with pytest.raises(InvalidStateError, match="non-X"):
            one_trace(rho, ("A", "B"))

    def test_rejects_wrong_dim(self):
        with pytest.raises(InvalidStateError):
            one_trace(embed_dense(BELL), ("A", "B"))


class TestDenseState:
    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4 + 0.0j
        m[0, 1] = 1e-6
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DenseState(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            DenseState(np.eye(4) / 2)

    def test_rejects_non_finite_entry(self):
        one_nan = np.eye(4) / 4
        one_nan[0, 0] = math.nan
        for m in (one_nan, np.full((4, 4), math.nan)):
            with pytest.raises(InvalidStateError, match="non-finite entry"):
                DenseState(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.6, -0.1, -0.1])
        with pytest.raises(InvalidStateError, match="eigenvalue"):
            DenseState(m)

    @settings(max_examples=800, deadline=None)
    @given(st.sampled_from((2, 4, 8)), st.sampled_from((None, 1, 2, 5)), st.data())
    def test_trace_test_matches_two_part_reference(self, d, n, data):
        # Diagonal states whose trace is off 1 by about TRACE_TOL in the real part, the
        # imaginary part (spread over the diagonal: Hermitian within HERM_TOL) or both.
        near = st.one_of(st.sampled_from((0.0, TRACE_TOL, -TRACE_TOL)),
                         st.floats(TRACE_TOL - 1e-15, TRACE_TOL + 1e-15),
                         st.floats(-TRACE_TOL - 1e-15, -TRACE_TOL + 1e-15),
                         st.floats(-1.5 * TRACE_TOL, 1.5 * TRACE_TOL))

        def matrix():
            diag = np.full(d, 1.0 / d, dtype=complex)
            diag[0] += data.draw(near)
            diag += 1j * data.draw(near) / d
            return np.diag(diag)

        m = matrix() if n is None else np.array([matrix() for _ in range(n)])
        assert outcome(lambda x: DenseState(x) and None, m) == outcome(reference_dense_check, m)


def bad_matrices(d: int) -> list[tuple[str, np.ndarray]]:
    """d x d matrices, each failing one DenseState check, in check order."""
    non_finite = np.eye(d) / d
    non_finite[0, 1] = math.nan
    non_hermitian = np.eye(d) / d + 0.0j
    non_hermitian[0, 1] = 1e-6
    negative = np.diag([0.6, 0.6, -0.1, -0.1] + [0.0] * (d - 4))
    return [("shape", np.eye(3) / 3), ("non-finite", non_finite),
            ("Hermitian", non_hermitian), ("trace", np.eye(d) / 2),
            ("eigenvalue", negative)]


def valid_stack(d: int, n: int) -> list[np.ndarray]:
    if d == 4:
        return [embed_dense(s).matrix for s in
                (BELL, MIXED, TwoQubitXState(0.4, 0.1, 0.2, 0.3, c14=0.2, c23=-0.1))
                ] * (n // 3 + 1)
    return [tripartite_states(amplitudes_at(1.0 / t)).matrix
            for t in np.geomspace(0.1, 10.0, n)]


def single_error(m) -> str:
    with pytest.raises(InvalidStateError) as info:
        DenseState(m)
    return str(info.value)


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def old_partial_trace_matrix(m: np.ndarray, kept) -> np.ndarray:
    """The reshape / np.trace / transpose reduction that the gather replaced."""
    axes = [MODES.index(k) for k in kept]
    (traced,) = [i for i in range(3) if i not in axes]
    reduced = np.trace(m.reshape(2, 2, 2, 2, 2, 2), axis1=traced, axis2=traced + 3)
    remaining = [i for i in range(3) if i != traced]
    perm = [remaining.index(a) for a in axes]
    return reduced.transpose(perm + [p + 2 for p in perm]).reshape(4, 4)


class TestDenseStack:
    """An (N, d, d) stack is validated as one, with the single-matrix messages."""

    @pytest.mark.parametrize("d", [4, 8])
    def test_valid_stack(self, d):
        stack = DenseState(np.array(valid_stack(d, 7)))
        assert stack.matrix.shape[1:] == (d, d) and stack.dim == d

    @pytest.mark.parametrize("d", [4, 8])
    def test_bad_matrix_anywhere_raises_its_own_error(self, d):
        for (check, bad), k in itertools.product(bad_matrices(d), (0, 3, 6)):
            want = single_error(bad)
            assert check in want, (check, want)
            stack = valid_stack(d, 7)[:7]
            stack[k] = bad
            # A bad shape cannot sit in an array: it comes as a list of matrices.
            assert single_error(stack if check == "shape" else np.array(stack)) == want, \
                (check, k)

    def test_stack_of_bad_shape(self):
        assert single_error(np.zeros((5, 3, 3))) == single_error(np.zeros((3, 3)))
        assert single_error(np.zeros((2, 2, 4, 4))) == "invalid input state: shape (2, 2, 4, 4)"

    def test_empty_stack(self):
        assert qstate._xstates(np.zeros((0, 4, 4))) == []
        assert partial_traces(DenseState(np.zeros((0, 8, 8))), ("A", "B")) == []
        assert partial_traces(DenseState(np.zeros((0, 8, 8))), *THREE_PAIRS) == []

    def test_oracle_and_single_paths_refuse_stacks(self):
        stack = DenseState(np.array(valid_stack(4, 3)))
        for oracle in (concurrence_oracle, entropy_sum_oracle):
            with pytest.raises(ValueError, match="need a two-qubit density matrix"):
                oracle(stack)
        with pytest.raises(InvalidStateError, match="dim != 8"):
            partial_traces(stack, ("A", "B"))
        with pytest.raises(InvalidStateError, match="dim != 8"):
            partial_traces(tripartite_states(amplitudes_at(1.0)), ("A", "B"))


class TestStackedReduction:
    def test_non_x_names_first_failing_matrix(self):
        def off_pattern(v):
            m = np.eye(4) / 4 + 0.0j
            m[0, 1] = m[1, 0] = v
            return m

        complex_on_pattern = np.eye(4) / 4 + 0.0j
        complex_on_pattern[0, 3], complex_on_pattern[3, 0] = 1e-6j, -1e-6j
        off_2, off_5 = off_pattern(2e-6), off_pattern(5e-6)
        off_2_text = "non-X reduction: off-pattern entry 2.000e-06"
        complex_text = "non-X reduction: complex entry on pattern"
        good = embed_dense(MIXED).matrix
        for first, later, text in ((off_2, off_5, off_2_text),
                                   (off_5, off_2, "non-X reduction: off-pattern entry 5.000e-06"),
                                   (complex_on_pattern, off_5, complex_text),
                                   (off_2, complex_on_pattern, off_2_text)):
            with pytest.raises(InvalidStateError) as alone:
                qstate._xstates(DenseState(first).matrix[None])
            assert str(alone.value) == text
            for k in (0, 3):
                stack = [good] * 6
                stack[k], stack[5] = first, later
                with pytest.raises(InvalidStateError) as got:
                    qstate._xstates(np.array(stack))
                assert str(got.value) == text, k

    def test_non_x_pair_major(self):
        # A coherence between basis states that differ in one mode breaks the X
        # pattern of both pairs holding that mode: a Bbar flip fails ABbar and
        # BBbar, an A flip fails AB and ABbar.  The three pairs of a stack are
        # checked pair-major, so the first failing matrix is the first among
        # the AB reductions, then the ABbar ones, and so on.
        def flip(theta, mode):
            v = np.zeros(8)
            v[0], v[1 << (2 - MODES.index(mode))] = math.cos(theta), math.sin(theta)
            return np.outer(v, v)

        def error(call, *args):
            with pytest.raises(InvalidStateError) as info:
                call(*args)
            return str(info.value)

        good = valid_stack(8, 2)
        bbar_flip, a_flip = flip(0.3, "Bbar"), flip(0.6, "A")
        for stack, (bad, kept) in (([*good, bbar_flip, a_flip], (a_flip, ("A", "B"))),
                                   ([bbar_flip, *good], (bbar_flip, ("A", "Bbar"))),
                                   ([*good, a_flip, bbar_flip], (a_flip, ("A", "B")))):
            want = error(one_trace, DenseState(bad), kept)
            assert want.startswith("non-X reduction: off-pattern entry")
            assert error(partial_traces, DenseState(np.array(stack)), *THREE_PAIRS) == want
        # The two flips' messages differ, so the order above is really tested.
        assert error(one_trace, DenseState(bbar_flip), ("A", "Bbar")) != \
            error(one_trace, DenseState(a_flip), ("A", "B"))

    # Each kept order alone, then the three pairs from one gather (pair-major).
    @pytest.mark.parametrize("kept", [(k,) for k in itertools.permutations(MODES, 2)]
                             + [THREE_PAIRS])
    def test_stack_equals_one_by_one(self, kept):
        a = amplitudes_at(1.0 / np.geomspace(1e-3, 1e3, 40))
        stack = tripartite_states(a)
        singles = [one_trace(DenseState(m), k) for k in kept for m in stack.matrix]
        got = partial_traces(stack, *kept)
        assert [dataclasses.astuple(s) for s in got] == [dataclasses.astuple(s) for s in singles]
        assert [tuple(map(type, dataclasses.astuple(s))) for s in got] == \
            [tuple(map(type, dataclasses.astuple(s))) for s in singles]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
    def test_gather_equals_np_trace_bitwise(self, seed, n):
        # Random density matrices: every reduced entry, all six kept orders.
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n, 8, 8)) + 1j * rng.normal(size=(n, 8, 8))
        rho = g @ g.conj().swapaxes(-1, -2)
        rho = rho / np.trace(rho, axis1=1, axis2=2)[:, None, None].real
        rho = (rho + rho.conj().swapaxes(-1, -2)) / 2
        orders = list(itertools.permutations(MODES, 2))
        for kept in orders:
            want = bits(np.array([old_partial_trace_matrix(m, kept) for m in rho]))
            assert np.array_equal(bits(qstate._reduce(rho, kept).matrix), want), kept
            assert np.array_equal(bits(qstate._reduce(rho[0], kept).matrix), want[:1]), kept
        # All six orders from one gather, pair-major: kept[0]'s n reductions first.
        want = bits(np.array([old_partial_trace_matrix(m, kept) for kept in orders for m in rho]))
        assert np.array_equal(bits(qstate._reduce(rho, *orders).matrix), want)
