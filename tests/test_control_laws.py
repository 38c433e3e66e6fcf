"""Compiled control laws: bit-identity with the direct evaluator, the work
done per call, and the per-thread memo of cumulative sums."""

import struct
import sys
import threading
import warnings

import numpy as np
import pytest

import belfilt as bf
from belfilt.filters import ControlLaw, FilterState, compile_control_expression, feedback_step
from belfilt.operators import SIGMA_MINUS, SIGMA_X, SIGMA_Z, DensityState, SystemModel
from belfilt.trajectories import simulate_homodyne

from helpers import reference_control

EXPRESSIONS = [
    "t",
    "Y",
    "+Y",
    "ma(Y, 1)",
    "ma(Y, 50)",
    "0.2 * Y - 0.5 * ma(Y, 50)",
    "-Y + -ma(Y, 3) - -t",
    "Y / (2 + t) / (3 - ma(Y, 7) / (1 + Y * Y))",
]

RECORD = np.random.default_rng(3).normal(0.0, 0.03, 400)


def _grow():
    # from the empty prefix past the 50-entry window, one entry at a time
    for k in range(120):
        yield RECORD[:k]


def _jump_ahead():
    yield from (RECORD[:3], RECORD[:4], RECORD[:200], RECORD[:201], [0.5, -0.25, 1], RECORD[:400])


def _shrink():
    yield from (RECORD[:300], RECORD[:120], RECORD[:40], RECORD[:0], RECORD[:41], RECORD[:301])


def _diverge():
    other = RECORD.copy()
    other[150:] = RECORD[::-1][150:]
    yield from (RECORD[:200], other[:200], other[:201], RECORD[:201], RECORD[:150], other[:220])


def _edit_in_place():
    # one array handed over again after an early entry changed in place
    buf = RECORD[:100].copy()
    yield buf[:60]
    yield buf[:61]
    buf[2] += 0.5
    yield buf[:61]
    yield buf[:62]
    buf[0] = -buf[0]
    yield buf[:62]
    yield buf


def _negative_zero():
    # -0.0 == 0.0, but np.cumsum keeps the sign of a leading -0.0
    yield from ([-0.0], [-0.0, 0.0], [0.0], [0.0, -0.0], [-0.0], np.full(60, -0.0), np.zeros(61))


def _non_finite():
    buf = RECORD[:80].copy()
    buf[10] = np.inf
    buf[30] = np.nan
    for k in range(0, 81, 3):
        yield buf[:k]
    buf[5] = -np.inf
    yield buf
    buf[30] = 0.0
    yield buf


SEQUENCES = [_grow, _jump_ahead, _shrink, _diverge, _edit_in_place, _negative_zero, _non_finite]


def _bits(u):
    return struct.pack("<d", u)


class TestCompiledLawsMatchDirectEvaluation:
    @pytest.mark.parametrize("sequence", SEQUENCES, ids=lambda s: s.__name__.strip("_"))
    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_bit_identical_over_call_sequence(self, expression, sequence):
        law = compile_control_expression(expression)
        reference = reference_control(expression)
        for call, prefix in enumerate(sequence()):
            t = 0.37 + 1e-3 * np.size(prefix)
            with np.errstate(invalid="ignore"):  # inf - inf in the sums
                u, expected = law(t, prefix), reference(t, prefix)
            assert _bits(u) == _bits(expected), f"call {call}: {u!r} != {expected!r}"

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_control_still_refused(self, bad):
        law = ControlLaw.from_expression("0.2 * Y - 0.5 * ma(Y, 50)", np.zeros((2, 2)), SIGMA_X)
        prefix = RECORD[:60].copy()
        law.hamiltonian_at(0.06, prefix)
        prefix[20] = bad
        with pytest.raises(bf.ValidationError, match="control law returned non-real value nan at t = 0.06"):
            law.hamiltonian_at(0.06, prefix)
        prefix[20] = RECORD[20]
        _, u = law.hamiltonian_at(0.06, prefix)
        assert _bits(u) == _bits(reference_control("0.2 * Y - 0.5 * ma(Y, 50)")(0.06, prefix))

    @pytest.mark.parametrize("expression, offender", [
        ("True + t", "Constant(value=True)"),
        ("ma(Y, True)", "Call(func=Name(id='ma', ctx=Load()), args=[Name(id='Y', ctx=Load()), Constant(value=True)],"
                        " keywords=[])"),
    ])
    def test_booleans_are_not_numbers(self, expression, offender):
        message = (f"control expression {expression!r}: unsupported construct {offender};"
                   " the grammar allows numbers, t, Y, ma(Y, window), + - * / and parentheses")
        with pytest.raises(bf.ValidationError) as info:
            compile_control_expression(expression)
        assert str(info.value) == message

    def test_division_by_zero_keeps_its_message(self):
        law = compile_control_expression("Y / (Y - ma(Y, 1))")
        with pytest.raises(bf.ValidationError, match=r"^control expression 'Y / \(Y - ma\(Y, 1\)\)': division by zero$"):
            law(0.01, RECORD[:10])


MODEL = SystemModel(0.5 * SIGMA_Z, (0.5 * SIGMA_MINUS,))
RHO0 = DensityState.from_vector([1.0, 1.0]).mix_with_identity(0.25)
DT = 1e-3
STEPS = 4000
# entries a closed loop of STEPS steps may hand to np.cumsum; summing the
# whole prefix on every step would be about STEPS**2 / 2 = 8e6
SUMMED_BOUND = STEPS + 64


@pytest.fixture
def cumsum_sizes(monkeypatch):
    """Sizes of the arrays np.cumsum is given while the test runs."""
    sizes = []
    cumsum = np.cumsum

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", spy)
    return sizes


class TestWorkPerCall:
    def test_online_feedback_sums_each_entry_once(self, cumsum_sizes):
        law = ControlLaw.from_expression("ma(Y, 50)", MODEL.hamiltonian, SIGMA_X)
        increments = np.random.default_rng(5).normal(0.0, np.sqrt(DT), STEPS)
        state = FilterState.from_density(RHO0)
        for k in range(STEPS):
            state = feedback_step(state, increments[k], law, MODEL, increments[:k], DT, t=k * DT)
        assert sum(cumsum_sizes) <= SUMMED_BOUND
        # the spy sees the law's sums: a fresh law given the whole record sums it
        cumsum_sizes.clear()
        compile_control_expression("ma(Y, 50)")(STEPS * DT, increments)
        assert STEPS <= sum(cumsum_sizes) <= SUMMED_BOUND

    def test_closed_loop_simulation_sums_each_entry_once(self, cumsum_sizes):
        law = ControlLaw.from_expression("ma(Y, 50)", MODEL.hamiltonian, SIGMA_X)
        record, _ = simulate_homodyne(MODEL, RHO0, STEPS * DT, DT, seed=6, law=law)
        assert record.steps == STEPS
        assert sum(cumsum_sizes) <= SUMMED_BOUND


class TestMemoIsolation:
    EXPRESSION = "0.2 * Y - 0.5 * ma(Y, 50)"
    CALLS = 300

    def _records(self):
        rng = np.random.default_rng(9)
        return [rng.normal(0.0, 0.03, self.CALLS) for _ in range(4)]

    def _feed(self, law, record):
        return np.array([law(k * DT, record[:k]) for k in range(self.CALLS)])

    def test_records_fed_alternately_or_in_threads_match_fresh_laws(self):
        records = self._records()
        expected = [self._feed(compile_control_expression(self.EXPRESSION), r) for r in records]
        law = compile_control_expression(self.EXPRESSION)

        alternate = [[] for _ in records]
        for k in range(self.CALLS):
            for values, record in zip(alternate, records):
                values.append(law(k * DT, record[:k]))

        # more threads than cores, switching as often as the interpreter allows
        threaded = [None] * len(records)

        def worker(i):
            threaded[i] = self._feed(law, records[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(records))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for want, fed_alternately, fed_in_thread in zip(expected, alternate, threaded):
            assert np.array_equal(np.array(fed_alternately).view(np.int64), want.view(np.int64))
            assert np.array_equal(fed_in_thread.view(np.int64), want.view(np.int64))


class TestControlValues:
    """`ControlLaw.hamiltonian_at` takes a real u of any numeric type and
    refuses the rest with a ValidationError naming t and the value."""

    def _law(self, value):
        return ControlLaw(lambda t, prefix: value, 0.5 * SIGMA_Z, SIGMA_X)

    @pytest.mark.parametrize("value", [1 + 0j, np.complex128(1 + 0j), np.float32(1.0), np.int64(1), 1])
    def test_real_values_of_any_type_accepted(self, value):
        law = self._law(value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, u = law.hamiltonian_at(0.25, np.zeros(3))
        assert type(u) is float and u == 1.0
        assert np.array_equal(h, law.h0 + 1.0 * law.h1)

    @pytest.mark.parametrize("value,shown", [(1 + 2j, r"\(1\+2j\)"), (np.complex128(1 - 1e-300j), r".*1e-300j.*"),
                                             (np.nan, "nan"), (-np.inf, "-inf"), (complex(np.inf, 0), "inf")])
    def test_complex_and_non_finite_refused(self, value, shown):
        with pytest.raises(bf.ValidationError, match=rf"^control law returned non-real value {shown} at t = 0.25$"):
            self._law(value).hamiltonian_at(0.25, np.zeros(3))

    @pytest.mark.parametrize("value,shown", [(None, "None"), ("1", "'1'"), (b"1", "b'1'"),
                                             (np.ones(2), r"array\(\[1., 1.\]\)"), ([1.0], r"\[1.0\]")])
    def test_non_numeric_refused(self, value, shown):
        with pytest.raises(bf.ValidationError, match=rf"^control law returned non-numeric value {shown} at t = 0.25$"):
            self._law(value).hamiltonian_at(0.25, np.zeros(3))
