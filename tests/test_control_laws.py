"""Compiled control laws: bit-identity with the direct evaluator, called
directly and through a bound law run, the work done per call, the sums a
closed loop keeps itself, and the run `feedback_step` keeps bound per
thread; the compiled body as one code object over a grammar sweep, the
refusal of expressions too deep to compile and of prefixes that are not
real, the order of `feedback_step`'s checks, and the calls a bound run
serves stepping as `_apply` does."""

import pickle
import struct
import sys
import threading
import warnings

import numpy as np
import pytest

import belfilt as bf
from belfilt import filters
from belfilt.filters import ControlLaw, FilterState, _LawRun, compile_control_expression, feedback_step
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


def _record(data=RECORD):
    """Increments as a record holds them, in an immutable buffer."""
    return bf.ObservationRecord(bf.MeasurementScheme.homodyne(), 1e-3, data).increments


def _record_grow():
    src = _record()
    for k in range(120):
        yield src[:k]


def _record_shift():
    # a view one entry on has the same owner but does not lead it
    src = _record()
    for k in (1, 2, 3, 60, 61):
        yield from (src[:k], src[1 : k + 1], src[: k + 1])


def _record_shift_on():
    # a view one entry on and one entry longer than the last prefix has its
    # owner and the size of a one-add extension, but does not lead it (the
    # first prefix makes room for the sums of the later ones)
    src = _record()
    yield src[:100]
    for k in (1, 2, 3, 60, 61):
        yield from (src[:k], src[1 : k + 2], src[: k + 1], src[: k + 2])


def _record_strided():
    # src[::2][:1] is a leading view; longer strided views are not
    src = _record()
    for k in (1, 2, 3, 60, 61):
        yield from (src[:k], src[::2][:k], src[::2][: k + 1], src[: k + 1])


def _record_misaligned():
    # a float view that starts half an entry into the record overlaps the
    # record's first entry, but does not lead it
    src = _record()
    halves = src.view(np.int32)[1:-1].view(float)
    yield from (src[:20], halves[:21], src[:22], halves[:23])


def _record_empty_between():
    src = _record()
    yield from (src[:50], src[:0], src[:51], src[:0], src[:0], src[:52], src[:51], src[:53])


def _two_records():
    # alternated in one thread, then a twin with the same bits as the first
    first, second, twin = _record(), _record(RECORD[::-1]), _record()
    for k in range(60):
        yield first[:k]
        yield second[:k]
    yield from (first[:60], twin[:61], first[:62], twin[:62])


def _pickled_record():
    # an unpickled record is immutable again; its pickled increments are a
    # writeable array with the same bits (which numpy may back with the
    # pickle's bytes), edited in place below
    record = bf.ObservationRecord(bf.MeasurementScheme.homodyne(), 1e-3, RECORD)
    unpickled = pickle.loads(pickle.dumps(record)).increments
    writeable = pickle.loads(pickle.dumps(record.increments))
    assert writeable.flags.writeable
    yield from (record.increments[:40], unpickled[:41], writeable[:42], record.increments[:43], writeable[:44])
    writeable[5] = -writeable[5]
    yield from (writeable[:44], writeable[:45], record.increments[:45], unpickled[:46])


def _writeable_then_record():
    # a record that shares only its first entries with the writeable array
    # followed before it: once the record is left, the compare must see the
    # record's entries, not the array's bits that the run held before
    src = _record()
    other = RECORD.copy()
    other[10:] = RECORD[::-1][10:]
    yield from (other[:20], src[:10], src[:20], other[:21], src[:22])


def _record_overflow():
    # finite entries whose sums overflow, so that the laws refuse inf and nan
    data = RECORD[:80].copy()
    data[10] = data[11] = 1.5e308
    data[30] = -1.5e308
    src = _record(data)
    for k in range(0, 81, 3):
        yield src[:k]


SEQUENCES = [_grow, _jump_ahead, _shrink, _diverge, _edit_in_place, _negative_zero, _non_finite, _record_grow,
             _record_shift, _record_shift_on, _record_strided, _record_misaligned, _record_empty_between, _two_records,
             _pickled_record, _writeable_then_record, _record_overflow]


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
            with np.errstate(over="ignore", invalid="ignore"):  # sums that overflow, inf - inf
                u, expected = law(t, prefix), reference(t, prefix)
            assert _bits(u) == _bits(expected), f"call {call}: {u!r} != {expected!r}"

    @pytest.mark.parametrize("sequence", SEQUENCES, ids=lambda s: s.__name__.strip("_"))
    @pytest.mark.parametrize("expression", EXPRESSIONS)
    def test_bound_run_follows_call_sequence(self, expression, sequence):
        # a run that follows each prefix evaluates the body on its own sums:
        # the body's value, the control u and any refusal must be those of
        # a run of the direct evaluator, bit for bit
        values = []
        law = ControlLaw.from_expression(expression, MODEL.hamiltonian, SIGMA_X)
        body = law.control.body

        def spy(t, sums, m):
            values.append(body(t, sums, m))
            return values[-1]

        law.control.body = spy
        reference = reference_control(expression)
        direct = ControlLaw(reference, MODEL.hamiltonian, SIGMA_X)
        homodyne = bf.MeasurementScheme.homodyne()
        bound, fresh = _LawRun(law, MODEL, homodyne, DT, True), _LawRun(direct, MODEL, homodyne, DT, True)
        for call, prefix in enumerate(sequence()):
            prefix = np.asarray(prefix, dtype=float).reshape(-1)
            t = 0.37 + 1e-3 * prefix.size
            with np.errstate(over="ignore", invalid="ignore"):  # sums that overflow, inf - inf
                bound.follow(prefix)
                got, want = (_outcome(lambda: bound.control(t, prefix, prefix.size)),
                             _outcome(lambda: fresh.control(t, prefix, prefix.size)))
                expected = reference(t, prefix)
            assert _bits(values[-1]) == _bits(expected), f"call {call}: {values[-1]!r} != {expected!r}"
            assert got[1] == want[1], f"call {call}"
            assert (got[0] is None) == (want[0] is None), f"call {call}"
            assert got[0] is None or _bits(got[0]) == _bits(want[0]), f"call {call}"
        assert len(values) == call + 1

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


@pytest.fixture
def compared_sizes(monkeypatch):
    """The entries of each bitwise compare `_LawRun.follow` runs while the
    test runs."""
    sizes = []
    agreeing = filters._agreeing

    def spy(bits, record, k):
        sizes.append(k)
        return agreeing(bits, record, k)

    monkeypatch.setattr(filters, "_agreeing", spy)
    return sizes


def _feed_online(increments, prefixes, steps):
    """The last state of feeding increments[k] online with prefixes[:k]."""
    law = ControlLaw.from_expression("ma(Y, 50)", MODEL.hamiltonian, SIGMA_X)
    state = FilterState.from_density(RHO0)
    for k in range(steps):
        state = feedback_step(state, increments[k], law, MODEL, prefixes[:k], DT, t=k * DT)
    return state


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

    def test_online_feedback_on_a_record_compares_no_prefix(self, compared_sizes):
        # a leading view of a record's increments needs no compare, a
        # writeable copy of the same entries does, and both step the same
        increments = bf.ObservationRecord(bf.MeasurementScheme.homodyne(), DT,
                                          np.random.default_rng(7).normal(0.0, np.sqrt(DT), 50)).increments
        on_record = _feed_online(increments, increments, 50)
        assert compared_sizes == []
        on_copy = _feed_online(increments, np.array(increments), 50)
        # the call for increments[k] compares the k - 1 entries it followed
        assert compared_sizes == list(range(1, 49))
        assert on_record.matrix.tobytes() == on_copy.matrix.tobytes()

    def test_online_feedback_on_a_record_compares_in_constant_work(self, compared_sizes):
        increments = bf.ObservationRecord(bf.MeasurementScheme.homodyne(), DT,
                                          np.random.default_rng(8).normal(0.0, np.sqrt(DT), STEPS)).increments
        _feed_online(increments, increments, STEPS)
        assert sum(compared_sizes) <= SUMMED_BOUND
        # the spy sees the compare: a writeable copy compares every prefix
        compared_sizes.clear()
        _feed_online(increments, np.array(increments), STEPS)
        assert sum(compared_sizes) == (STEPS - 1) * (STEPS - 2) // 2

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

    @pytest.mark.parametrize("t,shown", [("0.5", "non-numeric value '0.5'"), (float("nan"), "non-real value nan"),
                                         (None, "non-numeric value None")])
    def test_t_refused_as_feedback_step_refuses_it(self, t, shown):
        # a compiled u(t, prefix) and hamiltonian_at read t as feedback_step
        # does, compiled or callable law alike
        compiled = compile_control_expression("t + Y")
        law = ControlLaw(compiled, 0.5 * SIGMA_Z, SIGMA_X)
        for call in (lambda: compiled(t, [0.1]), lambda: law.hamiltonian_at(t, []),
                     lambda: self._law(1.0).hamiltonian_at(t, np.zeros(3))):
            with pytest.raises(bf.ValidationError) as info:
                call()
            assert str(info.value) == f"t: {shown}"


def _prefix_law(law):
    """The same law as a plain callable, which the loops call on each step's
    record prefix, control(k dt, increments[:k])."""
    return ControlLaw(lambda t, prefix: law.control(t, prefix), law.h0, law.h1)


def _outcome(run):
    """(run(), None), or (None, (the error's type, its message))."""
    try:
        return run(), None
    except (bf.ValidationError, bf.NumericalFailure) as exc:
        return None, (type(exc), str(exc))


def _body_calls(law, run):
    """run()'s outcome and every evaluation of the law's compiled body as
    (t, the bits of sums[:m] or None, m, the bits of u), in call order; an
    evaluation that raised has no u."""
    calls = []
    body = law.control.body

    def spy(t, sums, m):
        calls.append((_bits(t), None if sums is None else sums[:m].tobytes(), m))
        u = body(t, sums, m)
        calls[-1] += (_bits(u),)
        return u

    law.control.body = spy
    try:
        return _outcome(run), calls
    finally:
        law.control.body = body


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


LOOP_LAWS = ["0.2 * Y - 0.5 * ma(Y, 50)", "2*t - Y", "t"]
LAW_MODEL = SystemModel(0.5 * SIGMA_Z, (0.7 * SIGMA_MINUS,))


class TestLoopOwnedSums:
    """A compiled law in `_integrate` reads running sums the loop extends by
    one add a step; its body must see what control(t, increments[:k]) gives
    it, bit for bit, and the run must step the same path."""

    def _compare(self, law, run):
        """run(law) with the loop's sums and run(law as a prefix callable):
        the same body inputs, values and outcome, bit for bit."""
        (owned, owned_error), owned_calls = _body_calls(law, lambda: run(law))
        (called, called_error), called_calls = _body_calls(law, lambda: run(_prefix_law(law)))
        assert owned_error == called_error
        assert owned_calls == called_calls
        assert owned_calls, "the body was never evaluated"
        return owned, called, owned_error

    @pytest.mark.parametrize("expression", LOOP_LAWS)
    @pytest.mark.parametrize("scheme", [bf.MeasurementScheme.homodyne(), bf.MeasurementScheme.imperfect(1.0, 0.3),
                                        bf.MeasurementScheme.counting()], ids=lambda s: s.kind)
    def test_closed_loop_simulation(self, expression, scheme):
        law = ControlLaw.from_expression(expression, LAW_MODEL.hamiltonian, SIGMA_X)

        def run(law):
            if scheme.kind == "counting":
                return bf.simulate_counting(LAW_MODEL, RHO0, 0.3, DT, seed=21, law=law)
            return simulate_homodyne(LAW_MODEL, RHO0, 0.3, DT, seed=21, scheme=scheme, law=law)

        owned, called, error = self._compare(law, run)
        assert error is None
        assert _same_bits(owned[0].increments, called[0].increments)
        assert _same_bits(owned[1], called[1])

    @pytest.mark.parametrize("kind", ["bks", "zakai"])
    @pytest.mark.parametrize("expression", LOOP_LAWS + ["Y", "ma(Y, 3)"])
    def test_replay_from_negative_zero(self, expression, kind):
        # np.cumsum copies a leading -0.0; 0.0 + -0.0 would be +0.0
        increments = np.random.default_rng(22).normal(0.0, np.sqrt(DT), 200)
        increments[:4] = (-0.0, 0.0, -0.0, -0.0)
        record = bf.ObservationRecord(bf.MeasurementScheme.homodyne(), DT, increments)
        law = ControlLaw.from_expression(expression, LAW_MODEL.hamiltonian, SIGMA_X)
        owned, called, error = self._compare(law, lambda law: bf.replay_record(record, LAW_MODEL, RHO0, kind, law))
        assert error is None
        assert _same_bits(owned.matrices, called.matrices)
        assert _same_bits(owned.likelihoods, called.likelihoods)

    @pytest.mark.parametrize("scheme", [bf.MeasurementScheme.homodyne(), bf.MeasurementScheme.counting()],
                             ids=lambda s: s.kind)
    def test_law_ensemble(self, scheme):
        law = ControlLaw.from_expression(LOOP_LAWS[0], LAW_MODEL.hamiltonian, SIGMA_X)
        owned, called, error = self._compare(law, lambda law: bf.ensemble_average(
            LAW_MODEL, scheme, {"x": SIGMA_X, "z": SIGMA_Z}, 3, 23, 0.2, DT, RHO0, law=law, collect_health=True))
        assert error is None
        for name in ("x", "z"):
            for part in ("means", "stderrs_re", "stderrs_im"):
                assert _same_bits(getattr(owned, part)[name], getattr(called, part)[name])
        assert owned.health == called.health

    @pytest.mark.parametrize("run, step", [
        (lambda law: simulate_homodyne(LAW_MODEL, RHO0, 0.05, DT, seed=24, law=law), "step 0"),
        (lambda law: bf.ensemble_average(LAW_MODEL, bf.MeasurementScheme.homodyne(), {"x": SIGMA_X}, 2, 24, 0.05,
                                         DT, RHO0, law=law), "trajectory 0, step 0"),
    ], ids=["simulate", "ensemble"])
    def test_division_by_zero_names_the_step(self, run, step):
        expression = "Y / (Y - ma(Y, 1))"
        law = ControlLaw.from_expression(expression, LAW_MODEL.hamiltonian, SIGMA_X)
        _, _, error = self._compare(law, run)
        assert error == (bf.ValidationError, f"{step}: control expression {expression!r}: division by zero")

    def test_division_by_zero_after_a_count(self):
        # Y reaches 1 with the count at step 3, so the law divides by zero at step 4
        increments = np.zeros(20)
        increments[3] = 1.0
        record = bf.ObservationRecord(bf.MeasurementScheme.counting(), DT, increments)
        law = ControlLaw.from_expression("1 / (Y - 1)", LAW_MODEL.hamiltonian, SIGMA_X)
        _, _, error = self._compare(law, lambda law: bf.replay_record(record, LAW_MODEL, RHO0, "bks", law))
        assert error == (bf.ValidationError, "step 4: control expression '1 / (Y - 1)': division by zero")

    def test_closed_loop_simulation_never_compares_prefixes(self, monkeypatch):
        calls = []
        follow = _LawRun.follow

        def spy(self, prefix):
            calls.append(prefix.size)
            return follow(self, prefix)

        monkeypatch.setattr(_LawRun, "follow", spy)
        law = ControlLaw.from_expression(LOOP_LAWS[0], MODEL.hamiltonian, SIGMA_X)
        record, _ = simulate_homodyne(MODEL, RHO0, 0.2, DT, seed=25, law=law)
        assert calls == []
        # the spy sees the compare: feedback_step follows its prefix once a call
        state = FilterState.from_density(RHO0)
        for k in range(3):
            state = feedback_step(state, record.increments[k], law, MODEL, record.increments[:k], DT, t=k * DT)
        assert calls == [0, 1, 2]


def _feedback_runs():
    """(law, model, dt, scheme, normalized, increments) of the runs that
    TestBoundFeedbackRun interleaves: two laws, two models, two values of dt,
    normalized and unnormalized states, and three schemes."""
    rng = np.random.default_rng(26)
    first = ControlLaw.from_expression("0.2 * Y - 0.5 * ma(Y, 50)", 0.5 * SIGMA_Z, SIGMA_X)
    second = ControlLaw.from_expression("2*t - Y", 0.3 * SIGMA_X, SIGMA_Z)
    other = SystemModel(0.3 * SIGMA_X, (0.4 * SIGMA_MINUS,))
    homodyne, imperfect, counting = (bf.MeasurementScheme.homodyne(), bf.MeasurementScheme.imperfect(1.0, 0.3),
                                     bf.MeasurementScheme.counting())
    counts = np.zeros(120)
    counts[5] = 1.0
    # neighbours differ in one thing, so that a run bound for one of them
    # and reused for the next would show
    runs = [(first, MODEL, DT, homodyne, True), (first, MODEL, DT, homodyne, False),
            (first, MODEL, 2 * DT, homodyne, False), (first, other, 2 * DT, homodyne, False),
            (second, other, 2 * DT, homodyne, False), (second, other, 2 * DT, imperfect, False),
            (second, other, DT, imperfect, False), (second, other, DT, imperfect, True),
            (second, other, DT, counting, True), (first, other, DT, counting, True)]
    return [(law, model, dt, scheme, normalized,
             counts if scheme.kind == "counting" else rng.normal(0.0, np.sqrt(dt), counts.size))
            for law, model, dt, scheme, normalized in runs]


def _start(normalized):
    return FilterState(RHO0.matrix.copy(), normalized=normalized)


class TestBoundFeedbackRun:
    """feedback_step keeps the last run it bound, per thread; any mix of
    calls must still step each run as a fresh serial run does."""

    @staticmethod
    def _outputs(states):
        return [(s.matrix.tobytes(), _bits(s.likelihood)) for s in states]

    def _serial(self, run):
        law, model, dt, scheme, normalized, increments = run
        state, states = _start(normalized), []
        for k in range(increments.size):
            state = feedback_step(state, increments[k], law, model, increments[:k], dt, scheme, k * dt)
            states.append(state)
        return self._outputs(states)

    def _fresh(self, runs):
        """Each run alone, in a thread of its own, so that it binds afresh."""
        out = [None] * len(runs)

        def worker(i):
            out[i] = self._serial(runs[i])

        for i in range(len(runs)):
            thread = threading.Thread(target=worker, args=(i,))
            thread.start()
            thread.join(timeout=60)
        return out

    def _interleaved(self, runs, order):
        """Every run, one step of each in `order` per time index."""
        states = {i: _start(runs[i][4]) for i in order}
        outputs = {i: [] for i in order}
        for k in range(runs[0][5].size):
            for i in order:
                law, model, dt, scheme, _, increments = runs[i]
                states[i] = feedback_step(states[i], increments[k], law, model, increments[:k], dt, scheme, k * dt)
                outputs[i].append(states[i])
        return [self._outputs(outputs[i]) for i in range(len(runs))]

    def test_interleaved_runs_match_fresh_serial_runs(self):
        runs = _feedback_runs()
        expected = self._fresh(runs)
        assert len({tuple(e) for e in expected}) == len(runs)  # the runs differ
        assert self._interleaved(runs, range(len(runs))) == expected
        assert self._interleaved(runs, range(len(runs) - 1, -1, -1)) == expected
        # the replay loop steps the same paths
        for (law, model, dt, scheme, normalized, increments), outputs in zip(runs, expected):
            record = bf.ObservationRecord(scheme, dt, increments)
            replay = bf.replay_record(record, model, RHO0, "bks" if normalized else "zakai", law)
            assert [m for m, _ in outputs] == [m.tobytes() for m in replay.matrices[1:]]

    def test_interleaved_runs_in_threads_match_fresh_serial_runs(self):
        runs = _feedback_runs()
        expected = self._fresh(runs)
        got = [None] * 3

        def worker(i):
            got[i] = self._interleaved(runs, np.roll(np.arange(len(runs)), i).tolist())

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(got))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [expected] * len(got)

    def test_law_hamiltonians_are_read_only_copies(self):
        # a law cannot change under a run bound to it, nor rewrite the arrays
        # it was built from
        sigma_x = SIGMA_X.copy()
        h0 = 0.5 * SIGMA_Z.astype(complex)
        law = ControlLaw.from_expression("ma(Y, 5)", h0, SIGMA_X)
        assert law.h1 is not SIGMA_X and law.h0 is not h0
        for h in (law.h0, law.h1):
            with pytest.raises(ValueError):
                h[0, 1] = 0.25
        assert SIGMA_X.tobytes() == sigma_x.tobytes()
        built = law.h0.tobytes()
        increments = np.random.default_rng(27).normal(0.0, np.sqrt(DT), 10)
        state = _start(True)
        for k in range(5):
            state = feedback_step(state, increments[k], law, MODEL, increments[:k], DT, t=k * DT)
        h0[0, 1] = h0[1, 0] = 0.25
        assert law.h0.tobytes() == built
        stepped = feedback_step(state, increments[5], law, MODEL, increments[:5], DT, t=5 * DT)
        fresh = ControlLaw.from_expression("ma(Y, 5)", 0.5 * SIGMA_Z, SIGMA_X)
        expected = feedback_step(state, increments[5], fresh, MODEL, increments[:5], DT, t=5 * DT)
        assert stepped.matrix.tobytes() == expected.matrix.tobytes()

    def test_checks_still_run_on_a_bound_run(self):
        law = ControlLaw.from_expression("Y", MODEL.hamiltonian, SIGMA_X)
        increments = np.random.default_rng(28).normal(0.0, np.sqrt(DT), 10)
        state = feedback_step(_start(True), increments[0], law, MODEL, increments[:0], DT, t=0.0)
        with pytest.raises(bf.CausalityViolation):
            feedback_step(state, increments[1], law, MODEL, increments[:3], DT, t=DT)
        for bad in (np.nan, 1j, "0.1"):
            with pytest.raises(bf.ValidationError, match="increment dY"):
                feedback_step(state, bad, law, MODEL, increments[:1], DT, t=DT)
        with pytest.raises(bf.ValidationError, match="dt must be positive"):
            feedback_step(state, increments[1], law, MODEL, increments[:1], 0.0, t=DT)
        counting = bf.MeasurementScheme.counting()
        with pytest.raises(bf.ValidationError, match="counting increment must be 0 or 1"):
            feedback_step(state, 0.5, law, MODEL, increments[:1], DT, counting, t=DT)
        with pytest.raises(bf.DimensionMismatch):
            feedback_step(FilterState(np.eye(3, dtype=complex) / 3), 0.0, law, MODEL, increments[:1], DT, t=DT)
        bad_law = ControlLaw(lambda t, prefix: float("nan"), MODEL.hamiltonian, SIGMA_X)
        with pytest.raises(bf.ValidationError, match="control law returned non-real value nan"):
            feedback_step(state, increments[1], bad_law, MODEL, increments[:1], DT, t=DT)
        # and the bound run still steps as a fresh one
        again = feedback_step(state, increments[1], law, MODEL, increments[:1], DT, t=DT)
        assert again.matrix.tobytes() == self._fresh([(law, MODEL, DT, bf.MeasurementScheme.homodyne(), True,
                                                       increments[:2])])[0][1][0]


class TestIdentityEquality:
    """Laws and models compare and hash by identity, as the runs that bind
    them do; their array fields are never compared."""

    def test_laws_and_models_compare_as_bools_and_key_dicts(self):
        control = compile_control_expression("Y")
        law, twin = ControlLaw(control, 0.5 * SIGMA_Z, SIGMA_X), ControlLaw(control, 0.5 * SIGMA_Z, SIGMA_X)
        model, other = SystemModel(0.5 * SIGMA_Z, (SIGMA_MINUS,)), SystemModel(0.5 * SIGMA_Z, (SIGMA_MINUS,))
        for a, b in ((law, twin), (model, other)):
            assert (a == a) is True and (a == b) is False and (a != b) is True
            keyed = {a: "a", b: "b"}
            assert keyed[a] == "a" and keyed[b] == "b" and hash(a) != hash(b)


def _grammar_expression(rng, depth):
    """A random expression of the control grammar, every node kind in reach."""
    if depth == 0 or rng.random() < 0.25:
        leaf = rng.integers(4)
        if leaf == 0:
            return "t"
        if leaf == 1:
            return "Y"
        if leaf == 2:
            return f"ma(Y, {rng.choice([1, 2, 3, 7, 50, 500])})"
        return str(rng.choice(["0", "0.0", "1", "2.5", "1e-3", "7", "9007199254740993", "1e308"]))
    kind = rng.integers(3)
    if kind == 0:
        op = rng.choice(["+", "-", "*", "/"])
        return f"{_grammar_expression(rng, depth - 1)} {op} {_grammar_expression(rng, depth - 1)}"
    if kind == 1:
        return f"{rng.choice(['-', '+', '- -', '-+'])}{_grammar_expression(rng, depth - 1)}"
    return f"({_grammar_expression(rng, depth - 1)})"


GRAMMAR_EXPRESSIONS = [_grammar_expression(np.random.default_rng(100 + i), 5) for i in range(60)] + [
    "-t", "0 * -1", "-Y", "- -Y", "-(-(-t))", "-ma(Y, 3) * 0", "t - t", "-(t - t)",
    "9007199254740993 - 9007199254740992", "ma(Y, 500) / (ma(Y, 2) - ma(Y, 1))", "1 / 0 + 1 / t",
]
# time-values and prefixes: -0.0 from -t at t = 0, windows longer than the
# prefix, a leading -0.0 that np.cumsum keeps
GRAMMAR_CALLS = [(0.0, RECORD[:0]), (0.0, np.array([-0.0])), (0.37, RECORD[:1]), (0.5, RECORD[:3]),
                 (1e-3, RECORD[:7]), (0.25, RECORD[:60]), (2.0, np.array([-0.0, 0.0, -0.0])), (0.1, RECORD[:400])]


class TestCompiledBody:
    """The compiled body is one code object that reaches no builtins, and it
    computes what the reference evaluator does, bit for bit."""

    @pytest.mark.parametrize("expression", GRAMMAR_EXPRESSIONS)
    def test_matches_reference_bit_for_bit(self, expression):
        law, reference = compile_control_expression(expression), reference_control(expression)
        for call, (t, prefix) in enumerate(GRAMMAR_CALLS):
            got = _outcome(lambda: law(t, prefix))
            try:
                expected = reference(t, prefix), None
            except ZeroDivisionError:
                expected = None, (bf.ValidationError, f"control expression {expression!r}: division by zero")
            assert got[1] == expected[1], f"call {call}"
            assert got[0] is None or _bits(got[0]) == _bits(expected[0]), f"call {call}: {got[0]!r} != {expected[0]!r}"

    def test_signed_zero_and_constants_above_two_to_the_53(self):
        assert _bits(compile_control_expression("-t")(0.0, [])) == _bits(-0.0)
        assert _bits(compile_control_expression("0 * -1")(0.0, [])) == _bits(-0.0)
        assert _bits(compile_control_expression("-Y")(0.0, [])) == _bits(-0.0)
        assert _bits(compile_control_expression("Y")(0.0, [-0.0])) == _bits(-0.0)
        # constants are floats: 2**53 + 1 rounds to 2**53
        assert _bits(compile_control_expression("9007199254740993 - 9007199254740992")(0.0, [])) == _bits(0.0)

    def test_one_code_object_without_builtins(self):
        body = compile_control_expression("-(0.3 * Y) + ma(Y, 40) / (1 + t) - ma(Y, 2)").body
        assert not any(isinstance(c, type(body.__code__)) for c in body.__code__.co_consts)
        assert body.__globals__["__builtins__"] == {}
        assert set(body.__code__.co_names) <= {"_divide", "_float", "_reduce", "item"}

    @pytest.mark.parametrize("expression", ["Y / (Y - ma(Y, 1))", "1 / (t - t) + 1 / 0", "(1 / 0) / 0"])
    def test_division_by_zero_message(self, expression):
        with pytest.raises(bf.ValidationError) as info:
            compile_control_expression(expression)(0.5, RECORD[:5])
        assert str(info.value) == f"control expression {expression!r}: division by zero"

    @pytest.mark.parametrize("expression, offender", [
        ("t ** 2 + x", "BinOp(left=Name(id='t', ctx=Load()), op=Pow(), right=Constant(value=2))"),
        ("x + t ** 2", "Name(id='x', ctx=Load())"),
        ("-ma(Y, 0) * f(t)", "Call(func=Name(id='ma', ctx=Load()), args=[Name(id='Y', ctx=Load()), Constant(value=0)],"
                             " keywords=[])"),
        ("1 / (t < 2) + 'a'", "Compare(left=Name(id='t', ctx=Load()), ops=[Lt()], comparators=[Constant(value=2)])"),
    ])
    def test_first_of_two_bad_nodes_is_named(self, expression, offender):
        with pytest.raises(bf.ValidationError) as info:
            compile_control_expression(expression)
        assert str(info.value) == (f"control expression {expression!r}: unsupported construct {offender};"
                                   " the grammar allows numbers, t, Y, ma(Y, window), + - * / and parentheses")

    @pytest.mark.parametrize("terms", [1000, 20000])
    def test_expression_too_deep_is_refused(self, terms):
        expression = "t" + " + t" * terms
        with pytest.raises(bf.ValidationError) as info:
            compile_control_expression(expression)
        assert str(info.value) == f"control expression {expression!r}: nested too deeply to compile"

    @pytest.mark.parametrize("expression", ["1" + "0" * 400 + " * t", "t / 1" + "0" * 309])
    def test_constant_beyond_the_float_range_is_refused(self, expression):
        with pytest.raises(bf.ValidationError) as info:
            compile_control_expression(expression)
        assert str(info.value) == f"control expression {expression!r}: int too large to convert to float"

    def test_long_expression_still_compiles(self):
        expression = "Y" + " + t" * 300
        assert _bits(compile_control_expression(expression)(0.5, RECORD[:9])) == _bits(
            reference_control(expression)(0.5, RECORD[:9]))


NAN_IMAGINARY = np.array([0.1, complex(0.0, np.nan)])
_NOT_REAL = [
    (np.array([0.1 + 1j, 0.2]), "non-real value array([0.1+1.j, 0.2+0.j])"),
    ([0.1, 0.2 + 1e-300j], "non-real value [0.1, (0.2+1e-300j)]"),
    (NAN_IMAGINARY, f"non-real value {NAN_IMAGINARY!r}"),
    (np.array(["0.1", "0.2"]), "non-numeric value array(['0.1', '0.2'], dtype='<U3')"),
    ([b"0.1", b"0.2"], "non-numeric value [b'0.1', b'0.2']"),
    # bool and object entries are read one by one (`_finite_real`)
    ([True, True], "non-numeric value True"),
    ([0.1, 10**400], "integer of 401 digits, beyond the float range"),
    ([0.1, None], "non-numeric value None"),
]


class TestPrefixMustBeReal:
    """A record prefix is refused unless its entries are real numbers; a
    complex entry with imaginary part 0 counts as its real part."""

    @pytest.mark.parametrize("prefix, shown", _NOT_REAL)
    def test_direct_call_refuses(self, prefix, shown):
        with pytest.raises(bf.ValidationError) as info:
            compile_control_expression("Y")(0.5, prefix)
        assert str(info.value) == f"record prefix: {shown}"

    @pytest.mark.parametrize("prefix, shown", _NOT_REAL)
    def test_feedback_step_refuses(self, prefix, shown):
        law = ControlLaw.from_expression("Y", MODEL.hamiltonian, SIGMA_X)
        with pytest.raises(bf.ValidationError) as info:
            feedback_step(_start(True), 0.01, law, MODEL, prefix, DT, t=2 * DT)
        assert str(info.value) == f"record prefix: {shown}"

    @pytest.mark.parametrize("convert", [lambda a: a.astype(complex), lambda a: (a + 0j).tolist(),
                                         lambda a: a.astype(np.complex64), lambda a: a.tolist()])
    def test_zero_imaginary_parts_read_as_real(self, convert):
        expression = "0.2 * Y - 0.5 * ma(Y, 50)"
        law, twin = (ControlLaw.from_expression(expression, MODEL.hamiltonian, SIGMA_X) for _ in range(2))
        real = np.asarray(convert(RECORD[:60])).real.astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = law.control(0.5, convert(RECORD[:60]))
            got = feedback_step(_start(True), 0.01, law, MODEL, convert(RECORD[:60]), DT, t=60 * DT)
        assert _bits(u) == _bits(reference_control(expression)(0.5, real))
        expected = feedback_step(_start(True), 0.01, twin, MODEL, real, DT, t=60 * DT)
        assert got.matrix.tobytes() == expected.matrix.tobytes()

    def test_float64_prefix_is_taken_as_it_is(self, monkeypatch):
        calls = []
        real_prefix = filters._real_prefix
        monkeypatch.setattr(filters, "_real_prefix", lambda prefix: calls.append(prefix) or real_prefix(prefix))
        law = ControlLaw.from_expression("Y", MODEL.hamiltonian, SIGMA_X)
        increments = _record()
        for k in range(5):
            feedback_step(_start(True), increments[k], law, MODEL, increments[:k], DT, t=k * DT)
            feedback_step(_start(True), increments[k], law, MODEL, RECORD[:k].copy(), DT, t=k * DT)
        assert calls == []
        feedback_step(_start(True), 0.0, law, MODEL, [0.1, 0.2], DT, t=2 * DT)
        assert calls == [[0.1, 0.2]]


LAW3 = ControlLaw.from_expression("Y", np.zeros((3, 3)), np.eye(3))
WRONG_DIMENSION, LOOK_AHEAD = "a 3 x 3 state or law", "a prefix of 3 entries at t = 2 dt"
# the arguments of a good call, then bad values in the order feedback_step
# checks them (dt, state, law, prefix, t, causality, then dY), each with the
# error it raises; a bad prefix is the one refusal the parent did not make
GOOD_CALL = dict(state=None, dY=0.01, law=None, model=MODEL, record_prefix=None, dt=DT, t=2 * DT)
BAD_VALUES = [
    ("dt", 0.0, bf.ValidationError, "dt must be positive"),
    ("dt", -DT, bf.ValidationError, "dt must be positive"),
    ("dt", np.nan, bf.ValidationError, "dt: non-real value nan"),
    ("dt", "0.001", bf.ValidationError, "dt: non-numeric value '0.001'"),
    ("state", WRONG_DIMENSION, bf.DimensionMismatch, "state dim 3 != model dim 2"),
    ("law", WRONG_DIMENSION, bf.DimensionMismatch, "control H0/H1 dim 3 != model dim 2"),
    ("record_prefix", np.array([0.1 + 1j, 0.2]), bf.ValidationError,
     "record prefix: non-real value array([0.1+1.j, 0.2+0.j])"),
    ("t", np.nan, bf.ValidationError, "t: non-real value nan"),
    ("t", "0.002", bf.ValidationError, "t: non-numeric value '0.002'"),
    ("record_prefix", LOOK_AHEAD, bf.CausalityViolation,
     "record prefix extends to 0.003, at or beyond the current time 0.002"),
    ("dY", np.nan, bf.ValidationError, "increment dY: non-real value nan"),
]


def _call_arguments(bad):
    """The keyword arguments of a good call, and of the call with each
    (name, value) of `bad` in place of the good value."""
    law = ControlLaw.from_expression("0.2 * Y - 0.5 * ma(Y, 50)", MODEL.hamiltonian, SIGMA_X)
    increments = _record()
    good = dict(GOOD_CALL, state=_start(True), law=law, record_prefix=increments[:2])
    kwargs = dict(good)
    for name, value in bad:
        if value is WRONG_DIMENSION:
            value = FilterState(np.eye(3, dtype=complex) / 3) if name == "state" else LAW3
        elif value is LOOK_AHEAD:
            value = increments[:3]
        kwargs[name] = value
    return good, kwargs


def _in_thread(run):
    out = []
    thread = threading.Thread(target=lambda: out.append(_outcome(run)))
    thread.start()
    thread.join(timeout=60)
    return out[0]


class TestFeedbackRefusals:
    """Each bad argument, alone or with another, raises the error of the
    first check it fails, on a fresh thread and on one with a bound run."""

    @staticmethod
    def _refusal(bad, bound):
        good, kwargs = _call_arguments(bad)

        def run():
            if bound:  # binds the run that serves the good arguments
                feedback_step(**good)
            return feedback_step(**kwargs)

        return _in_thread(run)[1]

    @pytest.mark.parametrize("bound", [False, True], ids=["fresh", "bound"])
    @pytest.mark.parametrize("name, value, error, message", BAD_VALUES, ids=lambda v: str(v)[:20])
    def test_each_bad_argument(self, name, value, error, message, bound):
        assert self._refusal([(name, value)], bound) == (error, message)

    @pytest.mark.parametrize("bound", [False, True], ids=["fresh", "bound"])
    def test_pairs_raise_the_earlier_check(self, bound):
        for i, first in enumerate(BAD_VALUES):
            for second in BAD_VALUES[i + 1 :]:
                if first[0] == second[0]:
                    continue
                got = self._refusal([first[:2], second[:2]], bound)
                assert got == first[2:], f"{first[:2]} with {second[:2]}: {got}"


def _refed(state, call):
    """Each state handed to two calls, the second's result going on."""
    call(state)
    return call(state)


def _copied(state, call):
    """Each state handed over as an equal copy of itself."""
    return call(FilterState(state.matrix.copy(), state.normalized, state.likelihood))


class TestServedCalls:
    """A call that a bound run serves follows its prefix, with one add for
    a record view one entry longer than the last: each must give the matrix
    bits `_apply` gives on a reference run bound for the same arguments, and
    the normalization and likelihood a FilterState must carry.  Every call
    after the first is served."""

    @pytest.mark.parametrize("name, value, error, message", BAD_VALUES, ids=lambda v: str(v)[:20])
    def test_each_bad_argument_one_entry_on(self, name, value, error, message):
        # the bound run's last prefix is one entry shorter than the good
        # call's, the case a served call sums by one add: the refusal is
        # the same, and the good call after it steps as a fresh run does
        good, kwargs = _call_arguments([(name, value)])
        first = dict(good, record_prefix=good["record_prefix"][:1], t=DT)

        def bound():
            feedback_step(**first)
            refused = _outcome(lambda: feedback_step(**kwargs))[1]
            return refused, TestBoundFeedbackRun._outputs([feedback_step(**good)])

        def fresh():
            feedback_step(**first)
            return TestBoundFeedbackRun._outputs([feedback_step(**good)])

        refused, outputs = _in_thread(bound)[0]
        assert refused == (error, message)
        assert outputs == _in_thread(fresh)[0]

    @pytest.mark.parametrize("sequence", SEQUENCES, ids=lambda s: s.__name__.strip("_"))
    def test_prefix_sequences_match_fresh_runs(self, sequence):
        # each call steps as a run bound for it alone: the same bits, or
        # the same refusal
        law = ControlLaw.from_expression("0.2 * Y - 0.5 * ma(Y, 50)", MODEL.hamiltonian, SIGMA_X)
        homodyne = bf.MeasurementScheme.homodyne()
        # a state that does not commute with H1, so that u moves the step
        state = FilterState(DensityState.from_vector([1.0, 0.3 + 0.4j]).matrix.copy())
        for call, prefix in enumerate(sequence()):
            t = 0.37 + 1e-3 * np.size(prefix)

            def fresh():
                run = _LawRun(law, MODEL, homodyne, DT, True)
                arr = filters._real_prefix(prefix)
                run.follow(arr)
                return filters._apply(state, 0.01, run.s, run.step, False, True, run.control(t, arr, arr.size))

            with np.errstate(over="ignore", invalid="ignore"):  # sums that overflow, inf - inf
                got, want = _outcome(lambda: feedback_step(state, 0.01, law, MODEL, prefix, DT, t=t)), _outcome(fresh)
            assert got[1] == want[1], f"call {call}"
            assert (got[0] is None) == (want[0] is None), f"call {call}"
            assert got[0] is None or got[0].matrix.tobytes() == want[0].matrix.tobytes(), f"call {call}"

    @pytest.mark.parametrize("hand_over", [_refed, _copied, lambda state, call: call(state)],
                             ids=["state fed twice", "equal copy", "as returned"])
    @pytest.mark.parametrize("normalized", [True, False], ids=["bks", "zakai"])
    def test_states_match_apply(self, hand_over, normalized):
        law = ControlLaw.from_expression("0.2 * Y - 0.5 * ma(Y, 50)", MODEL.hamiltonian, SIGMA_X)
        homodyne = bf.MeasurementScheme.homodyne()
        increments = _record()
        reference = _LawRun(law, MODEL, homodyne, DT, normalized)
        state, checked = _start(normalized), 0
        for k in range(120):
            prefix, t = increments[:k], k * DT

            def call(given):
                nonlocal checked
                got = feedback_step(given, increments[k], law, MODEL, prefix, DT, t=t)
                reference.follow(prefix)
                u = reference.control(t, prefix, k)
                want = filters._apply(given, increments[k], reference.s, reference.step, False, normalized, u)
                assert type(got) is FilterState
                assert got.matrix.shape == want.matrix.shape and got.matrix.tobytes() == want.matrix.tobytes()
                assert got.normalized is normalized
                # a normalized step keeps the incoming likelihood
                assert _bits(got.likelihood) == _bits(given.likelihood if normalized else want.likelihood)
                checked += 1
                return got

            state = hand_over(state, call)
        assert checked >= 120
        assert normalized or _bits(state.likelihood) != _bits(1.0)
