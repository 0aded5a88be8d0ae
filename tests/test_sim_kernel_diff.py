"""Differential harness for the segmented counter kernel.

Three implementations of one semantics are checked against each other:
the clamp-form scan (the fast path every counter table takes), the
general function-table scan, and direct per-step execution
(``sequential_scan``). They run over hypothesis-drawn streams and over
adversarial ones that stress the clamp path's early exit:

* a single counter (one segment spanning the whole stream),
* all-distinct indices (every step a segment start),
* a never-saturating T/N alternation (no composition ever turns
  constant, so every step runs all ``log2(T)`` passes),
* the alternating-pair pattern of a "dancing branch" program: pairs of
  branches, one never taken and one always taken, visited in a
  shuffled order inside a loop.

Counter widths 1-7 are covered, with the tournament chooser's
[hold, dec, inc, hold] table, at every initial state. At the engine
level every vectorized scheme is checked against the scalar reference
engine at 1-, 3- and 4-bit counters (the equivalence suite covers the
default 2 bits).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors import make_predictor_spec
from repro.predictors.counters import counter_transitions
from repro.sim import simulate_reference, simulate_vectorized
from repro.sim import fsm_scan
from repro.sim.vectorized import VECTORIZED_SCHEMES
from repro.traces import BranchTrace
from tests.test_sim_equivalence import random_trace
from tests.test_sim_fsm_scan import sequential_scan

WIDTHS = range(1, 8)


def chooser_transitions(nbits):
    """The tournament chooser's table: input a_correct + 2*b_correct;
    hold, move toward A, move toward B, hold."""
    states = np.arange(1 << nbits)
    top = (1 << nbits) - 1
    return np.stack(
        [
            states,
            np.maximum(states - 1, 0),
            np.minimum(states + 1, top),
            states,
        ]
    ).astype(np.uint8)


TABLES = [("counter", bits, counter_transitions(bits)) for bits in WIDTHS] + [
    ("chooser", bits, chooser_transitions(bits)) for bits in WIDTHS
]
TABLE_IDS = [f"{kind}{bits}" for kind, bits, _ in TABLES]


def three_way(transitions, inputs, segments, init_state, label=""):
    """Run all three implementations; assert they agree."""
    top = transitions.shape[1] - 1
    form = fsm_scan.clamp_form(transitions)
    assert form is not None
    inputs = np.asarray(inputs, dtype=np.uint8)
    segments = np.asarray(segments)
    clamp = fsm_scan._clamp_scan(form, top, inputs, segments, init_state)
    table = fsm_scan._table_scan(transitions, inputs, segments, init_state)
    direct = sequential_scan(transitions, inputs, segments, init_state)
    public = fsm_scan.scan_automaton(transitions, inputs, segments, init_state)
    label = f"{label} init={init_state}"
    np.testing.assert_array_equal(clamp, direct, err_msg=label)
    np.testing.assert_array_equal(table, direct, err_msg=label)
    np.testing.assert_array_equal(public, direct, err_msg=label)


def dancing_pairs(repeats):
    """(branch ids, outcomes) of the dancing-branch loop: the body
    visits branch pairs (2k never taken, 2k+1 always taken) in the
    order 0, 4, 1, 3, 2, then the loop-back branch (10, taken except on
    the last iteration)."""
    order = [0, 4, 1, 3, 2]
    ids, outcomes = [], []
    for iteration in range(repeats):
        for pair in order:
            ids += [2 * pair, 2 * pair + 1]
            outcomes += [False, True]
        ids.append(10)
        outcomes.append(iteration < repeats - 1)
    return np.array(ids), np.array(outcomes)


def adversarial_streams(length):
    """(name, inputs for a two-symbol counter table, segment ids)."""
    rng = np.random.default_rng(length)
    alternating = np.arange(length) % 2
    ids, outcomes = dancing_pairs(length // 11 + 1)
    order = np.argsort(ids, kind="stable")
    return [
        ("single", rng.integers(0, 2, size=length), np.zeros(length, int)),
        ("distinct", rng.integers(0, 2, size=length), np.arange(length)),
        ("alternating", alternating, np.zeros(length, int)),
        ("alternating-runs", (np.arange(length) // 3) % 2,
         np.arange(length) // 97),
        ("dancing", outcomes[order].astype(np.uint8), ids[order]),
        ("one-alternating-among-saturating",
         *alternating_among_saturating(length)),
    ]


def alternating_among_saturating(length):
    """One never-saturating counter on the first eighth of the steps,
    always-taken counters of 8 steps each on the rest: the live set
    shrinks below the dense-pass share early, so the deep passes of the
    alternating counter run on compacted indices."""
    steps = np.arange(length)
    alternating = steps < max(1, length // 8)
    inputs = np.where(alternating, steps % 2, 1).astype(np.uint8)
    segments = np.where(alternating, 0, 1 + steps // 8)
    return inputs, segments


def as_table_inputs(kind, counter_inputs):
    """Map taken/not-taken onto the table's own symbols: the counter's
    0/1, or the chooser's "only A correct" (1) / "only B correct" (2)."""
    counter_inputs = np.asarray(counter_inputs, dtype=np.uint8)
    return counter_inputs if kind == "counter" else counter_inputs + 1


class TestClampForm:
    @pytest.mark.parametrize("kind,bits,table", TABLES, ids=TABLE_IDS)
    def test_counter_and_chooser_tables_are_clamp_form(
        self, kind, bits, table
    ):
        a, lo, hi = fsm_scan.clamp_form(table)
        states = np.arange(table.shape[1])
        rebuilt = np.clip(states + a[:, None], lo[:, None], hi[:, None])
        np.testing.assert_array_equal(rebuilt, table)

    def test_non_monotone_table_is_not_clamp_form(self):
        swap = np.array([[1, 0, 2, 3], [0, 1, 2, 3]], dtype=np.uint8)
        assert fsm_scan.clamp_form(swap) is None

    def test_scaled_table_is_not_clamp_form(self):
        doubling = np.array([[0, 2, 3, 3]], dtype=np.uint8)
        assert fsm_scan.clamp_form(doubling) is None

    def test_single_state_table_runs_the_table_scan(self):
        table = np.zeros((2, 1), dtype=np.uint8)
        assert fsm_scan.clamp_form(table) is None
        out = fsm_scan.scan_automaton(
            table, np.array([0, 1, 1]), np.array([0, 0, 1]), 0
        )
        assert list(out) == [0, 0, 0]


class TestAdversarialStreams:
    @pytest.mark.parametrize("kind,bits,table", TABLES, ids=TABLE_IDS)
    @pytest.mark.parametrize("length", [1, 2, 37, 300])
    def test_every_init_state(self, kind, bits, table, length):
        for name, counter_inputs, segments in adversarial_streams(length):
            inputs = as_table_inputs(kind, counter_inputs[:length])
            segments = segments[:length]
            for init_state in range(table.shape[1]):
                three_way(table, inputs, segments, init_state, name)

    @pytest.mark.parametrize("bits", [1, 2, 3, 7])
    def test_long_alternation_runs_every_pass(self, bits):
        """A 2^13-step alternation never saturates: the scan must run
        all 13 passes, here on whole slices, without losing a step to
        the early exit."""
        length = 1 << 13
        table = counter_transitions(bits)
        inputs = np.tile(np.array([1, 0], dtype=np.uint8), length // 2)
        segments = np.zeros(length, dtype=np.int64)
        for init_state in {0, (1 << bits) // 2, (1 << bits) - 1}:
            three_way(table, inputs, segments, init_state)

    @pytest.mark.parametrize("bits", [2, 3, 7])
    def test_long_alternation_among_saturating_counters(self, bits):
        """The same deep passes, run on the compacted live indices."""
        inputs, segments = alternating_among_saturating(1 << 14)
        table = counter_transitions(bits)
        for init_state in {0, (1 << bits) // 2, (1 << bits) - 1}:
            three_way(table, inputs, segments, init_state)


@st.composite
def streams(draw):
    """A table, an initial state and a segmented input stream; segments
    drawn short or long, inputs drawn biased or balanced, so streams
    range from saturating at once to never saturating."""
    kind, bits, table = draw(st.sampled_from(TABLES))
    init_state = draw(st.integers(0, table.shape[1] - 1))
    length = draw(st.integers(1, 400))
    n_segments = draw(st.integers(1, length))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    segments = np.sort(rng.integers(0, n_segments, size=length))
    bias = draw(st.sampled_from([0.02, 0.5, 0.98]))
    if draw(st.booleans()):
        counter_inputs = rng.random(length) < bias
    else:
        counter_inputs = (np.arange(length) // draw(st.integers(1, 5))) % 2
    inputs = as_table_inputs(kind, counter_inputs)
    if kind == "chooser":
        # Mix in the chooser's two hold symbols.
        holds = rng.random(length) < 0.2
        inputs = np.where(holds, 3 * rng.integers(0, 2, size=length), inputs)
    return table, inputs.astype(np.uint8), segments, init_state


class TestPropertyDifferential:
    @given(streams())
    @settings(max_examples=150, deadline=None)
    def test_clamp_table_and_direct_agree(self, case):
        table, inputs, segments, init_state = case
        three_way(table, inputs, segments, init_state)


@pytest.mark.parametrize(
    "low,high", [(0, 16), (0, 1 << 16), (0, 1 << 17), (-5, 40)]
)
def test_stable_order_is_the_stable_argsort(low, high):
    """uint16 keys when they fit, int64 otherwise: one permutation."""
    keys = np.random.default_rng(high).integers(low, high, size=5000)
    np.testing.assert_array_equal(
        fsm_scan.stable_order(keys), np.argsort(keys, kind="stable")
    )


def dancing_trace(repeats=60):
    ids, outcomes = dancing_pairs(repeats)
    pc = (0x4000 + ids * 4).astype(np.uint64)
    target = np.where(ids % 2 == 1, pc + np.uint64(64), pc - np.uint64(32))
    return BranchTrace(pc=pc, taken=outcomes, target=target, name="dancing")


def scheme_specs(bits):
    """One spec per vectorized scheme, all with ``bits``-bit counters."""
    make = make_predictor_spec
    return {
        "static": make("static", static_policy="btfn", counter_bits=bits),
        "bimodal": make("bimodal", cols=8, counter_bits=bits),
        "gag": make("gag", rows=16, counter_bits=bits),
        "gas": make("gas", rows=8, cols=4, counter_bits=bits),
        "gap": make("gap", rows=8, counter_bits=bits),
        "gshare": make("gshare", rows=16, cols=2, counter_bits=bits),
        "path": make("path", rows=16, cols=2, counter_bits=bits),
        "pag": make("pag", rows=16, bht_entries=8, bht_assoc=1,
                    counter_bits=bits),
        "pas": make("pas", rows=8, cols=2, bht_entries=4, bht_assoc=2,
                    counter_bits=bits),
        "pap": make("pap", rows=8, counter_bits=bits),
        "sag": make("sag", rows=8, bht_entries=4, counter_bits=bits),
        "sas": make("sas", rows=16, cols=4, bht_entries=8, bht_assoc=1,
                    counter_bits=bits),
        "agree": make("agree", rows=16, counter_bits=bits),
        "gskew": make("gskew", rows=16, counter_bits=bits),
        "tournament": make(
            "tournament",
            component_a=make("bimodal", cols=8, counter_bits=bits),
            component_b=make("gshare", rows=16, counter_bits=bits),
            chooser_rows=8,
            counter_bits=bits,
        ),
    }


def test_every_vectorized_scheme_has_a_spec():
    assert set(scheme_specs(2)) == set(VECTORIZED_SCHEMES)


@pytest.mark.parametrize("bits", [1, 3, 4])
@pytest.mark.parametrize("scheme", VECTORIZED_SCHEMES)
def test_engines_agree_at_counter_width(scheme, bits):
    spec = scheme_specs(bits)[scheme]
    for trace in (random_trace(bits), dancing_trace()):
        fast = simulate_vectorized(spec, trace)
        slow = simulate_reference(spec, trace)
        mismatches = np.flatnonzero(fast.predictions != slow.predictions)
        assert mismatches.size == 0, (
            f"{trace.name}: first mismatches at {mismatches[:5]}"
        )
        if slow.first_level_miss_rate is not None:
            assert fast.first_level_miss_rate == pytest.approx(
                slow.first_level_miss_rate
            )
