"""Segmented automaton scan — the core numpy trick.

Problem: simulate T saturating-counter updates where access t trains
counter ``idx[t]`` with outcome ``taken[t]``, and report the counter's
*prediction* (its state before training) at every access. The state
dependency chain within one counter is sequential, so naive
vectorization is impossible; a Python loop over 10^6+ accesses times
~80 table shapes per figure is hopeless.

Observation: each access applies one of a few *transition functions*
to a small state machine, and function composition is associative.
Sorting accesses by counter index groups each counter's accesses
contiguously (stably, so time order is preserved within a group); an
exclusive segmented prefix *composition* over the per-access transition
functions then yields, for every access, the map from the counter's
initial state to its state just before that access. A Hillis–Steele
scan computes it in at most ``log2(T)`` passes of pure numpy, with no
Python loop over accesses.

**Clamp form (the fast path).** Every row of an n-bit saturating
counter's table is ``s -> clip(s + a, lo, hi)``, and so is every row of
the tournament chooser's [hold, dec, inc, hold] table. Such functions
are closed under composition::

    g . f = (clip(a_f + a_g, -top, top),
             clip(lo_f + a_g, lo_g, hi_g),
             clip(hi_f + a_g, lo_g, hi_g))

(``top`` is the largest state; an offset beyond it clips like ``top``
does). So the scan carries three small-int arrays ``(a, lo, hi)`` per
step instead of a ``(T, S)`` table of composed functions. A step's
inclusive composition is final, and the step leaves the scan, as soon
as either

* its window reaches its segment's first step (after the pass at
  distance d the window spans 2d steps), or
* its composition is constant (``lo == hi``: the counter saturated, so
  nothing earlier can change the result).

The first passes, where most steps are still live, run on whole
shifted slices; once few remain, the scan works on a compacted index
set. Typical counter streams saturate within a few passes; the worst
case, a single counter fed a never-saturating T/N alternation, runs all
``log2(T)`` passes. The state before step t is
``clip(init + a, lo, hi)`` of step t-1's composition (the initial state
at a segment's first step).

**Table form.** A table that is not clamp-form (any other small
automaton) runs the general ``(T, S)`` function-table scan: compose
with ``take_along_axis`` at distances 1, 2, 4, ... and read the
exclusive state through the initial state's column. The transition
tables live in :mod:`repro.predictors.counters` and are passed in
explicitly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.profile import phase
from repro.predictors.counters import (
    counter_init_state,
    counter_outputs,
    counter_transitions,
)

#: Run a clamp-form pass on whole slices while at least this share of
#: the steps is still live; below it, on the compacted live indices.
_DENSE_SHARE = 0.25

ClampForm = Tuple[np.ndarray, np.ndarray, np.ndarray]


def scan_automaton(
    transitions: np.ndarray,
    inputs: np.ndarray,
    segment_ids: np.ndarray,
    init_state: int,
) -> np.ndarray:
    """States *before* each step of per-segment automaton executions.

    Parameters
    ----------
    transitions:
        ``(n_inputs, n_states)`` table; ``transitions[a, s]`` is the
        state after reading input ``a`` in state ``s``.
    inputs:
        ``(T,)`` input symbols, one per step.
    segment_ids:
        ``(T,)`` non-decreasing array; equal ids delimit one automaton
        instance executing its steps in order. (Non-decreasing is
        required so "same id at distance d" implies one segment.)
    init_state:
        State every automaton starts in.

    Returns
    -------
    ``(T,)`` uint8 array: the automaton's state immediately before
    consuming each input (i.e. the state a predictor would read).
    """
    with phase("fsm_scan"):
        return _scan_automaton(transitions, inputs, segment_ids, init_state)


def _scan_automaton(
    transitions: np.ndarray,
    inputs: np.ndarray,
    segment_ids: np.ndarray,
    init_state: int,
) -> np.ndarray:
    transitions = np.asarray(transitions, dtype=np.uint8)
    if transitions.ndim != 2:
        raise ConfigurationError("transitions must be 2-D (inputs x states)")
    n_states = transitions.shape[1]
    if not 0 <= init_state < n_states:
        raise ConfigurationError(
            f"init_state {init_state} out of range for {n_states} states"
        )
    inputs = np.asarray(inputs)
    segment_ids = np.asarray(segment_ids)
    total = len(inputs)
    if len(segment_ids) != total:
        raise ConfigurationError("inputs and segment_ids length mismatch")
    if total == 0:
        return np.empty(0, dtype=np.uint8)
    if np.any(segment_ids[1:] < segment_ids[:-1]):
        raise ConfigurationError("segment_ids must be non-decreasing")

    form = clamp_form(transitions)
    if form is None:
        return _table_scan(transitions, inputs, segment_ids, init_state)
    return _clamp_scan(form, n_states - 1, inputs, segment_ids, init_state)


def clamp_form(transitions: np.ndarray) -> Optional[ClampForm]:
    """``(a, lo, hi)`` per input row when every row of ``transitions``
    is ``s -> clip(s + a, lo, hi)``; None otherwise.

    The arrays are int16, wide enough for any uint8 state. A constant
    row gets ``a = 0``.
    """
    rows = np.asarray(transitions).astype(np.int16)
    n_inputs, n_states = rows.shape
    if n_states < 2:
        return None
    lo = rows[:, 0]
    hi = rows[:, -1]
    # The first rise of a clamp row is unclipped: row[k] = k + a there.
    rise = (np.diff(rows, axis=1) > 0).argmax(axis=1) + 1
    offset = np.where(lo == hi, 0, rows[np.arange(n_inputs), rise] - rise)
    rebuilt = np.clip(
        np.arange(n_states) + offset[:, None], lo[:, None], hi[:, None]
    )
    if not np.array_equal(rebuilt, rows):
        return None
    return offset.astype(np.int16), lo, hi


def _compose(
    earlier: ClampForm, later: ClampForm, top: int
) -> ClampForm:
    """``later . earlier`` of two clamp-form function arrays."""
    a_f, lo_f, hi_f = earlier
    a_g, lo_g, hi_g = later
    a = a_f + a_g
    np.clip(a, -top, top, out=a)
    lo = lo_f + a_g
    np.maximum(lo, lo_g, out=lo)
    np.minimum(lo, hi_g, out=lo)
    hi = hi_f + a_g
    np.maximum(hi, lo_g, out=hi)
    np.minimum(hi, hi_g, out=hi)
    return a, lo, hi


def _clamp_scan(
    form: ClampForm,
    top: int,
    inputs: np.ndarray,
    segment_ids: np.ndarray,
    init_state: int,
) -> np.ndarray:
    # States and offsets lie in [-top, top], so every sum of two of
    # them fits int8 while top < 64.
    dtype = np.int8 if top < 64 else np.int16
    a, lo, hi = (column.astype(dtype)[inputs] for column in form)
    total = len(inputs)
    starts = np.empty(total, dtype=bool)
    starts[0] = True
    np.not_equal(segment_ids[1:], segment_ids[:-1], out=starts[1:])
    steps = np.arange(total)
    position = steps - np.maximum.accumulate(np.where(starts, steps, 0))

    # live[t]: step t's composition covers steps t-d+1..t (d is the
    # next pass's distance), step t-d is in the same segment, and the
    # composition is not constant, so the pass must compose it.
    live = (position > 0) & (lo != hi)
    distance = 1
    while np.count_nonzero(live) >= _DENSE_SHARE * total:
        update = live[distance:]
        later = (a[distance:], lo[distance:], hi[distance:])
        earlier = (a[:-distance], lo[:-distance], hi[:-distance])
        new = _compose(earlier, later, top)
        np.copyto(later[0], new[0], where=update)
        np.copyto(later[1], new[1], where=update)
        np.copyto(later[2], new[2], where=update)
        live[distance:] = (
            update
            & (new[1] != new[2])
            & (position[distance:] >= 2 * distance)
        )
        distance *= 2

    active = np.flatnonzero(live)
    window = position[active]
    while active.size:
        prior = active - distance
        new = _compose(
            (a[prior], lo[prior], hi[prior]),
            (a[active], lo[active], hi[active]),
            top,
        )
        a[active], lo[active], hi[active] = new
        distance *= 2
        keep = (new[1] != new[2]) & (window >= distance)
        active = active[keep]
        window = window[keep]

    # Exclusive shift: the state before step t applies step t-1's
    # composition to the initial state; segment-first steps see the
    # initial state itself.
    states_before = np.full(total, init_state, dtype=np.uint8)
    reached = np.clip(init_state + a[:-1], lo[:-1], hi[:-1])
    states_before[1:] = np.where(starts[1:], init_state, reached)
    return states_before


def _table_scan(
    transitions: np.ndarray,
    inputs: np.ndarray,
    segment_ids: np.ndarray,
    init_state: int,
) -> np.ndarray:
    total = len(inputs)
    # Per-step function table: funcs[t, s] = state after step t given
    # state s before it.
    funcs = transitions[inputs]  # (T, n_states)

    # Inclusive segmented prefix composition (Hillis–Steele): after
    # convergence comp[t] = f_t . f_{t-1} . ... . f_{segment start}.
    comp = funcs.copy()
    distance = 1
    while distance < total:
        same_segment = segment_ids[distance:] == segment_ids[:-distance]
        # compose: (comp[t] . comp[t-d])[s] = comp[t][ comp[t-d][s] ]
        merged = np.take_along_axis(
            comp[distance:], comp[:-distance], axis=1
        )
        comp[distance:] = np.where(
            same_segment[:, None], merged, comp[distance:]
        )
        distance *= 2

    # Exclusive shift: state before step t applies comp[t-1] to the
    # initial state; segment-first steps see the initial state itself.
    states_before = np.full(total, init_state, dtype=np.uint8)
    if total > 1:
        continues = segment_ids[1:] == segment_ids[:-1]
        prior = comp[:-1, init_state]
        states_before[1:] = np.where(continues, prior, init_state)
    return states_before


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, faster for small keys.

    Keys in ``[0, 2^16)`` sort as ``uint16``, for which numpy's stable
    sort is a radix sort; the permutation is the same.
    """
    keys = np.asarray(keys)
    if (
        keys.size
        and keys.dtype.kind in "iu"
        and keys.min() >= 0
        and keys.max() < 1 << 16
    ):
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def segmented_counter_predictions(
    idx: np.ndarray,
    taken: np.ndarray,
    counter_bits: int = 2,
    init_state: int = -1,
) -> np.ndarray:
    """Predictions of a table of saturating counters, vectorized.

    ``idx[t]`` is the counter each access trains; ``taken[t]`` the
    outcome. Returns the per-access predictions (bool) a trace-driven
    simulation would produce. Equivalent to driving
    :class:`repro.predictors.counters.CounterBank` access by access.
    """
    # ``counter_update`` reports its self time: the nested
    # ``scan_automaton`` phase times itself as ``fsm_scan``.
    with phase("counter_update"):
        idx = np.asarray(idx)
        taken = np.asarray(taken, dtype=bool)
        if idx.shape != taken.shape:
            raise ConfigurationError("idx and taken must have the same shape")
        if init_state < 0:
            init_state = counter_init_state(counter_bits)

        order = stable_order(idx)
        states = scan_automaton(
            transitions=counter_transitions(counter_bits),
            inputs=taken[order].view(np.uint8),
            segment_ids=idx[order],
            init_state=init_state,
        )
        outputs = counter_outputs(counter_bits)
        predictions = np.empty(len(idx), dtype=bool)
        predictions[order] = outputs[states]
    return predictions
