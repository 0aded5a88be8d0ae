"""Resilient experiment runtime.

Makes long-running sweeps resumable, bounded, and self-verifying:

* :mod:`repro.runtime.checkpoint` -- atomic on-disk journals keyed by
  ``(scheme, trace fingerprint, options)``; a re-run resumes from the
  last completed tier point.
* :mod:`repro.runtime.deadline`   -- soft time budgets, cooperative
  SIGINT handling, and retry-with-backoff for transient failures.
* :mod:`repro.runtime.guard`      -- engine invariant checks with
  graceful degradation to the scalar reference engine, plus the opt-in
  paranoid vectorized-vs-reference cross-check.
* :mod:`repro.runtime.faults`     -- deterministic fault injection
  (``REPRO_FAULT_SPEC``) used by the resilience test-suite.
"""

from repro.runtime.checkpoint import (
    CheckpointJournal,
    atomic_write_text,
    flush_open_journals,
    record_crc,
    sweep_key,
)
from repro.runtime.deadline import (
    CooperativeInterrupt,
    Deadline,
    DeadlineExceeded,
    retry_with_backoff,
)
from repro.runtime.faults import (
    FAULT_ENV,
    InjectedFault,
    clear_faults,
    install_faults,
    maybe_inject,
    parse_fault_spec,
)
from repro.runtime.guard import (
    PARANOID_PREFIX,
    guarded_simulate,
    result_invariant_violation,
)

__all__ = [
    "CheckpointJournal",
    "atomic_write_text",
    "flush_open_journals",
    "record_crc",
    "sweep_key",
    "CooperativeInterrupt",
    "Deadline",
    "DeadlineExceeded",
    "retry_with_backoff",
    "FAULT_ENV",
    "InjectedFault",
    "clear_faults",
    "install_faults",
    "maybe_inject",
    "parse_fault_spec",
    "guarded_simulate",
    "result_invariant_violation",
    "PARANOID_PREFIX",
]
