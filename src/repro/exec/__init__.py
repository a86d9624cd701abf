"""Execution layer: payload sizing, the isolation sanitizer and the bench pool.

The MPC and CONGEST simulators run every round as a plain in-process loop;
the paper needs both models only as cost models, so what this package
shares with them is accounting, not scheduling:

* :func:`~repro.exec.words.payload_words` -- the word-size convention shared
  by the MPC budget/counter accounting and the CONGEST per-edge message
  limit.
* :class:`~repro.exec.isolation.IsolationGuard` -- the runtime sanitizer
  that checksums what crosses a simulator's exchange barrier (delivering
  deep copies of CONGEST payloads) and raises
  :class:`~repro.exec.isolation.IsolationViolation` when a sender mutates
  a payload or column it already sent.
* :func:`~repro.exec.pool.run_spec_task` -- the picklable worker the bench
  runner's ``--jobs N`` process pool executes.

Determinism contract: the bench pool only changes *where* a scenario runs,
never its record.  The runner merges records back in spec order, so a
parallel suite is indistinguishable from a serial one except for wall-clock
time.
"""

from repro.exec.isolation import IsolationGuard, IsolationViolation
from repro.exec.words import payload_words

__all__ = [
    "IsolationGuard",
    "IsolationViolation",
    "payload_words",
]
