"""Execution layer: payload sizing, the bulk barrier's columns and the bench pool.

The MPC and CONGEST simulators run every round as a plain in-process loop;
the paper needs both models only as cost models, so what this package
shares with them is accounting, not scheduling:

* :func:`~repro.exec.words.payload_words` -- the word-size convention shared
  by the MPC budget/counter accounting and the CONGEST per-edge message
  limit.
* :func:`~repro.exec.columns.copy_columns` -- the bulk barrier both
  simulators' rounds share: every outbox crosses it as int columns copied
  into ``array('q')``, so a receiver never shares a column with its sender.
  Message faults pick positions of those copies
  (:func:`~repro.exec.columns.fault_positions`).
* :func:`~repro.exec.pool.run_spec_task` -- the picklable worker the bench
  runner's ``--jobs N`` process pool executes.

Determinism contract: the bench pool only changes *where* a scenario runs,
never its record.  The runner merges records back in spec order, so a
parallel suite is indistinguishable from a serial one except for wall-clock
time.
"""

from repro.exec.words import payload_words

__all__ = [
    "payload_words",
]
