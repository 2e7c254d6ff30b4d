"""Reference kernel: a fixed CPU workload that measures host speed.

Shared hosts drift: on a 2-vCPU shared VM two unrelated kernels slowed
together by up to 1.51x within 90 s while their ratio stayed within
+-2%, and an integer loop once ran 3x slower for minutes.  The program
under test drifts with the host, so every timed op is scaled by
``NOMINAL_MS`` over the host's kernel time around it (see
:class:`harness.Corrector`).

The kernel imports no ``repro`` code, so no change to the program can
change it, and it allocates no GC-tracked objects (its table and
buffers are built once, on first use), so the collector never runs
inside it.  It has two halves of about equal time:

* small Python function calls doing dict lookups, the interpreter work
  the pipeline, BDD and NCFlow code is made of;
* copies of a 4 MiB buffer (beyond L2, inside L3), which slow when
  other tenants evict the last-level cache the way HiGHS and NumPy
  work does.

Candidates (integer loop, calls, string slicing, buffer copies) were
logged beside three fixed ops for ten minutes.  Calls plus copies
tracked the drift of a campaign, an NCFlow+pf4 solve and an AP build
about as well as any mix: over 25 s blocks the ops' log-spread fell
from 0.12-0.14 to 0.056-0.057.  Copies matter under cache contention:
a memory-streaming neighbour slowed ``te`` ops by 17%, an integer loop
by 0-2% and the copies by 24%.

It is timed with ``time.thread_time()``, so the program's own threads
and worker processes cannot inflate it.
"""

import time

#: Kernel thread-CPU time on the reference host (a 2-vCPU shared VM).  Only
#: the scale of corrected numbers depends on it, never their spread.
NOMINAL_MS = 4.0

_CALLS = 30_000
_COPY_BYTES = 4 << 20
_COPIES = 12
_state = []


def _lookup(key, table):
    return table.get(key & 4095, 0) + 1


def kernel_ms() -> float:
    """Run the kernel once; returns its thread-CPU time in ms."""
    if not _state:
        # Built on first use, not at import: worker processes that
        # import this module never pay for it.
        _state.extend([
            {key: key * 7 for key in range(4096)},
            bytes(range(256)) * (_COPY_BYTES // 256),
            bytearray(_COPY_BYTES),
        ])
    table, source, target = _state
    # Untimed copy: the timed ones must not depend on how much of the
    # buffer the op before evicted, only on the host.
    target[:] = source
    start = time.thread_time()
    acc = 0
    for i in range(_CALLS):
        acc += _lookup(i, table)
    for _ in range(_COPIES):
        target[:] = source
    return (time.thread_time() - start) * 1000.0
