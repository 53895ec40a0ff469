"""Live phase detection over growing traces (``repro watch``).

The batch pipeline needs a complete trace; this package follows one that
is still being written — by a running application, a ``tail``-style
producer, or stdin — and keeps an approximate phase model warm while the
trace grows:

* :mod:`repro.stream.source` — tailing byte source (file or stdin
  spool); its text goes through the one trace parser,
  :class:`repro.trace.reader.TraceParser`, re-exported here as
  ``StreamParser``, and its records through the one burst state machine,
  :class:`repro.clustering.bursts.IncrementalBurstAssembler`, which batch
  extraction drives too;
* :mod:`repro.stream.model` — frozen-scaler online cluster assignment,
  bounded reservoirs, drift detection;
* :mod:`repro.stream.engine` — the orchestrating engine: telemetry
  events, periodic PWLR refits, the follow loop, and exact batch
  finalization (the convergence guarantee);
* :mod:`repro.stream.checkpoint` — atomic checkpoint/resume.

The contract that makes the approximation safe: once the trace stops
growing and the stream finalizes, the emitted result is byte-identical
(through the store codec) to a cold ``repro analyze`` of the same file.
``repro selftest`` enforces it differentially.
"""

from repro.clustering.bursts import IncrementalBurstAssembler
from repro.stream.checkpoint import (
    CHECKPOINT_FORMAT,
    load_checkpoint,
    resume_engine,
    save_checkpoint,
)
from repro.stream.engine import StreamConfig, StreamEngine, StreamReport
from repro.stream.model import ClusterReservoir, DriftWindow, OnlineClusterModel
from repro.stream.source import TraceTailSource
from repro.trace.reader import TraceParser as StreamParser

__all__ = [
    "StreamParser",
    "TraceTailSource",
    "IncrementalBurstAssembler",
    "OnlineClusterModel",
    "ClusterReservoir",
    "DriftWindow",
    "StreamConfig",
    "StreamEngine",
    "StreamReport",
    "CHECKPOINT_FORMAT",
    "save_checkpoint",
    "load_checkpoint",
    "resume_engine",
]
