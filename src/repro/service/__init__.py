"""Conversion as a service: the async job server over the facade.

The paper frames conversion as a sustained organizational effort --
hundreds of application programs flowing through one conversion
pipeline while the shop keeps operating.  This package is that shape
as software: a zero-dependency HTTP server (``repro serve``) that
accepts batch-conversion jobs, executes them through
:mod:`repro.api` on a bounded queue with a shared warm worker pool,
streams per-program progress as server-sent events, and serves the
resulting report and checkpoint artifacts byte-identical to what a
``repro convert`` shell run of the same inputs writes.

Layout:

* :mod:`repro.service.jobs` -- submission validation, the spooled
  :class:`~repro.service.jobs.Job`, and the
  :class:`~repro.service.jobs.JobManager` (queue, executor thread,
  warm cascade-and-pool cache, graceful drain);
* :mod:`repro.service.server` -- the HTTP handler,
  :class:`~repro.service.server.ConversionService` for embedding, and
  the blocking :func:`~repro.service.server.serve` entry point;
* :mod:`repro.service.sse` -- both ends of the ``text/event-stream``
  wire format.
"""

from repro.service.jobs import (
    Job,
    JobManager,
    QueueFullError,
    SubmissionError,
    validate_submission,
)
from repro.service.server import ConversionService, serve
from repro.service.sse import format_event, parse_events

__all__ = [
    "ConversionService",
    "Job",
    "JobManager",
    "QueueFullError",
    "SubmissionError",
    "format_event",
    "parse_events",
    "serve",
    "validate_submission",
]
