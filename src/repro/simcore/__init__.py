"""Deterministic discrete-event simulation core.

Everything in the repro library that needs time or randomness goes
through this package:

* :class:`~repro.simcore.clock.SimClock` — monotonic simulated time in
  float seconds since the simulated epoch.
* :class:`~repro.simcore.events.EventLoop` — a heap-based discrete-event
  scheduler with stable FIFO ordering for same-timestamp events.
* :class:`~repro.simcore.rng.RngRegistry` — named, independently seeded
  random streams, so adding a new consumer of randomness never perturbs
  the draws seen by existing consumers.
"""

from repro._lazy import lazy_exports

__all__ = ["SimClock", "Event", "EventLoop", "RngRegistry"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "clock": ("SimClock",),
    "events": ("Event", "EventLoop"),
    "rng": ("RngRegistry",),
})
