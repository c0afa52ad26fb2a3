"""Network simulation: the path between clients, server, and the tracer.

* :class:`~repro.netsim.link.NetworkPath` carries calls to the server
  and replies back, adding service latency, and feeds every packet to
  the installed taps.
* :class:`~repro.netsim.mirror.MirrorPort` models the switch mirror
  (SPAN) port the paper traced through: a bandwidth-limited egress that
  drops packets during bursts, which is how the paper lost up to ~10%
  of packets on CAMPUS (Section 4.1.4).
"""

from repro._lazy import lazy_exports

__all__ = ["NetworkPath", "MirrorPort", "wire_size"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "link": ("NetworkPath", "wire_size"),
    "mirror": ("MirrorPort",),
})
