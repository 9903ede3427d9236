"""Layered multicast scheduling on dynamic source channels.

A source spreads each application buffer over multicast groups whose
rates decay over time, so that a receiver subscribing to any fraction of
the total rate collects exactly the first fraction of every buffer.  On
top of that sit a FEC block carousel for file transfer and a
deterministic network simulator used for evaluation.

Import names from the submodules (``dyncast.transfer``,
``dyncast.netsim``, ...).  Importing the package loads all of them.
"""

from . import carousel, channel, fec, netsim, reassembly, sequencer, transfer, wire  # noqa: F401
