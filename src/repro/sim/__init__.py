"""Discrete-event simulation kernel.

A deliberately small, dependency-free DES core:

- :class:`~repro.sim.kernel.Simulator` owns the virtual clock and the
  event heap and runs callbacks in timestamp order.
- :class:`~repro.sim.events.Event` is a scheduled, cancelable callback.
- :class:`~repro.sim.resources.FifoQueue` models bounded queues; the
  fair-share stations in :mod:`repro.sim.resources` model the
  processing stages (a CPU core polling its ports, ...).
- :class:`~repro.sim.rng.RngStreams` hands out independent, seeded random
  streams so experiments are reproducible.
"""

from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.resources import FifoQueue
from repro.sim.rng import RngStreams

__all__ = ["Event", "Simulator", "FifoQueue", "RngStreams"]
