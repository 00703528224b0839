"""Graph-parallel GPU system emulations: Medusa, Gunrock, GSWITCH, VETGA.

Each ``*_decompose`` runs through the same host skeleton as the paper's
own program (:class:`~repro.core.driver.HostRun`) and takes the same
three observer switches:

* ``sanitize=True`` attaches the static lint report over the
  emulation's source (:func:`~repro.systems.base.lint_emulation`): an
  emulation books device time through
  :meth:`~repro.gpusim.device.Device.charge` and launches no SIMT
  kernels, so there is nothing for the dynamic racecheck to shadow;
* ``profile=True`` records every labelled charge as a coarse
  ``source="charge"`` profile entry — enough for ``--ncu`` to attribute
  where a Gunrock or Medusa run spends its cycles;
* ``memtrace=True`` records every allocation's lifetime; anything
  already resident on a caller's ``device`` is folded into the base.
"""

from repro.systems.base import DEFAULT_TUNING, SystemTuning
from repro.systems.gswitch import gswitch_decompose
from repro.systems.gunrock import gunrock_decompose
from repro.systems.medusa import medusa_decompose
from repro.systems.vetga import vetga_decompose

__all__ = [
    "DEFAULT_TUNING",
    "SystemTuning",
    "gswitch_decompose",
    "gunrock_decompose",
    "medusa_decompose",
    "vetga_decompose",
]
