"""Deterministic fault injection and the campaign harness.

Three layers (see ``docs/ROBUSTNESS.md``):

* :mod:`repro.fault.plan` — :class:`FaultPlan`: a seeded, reproducible
  generator of :class:`FaultSite` descriptions (what to corrupt, where,
  which bit);
* :mod:`repro.fault.inject` — :func:`arm_fault`: turns a site into an
  armed corruption of a live :class:`~repro.kernels.runner.KernelRunner`
  (trace-hook bit flips, poisoned re-fusion of the aot tier, output
  perturbation), returning a disarm handle;
* :mod:`repro.fault.campaign` — :func:`run_campaign`: injects N planned
  faults into checked :class:`~repro.field.simulated.SimulatedFieldContext`
  operations and classifies every trial as detected/recovered, masked,
  or escaped, emitting a JSON-able :class:`CampaignReport` (the artifact
  behind ``repro faults`` and the CI smoke job).
"""

from __future__ import annotations

from repro.fault.campaign import CampaignReport, TrialResult, run_campaign
from repro.fault.inject import ArmedFault, arm_fault
from repro.fault.plan import (
    ALL_SITES,
    FAULT_OPERATIONS,
    FaultPlan,
    FaultSite,
    SITE_MEMORY_FLIP,
    SITE_OUTPUT_CORRUPT,
    SITE_REGISTER_FLIP,
    SITE_REPLAY_CLOSURE,
    SITE_REPLAY_CYCLES,
    SITE_REPLAY_SKIP,
)

__all__ = [
    "ALL_SITES", "FAULT_OPERATIONS", "FaultPlan", "FaultSite",
    "SITE_MEMORY_FLIP", "SITE_OUTPUT_CORRUPT", "SITE_REGISTER_FLIP",
    "SITE_REPLAY_CLOSURE", "SITE_REPLAY_CYCLES", "SITE_REPLAY_SKIP",
    "ArmedFault", "arm_fault",
    "CampaignReport", "TrialResult", "run_campaign",
]
