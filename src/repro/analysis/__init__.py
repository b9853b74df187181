"""Project-specific static analysis: ``python -m repro.analysis``.

The headline claims of this reproduction rest on invariants that no
general-purpose linter knows about:

* **determinism** — runs must be bit-identical across the serial,
  parallel, warm and traced paths, so no unseeded global randomness,
  unsorted set iteration, ``id()`` ordering or wall-clock reads may enter
  a decision path;
* **unit consistency** — the photonics layer keeps watts / seconds /
  bits-per-second internally (:mod:`repro.units`), so mixed-unit
  arithmetic and raw scale constants are latent correctness bugs;
* **reset completeness** — the warm-worker cache reruns points on reused
  object graphs, so ``reset()`` must restore every attribute
  ``__init__`` creates.

:mod:`repro.analysis` enforces those invariants mechanically; see
``docs/static-analysis.md`` for the rule catalogue.
"""

from __future__ import annotations

from repro.analysis.framework import Finding, Rule, run_check
from repro.analysis.rules import all_rules

__all__ = ["Finding", "Rule", "all_rules", "run_check"]
