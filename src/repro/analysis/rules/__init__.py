"""The rule catalogue for ``python -m repro.analysis``.

Three families, eleven rules (see ``docs/static-analysis.md``):

=========  ==================================================
family     invariant
=========  ==================================================
``DT0xx``  determinism: identical seeds give identical runs
``UN0xx``  unit consistency across the photonics layer
``RC0xx``  reset() restores everything __init__ creates
=========  ==================================================

Each family guards an invariant a real defect broke.  A new rule
subclasses :class:`repro.analysis.framework.Rule` in its family module,
takes the next free id and is listed in ``_RULE_CLASSES``; ``all_rules``
is the single registration point, and the tests pin its exact id set.
"""

from __future__ import annotations

from repro.analysis.framework import Rule
from repro.analysis.rules.determinism import (
    IdOrderingRule,
    UnseededRandomRule,
    UnsortedSetIterationRule,
    WallClockRule,
)
from repro.analysis.rules.resets import (
    ResetCompletenessRule,
    ResetDriftRule,
    ResetExemptionStalenessRule,
)
from repro.analysis.rules.units import (
    InlineDbMathRule,
    MagicScaleConstantRule,
    MixedUnitArithmeticRule,
    SuffixContradictionRule,
)

_RULE_CLASSES: tuple[type[Rule], ...] = (
    UnseededRandomRule,
    UnsortedSetIterationRule,
    IdOrderingRule,
    WallClockRule,
    MixedUnitArithmeticRule,
    MagicScaleConstantRule,
    SuffixContradictionRule,
    InlineDbMathRule,
    ResetCompletenessRule,
    ResetDriftRule,
    ResetExemptionStalenessRule,
)


def all_rules() -> list[Rule]:
    """One fresh instance of every registered rule, in report order."""
    return [cls() for cls in _RULE_CLASSES]


__all__ = ["all_rules"]
