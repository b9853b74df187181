"""The rule catalogue for ``repro check``.

Nine families, thirty rules (see ``docs/static-analysis.md``):

=========  ==================================================
family     invariant
=========  ==================================================
``DT0xx``  determinism: identical seeds give identical runs
``UN0xx``  unit consistency across the photonics layer
``HC0xx``  hook contract between engine and subscribers
``HP0xx``  purity of the inlined hot loop
``MC0xx``  batch-backend mirrors track every scalar mutation
``RC0xx``  reset() restores everything __init__ creates
``CK0xx``  memo/hash keys cover every behavioral input
``SP0xx``  pool-boundary picklability and canonical hashing
``SU0xx``  suppression hygiene (no stale noqa comments)
=========  ==================================================

To add a rule: subclass :class:`repro.analysis.framework.Rule` in the
matching family module, give it the next free id, and list it here.
``all_rules`` is the single registration point — tests assert id
uniqueness against it.
"""

from __future__ import annotations

from repro.analysis.framework import Rule
from repro.analysis.rules.cachekeys import (
    GuardKeyAgreementRule,
    MemoKeyCoverageRule,
    SweepPointCoverageRule,
)
from repro.analysis.rules.determinism import (
    IdOrderingRule,
    UnseededRandomRule,
    UnsortedSetIterationRule,
    WallClockRule,
)
from repro.analysis.rules.hookcontract import (
    SignatureMismatchRule,
    UnfiredEventRule,
    UnknownFireRule,
    UnknownRegistrationRule,
)
from repro.analysis.rules.hotpath import (
    ClosureInHotPathRule,
    ComprehensionInHotPathRule,
    LocalImportRule,
    LoggingInHotPathRule,
    StaleHotEntryRule,
)
from repro.analysis.rules.mirrors import (
    MirrorCoherenceRule,
    MirrorRebuildRule,
    MirrorSpecStalenessRule,
)
from repro.analysis.rules.resets import (
    ResetCompletenessRule,
    ResetDriftRule,
    ResetExemptionStalenessRule,
)
from repro.analysis.rules.serialization import (
    BoundaryFieldRule,
    CanonicalHashingRule,
    PoolSubmissionRule,
)
from repro.analysis.rules.suppressions import StaleSuppressionRule
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
    UnknownRegistrationRule,
    UnknownFireRule,
    UnfiredEventRule,
    SignatureMismatchRule,
    LocalImportRule,
    LoggingInHotPathRule,
    ClosureInHotPathRule,
    ComprehensionInHotPathRule,
    StaleHotEntryRule,
    MirrorCoherenceRule,
    MirrorRebuildRule,
    MirrorSpecStalenessRule,
    ResetCompletenessRule,
    ResetDriftRule,
    ResetExemptionStalenessRule,
    SweepPointCoverageRule,
    MemoKeyCoverageRule,
    GuardKeyAgreementRule,
    PoolSubmissionRule,
    CanonicalHashingRule,
    BoundaryFieldRule,
    StaleSuppressionRule,
)


def all_rules() -> list[Rule]:
    """One fresh instance of every registered rule, in report order."""
    return [cls() for cls in _RULE_CLASSES]


__all__ = ["all_rules"]
