"""The cascade's rewrite precheck.

The one cost decision the cascade makes is whether the rewrite
attempt can be skipped.  It can exactly when the program analyzer is
certain to refuse the program: a call-interface DML whose verb is not
a provable run-time constant (the Section 3.2 "execution-time
variability" pathology).  :class:`CostPredictor` answers that with the
analyzer's own detector,
:func:`~repro.analysis.variability.detect_verb_variability`, so the
refusal the cascade synthesizes carries the same details, in the same
order, as the one the analyzer would raise.

The precheck is a pure function of the program: it never depends on
batch history, so the cascade's reports stay byte-identical at every
worker count and in either strategy order.
"""

from __future__ import annotations

from repro.analysis.variability import detect_verb_variability
from repro.programs import ast


class CostPredictor:
    """Stateless rewrite precheck."""

    def predict(self, program: ast.Program) -> tuple[str, ...]:
        """The blocking details that prove the analyzer refuses
        ``program``, in its report order; empty when rewrite is
        feasible."""
        return tuple(finding.detail for finding in detect_verb_variability(program))


__all__ = ["CostPredictor"]
