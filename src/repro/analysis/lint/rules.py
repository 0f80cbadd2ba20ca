"""The ``repro-lint`` rules: the four whole-program determinism contracts.

Each guards one invariant the paper states in prose (DESIGN.md
"Static enforcement" maps every rule to its section reference); their
logic lives in :mod:`repro.analysis.flow.graph`, which evaluates them
once over the call graph.  This module only names them.  A rule stays
only while it catches a bug the tests miss (DESIGN.md "Static
enforcement" has the mutation census): the per-file rules are gone
because tier-1 now fails on every bug they were written for, and the
wire protocol and the data-chunk write discipline have no rule,
because the wire tests and ``REPRO_SANITIZE=1`` catch every such bug
at run time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One whole-program contract, as ``--list-rules`` and SARIF show it."""

    rule_id: str
    description: str
    #: The paper invariant this rule guards.
    paper_ref: str


_DETERMINISM = "§IV-C synchronous sampling; DESIGN 'Scale realism'"

#: rule id -> rule; the order is the SARIF rule index.
RULES = {r.rule_id: r for r in (
    Rule("flow-des-purity",
         "DES-pure packages must not transitively reach wall-clock, ambient "
         "RNG, or unordered iteration (whole-program, call-chain traced)",
         _DETERMINISM),
    Rule("flow-clock-boundary",
         "wall-clock reads outside the sanctioned repro.util.timeutil "
         "boundary module",
         _DETERMINISM),
    Rule("flow-ambient-rng",
         "direct global-RNG draws (random.*, numpy.random module level, "
         "os.urandom, uuid4) outside the DES-pure packages",
         _DETERMINISM),
    Rule("flow-unordered-iteration",
         "hash-ordered (set) or OS-ordered (listdir) iteration feeding "
         "ordering in replay-sensitive packages",
         "§IV same-seed byte-identical replay"),
)}
