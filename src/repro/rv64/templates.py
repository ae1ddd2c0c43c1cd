"""The aot expression-template registry, apart from the aot compiler.

Extension packages register the aot expression of each custom
instruction here at import time (:mod:`repro.core.ise` does).  Keeping
the registry out of :mod:`repro.rv64.aot` means that importing an
extension does not import the aot compiler, its expression IR and its
wide-word lift: an interpreter-only process (``repro table4``, say)
never loads them.
"""

from __future__ import annotations

from repro.errors import SimulationError

#: The expression kinds: ``"r"`` ({a}/{b}), ``"i"`` ({a}/{imm}/{uimm}/
#: {sh}), ``"r4"`` ({a}/{b}/{c}), ``"ria"`` ({a}/{b}/{sh}).
#: ``{sa}``/``{sb}`` expand to the signed reinterpretation of {a}/{b}.
KINDS = ("r", "i", "r4", "ria")

#: ``mnemonic -> (kind, expr)``, read by :mod:`repro.rv64.aot`.
EXPRS: dict[str, tuple[str, str]] = {}


class TemplateError(SimulationError):
    """A template was registered under an unknown expression kind."""

    code = "aot_template"


def register_expr(mnemonic: str, kind: str, expr: str) -> None:
    """Register an aot expression for *mnemonic* (idempotent).

    Extension packages (e.g. :mod:`repro.core.ise`) use this to fuse
    their custom instructions into the dataflow graph; unregistered
    mnemonics fall back to the extracted interpreter lambda (one call
    per instruction, and an opaque node no rewrite rule sees through),
    so registration is a performance optimisation.
    """
    if kind not in KINDS:
        raise TemplateError(f"unknown expression kind {kind!r}")
    EXPRS.setdefault(mnemonic, (kind, expr))
