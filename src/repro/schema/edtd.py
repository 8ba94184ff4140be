"""Extended DTDs (Section 7, following Gelade-Martens-Neven [14]).

An EDTD ``(Sigma, Sigma', s, d, mu)`` is a DTD over a *type* alphabet
``Sigma'`` plus a labeling ``mu : Sigma' + {#S} -> Sigma + {#S}`` with
``mu(#S) = #S``.  A tree is valid iff relabeling every node via ``mu``
yields a tree valid w.r.t. the underlying DTD.  EDTDs capture XML Schema
and RelaxNG typing: two types with the same label can carry different
content models.

For the chain analysis, chains run over *types* (so reachability stays the
DTD one), while node tests and conflict checks compare *labels*.  The
analysis modules consume any schema exposing the small interface below;
:class:`~repro.schema.dtd.DTD` satisfies it with ``label == type``.
"""

from __future__ import annotations

from .dtd import DTD, DTDError
from .graph import Condensation
from .regex import TEXT_SYMBOL


class EDTD:
    """Extended DTD wrapping a :class:`DTD` over types with a labeling.

    >>> core = DTD.from_dict("r", {"r": "(a1, a2)", "a1": "b", "a2": "c",
    ...                            "b": "EMPTY", "c": "EMPTY"})
    >>> schema = EDTD(core, {"a1": "a", "a2": "a", "r": "r", "b": "b",
    ...                      "c": "c"})
    >>> schema.label_of("a1"), schema.label_of("a2")
    ('a', 'a')
    """

    def __init__(self, core: DTD, labeling: dict[str, str]):
        self.core = core
        missing = core.alphabet - set(labeling)
        if missing:
            raise DTDError(f"labeling misses types: {sorted(missing)}")
        self._labeling = dict(labeling)
        self._labeling[TEXT_SYMBOL] = TEXT_SYMBOL

    # -- schema interface used by the analysis --------------------------------

    @property
    def start(self) -> str:
        return self.core.start

    @property
    def alphabet(self) -> frozenset[str]:
        """The *type* alphabet Sigma'."""
        return self.core.alphabet

    @property
    def symbols(self) -> frozenset[str]:
        return self.core.symbols

    def children_of(self, symbol: str) -> frozenset[str]:
        return self.core.children_of(symbol)

    def descendants_of(self, symbol: str) -> frozenset[str]:
        return self.core.descendants_of(symbol)

    def condensation(self) -> Condensation:
        return self.core.condensation()

    def sibling_order(self, symbol: str) -> frozenset[tuple[str, str]]:
        return self.core.sibling_order(symbol)

    def size(self) -> int:
        return self.core.size()

    def label_of(self, symbol: str) -> str:
        """``mu(symbol)``: the element label produced by a type."""
        try:
            return self._labeling[symbol]
        except KeyError:
            raise DTDError(f"unknown type {symbol!r}") from None

    def types_with_label(self, label: str) -> frozenset[str]:
        """All types mapped by ``mu`` to ``label``."""
        return frozenset(
            t for t, lab in self._labeling.items() if lab == label
        )

    def __repr__(self) -> str:
        return f"EDTD(start={self.start!r}, |types|={self.size()})"


def label_of(schema: DTD | EDTD, symbol: str) -> str:
    """Label of a symbol under either schema kind (DTD: identity)."""
    if isinstance(schema, EDTD):
        return schema.label_of(symbol)
    return symbol
