"""DTDs: alphabet, start symbol, content models, validation, reachability.

A DTD is the triple ``(Sigma, s_d, d)`` of Section 2 of the paper.  The
``d`` component maps each tag to a regular expression over
``Sigma + {#S}`` where ``#S`` is the text type.  Reachability ``a =>d b``
("b occurs in d(a)") induces the chain language Cd (see
:mod:`repro.schema.chains`).
"""

from __future__ import annotations

from .automata import GlushkovAutomaton
from .graph import Condensation, condense
from .regex import (
    EPSILON,
    TEXT_SYMBOL,
    Regex,
    nullable,
    occurring,
    order_relation,
    parse_content_model,
    shortest_word,
)


class DTDError(ValueError):
    """Raised for malformed DTDs or validation misuse."""


class DTD:
    """A Document Type Definition ``(Sigma, s_d, d)``.

    Construct either from parsed :class:`~repro.schema.regex.Regex` values
    or from content-model strings via :meth:`from_dict` /
    :meth:`from_dtd_text`.

    The text pseudo-symbol :data:`~repro.schema.regex.TEXT_SYMBOL` may occur
    in content models but is not part of the alphabet.
    """

    def __init__(self, start: str, rules: dict[str, Regex]):
        if start not in rules:
            raise DTDError(f"start symbol {start!r} has no rule")
        self.start = start
        self.rules: dict[str, Regex] = dict(rules)
        for tag, model in self.rules.items():
            for symbol in occurring(model):
                if symbol != TEXT_SYMBOL and symbol not in self.rules:
                    raise DTDError(
                        f"content model of {tag!r} references undefined "
                        f"element {symbol!r}"
                    )
        self._automata: dict[str, GlushkovAutomaton] = {}
        self._children: dict[str, frozenset[str]] = {
            tag: occurring(model) for tag, model in self.rules.items()
        }
        self._children[TEXT_SYMBOL] = frozenset()
        self._order: dict[str, frozenset[tuple[str, str]]] = {}
        self._condensation: Condensation | None = None
        self._descendants: dict[str, frozenset[str]] | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, start: str, models: dict[str, str]) -> "DTD":
        """Build a DTD from ``{tag: content-model-string}``.

        >>> d = DTD.from_dict("doc", {"doc": "(a | b)*", "a": "c",
        ...                           "b": "c", "c": "EMPTY"})
        >>> sorted(d.alphabet)
        ['a', 'b', 'c', 'doc']
        """
        rules = {tag: parse_content_model(text) for tag, text in models.items()}
        return cls(start, rules)

    @classmethod
    def from_dtd_text(cls, start: str, text: str) -> "DTD":
        """Parse ``<!ELEMENT tag (model)>`` declarations.

        Attribute declarations (``<!ATTLIST``) are skipped: the paper's
        benchmark rewrites remove attribute use (Section 6.2).
        """
        models: dict[str, str] = {}
        index = 0
        while True:
            begin = text.find("<!", index)
            if begin < 0:
                break
            end = text.find(">", begin)
            if end < 0:
                raise DTDError("unterminated declaration")
            decl = text[begin + 2:end].strip()
            index = end + 1
            if decl.startswith("ATTLIST") or decl.startswith("--"):
                continue
            if not decl.startswith("ELEMENT"):
                continue
            body = decl[len("ELEMENT"):].strip()
            parts = body.split(None, 1)
            if len(parts) != 2:
                raise DTDError(f"malformed ELEMENT declaration: {decl!r}")
            tag, model = parts
            models[tag] = model.strip()
        if not models:
            raise DTDError("no ELEMENT declarations found")
        return cls.from_dict(start, models)

    # -- basic accessors -----------------------------------------------------

    @property
    def alphabet(self) -> frozenset[str]:
        """The element-tag alphabet Sigma (excluding the text symbol)."""
        return frozenset(self.rules)

    @property
    def symbols(self) -> frozenset[str]:
        """``Sigma + {#S}``: every symbol that can appear in a chain."""
        return self.alphabet | {TEXT_SYMBOL}

    def content_model(self, symbol: str) -> Regex:
        """``d(symbol)``; the text symbol has the empty content model."""
        if symbol == TEXT_SYMBOL:
            return EPSILON
        try:
            return self.rules[symbol]
        except KeyError:
            raise DTDError(f"unknown element {symbol!r}") from None

    def children_of(self, symbol: str) -> frozenset[str]:
        """Symbols ``b`` with ``symbol =>d b`` (one-step reachability)."""
        try:
            return self._children[symbol]
        except KeyError:
            raise DTDError(f"unknown element {symbol!r}") from None

    def sibling_order(self, symbol: str) -> frozenset[tuple[str, str]]:
        """The ``<r`` relation of ``d(symbol)`` (see Section 3.1)."""
        cached = self._order.get(symbol)
        if cached is None:
            cached = order_relation(self.content_model(symbol))
            self._order[symbol] = cached
        return cached

    def condensation(self) -> Condensation:
        """The SCC condensation of the ``=>d`` type graph over
        :attr:`symbols` (computed once, then cached)."""
        if self._condensation is None:
            self._condensation = condense(
                sorted(self.symbols),
                lambda symbol: sorted(self._children[symbol]),
            )
        return self._condensation

    def descendants_of(self, symbol: str) -> frozenset[str]:
        """Symbols reachable from ``symbol`` in one or more ``=>d`` steps."""
        if self._descendants is None:
            # One reverse-topological union over the condensation: a
            # component reaches its successors' members and everything
            # below them, plus its own members when it holds a cycle.
            graph = self.condensation()
            below: list[frozenset[str]] = [frozenset()] * len(graph.components)
            for i in reversed(range(len(graph.components))):
                reach = set(graph.components[i]) if graph.cyclic[i] else set()
                for j in graph.successors[i]:
                    reach.update(graph.components[j])
                    reach |= below[j]
                below[i] = frozenset(reach)
            self._descendants = {s: below[graph.index[s]] for s in self.symbols}
        return self._descendants[symbol]

    def is_recursive(self) -> bool:
        """True iff some symbol is reachable from itself (vertical recursion)."""
        return any(self.condensation().cyclic)

    def recursive_symbols(self) -> frozenset[str]:
        """Symbols lying on a ``=>d`` cycle."""
        graph = self.condensation()
        return frozenset(
            symbol for members, cyclic in zip(graph.components, graph.cyclic)
            if cyclic for symbol in members
        )

    def size(self) -> int:
        """``|d|``: number of element-type definitions (as in Section 6.2)."""
        return len(self.rules)

    # -- validation ------------------------------------------------------

    def automaton(self, symbol: str) -> GlushkovAutomaton:
        """The compiled Glushkov automaton for ``d(symbol)``."""
        auto = self._automata.get(symbol)
        if auto is None:
            auto = GlushkovAutomaton(self.content_model(symbol))
            self._automata[symbol] = auto
        return auto

    def accepts_children(self, symbol: str, child_word: list[str]) -> bool:
        """Does the tag word ``child_word`` match ``d(symbol)``?"""
        return self.automaton(symbol).matches(child_word)

    def shortest_content(self, symbol: str) -> tuple[str, ...]:
        """A minimum-length valid child word for ``symbol``."""
        return shortest_word(self.content_model(symbol))

    def allows_empty(self, symbol: str) -> bool:
        """True iff ``symbol`` may have no children."""
        return nullable(self.content_model(symbol))

    # -- dunder ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"DTD(start={self.start!r}, |d|={self.size()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DTD):
            return NotImplemented
        return self.start == other.start and self.rules == other.rules

    def __hash__(self) -> int:
        return hash((self.start, tuple(sorted(self.rules.items(),
                                              key=lambda kv: kv[0]))))
