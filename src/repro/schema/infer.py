"""DTD inference from example documents.

The paper's introduction points out that when no schema is given, "quite
precise schemas, in the form of a DTD, can be automatically inferred"
(Bex, Neven, Schwentick, Vansummeren [8]).  This module implements a
simplified CHARE-style inference so the independence analysis can be
used on schema-less corpora:

1. for every element tag, collect the child tag-words observed in the
   corpus (text nodes count as the text pseudo-symbol);
2. build the *immediately-follows* graph over symbols, contract its
   strongly connected components, and topologically order them;
3. emit one factor per component -- a disjunction ``(a1 | ... | ak)``
   with a multiplicity (``1``, ``?``, ``+``, ``*``) derived from
   optionality and repetition evidence;
4. verify the resulting model accepts every observed word; if the linear
   factor order cannot (symbols genuinely interleave), fall back to the
   sound-by-construction generalization ``(a1 | ... | ak)*``.

The contract tested in the suite: **every training document is valid
w.r.t. the inferred DTD.**
"""

from __future__ import annotations

from ..xmldm.store import Tree
from .automata import GlushkovAutomaton
from .dtd import DTD
from .graph import condense
from .regex import TEXT_SYMBOL, parse_content_model


class InferenceFailure(ValueError):
    """Raised for empty corpora or inconsistent root tags."""


def collect_words(corpus: list[Tree]) -> tuple[str, dict[str, list[tuple[str, ...]]]]:
    """Gather (root tag, {tag: observed child words}) from a corpus."""
    if not corpus:
        raise InferenceFailure("cannot infer a DTD from an empty corpus")
    root_tag: str | None = None
    words: dict[str, list[tuple[str, ...]]] = {}
    for tree in corpus:
        store = tree.store
        if not store.is_element(tree.root):
            raise InferenceFailure("document root is a text node")
        tag = store.tag(tree.root)
        if root_tag is None:
            root_tag = tag
        elif root_tag != tag:
            raise InferenceFailure(
                f"inconsistent root tags: {root_tag!r} vs {tag!r}"
            )
        for loc in store.descendants_or_self(tree.root):
            if not store.is_element(loc):
                continue
            word = tuple(store.typ(child) for child in store.children(loc))
            words.setdefault(store.tag(loc), []).append(word)
    assert root_tag is not None
    return root_tag, words


def infer_content_model(words: list[tuple[str, ...]]) -> str:
    """Infer one content-model string accepting all ``words``."""
    symbols = sorted({s for word in words for s in word})
    if not symbols:
        return "EMPTY"

    model = _chare_model(words, symbols)
    if model is not None and _accepts_all(model, words):
        return model
    # Sound fallback: arbitrary interleaving of the observed symbols.
    fallback = f"({' | '.join(_q(s) for s in symbols)})*"
    return fallback


def _chare_model(words: list[tuple[str, ...]], symbols: list[str]
                 ) -> str | None:
    """Factor sequence from the immediately-follows graph, or None when
    the component order is not linear."""
    follows: dict[str, set[str]] = {symbol: set() for symbol in symbols}
    for word in words:
        for left, right in zip(word, word[1:]):
            follows[left].add(right)
    graph = condense(symbols, follows.__getitem__)

    # Group components by longest-path level: incomparable components at
    # the same level (e.g. the author/editor alternatives of the bib DTD)
    # merge into one disjunction factor.  The caller re-checks the final
    # model against all words, so any imprecision of this heuristic falls
    # back to the sound star-generalization.
    level: list[int] = []
    for preds in graph.predecessors:
        level.append(1 + max((level[p] for p in preds), default=-1))
    by_level: dict[int, list[str]] = {}
    for members, depth in zip(graph.components, level):
        by_level.setdefault(depth, []).extend(members)

    factors = [
        _factor(sorted(by_level[depth]), words)
        for depth in sorted(by_level)
    ]
    return "(" + ", ".join(factors) + ")" if factors else "EMPTY"


def _factor(members: list[str], words: list[tuple[str, ...]]) -> str:
    """One factor ``(a|b|...)`` with its multiplicity suffix."""
    group = set(members)
    optional = False
    repeated = len(members) > 1  # SCC of several symbols implies cycling
    for word in words:
        count = sum(1 for s in word if s in group)
        if count == 0:
            optional = True
        if count > 1:
            repeated = True
    body = " | ".join(_q(s) for s in members)
    if len(members) > 1 or repeated or optional:
        body = f"({body})"
    if optional and repeated:
        return f"{body}*"
    if repeated:
        return f"{body}+"
    if optional:
        return f"{body}?"
    return body


def _q(symbol: str) -> str:
    return "#PCDATA" if symbol == TEXT_SYMBOL else symbol


def _accepts_all(model: str, words: list[tuple[str, ...]]) -> bool:
    automaton = GlushkovAutomaton(parse_content_model(model))
    return all(automaton.matches(list(word)) for word in set(words))


def infer_dtd(corpus: list[Tree]) -> DTD:
    """Infer a DTD validating every document of ``corpus``.

    >>> from repro.xmldm import parse_xml
    >>> dtd = infer_dtd([parse_xml("<doc><a><c/></a><b><c/></b></doc>")])
    >>> sorted(dtd.alphabet)
    ['a', 'b', 'c', 'doc']
    """
    root_tag, words = collect_words(corpus)
    models = {
        tag: infer_content_model(tag_words)
        for tag, tag_words in words.items()
    }
    return DTD.from_dict(root_tag, models)
