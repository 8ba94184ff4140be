"""SQL pushdown: compile the supported XPath fragment onto the node
table.

The interval encoding exists precisely so that axis steps become range
predicates a database can answer.  This module is the bridge: it
recognizes the desugared core-AST shape of the supported fragment --
linear chains of ``self``/``child``/``descendant`` steps with name,
``text()``, ``node()`` and ``*`` tests, including the ``//tag``
desugaring the axis accelerators already fast-path -- and compiles it
into a :class:`~repro.storage.base.StepSpec` chain that every
:class:`~repro.storage.base.DocumentStore` backend answers *inside the
database* (:meth:`~repro.storage.base.DocumentStore.run_steps`), so
queries on persisted documents run without materializing the tree.

Queries outside the fragment (predicates, construction, ``let``,
upward or sibling axes) make :func:`compile_query` return ``None`` and
the caller falls back to materialize-then-evaluate; eligible queries
are answered byte-identically to the in-memory evaluator -- the
differential property suite (``tests/docstore/test_pushdown_property.py``)
drives fuzzer-generated documents and queries through both paths and
diffs the serialized answers.

:func:`run_steps_on_tree` is the in-memory reference implementation of
the step semantics (via the axis accelerators) that the conformance
and differential suites diff the SQL pushdown against.
:func:`serialize_rows` serializes an answer subtree
straight from its node rows -- byte-identical to
:func:`repro.xmldm.serialize.serialize` on the materialized tree -- so
even answer serialization needs no materialization.
"""

from __future__ import annotations

from ..storage.base import StepSpec, check_steps
from ..xquery.ast import (
    ROOT_VAR,
    Axis,
    For,
    NameTest,
    NodeKindTest,
    Query,
    Step,
    TextTest,
    WildcardTest,
    free_variables,
)
from ..xquery.parser import parse_query

#: Axes the pushdown fragment supports, mapped to step-spec names.
_AXIS_NAMES = {
    Axis.SELF: "self",
    Axis.CHILD: "child",
    Axis.DESCENDANT: "descendant",
    Axis.DESCENDANT_OR_SELF: "descendant-or-self",
}

#: Step-spec axis names mapped back to evaluator axes.
_AXIS_ENUMS = {name: axis for axis, name in _AXIS_NAMES.items()}


def _spec_for(step: Step) -> tuple[StepSpec | None, dict | None]:
    """The :class:`StepSpec` of one core-AST step, or ``(None, why)``
    when the axis or test falls outside the pushdown fragment.

    ``why`` is an ineligibility record -- a stable ``reason`` from
    :data:`repro.obs.plan.INELIGIBILITY_REASONS` plus the offending
    axis/test -- carried into the ``pushdown: ineligible`` plan
    decision."""
    axis = _AXIS_NAMES.get(step.axis)
    if axis is None:
        return None, {"reason": "unsupported-axis",
                      "axis": step.axis.name.lower().replace("_", "-")}
    test = step.test
    if isinstance(test, NameTest):
        return StepSpec(axis, "name", test.name), None
    if isinstance(test, TextTest):
        return StepSpec(axis, "text"), None
    if isinstance(test, NodeKindTest):
        return StepSpec(axis, "node"), None
    if isinstance(test, WildcardTest):
        return StepSpec(axis, "wildcard"), None
    return None, {"reason": "unsupported-test", "test": type(test).__name__}


def _fuse(specs: list[StepSpec]) -> list[StepSpec]:
    """Fuse ``descendant-or-self::node()`` + ``child::test`` pairs (the
    ``//test`` desugaring) into one ``descendant-child`` step.

    Semantically a no-op -- the two-step chain already orders matches
    by (parent pre, own pre) -- but it halves the SQL joins and maps
    onto :func:`repro.docstore.axes.descendant_child_step` in the
    in-memory reference.
    """
    fused: list[StepSpec] = []
    index = 0
    while index < len(specs):
        spec = specs[index]
        if (index + 1 < len(specs)
                and spec.axis == "descendant-or-self"
                and spec.test == "node" and spec.position is None
                and specs[index + 1].axis == "child"):
            follower = specs[index + 1]
            fused.append(StepSpec("descendant-child", follower.test,
                                  follower.name, follower.position))
            index += 2
            continue
        fused.append(spec)
        index += 1
    return fused


def compile_query_explain(
    query: Query | str,
) -> tuple[list[StepSpec] | None, dict | None]:
    """Compile a query and say *why* when compilation refuses.

    Returns ``(steps, None)`` for an eligible query and ``(None, why)``
    otherwise, where ``why`` carries a stable ``reason`` string from
    :data:`repro.obs.plan.INELIGIBILITY_REASONS` plus the offending AST
    node / axis / test -- exactly what the ``pushdown: ineligible``
    plan decision reports.
    """
    if isinstance(query, str):
        query = parse_query(query)
    specs: list[StepSpec] = []
    var = ROOT_VAR
    node = query
    while True:
        if isinstance(node, For):
            source, body = node.source, node.body
            if not isinstance(source, Step) or source.var != var:
                return None, {"reason": "non-step-source",
                              "node": type(source).__name__}
            if var in free_variables(body):
                # Not a linear chain: context var reused in the body.
                return None, {"reason": "context-reuse", "var": var}
            spec, why = _spec_for(source)
            if spec is None:
                return None, why
            specs.append(spec)
            var = node.var
            node = body
            continue
        if isinstance(node, Step):
            if node.var != var:
                return None, {"reason": "non-step-source",
                              "node": "Step"}
            spec, why = _spec_for(node)
            if spec is None:
                return None, why
            specs.append(spec)
            return _fuse(specs), None
        return None, {"reason": "non-step-tail",
                      "node": type(node).__name__}


def compile_query(query: Query | str) -> list[StepSpec] | None:
    """Compile a query into a pushdown step chain, or None.

    Accepts surface text or a parsed core query and recognizes the
    desugared linear path shape: nested ``For`` loops whose sources are
    single steps off the previous variable, ending in a final step --
    exactly what the parser emits for absolute paths and ``//`` steps.
    Anything else (predicates, element construction, ``let``,
    conditionals, upward or sibling axes, variable reuse) returns
    ``None`` and the caller falls back to materialize-then-evaluate;
    :func:`compile_query_explain` additionally says why.
    """
    steps, _why = compile_query_explain(query)
    return steps


def step_label(spec: StepSpec) -> str:
    """One compiled step as a compact plan label.

    ``axis::test`` with the name test's tag in parentheses and the
    positional filter in brackets, e.g. ``descendant-child::name(title)``
    -- the rendering plans and the ``repro explain`` CLI use for the
    compiled chain.
    """
    label = f"{spec.axis}::{spec.test}"
    if spec.name is not None:
        label += f"({spec.name})"
    if spec.position is not None:
        label += f"[{spec.position}]"
    return label


def _test_object(step: StepSpec):
    """The evaluator node-test object of one step spec."""
    from ..xquery.ast import NODE_TEST, TEXT_TEST, WILDCARD_TEST

    if step.test == "name":
        return NameTest(step.name)
    if step.test == "text":
        return TEXT_TEST
    if step.test == "wildcard":
        return WILDCARD_TEST
    return NODE_TEST


def run_steps_on_tree(tree, steps, *, dedup: bool = False) -> list[int]:
    """The in-memory reference for ``run_steps``: answer a step chain
    on an :class:`~repro.docstore.encode.IndexedTree` through the axis
    accelerators.

    Nested-loop sequence semantics, exactly like the evaluator on the
    desugared query: per-context matches in document order,
    concatenated in context order, duplicates preserved; ``position``
    keeps each context's n-th match; ``dedup`` collapses to distinct
    locations in document order.  The conformance and differential
    suites compare every backend's ``run_steps`` against this.
    """
    check_steps(steps)
    store = tree.store
    context: list[int] = [tree.root]
    for step in steps:
        test = _test_object(step)
        out: list[int] = []
        for loc in context:
            if step.axis == "descendant-child":
                matches = store.descendant_child_step(test, loc)
            else:
                matches = store.axis_step(_AXIS_ENUMS[step.axis], test,
                                          loc)
            if matches is None:
                raise ValueError(
                    f"location {loc} cannot be accelerated (unencoded "
                    "store?); run_steps needs a canonical tree"
                )
            if step.position is not None:
                matches = matches[step.position - 1:step.position]
            out.extend(matches)
        context = out
    if dedup:
        store.reencode()
        pre = store._pre
        context = sorted(set(context), key=lambda answer: pre[answer])
    return context


def _escape(text: str) -> str:
    """The serializer's text escaping (kept byte-identical)."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def serialize_rows(rows) -> str:
    """Serialize one subtree straight from its pre-order node rows.

    ``rows`` is a contiguous ``subtree_rows`` slice; the ``size``
    column delimits each element's children, so one forward pass with
    an end-offset stack rebuilds the markup.  Output is byte-identical
    to :func:`repro.xmldm.serialize.serialize` (compact form) on the
    materialized tree -- pinned by the differential property suite.
    """
    out: list[str] = []
    stack: list[tuple[int, str]] = []  # (end-exclusive loc, tag)
    for loc, _parent, _level, size, tag, text in rows:
        while stack and loc >= stack[-1][0]:
            out.append(f"</{stack.pop()[1]}>")
        if tag is None:
            out.append(_escape(text))
        elif size == 1:
            out.append(f"<{tag}/>")
        else:
            out.append(f"<{tag}>")
            stack.append((loc + size, tag))
    while stack:
        out.append(f"</{stack.pop()[1]}>")
    return "".join(out)


def serialize_answers(documents, doc: str, locs,
                      limit: int | None = None) -> list[str]:
    """Serialize answer locations from a persisted document.

    One ``subtree_rows`` range scan per answer, serialized by
    :func:`serialize_rows` -- the document itself is never
    materialized.  ``limit`` caps how many answers are serialized
    (the caller still knows the full count from the location list).
    """
    take = locs if limit is None else locs[:limit]
    return [serialize_rows(documents.subtree_rows(doc, loc))
            for loc in take]
