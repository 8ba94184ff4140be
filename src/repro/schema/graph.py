"""Strongly connected components of a directed graph, in plain stdlib.

The finite approximation for recursive schemas (Section 5) bounds every
chain by the recursion structure of the schema's type graph: which types
lie on a cycle, and how the strongly connected components (SCCs) chain
together.  :func:`condense` computes that structure once; the depth cap,
the projection reach guard, descendant closure and DTD inference all
read it instead of walking the graph themselves.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Condensation:
    """The DAG of SCCs of a directed graph.

    ``components`` lists the SCCs in topological order, sources first:
    every edge between two components goes from a lower index to a
    higher one.  ``index`` maps each node to its component,
    ``successors``/``predecessors`` hold each component's neighbours in
    the condensed DAG, and ``cyclic[i]`` is true iff component ``i``
    holds a cycle (more than one member, or a self-loop).

    >>> graph = condense("abc", {"a": "b", "b": "ab", "c": "a"}.get)
    >>> graph.components, graph.cyclic, graph.successors[0]
    ((('c',), ('a', 'b')), (False, True), frozenset({1}))
    """

    components: tuple[tuple[Hashable, ...], ...]
    index: dict[Hashable, int]
    successors: tuple[frozenset[int], ...]
    predecessors: tuple[frozenset[int], ...]
    cyclic: tuple[bool, ...]


def condense(
    nodes: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Hashable]],
) -> Condensation:
    """Condense the graph spanned by ``nodes`` (and everything they
    reach through ``successors``) into its SCC DAG.

    Tarjan's algorithm with an explicit work stack, so chains of any
    length condense without touching the recursion limit.  The result
    is deterministic for a given iteration order of ``nodes`` and of
    each ``successors(node)``; members of a component appear in
    discovery order.
    """
    number: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    stack: list[Hashable] = []
    on_stack: set[Hashable] = set()
    found: list[tuple[Hashable, ...]] = []   # sinks first
    work: list[tuple[Hashable, Iterator[Hashable]]] = []

    def discover(node: Hashable) -> None:
        number[node] = low[node] = len(number)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(successors(node))))

    for root in nodes:
        if root in number:
            continue
        discover(root)
        while work:
            node, pending = work[-1]
            for child in pending:
                if child not in number:
                    discover(child)
                    break
                if child in on_stack:
                    low[node] = min(low[node], number[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == number[node]:
                    start = len(stack) - 1
                    while stack[start] != node:
                        start -= 1
                    members = tuple(stack[start:])
                    del stack[start:]
                    on_stack.difference_update(members)
                    found.append(members)

    components = tuple(reversed(found))
    index = {node: i for i, members in enumerate(components)
             for node in members}
    succ: list[set[int]] = [set() for _ in components]
    pred: list[set[int]] = [set() for _ in components]
    cyclic = [len(members) > 1 for members in components]
    for i, members in enumerate(components):
        for node in members:
            for child in successors(node):
                j = index[child]
                if j != i:
                    succ[i].add(j)
                    pred[j].add(i)
                elif child == node:
                    cyclic[i] = True
    return Condensation(
        components, index,
        tuple(map(frozenset, succ)), tuple(map(frozenset, pred)),
        tuple(cyclic),
    )
