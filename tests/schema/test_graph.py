"""The SCC helper behind every schema graph pass."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.independence import recursion_structure
from repro.schema import DTD, EDTD, TEXT_SYMBOL
from repro.schema.graph import condense


@st.composite
def digraphs(draw):
    """A digraph on at most 8 nodes (self-loops allowed), its edges, and
    one iteration order of its nodes."""
    size = draw(st.integers(0, 8))
    nodes = list(range(size))
    edges = draw(st.sets(st.tuples(st.sampled_from(nodes),
                                   st.sampled_from(nodes)))
                 if nodes else st.just(set()))
    return draw(st.permutations(nodes)), edges


def _reachable(nodes, edges):
    """Brute-force reachability in one or more steps."""
    reach = {node: {v for u, v in edges if u == node} for node in nodes}
    for middle in nodes:
        for node in nodes:
            if middle in reach[node]:
                reach[node] |= reach[middle]
    return reach


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_condense_matches_brute_force_reachability(graph):
    nodes, edges = graph
    successors = {node: [v for u, v in sorted(edges) if u == node]
                  for node in nodes}
    result = condense(nodes, successors.__getitem__)
    reach = _reachable(nodes, edges)

    assert sorted(n for members in result.components for n in members) \
        == sorted(nodes)
    for u in nodes:
        for v in nodes:
            mutual = u == v or (v in reach[u] and u in reach[v])
            assert (result.index[u] == result.index[v]) == mutual
        assert result.cyclic[result.index[u]] == (u in reach[u])
    crossing = {(result.index[u], result.index[v]) for u, v in edges
                if result.index[u] != result.index[v]}
    assert all(i < j for i, j in crossing)
    for i in range(len(result.components)):
        assert result.successors[i] == {b for a, b in crossing if a == i}
        assert result.predecessors[i] == {a for a, b in crossing if b == i}


class TestSchemaCondensation:
    def test_cached_per_schema_and_shared_by_edtd(self):
        core = DTD.from_dict("r", {"r": "(a1, a2)", "a1": "b", "a2": "c",
                                   "b": "EMPTY", "c": "EMPTY"})
        edtd = EDTD(core, {"a1": "a", "a2": "a", "r": "r", "b": "b",
                           "c": "c"})
        assert core.condensation() is core.condensation()
        assert edtd.condensation() is core.condensation()

    def test_text_symbol_is_a_sink_outside_the_recursion_structure(
            self, xmark):
        graph = xmark.condensation()
        text = graph.index[TEXT_SYMBOL]
        assert not graph.successors[text] and not graph.cyclic[text]
        entries, _ = recursion_structure(xmark)
        assert sum(size for size, _, _ in entries) == len(xmark.alphabet)
