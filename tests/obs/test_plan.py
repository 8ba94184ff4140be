"""Plan-context lifecycle, decision recording, and rendering."""

from __future__ import annotations

from repro.obs.metrics import PLAN_DECISIONS_TOTAL
from repro.obs.plan import (
    INELIGIBILITY_REASONS,
    MAX_DECISIONS,
    PLAN_DECISIONS,
    PlanContext,
    clip,
    count_decision,
    current_plan,
    decision,
    finish_plan,
    render_plan,
    start_plan,
    using_plan,
)


def _count(layer: str, name: str) -> float:
    child = PLAN_DECISIONS_TOTAL.labels(layer=layer, decision=name)
    return child.value


def test_start_and_finish_install_the_current_plan():
    assert current_plan() is None
    plan = start_plan()
    assert current_plan() is plan
    finish_plan(plan)
    assert current_plan() is None


def test_decision_attaches_to_the_current_plan_and_counts():
    plan = start_plan()
    try:
        before = _count("engine", "computed")
        decision("engine", "computed", query="//a", universe="built")
        assert _count("engine", "computed") == before + 1
    finally:
        finish_plan(plan)
    assert plan.decisions == [{
        "layer": "engine",
        "decision": "computed",
        "detail": {"query": "//a", "universe": "built"},
    }]


def test_decision_without_a_plan_only_counts():
    assert current_plan() is None
    before = _count("answer", "pushdown")
    decision("answer", "pushdown", doc="d1")
    assert _count("answer", "pushdown") == before + 1


def test_explicit_plan_argument_wins_over_the_installed_one():
    installed = start_plan()
    explicit = PlanContext()
    try:
        decision("batcher", "matrix", explicit, flush=7)
    finally:
        finish_plan(installed)
    assert installed.decisions == []
    assert explicit.decisions[0]["detail"] == {"flush": 7}


def test_count_decision_clamps_unknown_labels_to_other():
    before_layer = _count("other", "other")
    count_decision("no-such-layer", "whatever")
    assert _count("other", "other") == before_layer + 1
    before_name = _count("engine", "other")
    count_decision("engine", "no-such-decision")
    assert _count("engine", "other") == before_name + 1


def test_vocabulary_layers_cover_the_serving_pipeline():
    assert set(PLAN_DECISIONS) == {
        "batcher", "engine", "docstore", "pushdown", "answer",
    }
    assert set(INELIGIBILITY_REASONS) == {
        "non-step-source", "context-reuse", "unsupported-axis",
        "unsupported-test", "non-step-tail",
    }


def test_decision_cap_counts_dropped_records():
    plan = PlanContext()
    for i in range(MAX_DECISIONS + 5):
        plan.add("engine", "computed", i=i)
    assert len(plan.decisions) == MAX_DECISIONS
    report = plan.report()
    assert report["dropped"] == 5


def test_report_stays_minimal():
    report = PlanContext().report()
    assert report["total_ms"] >= 0.0
    # Without decisions dropped, the report has no other keys.
    assert set(report) == {"decisions", "total_ms"}


def test_using_plan_installs_and_restores():
    outer = start_plan()
    try:
        inner = PlanContext()
        with using_plan(inner):
            assert current_plan() is inner
            decision("engine", "store")
        assert current_plan() is outer
    finally:
        finish_plan(outer)
    assert inner.decisions[0]["decision"] == "store"
    assert outer.decisions == []


def test_clip_bounds_long_labels():
    assert clip("short") == "short"
    clipped = clip("x" * 500)
    assert len(clipped) == 200
    assert clipped.endswith("…")


def test_render_plan_indents_decisions_and_details():
    report = {
        "decisions": [
            {"layer": "pushdown", "decision": "compiled",
             "detail": {"sql": "SELECT 1", "engine": "sql"}},
            {"layer": "answer", "decision": "pushdown"},
        ],
        "total_ms": 1.0,
        "dropped": 2,
    }
    assert render_plan(report).splitlines() == [
        "pushdown: compiled",
        "  engine = sql",
        "  sql = SELECT 1",
        "answer: pushdown",
        "(+2 decisions dropped)",
    ]
