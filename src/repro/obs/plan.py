"""Request-scoped query plans: EXPLAIN for the whole serving pipeline.

Where :mod:`repro.obs.tracing` answers *how long* each layer of a
request took, this module answers *why* the request ran the way it did.
Every layer on the serving path attaches structured *decision* records
to a request-scoped :class:`PlanContext` (a :class:`contextvars.ContextVar`,
same pattern as :class:`~repro.obs.tracing.TraceContext`):

- ``batcher`` — how the analyze call was executed: coalesced into a
  ``matrix`` or ``sparse`` flush (with flush id and dedup factor),
  ``direct`` when batching is disabled, ``oneshot`` when the client
  opted out, or ``fallback`` when a failed flush degraded to
  per-request analysis.
- ``engine`` — where each pair verdict came from (``pair_memo`` /
  ``store`` / ``computed``) and, for computed verdicts, whether the
  type universe was a cache ``hit`` or freshly ``built``.
- ``docstore`` — what the loader did (``projected`` / ``unprojected`` /
  ``from_store`` / ``generated``) with keep/seen/skipped counts and the
  projection's depth cap.
- ``pushdown`` — the compiled :class:`~repro.storage.base.StepSpec`
  chain and the exact parameterized SQL, or the *ineligibility reason*
  (see :data:`INELIGIBILITY_REASONS`) when compilation refused.
- ``answer`` — which answer path ``doc.query`` took (``pushdown`` /
  ``materialized`` / ``fallback``).

The decision vocabulary is **closed** (:data:`PLAN_DECISIONS`): every
record also increments the bounded
``repro_plan_decisions_total{layer,decision}`` counter, and unknown
layers/decisions are clamped to ``other`` so plan-shape metrics can
never explode label cardinality.  The vocabulary table in
``docs/OBSERVABILITY.md`` is diffed against these constants by the doc
tests.

Plans surface three ways: the opt-in ``explain: true`` wire envelope
flag, the ``repro explain`` CLI (renders a plan as an indented tree
via :func:`render_plan` without a serve loop), and
automatic capture into the :class:`~repro.obs.tracing.SlowRequestLog`
ring so slow requests arrive with their plan attached.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from .metrics import PLAN_DECISIONS_TOTAL

__all__ = [
    "PLAN_DECISIONS",
    "INELIGIBILITY_REASONS",
    "MAX_DECISIONS",
    "PlanContext",
    "start_plan",
    "finish_plan",
    "current_plan",
    "using_plan",
    "decision",
    "count_decision",
    "clip",
    "render_plan",
]

#: The closed decision vocabulary, by layer.  Everything a plan may
#: record (and everything ``repro_plan_decisions_total`` may count) is
#: one of these ``(layer, decision)`` pairs; anything else is clamped to
#: ``other``.  ``docs/OBSERVABILITY.md`` carries this table and the doc
#: tests diff it against this constant.
PLAN_DECISIONS: dict[str, tuple[str, ...]] = {
    "batcher": ("matrix", "sparse", "direct", "oneshot", "fallback"),
    "engine": ("pair_memo", "store", "computed"),
    "docstore": ("projected", "unprojected", "from_store", "generated"),
    "pushdown": ("compiled", "ineligible"),
    "answer": ("pushdown", "materialized", "fallback"),
}

#: Why the pushdown compiler refused a query fragment, keyed by the
#: stable ``reason`` string carried in the ``pushdown: ineligible``
#: decision detail.  The table is documented in ``docs/OBSERVABILITY.md``
#: (diffed by the doc tests) and anchored from ``docs/PAPER-MAP.md``.
INELIGIBILITY_REASONS: dict[str, str] = {
    "non-step-source": (
        "a for-clause or tail step draws from something other than a "
        "single step off the chain's current context variable"
    ),
    "context-reuse": (
        "the bound variable is referenced again inside the loop body, "
        "so the nesting cannot be flattened into one step chain"
    ),
    "unsupported-axis": (
        "a step uses an axis outside self / child / descendant / "
        "descendant-or-self"
    ),
    "unsupported-test": (
        "a step's node test is not a name, text(), node(), or "
        "wildcard test"
    ),
    "non-step-tail": (
        "the expression's result node is not a step (e.g. element "
        "construction or a literal)"
    ),
}

#: Hard cap on decisions per plan: a speculative matrix flush can touch
#: thousands of pairs, and a plan must stay a bounded wire payload.
#: Records past the cap are counted in the report's ``dropped`` field.
MAX_DECISIONS = 512

_CURRENT: ContextVar["PlanContext | None"] = ContextVar("repro_plan", default=None)


class PlanContext:
    """One request's plan: an ordered list of layer decision records.

    Records are appended by whichever layer made the decision (via
    :func:`decision`) and rendered into the opt-in ``plan`` response
    field by :meth:`report`.  Appends are plain list appends, so the
    context is safe to share between the event loop and the single
    analysis worker thread a request's work is handed to.
    """

    __slots__ = ("started", "decisions", "dropped", "_token")

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.decisions: list[dict] = []
        self.dropped = 0
        self._token = None

    def add(self, layer: str, decision: str, **detail) -> None:
        """Append one decision record (``detail`` must be JSON-ready)."""
        if len(self.decisions) >= MAX_DECISIONS:
            self.dropped += 1
            return
        record: dict = {"layer": layer, "decision": decision}
        if detail:
            record["detail"] = detail
        self.decisions.append(record)

    def report(self) -> dict:
        """The wire-format ``plan`` field for this request."""
        report: dict = {
            "decisions": list(self.decisions),
            "total_ms": round((time.perf_counter() - self.started) * 1000.0, 3),
        }
        if self.dropped:
            report["dropped"] = self.dropped
        return report


def start_plan() -> PlanContext:
    """Create a plan and install it as the current one; returns it."""
    plan = PlanContext()
    plan._token = _CURRENT.set(plan)
    return plan


def finish_plan(plan: PlanContext) -> None:
    """Uninstall ``plan`` (tolerates a plan installed elsewhere)."""
    token = getattr(plan, "_token", None)
    if token is not None:
        try:
            _CURRENT.reset(token)
        except ValueError:  # reset from a different context: just clear
            _CURRENT.set(None)


def current_plan() -> PlanContext | None:
    """The plan installed for the current request, if any."""
    return _CURRENT.get()


def count_decision(layer: str, name: str) -> None:
    """Tick ``repro_plan_decisions_total{layer,decision}`` for one decision.

    Always clamped to the closed :data:`PLAN_DECISIONS` vocabulary
    (unknown layers/decisions count as ``other``), so the counter's
    label cardinality is bounded no matter what callers pass.  Used
    directly when a decision should be counted but must *not* attach to
    whatever plan happens to be installed (e.g. the batcher counting a
    flush decision for a request that did not ask for an explanation).
    """
    allowed = PLAN_DECISIONS.get(layer)
    if allowed is None:
        PLAN_DECISIONS_TOTAL.labels(layer="other", decision="other").inc()
    else:
        PLAN_DECISIONS_TOTAL.labels(
            layer=layer, decision=name if name in allowed else "other"
        ).inc()


def decision(layer: str, name: str, plan: PlanContext | None = None, **detail) -> None:
    """Record one decision: count it, and attach it to the active plan.

    The ``repro_plan_decisions_total{layer,decision}`` counter is always
    incremented (via :func:`count_decision`), so the plan mix is
    scrapeable even when no request asked for an explanation.  The
    record itself is attached to ``plan`` when given, else to the
    current :class:`PlanContext` when one is installed, else discarded.
    """
    count_decision(layer, name)
    target = plan if plan is not None else _CURRENT.get()
    if target is not None:
        target.add(layer, name, **detail)


@contextmanager
def using_plan(plan: PlanContext):
    """Install ``plan`` as the current one for the ``with`` body.

    The worker-thread counterpart of :func:`start_plan`: the analysis
    executor installs the flush's batch plan (or a request's plan, for
    per-entry fallback analysis) around engine work so engine-recorded
    decisions land on the right context, then restores whatever was
    installed before.
    """
    token = _CURRENT.set(plan)
    try:
        yield plan
    finally:
        _CURRENT.reset(token)


def clip(text: str, limit: int = 200) -> str:
    """Bound an expression label carried in a decision detail.

    Plans ride in wire responses and the slow-request ring, so detail
    strings stay bounded; layers that label decisions with query/update
    sources all clip the same way, which keeps the labels comparable
    (the batcher matches engine records against entry sources by
    clipped normalized text).
    """
    return text if len(text) <= limit else text[: limit - 1] + "…"


def render_plan(report: dict) -> str:
    """Render a plan report as an indented decision tree (CLI output).

    Decisions print one per line as ``layer: decision`` with their
    detail keys sorted beneath.

    >>> plan = PlanContext()
    >>> plan.add("pushdown", "compiled", steps=2, sql="SELECT ...")
    >>> plan.add("answer", "pushdown")
    >>> print(render_plan(plan.report()))
    pushdown: compiled
      sql = SELECT ...
      steps = 2
    answer: pushdown
    """
    lines = []
    for record in report.get("decisions", ()):
        lines.append(f"{record['layer']}: {record['decision']}")
        detail = record.get("detail") or {}
        for key in sorted(detail):
            lines.append(f"  {key} = {detail[key]}")
    if report.get("dropped"):
        lines.append(f"(+{report['dropped']} decisions dropped)")
    return "\n".join(lines)
