"""Spans recorded from outside the simulator, around its public entry points.

The simulator binds most layer functions into `disue.orchestrator` at
import time, so each wrapper replaces the name in the module that calls
it; `disue.nn` and `disue.distill` look theirs up at call time. The
wrappers only observe: they time the call, note a few fields of its
result and pass arguments and result through unchanged.

A span holds its name, start, end, parent span, round id and thread id.
Spans opened on a pool thread with nothing open on that thread take the
current round span as parent, so local training on worker threads is
attributed to its round. Spans stay in memory until `write_jsonl`.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import math
import threading
import time
from dataclasses import dataclass

# module -> entry points wrapped there (where the callers look them up)
WRAPPED = {
    "disue.orchestrator": (
        "build_federated_data",
        "local_train",
        "ssc_encrypt",
        "build_similarity_matrix",
        "affinity_propagation",
        "intra_group_aggregate",
        "global_average",
        "compute_gls",
        "compute_gwf",
        "iga_round",
    ),
    "disue.nn": ("backward", "accuracy"),
    "disue.distill": ("loss_cd", "loss_cf", "loss_div"),
}


def _partition_info(args, result) -> dict:
    return {"n": args[0].n, "sweeps": result.n_iterations, "converged": result.converged, "fallback": result.fallback}


def _iga_info(args, result) -> dict:
    return {
        "diverged": result.diverged,
        "gen_steps": sum(rec.phase == "gen" for rec in result.trace),
        "student_steps": sum(rec.phase == "student" for rec in result.trace),
    }


# fields of a result kept on its span, for counts the spans alone cannot give
RESULT_INFO = {
    "affinity_propagation": _partition_info,
    "iga_round": _iga_info,
    "local_train": lambda args, result: {"diverged": bool(result[2])},
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    round_id: int | None
    thread_id: int
    info: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Collects spans while installed; `round()` brackets one simulator round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._round_span: Span | None = None
        self._round_id: int | None = None
        self._rounds = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._round_span
        span = Span(name, time.perf_counter(), math.nan, parent, self._round_id, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def round(self):
        self._round_id = self._rounds
        self._rounds += 1
        span = self._open("round")
        self._round_span = span
        try:
            yield span
        finally:
            self._close(span)
            self._round_span = None
            self._round_id = None

    def _wrap(self, name: str, fn):
        describe = RESULT_INFO.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                span.info = describe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point in WRAPPED; restore the originals on exit."""
        originals = []
        try:
            for module_name, names in WRAPPED.items():
                module = importlib.import_module(module_name)
                for name in names:
                    fn = getattr(module, name)
                    originals.append((module, name, fn))
                    setattr(module, name, self._wrap(name, fn))
            yield self
        finally:
            for module, name, fn in reversed(originals):
                setattr(module, name, fn)

    def write_jsonl(self, path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": None if span.parent is None else index[id(span.parent)],
                    "round": span.round_id,
                    "thread": span.thread_id,
                }
                if span.info:
                    record["info"] = span.info
                out.write(json.dumps(record) + "\n")


def caller(span: Span, names: tuple[str, ...]) -> str | None:
    """The nearest enclosing span whose name is in `names`."""
    node = span.parent
    while node is not None:
        if node.name in names:
            return node.name
        node = node.parent
    return None


def self_ms(span: Span, children: list[Span]) -> float:
    """Duration minus the direct children, which run one after another on its thread."""
    return span.ms - sum(child.ms for child in children)


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer figures from a traced run, per traced round unless the unit says otherwise.

    A ratio or per-call figure whose base is zero (no such call) reads 0.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    get = lambda name: by_name.get(name, [])
    returned = lambda name: [s for s in get(name) if s.info is not None]  # calls that did not raise
    busy = lambda *names: sum(s.ms for name in names for s in get(name))
    ratio = lambda num, den: num / den if den else 0.0

    rounds = get("round")
    n_rounds = len(rounds)
    per_round = lambda x: ratio(x, n_rounds)
    round_ms = busy("round")

    # pool phase: first local_train start to last end, per round
    local_by_round: dict[int, list[Span]] = {}
    for span in get("local_train"):
        local_by_round.setdefault(span.round_id, []).append(span)
    phase_ms = sum((max(s.end for s in group) - min(s.start for s in group)) * 1000.0 for group in local_by_round.values())

    backward_by_caller: dict[str | None, list[Span]] = {}
    for span in get("backward"):
        backward_by_caller.setdefault(caller(span, ("local_train", "iga_round")), []).append(span)
    local_bw = backward_by_caller.get("local_train", [])
    iga_bw = backward_by_caller.get("iga_round", [])

    aps = returned("affinity_propagation")
    ap_sweeps = sum(s.info["sweeps"] for s in aps)
    igas = returned("iga_round")
    clustering_ms = busy("ssc_encrypt", "build_similarity_matrix", "affinity_propagation")
    aggregation = ("intra_group_aggregate", "global_average", "compute_gls", "compute_gwf")

    return {
        "local.calls": per_round(len(get("local_train"))),
        "local.busy_ms": per_round(busy("local_train")),
        "local.backward_calls": per_round(len(local_bw)),
        "local.diverged": per_round(sum(s.info["diverged"] for s in returned("local_train"))),
        "local.share": ratio(phase_ms, round_ms),
        "pool.phase_ms": per_round(phase_ms),
        "pool.busy_ratio": ratio(busy("local_train"), workers * phase_ms),
        "secure.encrypt_calls": per_round(len(get("ssc_encrypt"))),
        "secure.encrypt_busy_ms": per_round(busy("ssc_encrypt")),
        "clustering.similarity_busy_ms": per_round(busy("build_similarity_matrix")),
        "clustering.ap_busy_ms": per_round(busy("affinity_propagation")),
        "clustering.ap_sweeps": per_round(ap_sweeps),
        "clustering.ap_ms_per_sweep": ratio(sum(s.ms for s in aps), ap_sweeps),
        "clustering.ap_n_mean": ratio(sum(s.info["n"] for s in aps), len(aps)),
        "clustering.ap_converged_ratio": ratio(sum(s.info["converged"] for s in aps), len(aps)),
        "clustering.ap_fallbacks": per_round(sum(s.info["fallback"] for s in aps)),
        "clustering.share": ratio(clustering_ms, round_ms),
        "aggregation.calls": per_round(sum(len(get(name)) for name in aggregation)),
        "aggregation.busy_ms": per_round(busy(*aggregation)),
        "distill.iga_calls": per_round(len(get("iga_round"))),
        "distill.iga_busy_ms": per_round(busy("iga_round")),
        "distill.iga_self_ms": per_round(sum(self_ms(s, children.get(id(s), [])) for s in get("iga_round"))),
        "distill.iga_share": ratio(busy("iga_round"), round_ms),
        "distill.loss_div_busy_ms": per_round(busy("loss_div")),
        "distill.loss_div_ms_per_call": ratio(busy("loss_div"), len(get("loss_div"))),
        "distill.loss_cf_busy_ms": per_round(busy("loss_cf")),
        "distill.loss_cd_busy_ms": per_round(busy("loss_cd")),
        "distill.backward_calls": per_round(len(iga_bw)),
        "distill.backward_busy_ms": per_round(sum(s.ms for s in iga_bw)),
        "distill.gen_steps": per_round(sum(s.info["gen_steps"] for s in igas)),
        "distill.student_steps": per_round(sum(s.info["student_steps"] for s in igas)),
        "distill.accepted_ratio": ratio(sum(not s.info["diverged"] for s in igas), len(get("iga_round"))),
        "nn.backward_ms_per_call.local_train": ratio(sum(s.ms for s in local_bw), len(local_bw)),
        "nn.backward_ms_per_call.iga_round": ratio(sum(s.ms for s in iga_bw), len(iga_bw)),
        "nn.eval_busy_ms": per_round(busy("accuracy")),
        "nn.eval_share": ratio(busy("accuracy"), round_ms),
        "data.build_ms": ratio(busy("build_federated_data"), len(get("build_federated_data"))),
    }
