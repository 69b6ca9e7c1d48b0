"""In-memory span tracing around the public functions of ``tuckeropt``.

A span records (name, start, end, parent).  :func:`install` replaces each
function listed in :data:`TARGETS` with a wrapper under the name its caller
looks it up by (``tuckeropt.solvers.approx_project`` is the approximate
projection as the solvers see it), so the package itself is not modified.
Self time is a span's duration minus the part of it covered by its children,
so the self times of all spans under a root sum to the root's duration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field

LAYERS = ("tensor_core", "tucker", "geometry", "completion", "solvers")


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    top: int | None = None          # the root's direct child above this span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans of one thread, kept in memory until :meth:`write`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            top = None
        elif self.spans[parent].parent is None:
            top = len(self.spans)
        else:
            top = self.spans[parent].top
        self.spans.append(Span(name, self.clock(), parent=parent, top=top,
                               attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, i: int) -> None:
        if not self._stack or self._stack[-1] != i:
            raise RuntimeError(f"span {self.spans[i].name} closed out of order")
        self._stack.pop()
        self.spans[i].end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Context manager around one span; yields the span's index."""
        i = self.open(name, **attrs)
        try:
            yield i
        finally:
            self.close(i)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    **s.attrs}) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration - covered)
    return out


def layer_of(name: str) -> str:
    """Layer a span belongs to; spans outside the package are 'bench'."""
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


# ---------------------------------------------------------------------------
# Wrapping the package

def _kron_bytes(args, kwargs):
    S, factors, skip = args[:3]
    cols = 1
    for j, n in enumerate(S.dims):
        if j != skip - 1:
            cols *= n if factors[j] is None else factors[j].shape[1]
    return {"kron_bytes": S.nnz * cols * 8}


def _entries(args, kwargs):
    return {"entries": len(args[1])}


def _file_bytes(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _backtracks(out):
    return {"backtracks": out[2]}


def _rank(out):
    return {"rank": list(out.rank)}


# (module whose global is replaced, attribute, span name, attrs from the
# arguments, attrs from the result)
TARGETS = [
    ("solvers", "solve_grap", "solvers.grap", None, None),
    ("solvers", "solve_rfgrap", "solvers.rfgrap", None, None),
    ("solvers", "solve_grap_r", "solvers.grap-r", None, None),
    ("solvers", "solve_rfgrap_r", "solvers.rfgrap-r", None, None),
    ("solvers", "armijo_search", "solvers.armijo_search", None, _backtracks),
    ("solvers", "approx_project", "geometry.approx_project", None, None),
    ("solvers", "partial_project", "geometry.partial_project", None, None),
    ("solvers", "stationarity_measure", "geometry.stationarity_measure",
     None, None),
    ("solvers", "add_scaled_tangent", "tucker.add_scaled_tangent", None, None),
    ("solvers", "hosvd_truncate", "tucker.hosvd_truncate", None, _rank),
    ("solvers", "mode_singular_values", "tucker.mode_singular_values",
     None, None),
    ("geometry", "choose_singular_complement",
     "geometry.choose_singular_complement", None, None),
    ("geometry", "tangent_entries_at", "geometry.tangent_entries_at",
     None, None),
    ("geometry", "multi_mode_contract", "completion.multi_mode_contract",
     _kron_bytes, None),
    ("geometry", "thin_svd", "tensor_core.thin_svd", None, None),
    ("tucker", "hosvd_truncate", "tucker.hosvd_truncate", None, _rank),
    ("tucker", "hosvd", "tucker.hosvd", None, None),
    ("tucker", "thin_svd", "tensor_core.thin_svd", None, None),
    ("completion", "entries_at", "tucker.entries_at", _entries, None),
    ("completion", "load_coo", "tensor_core.load_coo", _file_bytes, None),
    ("completion", "load_problem", "completion.load_problem", None, None),
    ("completion", "thin_svd", "tensor_core.thin_svd", None, None),
]


def _wrap(tracer, name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name, **(before(args, kwargs) if before else {}))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            tracer.spans[i].attrs.update(after(out))
        return out
    return wrapper


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    for mod_name, attr, name, before, after in TARGETS:
        mod = importlib.import_module(f"tuckeropt.{mod_name}")
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))
        setattr(mod, attr, _wrap(tracer, name, fn, before, after))

    def uninstall():
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
    return uninstall


_OBJECTIVE_CALLS = ("eval", "grad", "eval_grad", "initial_step", "test_metric")


def counting_objective(tracer: Tracer, obj):
    """Copy of an ObjectiveHandle whose callables each record a span."""
    wrapped = {k: _wrap(tracer, f"completion.objective.{k}", getattr(obj, k))
               for k in _OBJECTIVE_CALLS if getattr(obj, k) is not None}
    return dataclasses.replace(obj, **wrapped)


# ---------------------------------------------------------------------------
# Per-layer metrics

KERNELS = [
    "completion.multi_mode_contract",
    "geometry.stationarity_measure",
    "geometry.approx_project",
    "geometry.partial_project",
    "geometry.choose_singular_complement",
    "geometry.tangent_entries_at",
    "tucker.entries_at",
    "tucker.hosvd_truncate",
    "tucker.add_scaled_tangent",
    "tucker.mode_singular_values",
    "tensor_core.thin_svd",
]

RANK_DECREASING = ("solvers.grap-r", "solvers.rfgrap-r")


def layer_metrics(spans, roots) -> dict:
    """Counts and self times under the given root spans, per root on average.

    Candidates are the truncations a rank-decreasing solver makes directly
    (not inside its line search); an iteration starts at each stationarity
    measure the solver itself calls.  The distinct ratio counts distinct
    truncated ranks per iteration over nominal candidates.
    """
    roots = set(roots)
    selfs = self_times(spans)
    under = [False] * len(spans)
    for i, s in enumerate(spans):
        under[i] = i in roots or (s.parent is not None and under[s.parent])
    n = max(len(roots), 1)
    calls, self_s, attrs = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    f_evals = grad_evals = backtracks = candidates = distinct = 0
    f_evals_rd = 0
    seen_ranks = {}
    for i, s in enumerate(spans):
        if not under[i]:
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[i]
        layer_self[layer_of(s.name)] += selfs[i]
        for k, v in s.attrs.items():
            if isinstance(v, (int, float)):
                attrs[(s.name, k)] = attrs.get((s.name, k), 0) + v
        top = spans[s.top].name if s.top is not None else None
        fe = s.name in ("completion.objective.eval",
                        "completion.objective.eval_grad")
        f_evals += fe
        grad_evals += s.name in ("completion.objective.grad",
                                 "completion.objective.eval_grad")
        if s.name == "solvers.armijo_search":
            backtracks += s.attrs["backtracks"]
        if top in RANK_DECREASING:
            f_evals_rd += fe
            direct = s.parent == s.top
            if direct and s.name == "geometry.stationarity_measure":
                seen_ranks[s.top] = set()
            elif direct and s.name == "tucker.hosvd_truncate":
                candidates += 1
                ranks = seen_ranks.setdefault(s.top, set())
                rank = tuple(s.attrs["rank"])
                distinct += rank not in ranks
                ranks.add(rank)
    out = {}
    for name in KERNELS:
        out[f"{name}.calls"] = calls.get(name, 0) / n
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    out["completion.multi_mode_contract.kron_bytes"] = attrs.get(
        ("completion.multi_mode_contract", "kron_bytes"), 0) / n
    out["tucker.entries_at.entries"] = attrs.get(
        ("tucker.entries_at", "entries"), 0) / n
    out["solvers.armijo_search.self_s"] = self_s.get(
        "solvers.armijo_search", 0.0) / n
    out["solvers.f_evals"] = f_evals / n
    out["solvers.grad_evals"] = grad_evals / n
    out["solvers.backtracks"] = backtracks / n
    out["solvers.candidates"] = candidates / n
    out["solvers.f_evals_per_candidate"] = (f_evals_rd / candidates
                                            if candidates else 0.0)
    out["solvers.candidates_distinct_ratio"] = (distinct / candidates
                                                if candidates else 0.0)
    for layer, v in layer_self.items():
        out[f"layer.{layer}.self_s"] = v / n
    out["trace.root_s"] = sum(spans[i].duration for i in roots) / n
    out["trace.spans"] = sum(under) / n
    return out
