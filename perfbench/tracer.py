"""Layer tracing from outside the program.

``install`` replaces public functions of ``bordismkit.<module>`` with timing
wrappers, at module-attribute level and in every bordismkit module that
imported the same function object by name, so internal cross-module calls
(``kernels`` -> ``intmat.det``, ``bott`` -> ``accel.coloring_blocks``) are
seen too.  Nothing under the program's own source changes.

Three kinds of wrapper:

* ``span``: one span record per call (name, start, end, parent), kept in
  memory; self time is the span's duration minus what its children cover.
* ``hot``: leaf functions called hundreds of thousands of times
  (``intmat.det``, ``mvpoly.divmod_linear``, ``RankAccumulator.add``, ...)
  get a call count and summed time instead of one span per call.  The
  outermost hot call's duration counts as covered time of the enclosing
  span, so it leaves that span's self time.
* ``gen``: a function returning an iterator; each ``next`` is one span, so
  lazily produced work is charged where it happens.

A span can also count the calls of a hot function made while it is open
(``SPAN_HOT_CALLS``): ``window_monomials`` tests each candidate subset with
one ``intmat.det`` call, so its candidates are the determinants it really
computed, and a search that prunes shows as fewer.

Answers (``kernel_space(n).dim``, the sampled rank) are kept as counters for
the detail line, not as metrics: they are fixed by the mathematics, so no
direction is better.

A layer whose function no longer exists is recorded as absent and its
metrics read zero; tracing never fails because the program changed shape.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute path, wrapper kind).  The per-layer metric names below
# are the names an in-program recorder must reuse.
LAYERS = (
    ("accel", "coloring_blocks", "gen"),
    ("bott", "spanning_rank", "span"),
    ("gf2", "RankAccumulator.add", "hot"),
    ("kernels", "kernel_space", "span"),
    ("kernels", "window_monomials", "span"),
    ("kernels", "kernel_sample_unitary", "span"),
    ("kernels", "support_floor", "span"),
    ("intmat", "det", "hot"),
    ("intmat", "adjugate", "hot"),
    ("algebra", "all_faithful_monomials_gf2", "span"),
    ("algebra", "dual", "hot"),
    ("algebra", "differential", "hot"),
    ("localization", "equivariant_chern_number", "span"),
    ("localization", "Gf2IntegralityTable.__init__", "span"),
    ("localization", "Gf2IntegralityTable.passes", "hot"),
    ("localization", "integrality_check_gf2", "span"),
    ("localization", "integrality_check_z", "span"),
    ("mvpoly", "divmod_linear", "hot"),
    ("mvpoly", "product", "hot"),
    ("bordism", "surjectivity_probe", "span"),
    ("bordism", "multiply", "span"),
    ("graphs", "torus_polynomial", "span"),
    ("jsonio", "parse_text", "span"),
    ("jsonio", "canonical_dumps", "span"),
    ("cli", "main", "span"),
)

# span -> (hot function, counter): calls of the hot function made inside it
SPAN_HOT_CALLS = {
    "kernels.window_monomials": ("intmat.det", "kernels.window_monomials.candidates"),
}

CLI_VERBS = ("dim", "check", "dual", "diff", "reduce", "torus-poly", "chern",
             "poly-of-polytope", "generators")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "accel.coloring_blocks.s": "s",
    "accel.coloring_blocks.colorings": "count",
    "accel.colorings_per_s": "1/s",
    "bott.spanning_rank.s": "s",
    "bott.spanning_rank.self_s": "s",
    "bott.spanning_rank.colorings": "count",
    "bott.spanning_rank.distinct": "count",
    "bott.spanning_rank.stopped_early": "count",
    "bott.distinct_ratio": "ratio",
    "gf2.RankAccumulator.add.calls": "count",
    "gf2.RankAccumulator.add.s": "s",
    "gf2.rank_growth_ratio": "ratio",
    "kernels.kernel_space.s": "s",
    "kernels.kernel_space.rows": "count",
    "kernels.window_monomials.s": "s",
    "kernels.window_monomials.candidates": "count",
    "kernels.window_monomials.kept_ratio": "ratio",
    "kernels.kernel_sample_unitary.s": "s",
    "kernels.kernel_sample_unitary.self_s": "s",
    "kernels.support_floor.s": "s",
    "intmat.det.calls": "count",
    "intmat.det.s": "s",
    "intmat.adjugate.calls": "count",
    "algebra.all_faithful_monomials_gf2.s": "s",
    "algebra.dual.calls": "count",
    "algebra.dual.s": "s",
    "algebra.differential.calls": "count",
    "algebra.differential.s": "s",
    "localization.equivariant_chern_number.calls": "count",
    "localization.equivariant_chern_number.s": "s",
    "localization.Gf2IntegralityTable.build_s": "s",
    "localization.Gf2IntegralityTable.passes.calls": "count",
    "localization.Gf2IntegralityTable.passes.s": "s",
    "localization.integrality_check_gf2.calls": "count",
    "localization.integrality_check_gf2.s": "s",
    "localization.integrality_check_z.calls": "count",
    "localization.integrality_check_z.s": "s",
    "mvpoly.divmod_linear.calls": "count",
    "mvpoly.divmod_linear.s": "s",
    "mvpoly.product.calls": "count",
    "mvpoly.product.s": "s",
    "bordism.surjectivity_probe.s": "s",
    "bordism.multiply.s": "s",
    "graphs.torus_polynomial.s": "s",
    "cli.import_s": "s",
    "cli.main.s": "s",
    **{f"cli.{verb}.s": "s" for verb in CLI_VERBS},
    "jsonio.parse_text.s": "s",
    "jsonio.canonical_dumps.s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span and counter recorder for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # span: [name, start, end, parent index, hot-covered seconds, under_hot]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.hot_depth = 0
        self.hot: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, 0.0, self.hot_depth > 0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def wrap_span(self, name: str, fn, on_return=None):
        inner = SPAN_HOT_CALLS.get(name)

        def wrapper(*args, **kwargs):
            before = self.hot[inner[0]][0] if inner else 0
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                if inner:
                    self.counters[inner[1]] += self.hot[inner[0]][0] - before
            if on_return is not None:
                on_return(self.counters, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_hot(self, name: str, fn, on_return=None):
        stat = self.hot[name]

        def wrapper(*args, **kwargs):
            self.hot_depth += 1
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                self.hot_depth -= 1
                stat[0] += 1
                stat[1] += dt
                if self.hot_depth == 0 and self.stack:
                    self.spans[self.stack[-1]][4] += dt
            if on_return is not None:
                on_return(self.counters, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_gen(self, name: str, fn, on_item=None):
        tracer = self

        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))

            def stream():
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    if on_item is not None:
                        on_item(tracer.counters, item)
                    yield item
            return stream()
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over closed spans."""
        selfs = self_times(self.spans)
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span, own in zip(self.spans, selfs):
            if span[2] is None:
                continue
            acc = out[span[0]]
            acc[0] += 1
            acc[1] += span[2] - span[1]
            acc[2] += own
        return {k: tuple(v) for k, v in out.items()}

    def raw(self) -> dict:
        """Everything needed to derive the per-layer metrics, JSON-ready."""
        return {
            "spans": self.span_totals(),
            "hot": {k: tuple(v) for k, v in self.hot.items()},
            "counters": dict(self.counters),
            "absent": list(self.absent),
        }


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children's
    intervals (clipped to the span) minus hot time charged to it.

    Children opened inside a hot call are already inside that hot time and
    are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        name, start, end, parent, _, under_hot = span
        if parent >= 0 and end is not None and not under_hot:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, hot_covered, _) in enumerate(spans):
        if end is None:
            out.append(0.0)
            continue
        covered = 0.0
        reach = start
        for a, b in sorted(children[idx]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(max(0.0, end - start - covered - hot_covered))
    return out


# ---------------------------------------------------------------------------
# counters read from arguments and return values


def _on_kernel_space(c, args, kwargs, result) -> None:
    c["kernels.kernel_space.rows"] += len(result.monomials)
    c[f"answer.kernel_space({result.n}).dim"] = result.dim


def _on_window_monomials(c, args, kwargs, result) -> None:
    c["kernels.window_monomials.kept"] += len(result)


def _on_sample(c, args, kwargs, result) -> None:
    c[f"answer.kernel_sample_unitary({result.n},{result.weight_bound}).rank"] = result.rank


def _on_spanning(c, args, kwargs, result) -> None:
    for key in ("colorings", "distinct"):
        c[f"bott.spanning_rank(n={result.n}).{key}"] += getattr(result, key)
    c["bott.spanning_rank.colorings"] += result.colorings
    c["bott.spanning_rank.distinct"] += result.distinct
    c["bott.spanning_rank.stopped_early"] += int(result.stopped_early)


def _on_rank_add(c, args, kwargs, result) -> None:
    c["gf2.RankAccumulator.add.grew"] += int(bool(result))


def _on_block(c, item) -> None:
    c["accel.coloring_blocks.colorings"] += len(item[1])


HOOKS = {
    "kernels.kernel_space": _on_kernel_space,
    "kernels.window_monomials": _on_window_monomials,
    "kernels.kernel_sample_unitary": _on_sample,
    "bott.spanning_rank": _on_spanning,
    "gf2.RankAccumulator.add": _on_rank_add,
    "accel.coloring_blocks": _on_block,
}


def install(tracer: Tracer) -> None:
    """Wrap every layer function in LAYERS that exists in this process."""
    for module_name, path, kind in LAYERS:
        name = f"{module_name}.{path}"
        try:
            module = importlib.import_module(f"bordismkit.{module_name}")
        except ImportError:
            tracer.absent.append(name)
            continue
        owner = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            tracer.absent.append(name)
            continue
        hook = HOOKS.get(name)
        if kind == "span":
            wrapped = tracer.wrap_span(name, original, hook)
        elif kind == "hot":
            wrapped = tracer.wrap_hot(name, original, hook)
        else:
            wrapped = tracer.wrap_gen(name, original, hook)
        setattr(owner, attr, wrapped)
        if owner is module:
            _rebind(original, wrapped)


def _rebind(original, wrapped) -> None:
    """Point every bordismkit module's by-name import at the wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "bordismkit"
                               or mod_name.startswith("bordismkit.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metric values of one traced iteration (cli.* excluded)."""
    spans, hot, c = raw["spans"], raw["hot"], raw["counters"]

    def span_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def hot_calls(name):
        return hot.get(name, (0, 0.0))[0]

    def hot_s(name):
        return hot.get(name, (0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    colorings = c.get("accel.coloring_blocks.colorings", 0)
    blocks_s = span_s("accel.coloring_blocks")
    adds = hot_calls("gf2.RankAccumulator.add")
    out = {
        "accel.coloring_blocks.s": blocks_s,
        "accel.coloring_blocks.colorings": colorings,
        "accel.colorings_per_s": ratio(colorings, blocks_s),
        "bott.spanning_rank.s": span_s("bott.spanning_rank"),
        "bott.spanning_rank.self_s": self_s("bott.spanning_rank"),
        "bott.spanning_rank.colorings": c.get("bott.spanning_rank.colorings", 0),
        "bott.spanning_rank.distinct": c.get("bott.spanning_rank.distinct", 0),
        "bott.spanning_rank.stopped_early": c.get("bott.spanning_rank.stopped_early", 0),
        "bott.distinct_ratio": ratio(c.get("bott.spanning_rank.distinct", 0),
                                     c.get("bott.spanning_rank.colorings", 0)),
        "gf2.RankAccumulator.add.calls": adds,
        "gf2.RankAccumulator.add.s": hot_s("gf2.RankAccumulator.add"),
        "gf2.rank_growth_ratio": ratio(c.get("gf2.RankAccumulator.add.grew", 0), adds),
        "kernels.kernel_space.s": span_s("kernels.kernel_space"),
        "kernels.kernel_space.rows": c.get("kernels.kernel_space.rows", 0),
        "kernels.window_monomials.s": span_s("kernels.window_monomials"),
        "kernels.window_monomials.candidates": c.get("kernels.window_monomials.candidates", 0),
        "kernels.window_monomials.kept_ratio": ratio(
            c.get("kernels.window_monomials.kept", 0),
            c.get("kernels.window_monomials.candidates", 0)),
        "kernels.kernel_sample_unitary.s": span_s("kernels.kernel_sample_unitary"),
        "kernels.kernel_sample_unitary.self_s": self_s("kernels.kernel_sample_unitary"),
        "kernels.support_floor.s": span_s("kernels.support_floor"),
        "intmat.det.calls": hot_calls("intmat.det"),
        "intmat.det.s": hot_s("intmat.det"),
        "intmat.adjugate.calls": hot_calls("intmat.adjugate"),
        "algebra.all_faithful_monomials_gf2.s": span_s("algebra.all_faithful_monomials_gf2"),
        "algebra.dual.calls": hot_calls("algebra.dual"),
        "algebra.dual.s": hot_s("algebra.dual"),
        "algebra.differential.calls": hot_calls("algebra.differential"),
        "algebra.differential.s": hot_s("algebra.differential"),
        "localization.equivariant_chern_number.calls":
            spans.get("localization.equivariant_chern_number", (0, 0.0, 0.0))[0],
        "localization.equivariant_chern_number.s":
            span_s("localization.equivariant_chern_number"),
        "localization.Gf2IntegralityTable.build_s":
            span_s("localization.Gf2IntegralityTable.__init__"),
        "localization.Gf2IntegralityTable.passes.calls":
            hot_calls("localization.Gf2IntegralityTable.passes"),
        "localization.Gf2IntegralityTable.passes.s":
            hot_s("localization.Gf2IntegralityTable.passes"),
        "localization.integrality_check_gf2.calls":
            spans.get("localization.integrality_check_gf2", (0, 0.0, 0.0))[0],
        "localization.integrality_check_gf2.s": span_s("localization.integrality_check_gf2"),
        "localization.integrality_check_z.calls":
            spans.get("localization.integrality_check_z", (0, 0.0, 0.0))[0],
        "localization.integrality_check_z.s": span_s("localization.integrality_check_z"),
        "mvpoly.divmod_linear.calls": hot_calls("mvpoly.divmod_linear"),
        "mvpoly.divmod_linear.s": hot_s("mvpoly.divmod_linear"),
        "mvpoly.product.calls": hot_calls("mvpoly.product"),
        "mvpoly.product.s": hot_s("mvpoly.product"),
        "bordism.surjectivity_probe.s": span_s("bordism.surjectivity_probe"),
        "bordism.multiply.s": span_s("bordism.multiply"),
        "graphs.torus_polynomial.s": span_s("graphs.torus_polynomial"),
        "jsonio.parse_text.s": span_s("jsonio.parse_text"),
        "jsonio.canonical_dumps.s": span_s("jsonio.canonical_dumps"),
    }
    return out
