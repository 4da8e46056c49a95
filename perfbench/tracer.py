"""Spans around the calls into each layer, recorded from outside `src/`.

`Tracer.install()` replaces every binding of each traced function in the
loaded `sireason` modules with a thin `perf_counter_ns` wrapper.  Modules
import names like `normalize_key` or `parse_statement` with `from ... import`,
so patching only the defining module would miss most calls.

A span is (name, start, end, parent span, problem index).  Spans stay in
memory, columnar, and are written out once the pass ends.  A layer's self
time is its span's duration minus the time its direct child spans cover.
cProfile is not used: it hooks every call, not only the layer boundaries.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.raised: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self.problem = -1
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_problem = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.live = 0
        self.procs: dict[int, object] = {}
        # Traced functions the tree under test no longer has; their
        # metrics read 0 and the run says which.
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.raised.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        """A span-recording stand-in for `fn`; `on_result` sees each return."""
        nid = self._name_id(name)
        stack = self._stack
        calls, raised, self_ns = self.calls, self.raised, self.self_ns
        s_name, s_parent, s_problem = self.s_name, self.s_parent, self.s_problem
        s_start, s_end = self.s_start, self.s_end

        def traced(*args, **kwargs):
            idx = len(s_start)
            frame = [idx, 0]
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_problem.append(self.problem)
            s_end.append(0)
            stack.append(frame)
            start = perf_counter_ns()
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[nid] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                s_end[idx] = end
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self_ns[nid] += dur - frame[1]
                calls[nid] += 1
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- reading back -------------------------------------------------------

    def stat(self, name: str) -> tuple[int, int, float]:
        """(calls, raised, self ms) for a span name; zeros if never seen."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0.0
        return self.calls[nid], self.raised[nid], self.self_ns[nid] / 1e6

    def median_ms(self, name: str) -> float:
        nid = self._ids.get(name)
        durs = [
            (self.s_end[i] - self.s_start[i]) / 1e6
            for i in range(len(self.s_name))
            if self.s_name[i] == nid
        ]
        return statistics.median(durs) if durs else 0.0

    def write_spans(self, path, problem_ids) -> None:
        """One tab-separated line per span; `problem_ids[i]` names problem i."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tproblem\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.s_name)):
                k = self.s_problem[i]
                fh.write(
                    f"{i}\t{names[self.s_name[i]]}\t{self.s_parent[i]}\t"
                    f"{problem_ids[k] if k >= 0 else '-'}\t"
                    f"{self.s_start[i]}\t{self.s_end[i]}\n"
                )

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function, at every binding in `sireason.*`."""
        from sireason import cnl, core, datasets, engine, evalcli, models, symbolic

        def patch_function(mod, attr, name, on_result=None):
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{mod.__name__}.{attr}")
                return
            wrapped = self.wrap(name, original, on_result)
            for modname, module in list(sys.modules.items()):
                if module is None or not (
                    modname == "sireason" or modname.startswith("sireason.")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

        def patch_method(cls, attr, name, on_result=None):
            raw = cls.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"{cls.__qualname__}.{attr}")
                return
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, on_result)))
            else:
                setattr(cls, attr, self.wrap(name, raw, on_result))

        def on_selection(resp):
            if resp.text == "":
                self.count("oracle.selection.exhausted")

        def on_ensure(proc):
            self.procs.setdefault(id(proc), proc)

        def on_remote_open(_backend):
            self.live += 1
            self.counters["transport.live_max"] = max(
                self.counters.get("transport.live_max", 0), self.live
            )

        def on_remote_close(_):
            self.live -= 1

        for mod, attr, name in (
            (symbolic, "closure", "symbolic.closure"),
            (symbolic, "apply_rule", "symbolic.apply_rule"),
            (symbolic, "shortest_proof", "symbolic.shortest_proof"),
            (core, "normalize_key", "core.normalize_key"),
            (core, "parse_trace_text", "core.parse_trace_text"),
            (core, "render_trace", "core.render_trace"),
            (engine, "selection_step", "engine.selection_step"),
            (engine, "si_answer", "engine.solve"),
            (engine, "beam_search", "engine.solve"),
            (cnl, "parse_statement", "cnl.parse_statement"),
            (cnl, "parse_question", "cnl.parse_question"),
            (models, "format_selection_prompt", "models.prompt_format"),
            (models, "format_inference_prompt", "models.prompt_format"),
            (models, "format_halter_prompts", "models.prompt_format"),
            (models, "format_value_prompt", "models.prompt_format"),
            (models, "decode_response", "models.wire.decode"),
            (datasets, "generate_problem_set", "datasets.generate_problem_set"),
            (datasets, "validate_problems", "datasets.validate_problems"),
            (datasets, "extract_si_pairs", "datasets.extract_pairs"),
            (datasets, "extract_halter_pairs", "datasets.extract_pairs"),
            (datasets, "extract_value_pairs", "datasets.extract_pairs"),
            (datasets, "load_problems", "datasets.load_problems"),
            (evalcli, "jaccard_metrics", "evalcli.metrics"),
            (evalcli, "rouge_scores", "evalcli.metrics"),
            (evalcli, "exact_match", "evalcli.metrics"),
            (evalcli, "made_up_fact_rate", "evalcli.metrics"),
        ):
            patch_function(mod, attr, name)
        patch_function(models, "encode_request", "models.wire.encode",
                       lambda b: self.count("wire.bytes_sent", len(b)))
        patch_function(models, "remote_backend", "models.remote_backend",
                       on_remote_open)

        oracle = models.OracleBackend
        patch_method(oracle, "_complete_selection", "models.oracle.selection",
                     on_selection)
        for role in ("inference", "halter_ready", "halter_answer", "value"):
            patch_method(oracle, f"_complete_{role}", f"models.oracle.{role}")
        patch_method(core.LabeledContext, "from_statements",
                     "core.LabeledContext.from_statements")
        patch_method(models.PipeTransport, "exchange", "models.transport.exchange",
                     lambda b: self.count("wire.bytes_received", len(b)))
        patch_method(models.PipeTransport, "_ensure", "models.transport.ensure",
                     on_ensure)
        patch_method(models.RemoteBackend, "close", "models.remote_close",
                     on_remote_close)

    def layer_metrics(self, parse_cache_delta: tuple[int, int]) -> dict:
        """The raw per-layer numbers of one traced pass (no overhead ratio)."""
        out: dict[str, float] = {}
        for name in (
            "symbolic.closure", "core.normalize_key",
            "core.LabeledContext.from_statements", "symbolic.shortest_proof",
            "core.parse_trace_text", "core.render_trace",
            "models.oracle.selection", "models.oracle.inference",
            "models.oracle.halter_ready", "models.oracle.halter_answer",
            "models.oracle.value", "cnl.parse_statement", "cnl.parse_question",
            "models.prompt_format",
        ):
            calls, _, self_ms = self.stat(name)
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_ms

        def ratio(num, den):
            return num / den if den else 0.0

        calls, missed, _ = self.stat("symbolic.apply_rule")
        out["symbolic.apply_rule.calls"] = calls
        out["symbolic.apply_rule.hit_ratio"] = ratio(calls - missed, calls)
        out["models.oracle.selection.exhausted"] = self.counters.get(
            "oracle.selection.exhausted", 0)
        calls, failed, _ = self.stat("engine.selection_step")
        out["engine.selection_step.calls"] = calls
        out["engine.selection_step.useful_ratio"] = ratio(calls - failed, calls)
        hits, misses = parse_cache_delta
        out["cnl.parse_statement.hit_ratio"] = ratio(hits, hits + misses)
        exchanges, errors, _ = self.stat("models.transport.exchange")
        out["models.transport.spawns"] = len(self.procs)
        out["models.transport.live_max"] = self.counters.get("transport.live_max", 0)
        out["models.transport.round_trips"] = exchanges
        out["models.transport.round_trip_ms"] = self.median_ms(
            "models.transport.exchange")
        out["models.transport.errors"] = errors
        out["models.wire.encode_ms"] = self.stat("models.wire.encode")[2]
        out["models.wire.decode_ms"] = self.stat("models.wire.decode")[2]
        out["models.wire.bytes_sent"] = self.counters.get("wire.bytes_sent", 0)
        out["models.wire.bytes_received"] = self.counters.get("wire.bytes_received", 0)
        for name in ("engine.solve", "datasets.generate_problem_set",
                     "datasets.validate_problems", "datasets.extract_pairs",
                     "datasets.load_problems", "evalcli.metrics"):
            out[f"{name}.self_ms"] = self.stat(name)[2]
        return out


# Per-layer metrics that are exact counts: they must repeat exactly across
# traced passes of the same inputs.
def is_count(metric: str) -> bool:
    return not (metric.endswith("_ms") or metric == "trace.overhead_ratio")
