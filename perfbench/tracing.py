"""Spans and counters around the library's public functions, from outside the library.

install() rebinds the public functions on the module objects, including
the names one module imported from another (engine's own binding of
beta_rows, cli's of beta_table), and restore() puts the originals back.
Spans are kept in memory as [name, start, end, parent, busy] and written
out when the run ends.  busy differs from end - start only for generator
spans, which run in slices between the consumer's own steps.  A span's
self time is its busy time minus its children's.

PeakProbe takes tracemalloc peaks around top-level calls in a separate
pass, because tracemalloc slows the calls it watches many times over.
"""

from __future__ import annotations

import functools
import json
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("sequences", "engine", "closed_forms", "posets", "cli")

CLOSED_FORMS = (
    "as_fraction", "monomial_plus_constant", "geometric_qdepth", "arithmetic_qdepth",
    "quadratic_qdepth", "lambda_threshold", "compare_alpha1", "eq_bound", "polynomial_upper_bound",
)
CLI_HANDLERS = (
    "cmd_qdepth", "cmd_beta_table", "cmd_closed_form", "cmd_eq_bound", "cmd_realize",
    "cmd_verify_partition", "cmd_sdepth", "cmd_sweep",
)


class Rebinding:
    """Replaces attributes of modules and classes, and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple] = []

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Tracer(Rebinding):
    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.counts: dict[str, float] = defaultdict(int)
        self.searches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            result, error = None, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                rec[1], rec[2], rec[4] = start, end, end - start
                if after is not None:
                    after(args, result, error)

        return traced

    def wrap_generator(self, name: str, fn, on_item, on_done):
        tracer = self

        def drive(gen, rec, sid):
            last = None
            try:
                while True:
                    tracer.stack.append(sid)
                    start = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        tracer.stack.pop()
                        if not rec[1]:
                            rec[1] = start
                        rec[2] = end
                        rec[4] += end - start
                    on_item(item)
                    last = item
                    yield item
            finally:
                gen.close()
                on_done(last)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, 0.0]
            tracer.spans.append(rec)
            return drive(gen, rec, len(tracer.spans) - 1)

        return traced

    # -- counters ---------------------------------------------------------

    def _bits(self, values) -> None:
        top = max((abs(v).bit_length() for v in values), default=0)
        if top > self.counts["sequences.entry_max_bits"]:
            self.counts["sequences.entry_max_bits"] = top

    def _after_qdepth(self, args, result, error):
        if error is None:
            k0, ub, q = args[0].stats().k0, result.upper_bound_used, result.qdepth
            c = self.counts
            c["engine.qdepth.calls"] += 1
            c["engine.rows_built"] += ub - k0 + 1
            c["engine.rows_needed"] += min(ub, q + 1) - k0 + 1
            c["engine.rejections"] += ub - q

    def _count(self, key: str):
        def after(args, result, error):
            self.counts[key] += 1
        return after

    def _after_table(self, args, result, error):
        self.counts["sequences.beta_table.calls"] += 1
        if error is None:
            self._bits(result.entries.values())

    def _on_row(self, item):
        self.counts["sequences.beta_rows.rows"] += 1
        self.counts["sequences.beta_rows.entries"] += len(item[1])

    def _rows_done(self, last):
        if last is not None:
            self._bits(last[1].values())

    def _after_sdepth(self, args, result, error):
        self.counts["posets.sdepth.calls"] += 1
        self.counts["posets.sdepth.members"] += len(args[0])
        if error is None:
            levels = Counter(bin(m).count("1") for m in args[0].sets)
            self.searches.append((tuple(sorted(levels.items())), result.sdepth))

    def _after_validate(self, args, result, error):
        c = self.counts
        c["posets.validate.calls"] += 1
        c["posets.validate.intervals"] += len(args[0].intervals)
        if error is None and not result.ok:
            c["posets.validate.invalid"] += 1

    def _after_realize(self, args, result, error):
        c = self.counts
        c["posets.realize.calls"] += 1
        if error is not None:
            c["posets.realize.domain_errors"] += type(error).__name__ == "DomainError"
        elif result.ground_size > c["posets.realize.ground_size_max"]:
            c["posets.realize.ground_size_max"] = result.ground_size

    def _after_build_parser(self, args, parser, error):
        if parser is not None:
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)

    # -- installation -----------------------------------------------------

    def install(self, mods) -> None:
        seq, engine, cf, posets, cli = mods.sequences, mods.engine, mods.closed_forms, mods.posets, mods.cli
        w, r = self.wrap, self._rebind

        rows = self.wrap_generator("sequences.beta_rows", seq.beta_rows, self._on_row, self._rows_done)
        for owner in (seq, engine):
            r(owner, "beta_rows", rows)
        beta = w("sequences.beta", seq.beta, self._count("sequences.beta.calls"))
        for owner in (seq, engine):
            r(owner, "beta", beta)
        table = w("sequences.beta_table", seq.beta_table, self._after_table)
        for owner in (seq, cli):
            r(owner, "beta_table", table)
        parse = w("sequences.parse", seq.sequence_from_json_dict)
        for owner in (seq, cli):
            r(owner, "sequence_from_json_dict", parse)

        r(engine, "qdepth", w("engine.qdepth", engine.qdepth, self._after_qdepth))

        calls = self._count("closed_forms.calls")
        for fn in CLOSED_FORMS:
            r(cf, fn, w(f"closed_forms.{fn}", getattr(cf, fn), calls))

        for method in ("__init__", "level_counts", "level_sequence"):
            r(posets.Poset, method, w("posets.build", getattr(posets.Poset, method)))
        for fn in ("poset_from_json_dict", "partition_from_json_dict"):
            r(posets, fn, w("posets.build", getattr(posets, fn)))
        r(posets, "poset_qdepth", w("posets.poset_qdepth", posets.poset_qdepth, self._count("posets.poset_qdepth.calls")))
        r(posets, "sdepth_bruteforce", w("posets.sdepth", posets.sdepth_bruteforce, self._after_sdepth))
        r(posets, "validate_partition", w("posets.validate", posets.validate_partition, self._after_validate))
        r(posets, "realize", w("posets.realize", posets.realize, self._after_realize))

        r(cli, "main", w("cli.main", cli.main))
        r(cli, "build_parser", w("cli.parse", cli.build_parser, self._after_build_parser))
        r(cli, "load_json_arg", w("cli.parse", cli.load_json_arg))
        for fn in CLI_HANDLERS:
            r(cli, fn, w("cli.handler", getattr(cli, fn)))
        r(cli, "_emit", w("cli.serialize", cli._emit))

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Self time per span name and per layer."""
        child = [0.0] * len(self.spans)
        for name, _, _, parent, busy in self.spans:
            if parent >= 0:
                child[parent] += busy
        by_name: dict[str, float] = defaultdict(float)
        for i, (name, _, _, _, busy) in enumerate(self.spans):
            by_name[name] += busy - child[i]
        by_layer = {layer: 0.0 for layer in LAYERS}
        for name, t in by_name.items():
            by_layer[name.split(".")[0]] += t
        return by_name, by_layer

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, busy) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, busy]) + "\n")


class PeakProbe(Rebinding):
    """tracemalloc peak of top-level calls to engine.qdepth and posets.realize."""

    def __init__(self):
        super().__init__()
        self.peaks = {"engine.qdepth.peak_mb": 0.0, "posets.realize.peak_mb": 0.0}
        self.depth = 0

    def _wrap(self, key: str, fn):
        probe = self

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if probe.depth:
                return fn(*args, **kwargs)
            probe.depth += 1
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                probe.peaks[key] = max(probe.peaks[key], peak)
                probe.depth -= 1

        return measured

    def install(self, mods) -> None:
        for owner, attr, key in ((mods.engine, "qdepth", "engine.qdepth.peak_mb"),
                                 (mods.posets, "realize", "posets.realize.peak_mb")):
            self._rebind(owner, attr, self._wrap(key, getattr(owner, attr)))
        tracemalloc.start()

    def restore(self) -> None:
        tracemalloc.stop()
        super().restore()
