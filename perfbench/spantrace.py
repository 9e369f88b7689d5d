"""Span tracing of qdportfolio's layers, applied from outside the package.

`Tracer.install` wraps each function in `TRACED` and rebinds every
attribute of every loaded `qdportfolio` module that refers to it, so a
name imported with `from .x import f` is wrapped where it is looked up
as well as where it is defined.  Each call opens a span whose parent is
the innermost open span; a span's self time is its duration minus the
durations of its direct children, so the self times of one job sum to
the time its outermost spans cover.  `Tracer.uninstall` rebinds every
original and reports any attribute that did not come back.
"""
from __future__ import annotations

import functools
import itertools
import os
import sys
import time
from collections import defaultdict

PACKAGE = "qdportfolio"

# (module, function): one span name `<module>.<function>` each.
TRACED = (
    ("marketdata", "load_prices"),
    ("marketdata", "sample_window"),
    ("marketdata", "synth_dataset"),
    ("generator", "forward"),
    ("generator", "sparsemax"),
    ("diffcore", "lstm_cell"),
    ("diffcore", "backward"),
    ("objective", "total_loss"),
    ("objective", "corrupt"),
    ("objective", "max_offdiag_corr"),
    ("optim", "step"),
    ("optim", "cmaes_run"),
    ("ensemble", "evaluate_population"),
    ("ensemble", "evaluate"),
    ("trainer", "train_generator"),
    ("trainer", "train_baseline"),
    ("trainer", "save_run"),
    ("trainer", "save_checkpoint"),
    ("trainer", "load_checkpoint"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fn in TRACED)
SPAN_FIELDS = (("self_s", "s"), ("calls", "count"), ("errors", "count"))


def _count_graph_nodes(counters, args, kwargs, result):
    counters["diffcore.graph_nodes"] += len(result)


def _count_checkpoint_bytes(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counters["trainer.checkpoint_bytes"] += os.path.getsize(path)


# Counts taken from a call's arguments or result after its span closes.
AFTER = {
    "diffcore.backward": _count_graph_nodes,
    "trainer.save_checkpoint": _count_checkpoint_bytes,
}


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id or -1, name, start, end, failed)
        self.totals: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])  # self_s, calls, errors
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[list] = []    # [span id, time covered by children]
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def take(self) -> tuple[dict, dict]:
        """Return and reset the totals and counters gathered so far."""
        totals, counters = dict(self.totals), dict(self.counters)
        self.totals.clear()
        self.counters.clear()
        return totals, counters

    def _wrap(self, name, fn):
        open_spans, spans, totals, counters = self._open, self.spans, self.totals, self.counters
        after = AFTER.get(name)
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = open_spans[-1][0] if open_spans else -1
            open_spans.append(frame)
            failed = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                open_spans.pop()
                duration = end - start
                if open_spans:
                    open_spans[-1][1] += duration
                total = totals[name]
                total[0] += duration - frame[1]
                total[1] += 1
                total[2] += failed
                spans.append((frame[0], parent, name, start, end, failed))
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def _package_modules(self) -> list:
        return [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = self._package_modules()
        by_name = {module.__name__: module for module in modules}
        for module_name, fn_name in TRACED:
            original = getattr(by_name[f"{PACKAGE}.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return what is still wrong."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        problems = [
            f"{module.__name__}.{attr} not restored"
            for module, attr, original in self._patched
            if getattr(module, attr) is not original
        ]
        self._patched.clear()
        for module in self._package_modules():
            for attr, value in vars(module).items():
                if getattr(value, "__perfbench_traced__", False):
                    problems.append(f"{module.__name__}.{attr} still traced")
        if self._open:
            problems.append(f"{len(self._open)} spans left open")
        return problems
