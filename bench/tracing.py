"""Spans around the public functions of each mnewton module, installed from outside.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span, wherever the function is reachable as
a module attribute: its defining module, the modules that import it by
name (``forms``, ``pairsums``, ``mclass``, ``niep``, ``charcoeff``,
``serialize``) and the package namespace.  ``MinorPairSums.profile`` is
wrapped on its class.  Nothing under ``src/`` is edited.

Spans are kept in memory, one stack per thread, so the worker threads of
the ``niep-screen`` pool record their own spans; a span's self time is
its duration minus the spans it directly encloses on the same thread.
Counts are computed from call arguments at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("linalg", "charcoeff", "mclass", "pairsums", "forms", "niep", "serialize", "cli")
# normalized_coeffs inputs up to this order are kept for the exact oracle
ORACLE_MAX_N = 16


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """In-memory span recorder; install() wraps the package, uninstall() restores it."""

    def __init__(self):
        self.spans: list[tuple] = []      # (name, thread, depth, start, end, self_s)
        self.counts: dict[str, float] = defaultdict(float)
        self.coeff_inputs: list[tuple[np.ndarray, np.ndarray]] = []
        self.min_eig_errs: list[tuple[int, int, str, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _wrap(self, name: str, fn):
        count = self._count_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)            # time covered by direct children
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                child = stack.pop()
                if stack:
                    stack[-1] += end - start
                span = (name, threading.get_ident(), len(stack), start, end, end - start - child)
                with self._lock:
                    self.spans.append(span)
            if count is not None:
                with self._lock:
                    count(args, kwargs, result)
            return result

        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def _count_hook(self, name: str):
        add = self._add
        if name == "linalg.principal_minors_all":
            return lambda a, k, r: add(name + ".minors", np.size(r))
        if name == "linalg.subset_masks":
            return lambda a, k, r: add(name + ".subsets", np.size(r))
        if name == "linalg.sym_eigenvalues":
            return lambda a, k, r: add(name + ".flops", 4.0 / 3.0 * np.size(r) ** 3)
        if name == "forms.build_form":
            return lambda a, k, r: add(name + ".bytes", r.entries.nbytes)
        if name == "serialize.load_json":
            return lambda a, k, r: add(name + ".bytes", _file_bytes(a[0]))
        if name == "serialize.dumps_report":
            return lambda a, k, r: add(name + ".bytes", len(r.encode("utf-8")))
        if name == "serialize.form_to_csv":
            return lambda a, k, r: add(name + ".bytes", _file_bytes(a[1]))
        if name == "charcoeff.normalized_coeffs":
            def keep(a, k, r):
                if np.shape(a[0])[0] <= ORACLE_MAX_N:
                    self.coeff_inputs.append((np.array(a[0], dtype=float), np.array(r)))
            return keep
        if name == "forms.psd_check":
            def min_eig(a, k, r):
                form = a[0]
                if hasattr(form, "kind"):
                    self.min_eig_errs.append((form.n, form.m, form.kind, r[1]))
            return min_eig
        if name in ("niep.jll_condition", "niep.laffey_meehan_condition"):
            return lambda a, k, r: add(name + ".fails", r.status == "fail")
        return None

    def _wrap_profile(self, fn):
        """MinorPairSums.profile, with pair counts for computed (not cached) profiles."""
        wrapped = self._wrap("pairsums.MinorPairSums.profile", fn)

        @functools.wraps(fn)
        def profile(obj, m1, m2):
            cache = getattr(obj, "_profiles", None)
            hit = cache is not None and (m1, m2) in cache
            with self._lock:
                self._add("pairsums.MinorPairSums.profile.hits", hit)
                if not hit and 0 <= m1 <= obj.n and 0 <= m2 <= obj.n:
                    self._add("pairsums.MinorPairSums.profile.pairs",
                              math.comb(obj.n, m1) * math.comb(obj.n, m2))
            return wrapped(obj, m1, m2)

        return profile

    # ------------------------------------------------------------ install
    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = importlib.import_module("mnewton")
        mods = {m: importlib.import_module(f"mnewton.{m}") for m in MODULES}
        originals = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    originals[fn] = self._wrap(f"{short}.{attr}", fn)
        for owner in [pkg, *mods.values()]:
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in originals:
                    self._set(owner, attr, originals[value])
        cls = mods["pairsums"].MinorPairSums
        self._set(cls, "profile", self._wrap_profile(cls.profile))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ summaries
    def mark(self) -> tuple[int, dict]:
        """Position to summarize from: span index and a copy of the counts."""
        with self._lock:
            return len(self.spans), dict(self.counts)

    def summary_since(self, mark: tuple[int, dict]) -> dict:
        """Per-name self time, calls and counts of the spans recorded after ``mark``."""
        start, before = mark
        out: dict[str, float] = defaultdict(float)
        with self._lock:
            spans = self.spans[start:]
            counts = dict(self.counts)
        for name, _thread, _depth, _t0, _t1, self_s in spans:
            out[name + ".s"] += self_s
            out[name + ".calls"] += 1
        for key, value in counts.items():
            out[key] += value - before.get(key, 0.0)
        return dict(out)

    def clear_spans(self) -> None:
        with self._lock:
            self.spans.clear()

    def write_spans(self, path) -> None:
        """Write the spans as CSV: name, thread, depth, start, end, self (microseconds)."""
        origin = min((span[3] for span in self.spans), default=0.0)
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,thread,depth,start_us,end_us,self_us\n")
            for name, thread, depth, t0, t1, self_s in self.spans:
                tid = threads.setdefault(thread, len(threads))
                fh.write(f"{name},{tid},{depth},{(t0 - origin) * 1e6:.0f},"
                         f"{(t1 - origin) * 1e6:.0f},{self_s * 1e6:.0f}\n")
