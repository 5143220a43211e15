"""Outside-in tracer for tame_llc.

The tracer wraps the package's public functions from outside: no file of
the package changes.  Each wrapped call is a span (request, span id, parent
span id, name, start, end) kept in memory; `write_spans` writes them once
the run ends.  Per name it keeps calls, self time (span time minus the time
of wrapped child spans) and the exceptions that left the call (`errors`).
A few hot ring and cyclotomic operations are counted without a span.

Every listed function is rebound in every `tame_llc` module that binds it
by name, so calls through `from .x import f` bindings are seen too.  The
tracer's own bookkeeping (route inference, bit lengths, distinct keys) runs
outside every span and is subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

MODULES = (
    "cli", "conjectures", "tame_galois", "exactnum", "local_factors",
    "llc_parameters", "intlinalg", "ring_model", "characters",
)

# (defining module, attribute path, metric prefix); a path with a dot is a
# class attribute.
SPANS = [
    ("cli", "main", "cli.main"),
    ("conjectures", "verify_formal_degree", "conjectures.verify_formal_degree"),
    ("conjectures", "verify_root_number", "conjectures.verify_root_number"),
    ("conjectures", "formal_degree_EP", "conjectures.formal_degree_EP"),
    ("conjectures", "dim_delta", "conjectures.dim_delta"),
    ("tame_galois", "params_from_q", "tame_galois.params_from_q"),
    ("tame_galois", "norm_index", "tame_galois.norm_index"),
    ("tame_galois", "order_two_set", "tame_galois.order_two_set"),
    ("tame_galois", "abelianization_order", "tame_galois.abelianization_order"),
    ("local_factors", "principal_triple", "local_factors.principal_triple"),
    ("local_factors", "induced_factor", "local_factors.induced_factor"),
    ("local_factors", "lambda_tame", "local_factors.lambda_tame"),
    ("llc_parameters", "centralizer_order", "llc_parameters.centralizer_order"),
    ("llc_parameters", "adjoint_gamma0_abs", "llc_parameters.adjoint_gamma0_abs"),
    ("intlinalg", "hnf_row", "intlinalg.hnf_row"),
    ("intlinalg", "smith_normal_form", "intlinalg.smith_normal_form"),
    ("intlinalg", "extend_character", "intlinalg.extend_character"),
    ("intlinalg", "solve_left", "intlinalg.solve_left"),
    ("intlinalg", "kernel_subgroup", "intlinalg.kernel_subgroup"),
    ("ring_model", "build_model", "ring_model.build_model"),
    ("ring_model", "UnitGroupPresentation.__init__",
     "ring_model.UnitGroupPresentation.init"),
    ("ring_model", "UnitGroupPresentation.element_from_coords",
     "ring_model.UnitGroupPresentation.element_from_coords"),
    ("ring_model", "UnitGroupPresentation.dlog",
     "ring_model.UnitGroupPresentation.dlog"),
    ("ring_model", "kernel_of_norm", "ring_model.kernel_of_norm"),
    ("ring_model", "find_beta", "ring_model.find_beta"),
    ("characters", "CharacterSystem.__init__", "characters.CharacterSystem.init"),
    ("characters", "CharacterSystem.c_char", "characters.CharacterSystem.c_char"),
    ("characters", "gauss_sum", "characters.gauss_sum"),
    ("characters", "conductor_bruteforce", "characters.conductor_bruteforce"),
]

# properties, wrapped through their fget
PROPERTIES = [
    ("characters", "CharacterSystem.theta", "characters.CharacterSystem.theta"),
    ("characters", "CharacterSystem.theta_tilde",
     "characters.CharacterSystem.theta_tilde"),
]

# one function, one span name per value of its `method` argument
METHOD_SPLIT = ("llc_parameters", "adjoint_root_number",
                "llc_parameters.adjoint_root_number", ("closed", "assembled"))

# generator method: the span covers each step of the iteration
GENERATOR = ("ring_model", "UnitGroupPresentation.enumerate",
             "ring_model.UnitGroupPresentation.enumerate")

# counted only, never timed: these run millions of times per workload
COUNTS = [
    ("exactnum", "Cyclotomic.__init__", "exactnum.Cyclotomic.init.calls"),
    ("exactnum", "Cyclotomic.__mul__", "exactnum.Cyclotomic.mul.calls"),
    ("exactnum", "Cyclotomic.__add__", "exactnum.Cyclotomic.add.calls"),
    ("ring_model", "Model.mul", "ring_model.Model.mul.calls"),
    ("ring_model", "Model.inv", "ring_model.Model.inv.calls"),
    ("ring_model", "Model.pow", "ring_model.Model.pow.calls"),
]


def load_package() -> Dict[str, object]:
    """Import all nine modules, including the lazily imported ones."""
    return {m: importlib.import_module(f"tame_llc.{m}") for m in MODULES}


def _max_bits(matrices) -> int:
    return max(
        (abs(x).bit_length() for mat in matrices for row in mat for x in row),
        default=0,
    )


class Tracer:
    """Spans and counts of the traced requests; install with `installed()`."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.request = 0
        self.clock = clock  # nanoseconds, for every span
        self._name_ids: Dict[str, int] = {}     # span name -> id, in order
        self.spans: List[Tuple[int, int, int, int, int, int]] = []
        self.stats: Dict[str, List[int]] = {}   # name -> [calls, self_ns, errors]
        self.counts: Dict[str, List[int]] = {}  # metric name -> [count]
        self.max_bits: Dict[str, int] = {}
        self.distinct: Dict[str, set] = {}
        self._stack: List[List[int]] = []       # [span id, child ns]
        self._ids = itertools.count()
        # (owner, attribute, original, wrapper) per rebinding
        self._swaps: List[Tuple[object, str, object, object]] = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn: Callable, note: Optional[Callable] = None,
             stop_ok: bool = False) -> Callable:
        """`fn` wrapped as a span named `name`.

        `note(args, kwargs, result)` runs after the span closes; its time
        is charged to no span.  With `stop_ok`, StopIteration is no error.
        """
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack, spans, ids, clock = self._stack, self.spans, self._ids, self.clock
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            parent = stack[-1] if stack else None
            frame = [next(ids), 0]
            stack.append(frame)
            start = clock()
            failed = True
            result = None
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            except StopIteration:
                failed = not stop_ok
                raise
            finally:
                end = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += end - start - frame[1]
                stat[2] += failed
                spans.append((tracer.request, frame[0],
                              parent[0] if parent else -1, name_id, start, end))
                if note is not None:
                    note(args, kwargs, None if failed else result)
                if parent is not None:
                    # the whole wrapper, bookkeeping included, is a child
                    parent[1] += clock() - enter

        return wrapper

    def counter(self, metric: str, fn: Callable) -> Callable:
        cell = self.counts.setdefault(metric, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- notes: work done outside every span ---------------------------------

    def _note_distinct(self, name: str, key: Callable) -> Callable:
        seen = self.distinct.setdefault(name, set())
        return lambda args, kwargs, result: seen.add(key(args, kwargs))

    def _note_bits(self, name: str) -> Callable:
        self.max_bits.setdefault(name, 0)

        def note(args, kwargs, result):
            if result is not None:
                self.max_bits[name] = max(self.max_bits[name], _max_bits(result))

        return note

    def _note_gauss_route(self, threshold: Callable[[], int]) -> Callable:
        routes = {"literal": self.counts.setdefault("characters.gauss_sum.literal", [0]),
                  "stationary": self.counts.setdefault("characters.gauss_sum.stationary", [0])}

        def note(args, kwargs, result):
            bound = dict(zip(("sys", "chi", "k", "sign", "method"), args), **kwargs)
            k = bound["k"]
            method = bound.get("method", "auto")
            if k == 0:
                return
            if method == "auto":
                # |(O_K / pi^k)^x| = (q_K - 1) q_K^(k-1), the order the
                # library compares with its threshold
                qK = bound["sys"].P.q_K
                order = (qK - 1) * qK ** (k - 1)
                method = "literal" if order <= threshold() else "stationary"
            if method in routes:
                routes[method][0] += 1

        return note

    # -- installation --------------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        """Rebind every `tame_llc` module attribute that is `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "tame_llc":
                self._rebind(mod, original, replacement)

    def _rebind(self, owner, original, replacement) -> None:
        """Rebind every attribute of a class or module that is `original`."""
        for attr, value in list(vars(owner).items()):
            if value is original:
                self._swaps.append((owner, attr, original, replacement))

    def _install_one(self, mods, module: str, path: str, make: Callable) -> None:
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mods[module], cls_name)
            original = vars(cls)[attr]
            self._rebind(cls, original, make(original))
        else:
            original = getattr(mods[module], path)
            self._rebind_everywhere(original, make(original))

    def _build(self) -> None:
        """Make every wrapper and find every binding it replaces."""
        mods = load_package()
        notes = {
            "tame_galois.norm_index": self._note_distinct(
                "tame_galois.norm_index", lambda a, k: a[0] if a else k["P"]),
            "ring_model.UnitGroupPresentation.init": self._note_distinct(
                "ring_model.UnitGroupPresentation.init",
                lambda a, k: (a[1].P, a[2]) if len(a) > 2 else (a[1].P, k["N"])),
            "intlinalg.hnf_row": self._note_bits("intlinalg.hnf_row"),
            "intlinalg.smith_normal_form": self._note_bits("intlinalg.smith_normal_form"),
            "characters.gauss_sum": self._note_gauss_route(
                lambda: mods["characters"].LITERAL_GAUSS_THRESHOLD),
        }
        for module, path, name in SPANS:
            self._install_one(mods, module, path,
                              lambda fn, name=name: self.span(name, fn, notes.get(name)))
        for module, path, name in PROPERTIES:
            self._install_one(mods, module, path, lambda prop, name=name: property(
                self.span(name, prop.fget), prop.fset, prop.fdel, prop.__doc__))
        for module, path, name in COUNTS:
            self._install_one(mods, module, path,
                              lambda fn, name=name: self.counter(name, fn))
        module, path, prefix, methods = METHOD_SPLIT
        self._install_one(mods, module, path, lambda fn: self._split(fn, prefix, methods))
        module, path, name = GENERATOR
        self._install_one(mods, module, path, lambda fn: self._generator(fn, name))

    def _split(self, fn: Callable, prefix: str, methods) -> Callable:
        variants = {m: self.span(f"{prefix}.{m}", fn) for m in methods}

        @functools.wraps(fn)
        def split(*args, **kwargs):
            method = kwargs.get("method", args[1] if len(args) > 1 else methods[0])
            return variants.get(method, fn)(*args, **kwargs)

        return split

    def _generator(self, fn: Callable, name: str) -> Callable:
        elements = self.counts.setdefault(f"{name}.elements", [0])
        self.stats.setdefault(name, [0, 0, 0])  # reported even if never iterated
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            step = tracer.span(name, fn(*args, **kwargs).__next__, stop_ok=True)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                elements[0] += 1
                yield item

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package for the duration of the block.  The wrappers are
        made once per tracer, so installing it again is a few attribute
        stores, and the metrics add up over every installed block."""
        if not self._swaps:
            self._build()
        for owner, attr, _, replacement in self._swaps:
            setattr(owner, attr, replacement)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(self._swaps):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics keyed `<module>.<function>.<stat>`."""
        out: Dict[str, float] = {}
        for name, (calls, self_ns, errors) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
            out[f"{name}.errors"] = errors
        for metric, (count,) in self.counts.items():
            out[metric] = count
        for name, bits in self.max_bits.items():
            out[f"{name}.max_bits"] = bits
        for name, seen in self.distinct.items():
            calls = self.stats[name][0]
            out[f"{name}.distinct_ratio"] = len(seen) / calls if calls else 0.0
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as gzip'd tab-separated lines, one per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            names = list(self._name_ids)
            for req, sid, parent, name_id, start, end in self.spans:
                fh.write(f"{req}\t{sid}\t{parent}\t{names[name_id]}\t{start}\t{end}\n")
