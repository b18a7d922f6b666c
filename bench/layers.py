"""Layer spans recorded from outside the package.

Each traced function is replaced, in its defining module and in every
``torusconf.*`` module that bound it with ``from .x import y``, by a wrapper
that records a span: its name, its duration and the span that was open when
it started. A span's self time is its duration minus the time its child
spans took. Nothing under ``src/`` is edited; the wrappers exist only in the
process that installs them.

A function that the package no longer defines is skipped and reported as
absent, so deleting public API never crashes the benchmark.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from functools import wraps

# Span name -> (defining module, attribute path). The span names are the
# per-layer metric prefixes in BENCHMARK.json.
SPANS = {
    "torus.kunneth_basis": ("torusconf.torus", "kunneth_basis"),
    "torus.kunneth_index": ("torusconf.torus", "kunneth_index"),
    "torus.sigma_matrix": ("torusconf.torus", "sigma_matrix"),
    "torus.torus_module": ("torusconf.torus", "torus_module"),
    "torus.cup_vector": ("torusconf.torus", "cup_vector"),
    "gf2.quotient_structure": ("torusconf.gf2", "quotient_structure"),
    "gf2.induced_map_on_quotient": ("torusconf.gf2", "induced_map_on_quotient"),
    "gf2.rank": ("torusconf.gf2", "rank"),
    "gf2.matmul": ("torusconf.gf2", "Gf2Matrix.__matmul__"),
    "quotient.phi_star_build": ("torusconf.quotient", "phi_star_build"),
    "quotient.kernel_generators": ("torusconf.quotient", "kernel_generators"),
    "quotient.conf_module": ("torusconf.quotient", "conf_module"),
    "quotient.fixed_element_x": ("torusconf.quotient", "fixed_element_x"),
    "decomp.decompose": ("torusconf.decomp", "decompose"),
    "decomp.closed_form_report": ("torusconf.decomp", "closed_form_report"),
    "decomp.reduced_table": ("torusconf.decomp", "reduced_table"),
    "borel.e2_page": ("torusconf.borel", "e2_page"),
    "borel.fixture_page": ("torusconf.borel", "fixture_page"),
    "borel.consistency_check": ("torusconf.borel", "consistency_check"),
    "borel.attribute_rank_drops": ("torusconf.borel", "attribute_rank_drops"),
    "verify.run_checks": ("torusconf.verify", "run_checks"),
    "cli.build_parser": ("torusconf.cli", "build_parser"),
    "cli.main": ("torusconf.cli", "main"),
}


def _matrix_bits(value) -> int:
    """nrows x ncols of a returned dense matrix, or of each matrix a
    returned container holds (the shear pullback returns one per degree)."""
    matrices = getattr(value, "matrices", None)
    if matrices is not None:
        return sum(_matrix_bits(m) for m in matrices)
    shape = getattr(value, "shape", None)
    if isinstance(shape, tuple) and len(shape) == 2:
        return shape[0] * shape[1]
    return 0


class Tracer:
    """Aggregates spans in memory: calls, self time, total time, the
    parent -> child call edges, and size counters read off return values."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.sizes: Counter = Counter()
        self.conf_keys: set = set()

    def snapshot(self) -> dict:
        """Everything recorded since the last reset, as plain JSON data."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "edges": {f"{p}>{c}": n for (p, c), n in self.edges.items()},
            "sizes": dict(self.sizes),
            "conf_distinct": len(self.conf_keys),
            "absent": list(self.absent),
        }

    def _observe(self, name: str, args, kwargs, result) -> None:
        self.sizes["gf2.dense_matrix_bits"] += _matrix_bits(result)
        if name == "torus.kunneth_basis":
            self.sizes["torus.basis_elems"] += len(result)
        elif name == "gf2.quotient_structure":
            ambient = getattr(result, "ambient_dim", 0)
            if ambient > self.sizes["quotient.ambient_dim_max"]:
                self.sizes["quotient.ambient_dim_max"] = ambient
        elif name == "quotient.kernel_generators":
            self.sizes["quotient.kernel_rank_sum"] += getattr(result, "span_dim", 0)
        elif name == "quotient.conf_module":
            self.sizes["quotient.quotient_dim_sum"] += getattr(result, "dim", 0)
            self.conf_keys.add((args, tuple(sorted(kwargs.items()))))

    def wrap(self, name: str, fn):
        stack = self.stack

        @wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # [span name, time covered by child spans]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.edges[parent[0] if parent else None, name] += 1
                if parent is not None:
                    parent[1] += elapsed
            self._observe(name, args, kwargs, result)
            return result

        return span


def _package_modules() -> list:
    return [
        mod for key, mod in list(sys.modules.items())
        if key == "torusconf" or key.startswith("torusconf.")
    ]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every ``torusconf.*`` binding of ``original`` at ``replacement``.

    Returns the (namespace, attribute, old value) triples that were changed.
    """
    changed = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr, original))
    return changed


def install(tracer: Tracer, spans: dict = SPANS):
    """Wrap every span that the package defines; returns an undo callable.

    Absent functions are listed in ``tracer.absent`` and otherwise ignored.
    """
    changed: list[tuple[object, str, object]] = []
    for name, (modname, path) in spans.items():
        owner = sys.modules.get(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(name, original)
        if outer:  # a method: patch the class it is looked up on
            setattr(owner, attr, wrapped)
            changed.append((owner, attr, original))
        else:
            changed.extend(rebind(original, wrapped))

    def undo() -> None:
        for namespace, attr, old in reversed(changed):
            setattr(namespace, attr, old)

    return undo
