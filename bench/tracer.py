"""Per-layer self time and counters, measured from outside the package.

``Tracer.install`` replaces each public function named in ``LAYERS`` at
every binding site the package looks it up through (the defining module
and each module that imported it by name), so a call made through any of
them opens a span.  A layer's self time is the time its spans cover
minus the time of their child spans.  Modules are reached through
``sys.modules``: ``artinfib.homology`` as an attribute is the function
``homology``, not the module.

The traced process is a throw-away worker, so nothing is restored.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "artinfib"

# (defining module, function, layer, modules that bind the name).  A
# binding found but not listed, or listed but not found, stops the traced
# run: a layer must never read 0 because its calls went round the wrapper.
LAYERS = (
    ("cli", "main", "cli.render", ("cli",)),
    ("complexes", "salvetti_family", "complexes.family",
     ("", "complexes")),
    ("complexes", "build_generic_complex", "complexes.assemble",
     ("", "complexes", "cli")),
    ("complexes", "is_well_filtered", "complexes.well_filtered",
     ("", "complexes", "cli", "homology")),
    ("coxeter", "poincare_quotient", "coxeter.poincare",
     ("", "coxeter", "complexes")),
    ("homology", "smith_normal_form", "homology.snf", ("", "homology")),
    ("homology", "cohomology", "homology.cohomology",
     ("", "homology", "cli")),
    ("homology", "verify_shift_theorem", "homology.shift",
     ("", "homology", "cli")),
    ("homology", "monodromy_char_poly", "homology.monodromy",
     ("", "homology", "cli")),
    ("laurent", "factor_cyclotomic", "laurent.cyclotomic",
     ("", "laurent", "homology")),
    ("series", "m_cohomology_dim_window", "series.window",
     ("", "series", "homology")),
    ("linalg", "projected_kernel_dim", "linalg.kernel", ("linalg", "series")),
    ("linalg", "sparse_rank", "linalg.image", ("linalg", "series")),
)

# span names that are not package layers: the harness around each job
# and the tracer's own counter bookkeeping
HARNESS = "bench"
BOOKKEEPING = "trace"


def _module_name(short: str) -> str:
    return PACKAGE if not short else f"{PACKAGE}.{short}"


class BindingMismatch(RuntimeError):
    """The package binds a traced function somewhere ``LAYERS`` does not say."""


class Tracer:
    """Span stack with self time per layer and named counters."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack = []  # [layer, start, time covered by child spans]

    # -- spans ---------------------------------------------------------

    def push(self, layer: str):
        self._stack.append([layer, time.perf_counter(), 0.0])

    def pop(self):
        layer, start, child = self._stack.pop()
        span = time.perf_counter() - start
        self.self_s[layer] += span - child
        if self._stack:
            self._stack[-1][2] += span

    def current(self):
        return self._stack[-1][0] if self._stack else None

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every function of ``LAYERS`` at each of its bindings."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for defining, fname, layer, bound_in in LAYERS:
            original = getattr(modules[_module_name(defining)], fname)
            found = {(mname, attr) for mname, mod in modules.items()
                     for attr, value in vars(mod).items()
                     if value is original}
            listed = {(_module_name(m), fname) for m in bound_in}
            if found != listed:
                raise BindingMismatch(
                    f"{fname}: bound at {sorted(found)}, "
                    f"traced list says {sorted(listed)}")
            wrapper = self._wrap(original, layer)
            for mname, attr in found:
                setattr(modules[mname], attr, wrapper)

    def _wrap(self, fn, layer):
        hooks = _HOOKS.get(fn.__name__)
        before = hooks and hooks[0]
        after = hooks and hooks[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer
            # sparse_rank inside projected_kernel_dim is kernel work
            if layer == "linalg.image" and self.current() == "linalg.kernel":
                name = "linalg.kernel"
            elif before is not None:
                args = before(self, args)
            self.push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.pop()
            if after is not None:
                self.push(BOOKKEEPING)
                try:
                    after(self, args, out)
                finally:
                    self.pop()
            return out

        return traced

    # -- row sources ---------------------------------------------------

    def counted_rows(self, rows):
        """Yield the rows, counting them; producing them is series work."""
        it = iter(rows)
        while True:
            self.push("series.window")
            try:
                row = next(it)
            except StopIteration:
                return
            finally:
                self.pop()
            self.counts["linalg.rows_in"] += 1
            self.counts["linalg.nnz_in"] += len(row)
            yield row

    # -- report --------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass, keyed by metric name."""
        s, c = self.self_s, self.counts
        calls = c["series.window_calls"]
        out = {f"{layer}_s": s[layer] for *_, layer, _ in LAYERS}
        out.update({
            "homology.snf_calls": c["homology.snf_calls"],
            "homology.snf_entries": c["homology.snf_entries"],
            "homology.snf_transform_bits_max":
                self.maxima["homology.snf_transform_bits_max"],
            "homology.cohomology_calls": c["homology.cohomology_calls"],
            "series.window_calls": calls,
            "series.stable_ratio":
                c["series.window_stable"] / calls if calls else 0.0,
            "series.radius_max": self.maxima["series.radius_max"],
            "linalg.rows_in": c["linalg.rows_in"],
            "linalg.nnz_in": c["linalg.nnz_in"],
            "linalg.rank_out": c["linalg.rank_out"],
            "coxeter.poincare_calls": c["coxeter.poincare_calls"],
            "complexes.cells": c["complexes.cells"],
            "cli.output_bytes": c["cli.output_bytes"],
            "trace.wall_s": wall_s,
            "trace.unattributed_ratio":
                (s[HARNESS] + s[BOOKKEEPING]) / wall_s if wall_s else 0.0,
        })
        return out


# -- counters ------------------------------------------------------------

def _snf_after(tr, args, dec):
    m, n = dec.shape
    tr.counts["homology.snf_calls"] += 1
    tr.counts["homology.snf_entries"] += m * n
    bits = 0
    for M in (dec.U, dec.Uinv, dec.V, dec.Vinv):
        for row in M:
            for e in row:
                for c in e.coeffs:
                    bits = max(bits, c.numerator.bit_length(),
                               c.denominator.bit_length())
    key = "homology.snf_transform_bits_max"
    tr.maxima[key] = max(tr.maxima[key], bits)


def _count(name):
    def after(tr, args, out):
        tr.counts[name] += 1
    return after


def _window_after(tr, args, out):
    radius = args[2] if len(args) > 2 else None
    tr.counts["series.window_calls"] += 1
    tr.counts["series.window_stable"] += bool(out[1])
    if radius is not None:
        key = "series.radius_max"
        tr.maxima[key] = max(tr.maxima[key], radius)


def _cells_after(tr, args, C):
    tr.counts["complexes.cells"] += sum(C.ranks)


def _kernel_before(tr, args):
    row_maker, *rest = args
    return (lambda: tr.counted_rows(row_maker()), *rest)


def _image_before(tr, args):
    rows, *rest = args
    return (tr.counted_rows(rows), *rest)


def _rank_after(tr, args, rank):
    tr.counts["linalg.rank_out"] += rank


# function name -> (rewrite arguments before the call, count after it)
_HOOKS = {
    "smith_normal_form": (None, _snf_after),
    "cohomology": (None, _count("homology.cohomology_calls")),
    "m_cohomology_dim_window": (None, _window_after),
    "projected_kernel_dim": (_kernel_before, None),
    "sparse_rank": (_image_before, _rank_after),
    "poincare_quotient": (None, _count("coxeter.poincare_calls")),
    "build_generic_complex": (None, _cells_after),
}
