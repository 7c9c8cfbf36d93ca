"""Outside-in tracer: spans around foelab's public functions, no edit to src/.

``Tracer.install`` replaces every public function of the layer modules with
a recording wrapper, wherever the package holds a reference to it: the
defining module, the aliases other foelab modules imported it under (such
as ``sectors.kernel_basis`` or ``cli.sector_energies``) and the entries of
``cli._HANDLERS``.  ``uninstall`` puts the originals back.

A span is (name, parent span, job id, start, end, paused): ``paused`` is the
time spent inside the span on the tracer's own observers, which is left out
of every duration.  Spans stay in memory until the run writes them out.

Observers derive the computed work counts (SVD flops, dense bytes, useful
ratios, nonzeros, basis dimensions, bytes written) from argument and result
shapes.  They are nominal counts of the seed algorithm, labelled computed,
not measurements.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import Counter, defaultdict
from math import comb
from statistics import median
from time import perf_counter

PACKAGE = "foelab"
LAYERS = ("spinops", "hamiltonians", "sectors", "linalg", "qgroup",
          "temperley_lieb", "ssep", "reports", "cli")

# (metric name, unit, better): every per-layer metric a traced run prints.
SPAN_METRICS = [
    ("linalg.kernel_basis.self_s", "s", "lower"),
    ("linalg.kernel_basis.calls", "count", "lower"),
    ("sectors.sector_energies.self_s", "s", "lower"),
    ("sectors.highest_weight_space.self_s", "s", "lower"),
    ("sectors.highest_weight_space.calls", "count", "lower"),
    ("linalg.commutator_maxabs.self_s", "s", "lower"),
    ("spinops.embed_product.self_s", "s", "lower"),
    ("spinops.embed_product.calls", "count", "lower"),
    ("spinops.total_spin_ops.self_s", "s", "lower"),
    ("qgroup.suq2_generators.self_s", "s", "lower"),
    ("qgroup.suq2_generators.calls", "count", "lower"),
    ("qgroup.q_sector_energies.self_s", "s", "lower"),
    ("qgroup.droplet_csv_rows.self_s", "s", "lower"),
    ("temperley_lieb.perron_ground_vector.self_s", "s", "lower"),
    ("temperley_lieb.tl_hamiltonian_matrix.self_s", "s", "lower"),
    ("temperley_lieb.tl_generator_action.calls", "count", "lower"),
    ("temperley_lieb.tl_matrix_csv_rows.self_s", "s", "lower"),
    ("ssep.ssep_generator.self_s", "s", "lower"),
    ("ssep.ssep_generator.calls", "count", "lower"),
    ("ssep.verify_spin_map.self_s", "s", "lower"),
    ("ssep.spectral_gap.self_s", "s", "lower"),
    ("linalg.eigvalsh_full.self_s", "s", "lower"),
    ("reports.write_csv.self_s", "s", "lower"),
    ("reports.write_json.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
]
# Sums over spans: all build_* self time, calls to the iterative eigensolvers,
# and each layer's total self time (time the layer is busy).
SUM_METRICS = [
    ("hamiltonians.build.self_s", "s", "lower"),
    ("linalg.iterative_calls", "count", "higher"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
COMPUTED_METRICS = [
    ("linalg.kernel_basis.flops", "flop", "lower"),
    ("sectors.dense_bytes", "B", "lower"),
    ("sectors.hw_useful_ratio", "ratio", "higher"),
    ("hamiltonians.h_nnz", "count", "lower"),
    ("temperley_lieb.basis_dim", "count", "lower"),
    ("ssep.config_useful_ratio", "ratio", "higher"),
    ("ssep.dense_bytes", "B", "lower"),
    ("reports.bytes_written", "B", "lower"),
]
OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower")
PER_LAYER = SPAN_METRICS + SUM_METRICS + COMPUTED_METRICS + [OVERHEAD_METRIC]
COMPUTED = [name for name, _, _ in COMPUTED_METRICS]

F64 = 8


def svd_flops(m, n):
    """Nominal flops of a full SVD (U, S, V) of an m x n block.

    Golub-Reinsch count for a p x r matrix, p >= r: 4p^2 r + 8p r^2 + 9r^3.
    """
    if m == 0 or n == 0:
        return 0
    p, r = max(m, n), min(m, n)
    return 4 * p * p * r + 8 * p * r * r + 9 * r ** 3


@functools.lru_cache(maxsize=None)
def m_counts(twice_spins):
    """{2M: number of product states} of a spin chain, by convolution."""
    counts = {0: 1}
    for t in twice_spins:
        nxt = Counter()
        for tm, c in counts.items():
            for step in range(-t, t + 1, 2):
                nxt[tm + step] += c
        counts = nxt
    return dict(counts)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _observe_kernel_basis(counts, args, kwargs, result):
    m, n = _arg(args, kwargs, 0, "block").shape
    counts["linalg.kernel_basis.flops"] += svd_flops(m, n)


def _observe_highest_weight_space(counts, args, kwargs, result):
    shape = _arg(args, kwargs, 0, "shape")
    sizes = m_counts(tuple(s.twice for s in shape.spins))
    n = sizes.get(result.S.twice, 0)  # columns: the M = S block
    m = sizes.get(result.S.twice + 2, 0)  # rows: the M = S + 1 block
    dim, d = result.vectors.shape
    svd = m * n + m * m + n * n if m and n else 0  # dense block, U and V^T
    counts["sectors.dense_bytes"] += F64 * (dim * d + svd)
    counts["sectors.kernel_columns"] += d
    counts["sectors.block_columns"] += n


def _observe_build(counts, args, kwargs, result):
    matrix = result.matrix
    nnz = getattr(matrix, "nnz", None)
    counts["hamiltonians.h_nnz"] += int((matrix != 0).sum()) if nnz is None else nnz


def _observe_tl_matrix(counts, args, kwargs, result):
    counts["temperley_lieb.basis_dim"] += result.A.shape[0]


def _observe_ssep_generator(counts, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    kept = len(result.configs)
    counts["ssep.configs_kept"] += kept
    counts["ssep.configs_scanned"] += 2 ** g.nsites
    counts["ssep.dense_bytes"] += F64 * kept * kept


def _observe_spin_map(counts, args, kwargs, result):
    # Six 2^N x 2^N float arrays (generator, H, identity, scaled identity,
    # permuted generator, difference) plus one H block per particle number.
    n = _arg(args, kwargs, 0, "g").nsites
    blocks = sum(comb(n, k) ** 2 for k in range(1, n))
    counts["ssep.dense_bytes"] += F64 * (6 * 4 ** n + blocks)


def _observe_write(counts, args, kwargs, result):
    counts["reports.bytes_written"] += os.path.getsize(result)


OBSERVERS = {
    "linalg.kernel_basis": _observe_kernel_basis,
    "sectors.highest_weight_space": _observe_highest_weight_space,
    "temperley_lieb.tl_hamiltonian_matrix": _observe_tl_matrix,
    "ssep.ssep_generator": _observe_ssep_generator,
    "ssep.verify_spin_map": _observe_spin_map,
    "reports.write_csv": _observe_write,
    "reports.write_json": _observe_write,
}


def public_functions(module):
    """(name, function) for the functions a module defines and exports."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Records spans and computed counts for foelab while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job_id = None
        self._stack = []
        self._paused = 0.0
        self._undo = []
        self._wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module):
                span = f"{layer}.{name}"
                observer = OBSERVERS.get(span)
                if observer is None and span.startswith("hamiltonians.build_"):
                    observer = _observe_build
                self._wrappers[fn] = self._wrap(span, fn, observer)

    def _wrap(self, name, fn, observer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            paused = self._paused
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, parent, self.job_id, start, end, self._paused - paused)
            if observer is not None:
                t0 = perf_counter()
                observer(self.counts, args, kwargs, result)
                self._paused += perf_counter() - t0
            return result

        return traced

    def install(self):
        prefix = PACKAGE + "."
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(prefix))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, self._wrappers[value])
        handlers = sys.modules[prefix + "cli"]._HANDLERS
        for key, value in list(handlers.items()):
            if value in self._wrappers:
                self._undo.append((handlers, key, value))
                handlers[key] = self._wrappers[value]

    def uninstall(self):
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    def take(self):
        """Spans and counts recorded since the last take; resets both."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans):
    """{span name: (summed self seconds, calls)} for a list of closed spans."""
    child = [0.0] * len(spans)
    durations = []
    for name, parent, _job, start, end, paused in spans:
        dur = end - start - paused
        durations.append(dur)
        if parent >= 0:
            child[parent] += dur
    out = defaultdict(lambda: [0.0, 0])
    for (name, *_), dur, inner in zip(spans, durations, child):
        out[name][0] += dur - inner
        out[name][1] += 1
    return {k: tuple(v) for k, v in out.items()}


def pass_metrics(spans, counts):
    """Per-layer metric values of one traced pass (overhead excluded)."""
    table = self_times(spans)
    values = {}
    for metric, _, _ in SPAN_METRICS:
        span, _, field = metric.rpartition(".")
        self_s, calls = table.get(span, (0.0, 0))
        values[metric] = self_s if field == "self_s" else calls
    values["hamiltonians.build.self_s"] = sum(
        s for name, (s, _) in table.items() if name.startswith("hamiltonians.build_"))
    values["linalg.iterative_calls"] = sum(
        table.get(f"linalg.{fn}", (0.0, 0))[1]
        for fn in ("min_eigenvalue", "extremal_eigenvalues"))
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            s for name, (s, _) in table.items() if name.split(".", 1)[0] == layer)
    for name in ("linalg.kernel_basis.flops", "sectors.dense_bytes", "hamiltonians.h_nnz",
                 "temperley_lieb.basis_dim", "ssep.dense_bytes", "reports.bytes_written"):
        values[name] = counts.get(name, 0)
    values["sectors.hw_useful_ratio"] = _ratio(counts, "sectors.kernel_columns",
                                               "sectors.block_columns")
    values["ssep.config_useful_ratio"] = _ratio(counts, "ssep.configs_kept",
                                                "ssep.configs_scanned")
    return values


def _ratio(counts, num, den):
    return counts[num] / counts[den] if counts.get(den) else 0.0


def median_metrics(per_pass):
    """Median over passes of each metric in a list of pass_metrics dicts."""
    return {name: median(p[name] for p in per_pass) for name in per_pass[0]}
