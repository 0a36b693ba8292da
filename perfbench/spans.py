"""In-memory span tracer that wraps rahtp's public functions from outside.

The codec reaches each layer through a module-level name (``codec.py`` does
``from .geometry import build_hierarchy``, ``transform.py`` does
``from .spectral import apply_series`` and so on), so a span around a layer
is installed by rebinding that name to a wrapper.  Nothing under ``src/`` is
edited; ``uninstall`` puts every original object back.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (or -1) and ``op`` the operation id current when it opened.
Calls nest through a stack, so an ``apply_series`` running inside the W
operator's matvec (itself inside an outer ``apply_series``) becomes that
outer span's child.  Self time is a span's duration minus its children's.
"""

import json
import time
from collections import defaultdict

import rahtp.codec
import rahtp.evalcli
import rahtp.kernels
import rahtp.sparse_ops
import rahtp.spectral
import rahtp.transform

# span name -> the (owner, attribute) bindings the codec calls it through
FUNCTION_SPANS = {
    "geometry.build_hierarchy": [(rahtp.codec, "build_hierarchy")],
    "geometry.geometry_digest": [(rahtp.codec, "geometry_digest")],
    "geometry.voxelize": [(rahtp.evalcli, "voxelize")],
    "kernels.gram_levels": [(rahtp.transform, "gram_levels")],
    "kernels.build_a_matrix": [(rahtp.transform, "build_a_matrix"),
                               (rahtp.kernels, "build_a_matrix")],
    "transform.plan": [(rahtp.transform.TransformPlan, "__init__")],
    "transform.apply_basis_scaling": [(rahtp.transform, "apply_basis_scaling")],
    "transform.analyze": [(rahtp.codec, "analyze")],
    "transform.synthesize": [(rahtp.codec, "synthesize")],
    "spectral.apply_series": [(rahtp.transform, "apply_series"),
                              (rahtp.sparse_ops, "apply_series")],
    "spectral.eigen_bound": [(rahtp.transform, "eigen_bound"),
                             (rahtp.spectral, "eigen_bound")],
    "sparse_ops.build_split": [(rahtp.transform, "build_split")],
    "sparse_ops.ZtildeOp": [(rahtp.sparse_ops.ZtildeOp, m) for m in
                            ("__init__", "mul", "mul_t", "solve_a",
                             "solve_a_t", "dpsi_estimate")],
    "codec.quantize": [(rahtp.codec, "quantize")],
    "codec.rlgr_encode": [(rahtp.codec, "rlgr_encode")],
    "codec.rlgr_decode": [(rahtp.codec, "rlgr_decode")],
    "codec.encode": [(rahtp.codec, "encode")],
    "codec.decode": [(rahtp.codec, "decode")],
}


class Tracer:
    """Collects spans and per-operation counters while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> name -> n
        self._saved = []
        # counters read from a call's arguments and result
        self._observers = {
            "geometry.build_hierarchy": self._observe_hierarchy,
            "spectral.apply_series": self._observe_series,
            "codec.rlgr_encode": self._observe_rlgr,
        }

    # -- recording ---------------------------------------------------------

    def count(self, name, n=1):
        self.counts[self.op][name] += n

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1,
                          self.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except rahtp.sparse_ops.SplitError:
                if name == "sparse_ops.build_split":
                    self.count("sparse_ops.split_errors")
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _observe_hierarchy(self, args, hierarchy):
        self.count("geometry.hierarchies")
        self.count("geometry.nodes_total",
                   sum(len(lvl.nodes) for lvl in hierarchy.levels))

    def _observe_series(self, args, out):
        # the result has the input's shape: rows x columns
        self.count("spectral.apply_series.rows", out.size)

    def _observe_rlgr(self, args, blob):
        self.count("codec.symbols", len(args[0]))
        self.count("codec.payload_bytes", len(blob))

    # -- installation ------------------------------------------------------

    def install(self):
        for name, bindings in FUNCTION_SPANS.items():
            for owner, attr in bindings:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """{op: {span name: (self seconds, calls)}} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            slot = out[op][name]
            slot[0] += end - start - child[i]
            slot[1] += 1
        return out

    def root_seconds(self, op):
        """Summed duration of the op's top-level spans."""
        return sum(end - start for name, start, end, parent, o in self.spans
                   if o == op and parent < 0)

    def write(self, path):
        """Dump every span; called once, when the run has ended."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
