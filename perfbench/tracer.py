"""Span tracer that wraps spdtok's public functions from outside the package.

Installing a Tracer replaces each traced function in every spdtok module
namespace that holds it (``spdcore.eig_sym_batch`` and the copies bound by
``from .spdcore import eig_sym_batch`` in ``train`` or ``data`` alike), and
the traced methods on their classes. Each call records one span: name,
start, end and the id of the span open when it began. Autodiff ops also wrap
the backward closure of the Tensor they return, so the tape's backward pass
records one ``autodiff.<op>.bwd`` span per op under ``autodiff.backward``.

Spans stay in memory (the benchmark writes them out when the run ends);
``summary()`` reduces them to per-name call counts, busy time (outermost
spans of a name only) and self time (duration minus the direct children's
durations). Uninstalling restores every original binding.
"""

from __future__ import annotations

import functools
import os
import sys
import time

SPDCORE = ("eig_sym_batch", "eig_sym", "spectral_apply", "spectral_apply_batch",
           "spectral_backward", "dk_matrix")
GEOMETRY = ("bw_distance", "bw_distances_to", "bw_distance_pairs", "bw_barycenter",
            "dispersion_report", "distortion_check")
EMBEDDING = ("embed", "embed_batch", "embed_backward", "reconstruct_spd")
DATA = ("synth_dataset", "synth_band_mixture", "bandpass", "estimate_covariance",
        "split_indices", "trial_key")
AUTODIFF_OPS = ("linear", "bmm", "softmax", "layer_norm", "batch_norm_train",
                "batch_norm_eval", "dropout", "relu", "add", "scale", "reshape",
                "transpose", "mean_over_axis", "cross_entropy")
CONTAINER = ("save_checkpoint", "load_checkpoint")


class Tracer:
    def __init__(self):
        self.spans = []      # (span_id, parent_id, name, start, end)
        self.counts = {}     # "<name>.<counter>" -> summed count
        self._stack = [0]    # span ids; 0 is the root
        self._next_id = 1
        self._restore = []   # (owner, attribute, original)

    # -- recording ---------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self._call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out
        return traced

    # -- installation ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, module, fname, name, after=None):
        """Replace `module.fname` in every spdtok namespace bound to it."""
        original = getattr(module, fname)
        traced = self._wrap(name, original, after)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("spdtok"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, traced)

    def install(self):
        import spdtok.autodiff as ad
        import spdtok.container as container
        import spdtok.data as data
        import spdtok.embedding as embedding
        import spdtok.geometry as geometry
        import spdtok.network as network
        import spdtok.optim as optim
        import spdtok.spdcore as spdcore
        import spdtok.train  # noqa: F401  (binds names this tracer must find)
        import spdtok.verify  # noqa: F401

        def count_matrices(args, kwargs, out):
            stack = kwargs.get("Cs", args[0] if args else None)
            self.count("spdcore.eig_batch.matrices", int(getattr(stack, "shape", (1,))[0]))

        def count_file_bytes(key):
            def after(args, kwargs, out):
                path = kwargs.get("path", args[0] if args else None)
                if isinstance(path, (str, os.PathLike)):
                    self.count(key, os.path.getsize(path))
            return after

        for fname in SPDCORE:
            if fname == "eig_sym_batch":
                self._patch_everywhere(spdcore, fname, "spdcore.eig_batch", count_matrices)
            else:
                self._patch_everywhere(spdcore, fname, f"spdcore.{fname}")
        for module, prefix, names in ((geometry, "geometry", GEOMETRY),
                                      (embedding, "embedding", EMBEDDING),
                                      (data, "data", DATA)):
            for fname in names:
                self._patch_everywhere(module, fname, f"{prefix}.{fname}")
        for fname in CONTAINER:
            self._patch_everywhere(container, fname, f"container.{fname}",
                                   count_file_bytes(f"container.{fname}.bytes"))
        for op in AUTODIFF_OPS:
            self._patch_everywhere(ad, op, f"autodiff.{op}", self._backward_timer(op, ad.Tensor))

        self._set(ad.Tensor, "backward", self._wrap("autodiff.backward", ad.Tensor.backward))
        forward = network.SpdTokenTransformer.forward

        @functools.wraps(forward)
        def traced_forward(model, tokens, training=False, *args, **kwargs):
            name = "network.forward.train" if training else "network.forward.eval"
            return self._call(name, forward, (model, tokens, training) + args, kwargs)

        self._set(network.SpdTokenTransformer, "forward", traced_forward)
        self._set(optim.Adam, "step", self._wrap("optim.adam_step", optim.Adam.step))
        self._set(optim.Adam, "zero_grad", self._wrap("optim.zero_grad", optim.Adam.zero_grad))

    def _backward_timer(self, op, tensor_cls):
        """Wrap the backward closure of the Tensor an op returns (the first of a tuple)."""
        name = f"autodiff.{op}.bwd"

        def after(args, kwargs, out):
            t = out[0] if isinstance(out, tuple) else out
            if isinstance(t, tensor_cls) and t._backward is not None:
                closure = t._backward
                t._backward = lambda g: self._call(name, closure, (g,), {})
        return after

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span opened by the benchmark itself."""
        return self._call(name, fn, args, kwargs)

    # -- reduction ---------------------------------------------------------------

    def summary(self) -> dict:
        """name -> {calls, busy_s, self_s}, plus the summed counters."""
        by_id = {s[0]: s for s in self.spans}
        child_time = {}
        for span_id, parent, name, start, end in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {}
        for span_id, parent, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            dur = end - start
            row["self_s"] += dur - child_time.get(span_id, 0.0)
            # busy time counts a span only when no ancestor has the same name
            anc = parent
            nested = False
            while anc:
                anc_span = by_id[anc]
                if anc_span[2] == name:
                    nested = True
                    break
                anc = anc_span[1]
            if not nested:
                row["busy_s"] += dur
        return {"spans": out, "counts": dict(self.counts)}


VERIFY_SUITES = ("norm_equivalence", "distortion", "injectivity", "metrics", "reconstruction",
                 "conditioning", "gradient_bounds", "gradient_oracle", "micro_model",
                 "barycenter", "bn_embed", "pair_counts", "determinism")


def per_layer_units() -> dict:
    """Every per-layer metric the benchmark reports, name -> unit."""
    units = {"spdcore.eig_batch.calls": "count", "spdcore.eig_batch.matrices": "count",
             "spdcore.eig_batch.s": "s", "spdcore.eig_batch.ms_per_matrix": "ms"}
    timed = ([f"spdcore.{f}" for f in SPDCORE[1:] if f != "spectral_apply_batch"]
             + [f"geometry.{f}" for f in GEOMETRY] + [f"embedding.{f}" for f in EMBEDDING]
             + [f"data.{f}" for f in DATA])
    for name in timed:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for op in AUTODIFF_OPS:
        units.update({f"autodiff.{op}.calls": "count", f"autodiff.{op}.fwd_s": "s",
                      f"autodiff.{op}.bwd_s": "s"})
    units.update({"autodiff.backward.s": "s", "autodiff.backward.self_s": "s"})
    for mode in ("train", "eval"):
        units.update({f"network.forward.{mode}.calls": "count", f"network.forward.{mode}.s": "s"})
    units.update({"optim.adam_step.calls": "count", "optim.adam_step.s": "s",
                  "optim.zero_grad.s": "s"})
    for f in CONTAINER:
        units.update({f"container.{f}.calls": "count", f"container.{f}.s": "s",
                      f"container.{f}.bytes": "bytes"})
    units.update({f"verify.{suite}.s": "s" for suite in VERIFY_SUITES})
    units["trace.overhead_s"] = "s"
    return units


def per_layer_values(summary: dict) -> dict:
    """Per-layer metric values (without trace.overhead_s) from one pass's summary."""
    spans, counts = summary["spans"], summary["counts"]
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out = {}
    for name, unit in per_layer_units().items():
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = spans.get(base, empty)["calls"]
        elif field in ("s", "fwd_s"):
            out[name] = spans.get(base, empty)["busy_s"]
        elif field == "self_s":
            out[name] = spans.get(base, empty)["self_s"]
        elif field == "bwd_s":
            out[name] = spans.get(f"{base}.bwd", empty)["busy_s"]
        elif field in ("matrices", "bytes"):
            out[name] = counts.get(name, 0)
    matrices = out["spdcore.eig_batch.matrices"]
    out["spdcore.eig_batch.ms_per_matrix"] = (
        1e3 * out["spdcore.eig_batch.s"] / matrices if matrices else 0.0)
    return out
