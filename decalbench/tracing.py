"""Span tracing around the public calls of ``repro`` — from outside.

:func:`instrument` replaces each public function or method named in
``LAYERS.md`` with a wrapper that records a span (name, start, end,
parent, unit) while the tracer is active and is a plain pass-through
otherwise. Nothing under ``src/`` is edited: functions are rebound on the
module or class that looks them up, and :meth:`Tracer.restore` puts the
originals back. Spans stay in memory; :meth:`Tracer.write` dumps them at
exit. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, Optional

#: Layers whose spans also carry a count: GFLOP per conv2d call, boxes
#: entering NMS.
CONV_LAYER = "nn.conv2d"
NMS_LAYER = "detection.nms"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []     # [name, start, end, parent, unit, extra]
        self.active = False
        self.unit = -1
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             extra: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.unit, extra(args, kwargs) if extra else None]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str,
              extra: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, extra))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------
    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, unit, extra in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _, _) in enumerate(self.spans)]

    def per_unit(self, units: Iterable[int]) -> Dict[str, float]:
        """Per-layer totals over ``units`` divided by their count: self ms
        per layer, plus GFLOP (conv2d) and candidates (NMS) per unit."""
        wanted = set(units)
        if not wanted:
            return {}
        totals: Dict[str, float] = defaultdict(float)
        for record, self_s in zip(self.spans, self.self_times()):
            name, _, _, _, unit, extra = record
            if unit not in wanted:
                continue
            totals[name + "_ms"] += 1e3 * self_s
            if name == CONV_LAYER:
                totals["nn.conv2d_gflop"] += extra
            elif name == NMS_LAYER:
                totals["detection.candidates"] += extra
        return {key: value / len(wanted) for key, value in totals.items()}

    def write(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as handle:
            for record, self_s in zip(self.spans, selfs):
                name, start, end, parent, unit, extra = record
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "unit": unit, "self_s": self_s,
                    "extra": extra}) + "\n")


def _conv_gflop(args, kwargs) -> float:
    """Multiply-adds ×2 of one ``conv2d(x, weight, bias, stride, padding)``
    call, from shapes alone."""
    x, weight = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    n, _, h, w = x.shape
    c_out, c_in, kh, kw = weight.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    return 2.0 * n * c_out * h_out * w_out * c_in * kh * kw / 1e9


def _nms_candidates(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["scores"])


def instrument(tracer: Tracer) -> None:
    """Wrap every public call of the layer map (``LAYERS.md``)."""
    import repro.attack.trainer as attack_trainer
    import repro.av.pipeline as av_pipeline
    import repro.detection.decode as decode
    import repro.eval.protocol as protocol
    import repro.nn.functional as functional
    import repro.scene.video as video
    from repro.av.confirmation import DetectionConfirmer
    from repro.av.planner import RulePlanner
    from repro.detection.model import TinyYolo
    from repro.eot.compose import EOTPipeline
    from repro.gan.discriminator import PatchDiscriminator
    from repro.gan.generator import PatchGenerator
    from repro.nn.optim import Adam
    from repro.nn.quant import QuantizedDetector
    from repro.nn.tensor import Tensor
    from repro.runtime.checkpoint import CheckpointManager
    from repro.serve.server import DetectionServer

    tracer.patch(functional, "conv2d", CONV_LAYER, _conv_gflop)
    tracer.patch(Tensor, "backward", "nn.backward")
    tracer.patch(Adam, "step", "nn.optim")
    tracer.patch(PatchGenerator, "forward", "gan.generator")
    tracer.patch(PatchDiscriminator, "forward", "gan.discriminator")
    tracer.patch(EOTPipeline, "sample_and_apply", "eot.transform")
    tracer.patch(attack_trainer, "apply_patches", "patch.composite")
    tracer.patch(attack_trainer, "attack_loss", "attack.loss")
    tracer.patch(CheckpointManager, "save", "runtime.checkpoint")
    tracer.patch(video, "paste_patch_perspective", "patch.paste")
    tracer.patch(protocol, "render_run", "scene.render")
    tracer.patch(TinyYolo, "forward", "detection.forward")
    tracer.patch(decode, "detections_from_outputs", "detection.decode")
    tracer.patch(av_pipeline, "detections_from_outputs", "detection.decode")
    tracer.patch(decode, "non_max_suppression", NMS_LAYER, _nms_candidates)
    tracer.patch(protocol, "classify_frame", "eval.score")
    tracer.patch(protocol, "score_video", "eval.score")
    # CompiledDetector aliases ``__call__ = forward``; the AV loop calls
    # the instance, so the quantized class's ``__call__`` is the hook.
    tracer.patch(QuantizedDetector, "__call__", "quant.forward")
    tracer.patch(DetectionConfirmer, "update", "av.confirm")
    tracer.patch(RulePlanner, "decide", "av.plan")
    tracer.patch(DetectionServer, "submit", "serve.submit")
