"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of trisal's layers from outside (the
package source is not touched): every call becomes one span with a name, a
start, an end and the index of its parent span. Tape records get their
``backward_fn`` wrapped just before backward, so backward time is attributed
to the op and to the module whose forward produced the record. Spans stay in
memory until the run ends; ``summarize`` derives the per-layer metrics from
them and ``self_times`` the self time of every span name.
"""

import contextlib
import gc
import json
import time
from collections import Counter, defaultdict
from unittest import mock

# Ops that the model, the loss and the fusion blocks call. Each gets
# tensor.<op>.calls / .fwd_ms / .bwd_ms in the per-layer metrics.
OPS = (
    "add",
    "sub",
    "mul",
    "div",
    "relu",
    "sigmoid",
    "log",
    "clamp",
    "reshape",
    "transpose_last2",
    "concat_channels",
    "sum_all",
    "global_avg_pool",
    "matmul",
    "softmax_rows",
    "conv2d",
    "batchnorm2d",
    "upsample_bilinear_x2",
    "broadcast_hw",
)

# Child-module groups whose forward (and the backward of the records that
# forward produced) is reported as blocks/fusion time.
MODULE_GROUPS = ("blocks.encoder", "fusion.attention", "fusion.refinement", "model.decoder")

def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [
        ("tensor.records_per_step", "count"),
        ("tensor.retained_mb_per_step", "MB"),
        ("tensor.live_tapes_after_step", "count"),
        ("tensor.backward_ms", "ms"),
    ]
    for op in OPS:
        names += [(f"tensor.{op}.calls", "count"), (f"tensor.{op}.fwd_ms", "ms"), (f"tensor.{op}.bwd_ms", "ms")]
    names += [("tensor.conv2d.gflop_per_step", "GFLOP"), ("tensor.conv2d.gflop_per_s", "GFLOP/s")]
    for group in MODULE_GROUPS:
        names += [(f"{group}.fwd_ms", "ms"), (f"{group}.bwd_ms", "ms")]
    names += [
        ("model.batch_ms", "ms"),
        ("model.forward_ms", "ms"),
        ("model.loss_ms", "ms"),
        ("model.backward_ms", "ms"),
        ("model.sgd_ms", "ms"),
        ("model.predict_ms_per_frame", "ms"),
        ("model.build_ms", "ms"),
        ("model.checkpoint_save_ms", "ms"),
        ("model.checkpoint_load_ms", "ms"),
        ("data.generate_ms_per_frame", "ms"),
        ("data.write_ms_per_frame", "ms"),
        ("data.read_ms_per_frame", "ms"),
        ("metrics.mae_ms", "ms"),
        ("metrics.max_f_ms", "ms"),
        ("metrics.s_measure_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ]
    return names


class Tracer:
    """In-memory span list; span i is ``(name, parent, start, end)``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counters = Counter()
        self.tape_type = None  # trisal's own Tape class, set by instrument
        self.bwd_by_record = {}  # id(tape) -> per-record backward seconds
        self.module_ranges = defaultdict(list)  # id(tape) -> [(group, first, end)]
        self._tape = None  # innermost tape entered while patched
        self._last_fuse_end = None
        self.phase_first = 0  # index of the first span after the warm-up

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        sid = len(self.spans)
        self.spans.append([name, self.current(), time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def add_span(self, name, parent, start, end):
        self.spans.append([name, parent, start, end])
        return len(self.spans) - 1

    def current(self):
        return self._stack[-1] if self._stack else -1

    def wrap(self, name, fn, frames=None):
        """``fn`` recorded as a span; ``frames(args, result)`` adds to the
        frame count of ``name``."""

        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if frames is not None:
                self.counters[f"frames.{name}"] += frames(args, result)
            return result

        return traced

    def start_phase(self):
        """Per-unit metrics count from here on (after a warm-up); frame counts
        of the data layer keep the whole run."""
        self.phase_first = len(self.spans)
        for key in [k for k in self.counters if not k.startswith("frames.")]:
            del self.counters[key]

    # -- tape hooks ----------------------------------------------------------

    def tape_len(self):
        return len(self._tape.ops) if self._tape is not None else 0

    def count_live_tapes(self):
        """Adds the number of Tape objects alive now, traced or not, without
        collecting garbage first."""
        self.counters["live_tapes"] += sum(isinstance(o, self.tape_type) for o in gc.get_objects())

    def before_backward(self, tape):
        """Count and size the records, then time each record's backward."""
        self.counters["records"] += len(tape.ops)
        self.counters["retained_bytes"] += sum(op.out_data.nbytes for op in tape.ops)
        times = [0.0] * len(tape.ops)
        self.bwd_by_record[id(tape)] = times
        parent = self.current()
        for i, op in enumerate(tape.ops):
            op.backward_fn = self._timed_backward(i, op.name, op.backward_fn, times, parent)

    def _timed_backward(self, i, name, fn, times, parent):
        span_name = f"tensor.{name}.bwd"

        def timed(g):
            t0 = time.perf_counter()
            out = fn(g)
            t1 = time.perf_counter()
            times[i] = t1 - t0
            self.spans.append([span_name, parent, t0, t1])
            return out

        return timed

    def after_backward(self, tape):
        times = self.bwd_by_record.pop(id(tape))
        for group, first, end in self.module_ranges.pop(id(tape), ()):
            self.counters[f"{group}.bwd_s"] += sum(times[first:end])

    # -- reporting -------------------------------------------------------------

    def outermost(self, first=0):
        """(seconds, calls) per span name from span ``first`` on, counting only
        spans with no ancestor of the same name, so nested calls of one
        function are not counted twice."""
        spans = self.spans
        seconds, calls = Counter(), Counter()
        for name, parent, start, end in spans[first:]:
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                seconds[name] += end - start
                calls[name] += 1
        return seconds, calls

    def self_times(self):
        """Seconds per span name of the span's own work: its duration minus the
        union of the intervals its child spans cover."""
        children = defaultdict(list)
        for sid, (_, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append((start, end))
        totals = Counter()
        for sid, (name, _, start, end) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            totals[name] += (end - start) - covered
        return totals

    def write(self, path, extra=None):
        doc = {
            "fields": ["name", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "self_ms": {k: round(v * 1e3, 6) for k, v in sorted(self.self_times().items())},
        }
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)


class Switch:
    """Tracing turned on and off between the rounds of one loop, so traced
    and untraced rounds alternate; never on without a tracer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._patches = None

    @property
    def on(self):
        return self._patches is not None

    def set(self, on):
        if on and self.tracer is not None and self._patches is None:
            self._patches = instrument(self.tracer)
        elif not on and self._patches is not None:
            self._patches.close()
            self._patches = None


def instrument(tracer):
    """Wrap trisal's layer boundaries for ``tracer``; closing the returned
    ExitStack undoes every wrap."""
    import trisal.blocks as B
    import trisal.cli as C
    import trisal.data as D
    import trisal.fusion as F
    import trisal.metrics as MT
    import trisal.model as M
    import trisal.tensor as T

    patches = contextlib.ExitStack()
    wrap = tracer.wrap

    def patch(obj, attr, value):
        patches.enter_context(mock.patch.object(obj, attr, value))

    for op in OPS:
        fn = getattr(T, op)
        if op == "conv2d":
            patch(T, op, _counted_conv(tracer, fn))
        else:
            patch(T, op, wrap(f"tensor.{op}.fwd", fn))

    base_tape = tracer.tape_type = T.Tape

    class TracedTape(base_tape):
        def __enter__(self):
            self._outer = tracer._tape
            tracer._tape = self
            return super().__enter__()

        def __exit__(self, *exc):
            tracer._tape = self._outer
            return super().__exit__(*exc)

        def run_backward(self, loss):
            tracer.before_backward(self)
            try:
                return super().run_backward(loss)
            finally:
                tracer.after_backward(self)

    patch(T, "Tape", TracedTape)
    patch(T, "backward", wrap("model.backward", T.backward))

    def grouped(group, fn):
        def traced(module, *args, **kwargs):
            first = tracer.tape_len()
            sid = tracer.begin(group)
            try:
                return fn(module, *args, **kwargs)
            finally:
                tracer.end(sid)
                if group == "fusion.refinement":
                    tracer._last_fuse_end = (tracer.spans[sid][3], tracer.tape_len(), len(tracer.spans))
                _note_range(tracer, group, first)

        return traced

    patch(B.Encoder, "forward", grouped("blocks.encoder", B.Encoder.forward))
    for cls in (F.CrossModalAttention, F.SelfAttention):
        patch(cls, "forward", grouped("fusion.attention", cls.forward))
    for cls in (F.RefinementFusion, F.ConcatFuse):
        patch(cls, "forward", grouped("fusion.refinement", cls.forward))

    model_forward = M.SaliencyModel.forward

    def traced_forward(model, *args, **kwargs):
        tracer._last_fuse_end = (time.perf_counter(), tracer.tape_len(), len(tracer.spans) + 1)
        sid = tracer.begin("model.forward")
        try:
            return model_forward(model, *args, **kwargs)
        finally:
            tracer.end(sid)
            # The decoder is not one module: it is everything the forward does
            # after the last level has been fused.
            t0, first, span_from = tracer._last_fuse_end
            dec = tracer.add_span("model.decoder", sid, t0, tracer.spans[sid][3])
            for span in tracer.spans[span_from:dec]:
                if span[1] == sid:
                    span[1] = dec
            _note_range(tracer, "model.decoder", first)

    patch(M.SaliencyModel, "forward", traced_forward)
    for attr, name in (
        ("make_batch", "model.batch"),
        ("train_step", "model.train_step"),
        ("level_losses", "model.loss"),
        ("loss_total", "model.loss"),
        ("predict", "model.predict"),
        ("build", "model.build"),
        ("save_checkpoint", "model.checkpoint_save"),
        ("load_checkpoint", "model.checkpoint_load"),
    ):
        patch(M, attr, wrap(name, getattr(M, attr)))
    patch(M.SGD, "step", wrap("model.sgd", M.SGD.step))

    def clip_frames(clips):
        return sum(len(c.samples) for c in clips)

    patch(D, "generate_clip", wrap("data.generate", D.generate_clip, lambda a, r: len(r)))
    patch(D, "write_dataset", wrap("data.write", D.write_dataset, lambda a, r: clip_frames(a[0])))
    patch(D, "read_dataset", wrap("data.read", D.read_dataset, lambda a, r: clip_frames(r)))
    patch(D, "_read_pnm", wrap("data.read", D._read_pnm))
    patch(C, "_read_pnm", wrap("data.read", C._read_pnm))  # eval --pred-dir's prediction reads
    for attr, name in (
        ("mae", "metrics.mae"),
        ("max_f_measure", "metrics.max_f"),
        ("s_measure", "metrics.s_measure"),
        ("evaluate_sequences", "metrics.evaluate"),
    ):
        patch(MT, attr, wrap(name, getattr(MT, attr)))
    return patches


def _note_range(tracer, group, first):
    end = tracer.tape_len()
    if tracer._tape is not None and end > first:
        tracer.module_ranges[id(tracer._tape)].append((group, first, end))


def _counted_conv(tracer, fn):
    """conv2d span plus its multiply-add count from the shapes: 2*B*O*C*k*k*oh*ow
    for the forward, twice that again for the weight and input gradients when
    the call is recorded for backward."""

    def traced(x, w, bias, *args, **kwargs):
        sid = tracer.begin("tensor.conv2d.fwd")
        try:
            out = fn(x, w, bias, *args, **kwargs)
        finally:
            tracer.end(sid)
        b, o, oh, ow = out.shape
        flop = 2.0 * b * o * oh * ow * w.data[0].size
        tracer.counters["conv2d_flop"] += flop * (3.0 if out.requires_grad and tracer._tape is not None else 1.0)
        return out

    return traced


def summarize(tracer, units, predicted_frames, overhead_pct):
    """Per-layer metrics of the traced rounds, per ``units`` (train steps,
    predicted clips or scored frames). Build, checkpoint and data metrics
    cover the whole run, set-up included, per call or per frame."""
    sec, calls = tracer.outermost(tracer.phase_first)
    all_sec, all_calls = tracer.outermost()
    c = tracer.counters

    def per_unit(value):
        return value / units

    def ms(name):
        return per_unit(sec[name] * 1e3)

    def ms_per(name, count):
        return all_sec[name] * 1e3 / count if count else 0.0

    out = {
        "tensor.records_per_step": per_unit(c["records"]),
        "tensor.retained_mb_per_step": per_unit(c["retained_bytes"] / 2**20),
        "tensor.live_tapes_after_step": per_unit(c["live_tapes"]),
        "tensor.backward_ms": sum(ms(f"tensor.{op}.bwd") for op in OPS),
    }
    for op in OPS:
        out[f"tensor.{op}.calls"] = per_unit(calls[f"tensor.{op}.fwd"])
        out[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}.fwd")
        out[f"tensor.{op}.bwd_ms"] = ms(f"tensor.{op}.bwd")
    conv_s = sec["tensor.conv2d.fwd"] + sec["tensor.conv2d.bwd"]
    out["tensor.conv2d.gflop_per_step"] = per_unit(c["conv2d_flop"] / 1e9)
    out["tensor.conv2d.gflop_per_s"] = c["conv2d_flop"] / 1e9 / conv_s if conv_s else 0.0
    for group in MODULE_GROUPS:
        out[f"{group}.fwd_ms"] = ms(group)
        out[f"{group}.bwd_ms"] = per_unit(c[f"{group}.bwd_s"] * 1e3)
    for name in ("batch", "forward", "loss", "backward", "sgd"):
        out[f"model.{name}_ms"] = ms(f"model.{name}")
    out["model.predict_ms_per_frame"] = sec["model.predict"] * 1e3 / predicted_frames if predicted_frames else 0.0
    for name in ("build", "checkpoint_save", "checkpoint_load"):
        out[f"model.{name}_ms"] = ms_per(f"model.{name}", all_calls[f"model.{name}"])
    for name in ("generate", "write", "read"):
        out[f"data.{name}_ms_per_frame"] = ms_per(f"data.{name}", c[f"frames.data.{name}"])
    for name in ("mae", "max_f", "s_measure"):
        out[f"metrics.{name}_ms"] = ms(f"metrics.{name}")
    out["trace.overhead_pct"] = overhead_pct
    return out


def merge_child(tracer, path, parent):
    """Append the spans and counters a child process wrote, under ``parent``."""
    with open(path) as fh:
        doc = json.load(fh)
    base = len(tracer.spans)
    for name, p, start, end in doc["spans"]:
        tracer.spans.append([name, p + base if p >= 0 else parent, start, end])
    for key, value in doc["counters"].items():
        if key.startswith("frames."):
            tracer.counters[key] += value
