"""The four workloads. Each builds its inputs from the seed, sets up
several times (``setup_s`` is the median), runs warming units untimed,
measures units for ``seconds`` (``attack_train``: a step count set by
it), then checks the program's outputs.

Every workload returns ``(outcome, end_to_end, per_layer, report)``.
``LAYERS.md`` explains what each number measures and which figure of the
older ``scripts/bench_*.py`` it supersedes.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from harness import (
    Outcome,
    Stop,
    Window,
    digest_array,
    host_reference_ms,
    median,
    percentile,
    repeated_setup,
    scaled,
    summarize_units,
)
from tracing import Tracer

# -- settings (reported with every run) -----------------------------------
#: attack_train: GAN warm-up steps before the attack loop (the smoke
#: profile's 20 cost ~13 s a run and are not the attack-step unit).
ATTACK_WARMUP = 2
#: attack_train: steps of the first, untimed repetition; its deployment
#: patch digests must equal the timed repetition's first steps.
ATTACK_REPEAT_STEPS = 2
#: attack_train: early steps of the timed repetition left out of the window.
ATTACK_WARM_STEPS = 2
#: attack_train: timed steps per second of ``--seconds`` (16 at 10 s). The
#: window ends after a fixed number of steps, not at a deadline: peak RSS
#: grows with every step until the cyclic GC runs, so it must cover the
#: same work in every run. The deadline, times this factor, is only a cap.
ATTACK_STEPS_PER_S = 1.6
ATTACK_CAP_FACTOR = 3.0
#: challenge_eval / av_drive: the decal only has to exist, not be strong.
DECAL_STEPS = 1
DECAL_WARMUP = 0
#: serve_stream: open-loop rate (req/s), sessions, open-loop and
#: closed-loop burst durations as shares of ``--seconds``, burst
#: concurrency and the number of burst slices (each drains before the
#: next). The host drifts over seconds, so each phase is long.
SERVE_RATE = 100.0
SERVE_SESSIONS = 4
SERVE_OPEN_SHARE = 0.8
SERVE_BURST_SHARE = 1.0
SERVE_BURST_OUTSTANDING = 32
SERVE_BURST_SLICES = 10
SERVE_WORKERS = 1
#: serve_stream: the run is invalid when the generator's p99 lateness
#: exceeds one inter-arrival period at the nominal rate (requests would
#: no longer arrive on schedule).
SERVE_LATE_LIMIT_MS = 10.0
#: serve_stream: repeats of the host reference kernel timed between burst
#: slices (~15 ms, against 1 s slices). In two sets of eight seeds the
#: scaled burst rate spread 8.9% and 8.7% between runs with 30 repeats,
#: 9.3% and 13.7% with 5.
SERVE_REF_REPEATS = 30
#: av_drive: frames used to calibrate the int8 plan.
CALIBRATION_FRAMES = 32
#: av_drive: frames between two timings of the host reference kernel.
AV_REF_EVERY = 16

#: Tail percentile per workload, fixed so it means the same in every run:
#: the highest candidate that keeps ≥ 10 samples beyond it at the default
#: window and repeated within a tenth over ten seeds (see LAYERS.md).
TAIL_PERCENTILE = {
    "attack_train": 75.0,
    "challenge_eval": 90.0,
    "serve_stream": 75.0,
    "av_drive": 90.0,
}

SETTINGS = {
    "attack_warmup_steps": ATTACK_WARMUP,
    "attack_repeat_steps": ATTACK_REPEAT_STEPS,
    "attack_warm_steps": ATTACK_WARM_STEPS,
    "attack_steps_per_s": ATTACK_STEPS_PER_S,
    "attack_cap_factor": ATTACK_CAP_FACTOR,
    "decal_steps": DECAL_STEPS,
    "decal_warmup_steps": DECAL_WARMUP,
    "serve_rate_per_s": SERVE_RATE,
    "serve_sessions": SERVE_SESSIONS,
    "serve_open_share": SERVE_OPEN_SHARE,
    "serve_burst_share": SERVE_BURST_SHARE,
    "serve_burst_outstanding": SERVE_BURST_OUTSTANDING,
    "serve_burst_slices": SERVE_BURST_SLICES,
    "serve_workers": SERVE_WORKERS,
    "serve_late_limit_ms": SERVE_LATE_LIMIT_MS,
    "serve_ref_repeats": SERVE_REF_REPEATS,
    "calibration_frames": CALIBRATION_FRAMES,
    "av_ref_every_frames": AV_REF_EVERY,
    "tail_percentile": TAIL_PERCENTILE,
}


@dataclass
class Context:
    seed: int
    seconds: float
    setups: int
    cache_root: str
    tracer: Optional[Tracer] = None
    inject: Optional[str] = None
    #: Run by ``run.py`` on the way out, also after an error.
    cleanups: List = field(default_factory=list)

    def workbench(self, index: int):
        """Dataset + fine-tuned detector in a fresh cache, so every
        set-up really trains (``Workbench`` would otherwise load it)."""
        from repro.experiments import Workbench

        wb = Workbench.smoke(seed=self.seed, cache_dir=os.path.join(
            self.cache_root, f"setup{index}"))
        wb.train_samples()
        wb.detector()
        return wb

    def toggle(self, unit: int, timed: bool, parity: Optional[int] = None) -> None:
        """Trace every other timed unit (by ``parity``, default the unit
        index); the rest give the untraced baseline for
        ``trace.overhead_pct``."""
        if self.tracer is not None:
            self.tracer.unit = unit
            self.tracer.active = timed and (unit if parity is None else parity) % 2 == 0


def _decal(wb):
    return wb.train_attack(
        wb.attack_config(steps=DECAL_STEPS, warmup_steps=DECAL_WARMUP),
        use_cache=False)


def _overhead(traced: List[float], untraced: List[float]) -> float:
    if not traced or not untraced:
        return 0.0
    return 100.0 * (median(traced) / median(untraced) - 1.0)


def _split(samples: Dict[int, float]):
    traced = [v for k, v in samples.items() if k % 2 == 0]
    untraced = [v for k, v in samples.items() if k % 2 == 1]
    return traced, untraced


# ---------------------------------------------------------------------------
# attack_train
# ---------------------------------------------------------------------------

class _Ledger:
    def __init__(self, probe: "_AttackProbe", name: str):
        self.probe, self.name = probe, name

    def step(self, step: int, **metrics: float) -> None:
        self.probe.on_step(self.name, step, metrics)

    def checkpoint_saved(self) -> None:
        if self.name == "attack" and self.probe.window_start is not None:
            self.probe.checkpoints += 1

    def recovery(self) -> None:
        self.probe.recoveries += 1

    def set_epoch(self, eot_epoch: int) -> None:
        pass

    def finish(self) -> None:
        pass


class _AttackProbe:
    """Stands in for ``repro.obs.TrainTelemetry`` on the trainers' public
    ``live=`` hook: step-end timestamps, losses and recovery events."""

    def __init__(self, ctx: Context, stop_after: Optional[int]):
        self.ctx = ctx
        self.stop_after = stop_after
        self.timed_steps = max(round(ATTACK_STEPS_PER_S * ctx.seconds), 4)
        self.capped = False
        self.checkpoints = 0
        self.recoveries = 0
        self.nonfinite = 0
        self.last = perf_counter()
        self.gan_steps: List[float] = []
        self.samples: Dict[int, float] = {}
        self.refs: Dict[int, float] = {}
        self.window_start: Optional[float] = None
        self.usage = None

    def attach(self, name: str, total_steps: int) -> _Ledger:
        self.last = perf_counter()
        return _Ledger(self, name)

    def ensure_probe(self, *args, **kwargs) -> None:
        pass

    def register_host_probes(self) -> None:
        pass

    def on_step(self, name: str, step: int, metrics: dict) -> None:
        now = perf_counter()
        if not all(np.isfinite(v) for v in metrics.values()):
            self.nonfinite += 1
        if name == "gan":
            self.gan_steps.append(now - self.last)
            self.last = now
            return
        if self.stop_after is not None:
            if step + 1 >= self.stop_after:
                raise Stop
            return
        if step + 1 == ATTACK_WARM_STEPS:
            self.usage = Window()
            self.window_start = perf_counter()
        elif self.window_start is not None:
            self.samples[step] = now - self.last
        if self.window_start is not None:
            self.refs[step + 1] = host_reference_ms()
            self.capped = now - self.window_start >= ATTACK_CAP_FACTOR * self.ctx.seconds
            if len(self.samples) >= self.timed_steps or self.capped:
                self.usage = self.usage.close()
                raise Stop
        self.ctx.toggle(step + 1, self.window_start is not None)
        self.last = perf_counter()


def attack_train(ctx: Context):
    import repro.experiments as experiments
    from repro.attack.artifacts import cached_path
    from repro.gan.generator import PatchGenerator

    wb, setups = repeated_setup(ctx.workbench, ctx.setups)
    config = wb.attack_config(warmup_steps=ATTACK_WARMUP, steps=1_000_000)
    checkpoint = cached_path(wb.cache_dir, config, kind="attack") + ".ckpt.npz"

    # Record the deployment patch (the generator's batch-1 call) per step.
    digests: List[str] = []
    train_patch_attack = experiments.train_patch_attack
    generator_forward = PatchGenerator.forward
    probe_box: List[_AttackProbe] = []

    def recording_forward(self, z):
        out = generator_forward(self, z)
        if out.shape[0] == 1:
            digests.append(digest_array(out.data))
        return out

    def with_probe(*args, **kwargs):
        return train_patch_attack(*args, live=probe_box[-1], **kwargs)

    def run(stop_after: Optional[int]) -> _AttackProbe:
        probe_box.append(_AttackProbe(ctx, stop_after))
        digests.clear()
        try:
            wb.train_attack(config)
        except Stop:
            pass
        if os.path.exists(checkpoint):
            os.remove(checkpoint)   # or the next repetition would resume
        return probe_box[-1]

    experiments.train_patch_attack = with_probe
    PatchGenerator.forward = recording_forward
    try:
        first = run(ATTACK_REPEAT_STEPS)
        first_digests = list(digests)
        timed = run(None)
    finally:
        experiments.train_patch_attack = train_patch_attack
        PatchGenerator.forward = generator_forward
        ctx.toggle(-1, False)
    timed_digests = list(digests)
    if ctx.inject == "patch_digest" and timed_digests:
        timed_digests[0] = "0" * 64

    outcome = Outcome()
    samples_ms = [1e3 * v for v in timed.samples.values()]
    outcome.attempted = len(samples_ms)
    repeated = len(first_digests)
    mismatched = sum(a != b for a, b in zip(first_digests, timed_digests[:repeated]))
    if repeated != ATTACK_REPEAT_STEPS or len(timed_digests) < repeated:
        outcome.problems.append("repetition did not reach its steps")
    if mismatched:
        outcome.fail(f"patch digest differs across repetitions at {mismatched} step(s)",
                     mismatched)
    if first.nonfinite + timed.nonfinite:
        outcome.fail("non-finite loss", first.nonfinite + timed.nonfinite)
    if first.recoveries + timed.recoveries:
        outcome.fail("divergence recoveries", first.recoveries + timed.recoveries)

    metrics, detail = summarize_units(
        samples_ms, [1] * len(samples_ms), TAIL_PERCENTILE["attack_train"],
        # A step lasts ~1 s: use the reference timed before and after it.
        setups, refs=[0.5 * (timed.refs[step] + timed.refs[step + 1])
                      for step in timed.samples])
    per_layer = {}
    if ctx.tracer is not None:
        traced, untraced = _split(timed.samples)
        per_layer = ctx.tracer.per_unit(k for k in timed.samples if k % 2 == 0)
        per_layer["trace.overhead_pct"] = _overhead(traced, untraced)
    per_layer["gan.warmup_step_ms"] = 1e3 * median(first.gan_steps + timed.gan_steps)
    per_layer["runtime.checkpoints"] = timed.checkpoints
    per_layer["runtime.recoveries"] = timed.recoveries
    detail.update({"first_patch_digest": first_digests[:1],
                   "usage": timed.usage, "capped": timed.capped,
                   "checkpoints": timed.checkpoints})
    return outcome, metrics, per_layer, detail


# ---------------------------------------------------------------------------
# challenge_eval
# ---------------------------------------------------------------------------

def _outcome_key(result) -> tuple:
    return (result.pwc, result.cwc,
            tuple(tuple(o.predicted_class for o in run.outcomes) for run in result.runs))


def challenge_eval(ctx: Context):
    from repro.eval.protocol import DEFAULT_CHALLENGES

    def build(index):
        wb = ctx.workbench(index)
        return wb, _decal(wb)

    (wb, decal), setups = repeated_setup(build, ctx.setups)

    def one(challenge):
        return wb.evaluate(decal, challenges=[challenge], physical=True)[challenge]

    for challenge in DEFAULT_CHALLENGES:      # warming sweep, untimed
        one(challenge)
    samples: Dict[int, float] = {}
    refs: List[float] = []
    frames: List[int] = []
    results = []
    usage = Window()
    start = perf_counter()
    unit = 0
    sweep = 0
    while perf_counter() - start < ctx.seconds:
        sweep += 1
        for challenge in DEFAULT_CHALLENGES:  # whole sweeps only
            refs.append(host_reference_ms())
            ctx.toggle(unit, True, parity=sweep)
            t0 = perf_counter()
            result = one(challenge)
            samples[unit] = 1e3 * (perf_counter() - t0)
            frames.append(sum(len(run.outcomes) for run in result.runs))
            results.append((challenge, result))
            unit += 1
    usage = usage.close()
    ctx.toggle(-1, False)

    full = wb.evaluate(decal, physical=True)
    expected = {name: _outcome_key(result) for name, result in full.items()}
    outcome = Outcome()
    outcome.attempted = len(results)
    observed = [_outcome_key(result) for _, result in results]
    if ctx.inject == "eval_outcome" and observed:
        observed[0] = (observed[0][0] + 1.0,) + observed[0][1:]
    wrong = sum(key != expected[name] for (name, _), key in zip(results, observed))
    if wrong:
        outcome.fail(f"{wrong} challenge(s) disagree with one full evaluate()", wrong)

    metrics, detail = summarize_units(
        list(samples.values()), frames, TAIL_PERCENTILE["challenge_eval"],
        setups, refs=refs)
    per_layer = {}
    if ctx.tracer is not None:
        # Whole sweeps alternate, so both sides hold every challenge.
        sweeps = len(DEFAULT_CHALLENGES)
        per_frame = {k: ms / frames[k] for k, ms in samples.items()}
        traced = [v for k, v in per_frame.items() if (k // sweeps) % 2 == 1]
        untraced = [v for k, v in per_frame.items() if (k // sweeps) % 2 == 0]
        per_layer = ctx.tracer.per_unit(k for k in samples if (k // sweeps) % 2 == 1)
        per_layer["trace.overhead_pct"] = _overhead(traced, untraced)
    detail.update({"frames": sum(frames), "usage": usage,
                   "pwc": {name: result.pwc for name, result in full.items()}})
    return outcome, metrics, per_layer, detail


# ---------------------------------------------------------------------------
# av_drive
# ---------------------------------------------------------------------------

def _challenge_videos(wb, decal) -> List[List[np.ndarray]]:
    """The 8 challenge videos as the eval protocol renders them (physical,
    attacked, first seeded run)."""
    from repro.eval.protocol import DEFAULT_CHALLENGES
    from repro.scene.trajectory import challenge_trajectory
    from repro.scene.video import render_run
    from repro.utils.rng import derive_seed

    videos = []
    scenario = wb.scenario()
    eval_seed = derive_seed(wb.seed, "eval")
    for challenge in DEFAULT_CHALLENGES:
        rng = np.random.default_rng(derive_seed(eval_seed, "eval", challenge, 0))
        decals = decal.deploy(physical=True, rng=rng)
        frames = render_run(scenario, challenge_trajectory(challenge), rng,
                            decals=decals, physical=True)
        videos.append([frame.image for frame in frames])
    return videos


def _drive(pipe, videos, samples=None, refs=None, ctx=None) -> List[str]:
    """One pass over the videos. With ``samples``, every frame is a timed
    unit, and the host reference is retimed every ``AV_REF_EVERY`` frames."""
    actions = []
    unit = len(samples) if samples is not None else 0
    for video in videos:
        pipe.reset()
        for frame in video:
            if samples is not None:
                retime = unit % AV_REF_EVERY == 0 or not refs
                refs.append(host_reference_ms() if retime else refs[-1])
                ctx.toggle(unit, True)
            t0 = perf_counter()
            trace = pipe.step(frame)
            if samples is not None:
                samples[unit] = 1e3 * (perf_counter() - t0)
            actions.append(trace.decision.action.value)
            unit += 1
    return actions


def _conv_times(qmodel, frame, totals: Dict[str, float]) -> None:
    """Per-conv ms of the int8 plan from ``forward_arrays(tap=…)``
    timestamps: each conv runs from its tap to the next one."""
    marks = []
    qmodel.forward_arrays(frame[None], tap=lambda name, _: marks.append(
        (name, perf_counter())))
    end = perf_counter()
    for (name, t0), (_, t1) in zip(marks, marks[1:] + [(None, end)]):
        key = f"quant.{name}_ms"
        totals[key] = totals.get(key, 0.0) + 1e3 * (t1 - t0)


def av_drive(ctx: Context):
    from repro.av.pipeline import AvPipeline
    from repro.nn.quant import calibrate_detector

    calibrate_times: List[float] = []

    def build(index):
        wb = ctx.workbench(index)
        videos = _challenge_videos(wb, _decal(wb))
        frames = np.stack([image for image, _ in wb.train_samples()[:CALIBRATION_FRAMES]])
        t0 = perf_counter()
        calibration = calibrate_detector(wb.detector(), frames)
        calibrate_times.append(perf_counter() - t0)
        pipe = AvPipeline(wb.detector(), precision="int8", calibration=calibration)
        return wb, videos, pipe

    (wb, videos, pipe), setups = repeated_setup(build, ctx.setups)
    reference = _drive(pipe, videos)        # warming pass, untimed
    samples: Dict[int, float] = {}
    refs: List[float] = []
    passes = []
    usage = Window()
    start = perf_counter()
    while perf_counter() - start < ctx.seconds:
        passes.append(_drive(pipe, videos, samples, refs, ctx))
    usage = usage.close()
    ctx.toggle(-1, False)

    outcome = Outcome()
    outcome.attempted = len(samples)
    if ctx.inject == "av_action" and passes:
        passes[0][0] = "injected"
    differing = sum(a != b for actions in passes for a, b in zip(actions, reference))
    if differing:
        outcome.fail(f"{differing} int8 action(s) differ across repetitions", differing)
    fp_actions = _drive(AvPipeline(wb.detector()), videos)
    agreement = float(np.mean([a == b for a, b in zip(fp_actions, reference)]))

    metrics, detail = summarize_units(
        list(samples.values()), [1] * len(samples), TAIL_PERCENTILE["av_drive"],
        setups, refs=refs)
    per_layer = {"quant.calibrate_s": median(calibrate_times)}
    if ctx.tracer is not None:
        traced_units = [k for k in samples if k % 2 == 0]
        traced, untraced = _split(samples)
        per_layer.update(ctx.tracer.per_unit(traced_units))
        per_layer["trace.overhead_pct"] = _overhead(traced, untraced)
        conv_totals: Dict[str, float] = {}
        flat = [frame for video in videos for frame in video]
        for unit in traced_units:
            _conv_times(pipe.infer_model, flat[unit % len(flat)], conv_totals)
        per_layer.update({k: v / len(traced_units) for k, v in conv_totals.items()})
    detail.update({"passes": len(passes), "usage": usage,
                   "frames_per_pass": len(reference),
                   "int8_vs_fp_action_agreement": agreement})
    return outcome, metrics, per_layer, detail


# ---------------------------------------------------------------------------
# serve_stream
# ---------------------------------------------------------------------------

class _Request:
    __slots__ = ("index", "frame", "due", "sent", "done", "resolved",
                 "future", "burst")

    def __init__(self, index, frame, due, burst):
        self.index, self.frame, self.due, self.burst = index, frame, due, burst
        self.sent = self.done = 0.0
        self.resolved = 0
        self.future = None


def _same_detections(got, want, atol: float) -> bool:
    if len(got) != len(want):
        return False
    return all(
        a.class_id == b.class_id and abs(a.score - b.score) <= atol
        and np.allclose(a.box_xyxy, b.box_xyxy, rtol=0.0, atol=atol)
        for a, b in zip(got, want))


def serve_stream(ctx: Context):
    from repro.detection.decode import batched_detections
    from repro.nn import LOWERING_ATOL
    from repro.serve import DetectionServer, ServeConfig

    config = ServeConfig(lowered=True, workers=SERVE_WORKERS)
    start_times: List[float] = []

    def build(index):
        wb = ctx.workbench(index)
        frames = np.stack([image for image, _ in wb.train_samples()])
        t0 = perf_counter()
        server = DetectionServer(wb.detector(), config)
        ctx.cleanups.append(server.close)
        response = server.submit(server.open_session("start"), frames[0],
                                 deadline_s=60.0).result(60)
        start_times.append(perf_counter() - t0)
        if response.status != "ok":
            raise RuntimeError(f"first request answered {response.status!r}")
        return wb, frames, server

    # One live worker at a time: each server closes before the next set-up.
    (wb, frames, server), setups = repeated_setup(
        build, ctx.setups, release=lambda product: product[2].close())
    sessions = [server.open_session(f"client{i}") for i in range(SERVE_SESSIONS)]
    for i in range(2 * SERVE_BURST_OUTSTANDING):    # warming, untimed
        server.submit(sessions[i % SERVE_SESSIONS], frames[i % len(frames)]).result(60)

    requests: List[_Request] = []
    lock = threading.Condition()
    outstanding = [0]

    def send(request: _Request) -> None:
        def on_done(_future, request=request):
            request.done = perf_counter()
            with lock:
                request.resolved += 1
                if request.burst:
                    outstanding[0] -= 1
                    lock.notify()

        request.sent = perf_counter()
        request.future = server.submit(sessions[request.index % SERVE_SESSIONS],
                                       frames[request.frame])
        request.future.add_done_callback(on_done)
        requests.append(request)

    # Open loop: a single thread submits on a fixed schedule; latency is
    # timed from each request's due time, so a late generator cannot hide
    # queueing.
    usage = Window()
    n_open = max(int(SERVE_OPEN_SHARE * ctx.seconds * SERVE_RATE), 1)
    t_open = perf_counter() + 0.01
    for i in range(n_open):
        due = t_open + i / SERVE_RATE
        delay = due - perf_counter()
        if delay > 0:
            time.sleep(delay)
        if ctx.inject == "late_generator":
            time.sleep(3e-3 * SERVE_LATE_LIMIT_MS)
        ctx.toggle(i, True)
        send(_Request(i, i % len(frames), due, burst=False))
    ctx.toggle(-1, False)

    # Closed-loop burst: keep the server saturated, in slices that each
    # drain before the next. The host reference is timed between slices,
    # while the worker is idle, and scales each slice. The first slice
    # fills the batching pipeline after the open loop and is not counted.
    slice_s = SERVE_BURST_SHARE * ctx.seconds / SERVE_BURST_SLICES
    index = n_open
    burst_scaled = burst_wall = 0.0
    burst_counted = 0
    slice_rates = []
    ref = host_reference_ms(SERVE_REF_REPEATS)
    batch_marks = []
    for _ in range(SERVE_BURST_SLICES):
        first = len(requests)
        batch_marks.append(len(server.stats.batch_occupancy))
        slice_start = perf_counter()
        while perf_counter() < slice_start + slice_s:
            with lock:
                while outstanding[0] >= SERVE_BURST_OUTSTANDING:
                    lock.wait(0.05)
                outstanding[0] += 1
            send(_Request(index, index % len(frames), perf_counter(), burst=True))
            index += 1
        drain_deadline = perf_counter() + 30.0
        with lock:   # callbacks have run for every request of the slice
            while outstanding[0] > 0 and perf_counter() < drain_deadline:
                lock.wait(0.05)
        elapsed = max([r.done for r in requests[first:]] + [slice_start + 1e-6]) - slice_start
        ref_after = host_reference_ms(SERVE_REF_REPEATS)
        slice_rates.append((len(requests) - first) / elapsed)
        if len(slice_rates) > 1:
            burst_wall += elapsed
            burst_scaled += scaled(elapsed, 0.5 * (ref + ref_after))
            burst_counted += len(requests) - first
        ref = ref_after
    wait([r.future for r in requests], timeout=30)
    usage = usage.close()
    batch_marks.append(len(server.stats.batch_occupancy))
    slice_occupancy = [float(np.mean(server.stats.batch_occupancy[a:b]))
                       for a, b in zip(batch_marks, batch_marks[1:])]
    burst = [r for r in requests if r.burst]
    # The yardstick ran beside the idle server's dispatcher thread, which
    # polls every 2 ms. Timed once more with the server closed, it shows
    # how much that thread slowed it.
    server.close()
    ref_closed = host_reference_ms(30)
    snapshot = server.snapshot()

    # -- checks -----------------------------------------------------------
    reference = batched_detections(wb.detector().lower(), list(frames),
                                   conf_threshold=0.3, iou_threshold=0.45,
                                   max_detections=50)
    responses = {r.index: (r.future.result() if r.future.done() else None)
                 for r in requests}
    if ctx.inject == "dropped_response" and requests:
        responses[requests[0].index] = None
    if ctx.inject == "perturbed_detection":
        for request in requests:
            response = responses[request.index]
            if response is not None and response.detections:
                response.detections[0].box_xyxy = response.detections[0].box_xyxy + 1.0
                break
    outcome = Outcome()
    outcome.attempted = len(requests)
    unresolved = sum(responses[r.index] is None or r.resolved != 1 for r in requests)
    if unresolved:
        outcome.fail(f"{unresolved} request(s) not resolved exactly once", unresolved)
    statuses: Dict[str, int] = {}
    mismatched = 0
    for request in requests:
        response = responses[request.index]
        if response is None:
            continue
        statuses[response.status] = statuses.get(response.status, 0) + 1
        if response.status == "ok" and not _same_detections(
                response.detections, reference[request.frame], LOWERING_ATOL):
            mismatched += 1
    not_ok = sum(n for status, n in statuses.items() if status != "ok")
    if not_ok:
        outcome.fail(f"non-ok responses {statuses}", not_ok)
    if mismatched:
        outcome.fail(f"{mismatched} response(s) differ from in-process detections",
                     mismatched)
    open_requests = [r for r in requests if not r.burst]
    late_ms = [1e3 * (r.sent - r.due) for r in open_requests]
    late_p99 = percentile(late_ms, 99)
    if late_p99 > SERVE_LATE_LIMIT_MS:
        outcome.problems.append(
            f"open-loop generator ran late: p99 {late_p99:.2f} ms > "
            f"{SERVE_LATE_LIMIT_MS} ms")

    samples = {r.index: 1e3 * (r.done - r.due) for r in open_requests
               if responses[r.index] is not None
               and responses[r.index].status == "ok"}
    # Latencies stay wall-clock: they are mostly timer-driven waits (batch
    # window, polling) plus a forward in another process. The saturated
    # rate is compute-bound, so its slices are host-scaled.
    metrics, detail = summarize_units(
        list(samples.values()), [1] * len(samples), TAIL_PERCENTILE["serve_stream"],
        setups, throughput=burst_counted / burst_scaled)
    ok_latency = [1e3 * responses[r.index].latency_s for r in open_requests
                  if responses[r.index] is not None
                  and responses[r.index].status == "ok"]
    per_layer = {
        "serve.start_s": median(start_times),
        "serve.server_latency_ms": median(ok_latency) if ok_latency else 0.0,
        "serve.batch_occupancy": snapshot["mean_batch_occupancy"],
        "serve.max_queue_depth": snapshot["max_queue_depth"],
        "serve.shed": snapshot["shed"],
        "serve.timeouts": snapshot["timeouts"],
        "serve.generator_late_ms": percentile(late_ms, 90),
        "parallel.respawns": snapshot["pool"]["respawns"],
        "parallel.requeues": snapshot["pool"]["requeues"],
    }
    if ctx.tracer is not None:
        traced, untraced = _split(samples)
        per_layer.update(ctx.tracer.per_unit(k for k in samples if k % 2 == 0))
        per_layer["trace.overhead_pct"] = _overhead(traced, untraced)
    detail.update({
        "open_loop_requests": len(open_requests), "burst_requests": len(burst),
        "usage": usage,
        "burst_s": burst_wall, "statuses": statuses,
        "burst_wall_rate_per_s": burst_counted / burst_wall,
        "host_ref_ms_idle_vs_closed_server": [usage["host_ref_ms"][1], ref_closed],
        "burst_slice_rates_per_s": slice_rates,
        "burst_slice_batch_occupancy": slice_occupancy,
        "generator_late_ms": {"p50": percentile(late_ms, 50),
                              "p90": percentile(late_ms, 90),
                              "p99": late_p99, "max": max(late_ms)},
        "server": {k: snapshot[k] for k in ("mode", "degraded", "batches",
                                            "mean_batch_occupancy", "max_queue_depth")},
    })
    return outcome, metrics, per_layer, detail


WORKLOADS = {
    "attack_train": attack_train,
    "challenge_eval": challenge_eval,
    "serve_stream": serve_stream,
    "av_drive": av_drive,
}
