"""One benchmark workload, run in a fresh process under a fixed memory ceiling.

``run.py`` starts this file as a child process::

    python3 perfbench/workloads.py --workload live --seed 3 --seconds 20 \
        --trace 0 --out .bench_out/live.json --spawned-at <time.time()>

The child sets its address-space ceiling before importing numpy, so an
allocation that does not fit raises ``MemoryError`` inside the operation that
made it (counted as a failed operation) instead of the kernel killing a
process.  It then imports the program from ``src/``, sets the workload up,
measures for ``--seconds``, checks the outputs outside the timed region and
writes one JSON result file.  ``--setup-only`` stops after set-up, which
``run.py`` uses to sample set-up time several times per run; ``--skip-check``
leaves out the check, for the untraced half of a traced run.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent

#: Address-space ceiling of every workload process, the same on every host.
MEMORY_CEILING_BYTES = 4 * 2**30

#: Live traffic: 4 tenants with one stream each, 20 ms chunks, sessions of
#: 4 segments, 300 ms budget per segment.
LIVE_STREAMS = 4
LIVE_CHUNK_SECONDS = 0.02
LIVE_ROUND_SEGMENTS = 4
LIVE_DRAIN_SECONDS = 10.0
LATENCY_BUDGET_MS = 300.0

#: Offline calls: 4 mixtures of 1-8 s each (2-8 segments of 1 s), 22
#: segments in total.
OFFLINE_CLIPS_PER_CALL = 4
OFFLINE_CLIP_SEGMENTS = (2, 8)
OFFLINE_CALL_SEGMENTS = 22

#: Offline check: protect_batch is compared in chunks of this many segments,
#: so that one check call fits under the ceiling from an empty im2col store.
OFFLINE_CHECK_BATCH_SEGMENTS = 4

#: Training: batch 8, prefetch 1; the loss guard is the loss of this step.
TRAIN_BATCH = 8
TRAIN_PREFETCH = 1
TRAIN_LOSS_STEP = 2

#: Every example mixes the target speaker with an interfering speaker.  With
#: the default scenarios, half the examples are mixed with babble or vehicle
#: noise instead, drawn per example; babble takes about 5x as long to
#: synthesise as vehicle noise, so how many babble examples a batch draws
#: would decide how long the trainer waits for it.
TRAIN_NOISE_SCENARIOS = ()

GEOMETRIES = ("default", "tiny")


def _peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _noise(rng, seconds: float, sample_rate: int, scale: float = 0.1):
    """Seeded stand-in audio; the Selector's cost does not depend on content."""
    from repro.audio.signal import AudioSignal

    return AudioSignal(rng.normal(scale=scale, size=int(round(seconds * sample_rate))), sample_rate)


def _references(rng, config):
    return [
        _noise(rng, config.reference_seconds, config.sample_rate)
        for _ in range(config.num_reference_audios)
    ]


class Outcome:
    """What one workload run measured: per-operation times, failures, extras."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.op_ms: list = []  # measured time of each successful operation
        self.failed_ms: list = []  # measured time of each failed operation
        self.times_ms: list = []  # every operation's measured time, in order
        self.errors: dict = {}
        self.values: dict = {}
        self.window = (0.0, 0.0)

    def succeed(self, elapsed_ms: float) -> None:
        """Record the time of one successful operation."""
        self.op_ms.append(elapsed_ms)
        self.times_ms.append(elapsed_ms)

    def fail(self, error, elapsed_ms: float) -> None:
        """Count one failed operation, the time it took and its error (if any)."""
        self.failed += 1
        self.failed_ms.append(elapsed_ms)
        self.times_ms.append(elapsed_ms)
        if error is not None:
            self.note(error)

    def finish(self, **values) -> None:
        """Set the run's values: the per-operation times plus ``values``."""
        self.values = {
            "op_ms": self.op_ms,
            "failed_ms": self.failed_ms,
            "times_ms": self.times_ms,
            **values,
        }

    def note(self, error: BaseException) -> None:
        """Count an error whose operations are counted elsewhere."""
        name = type(error).__name__
        self.errors[name] = self.errors.get(name, 0) + 1


# ----------------------------------------------------------------------------
# offline: closed loop of protect_batch calls
# ----------------------------------------------------------------------------
class Offline:
    """Closed loop of calls that protect 4 clips each.

    A call is ``protect_batch`` on the 4 clips.  When ``protect_batch`` runs
    out of memory, the call delivers the same shadows clip by clip with
    ``protect``, each clip from an empty im2col buffer store, and empties the
    store again at the end; it counts as a recovered call, and its time
    includes the failed attempt.  Only a call whose clip-by-clip recovery
    fails too counts as failed.
    """

    roots = ("core.protect_batch", "core.protect")

    def __init__(self, config, seed: int) -> None:
        self.config = config
        self.seed = seed

    def setup(self) -> None:
        import numpy as np
        from repro.core import NECSystem

        self.system = NECSystem(self.config, seed=0)
        self.system.enroll(_references(np.random.default_rng([self.seed, 0]), self.config))

    def call_inputs(self, index: int):
        """The 4 clips of call ``index``: 1-8 s each, 22 segments in all.

        The seed draws each clip's segment count (2-8) and where in its last
        segment the clip ends.  Every call stacks the same number of segments,
        so every call asks ``protect_batch`` for the same batch shapes (a
        16-segment chunk, then a 6-segment one) and differs only in how the
        segments split into clips.
        """
        import numpy as np
        from repro.audio.signal import AudioSignal

        rng = np.random.default_rng([self.seed, 1, index])
        low, high = OFFLINE_CLIP_SEGMENTS
        counts = rng.integers(low, high + 1, size=OFFLINE_CLIPS_PER_CALL)
        while counts.sum() != OFFLINE_CALL_SEGMENTS:
            counts = rng.integers(low, high + 1, size=OFFLINE_CLIPS_PER_CALL)
        segment = self.config.segment_samples
        # A clip of k segments ends inside its k-th segment:
        # (k - 1) * segment < samples <= k * segment.
        samples = counts * segment - rng.integers(0, segment, size=OFFLINE_CLIPS_PER_CALL)
        return [
            AudioSignal(rng.normal(scale=0.1, size=int(size)), self.config.sample_rate)
            for size in samples
        ]

    def deliver(self, clips):
        """Shadow waves of ``clips`` and whether protect_batch ran out of memory."""
        from repro.nn import clear_im2col_buffer_cache

        try:
            return [result.shadow_wave.data for result in self.system.protect_batch(clips)], False
        except MemoryError:
            pass  # recovered below, once the failed call's frames are released
        waves = []
        for clip in clips:
            clear_im2col_buffer_cache()
            waves.append(self.system.protect(clip).shadow_wave.data)
        # Leave no buffers behind, so every call after a recovery starts
        # from the same state: an empty store.
        clear_im2col_buffer_cache()
        return waves, True

    def run(self, seconds: float) -> Outcome:
        outcome = Outcome()
        delivered_s = busy_s = 0.0
        recovered = 0
        self.first_call = None
        # Call 0 is the warm-up: a process's first call also pays one-time
        # costs (BLAS threads, FFT plans, growing the heap).
        try:
            self.deliver(self.call_inputs(0))
        except Exception:  # a call that fails is counted when it is timed
            pass
        started = time.perf_counter()
        deadline = started + seconds
        index = 1
        while time.perf_counter() < deadline:
            clips = self.call_inputs(index)
            outcome.attempted += 1
            began = time.perf_counter()
            try:
                waves, out_of_memory = self.deliver(clips)
            except Exception as error:  # counted, the loop keeps calling
                elapsed = time.perf_counter() - began
                busy_s += elapsed
                outcome.fail(error, 1000.0 * elapsed)
            else:
                elapsed = time.perf_counter() - began
                busy_s += elapsed
                outcome.succeed(1000.0 * elapsed)
                delivered_s += sum(clip.duration for clip in clips)
                recovered += out_of_memory
                if self.first_call is None:
                    self.first_call = (clips, waves)
            index += 1
        outcome.window = (started, time.perf_counter())
        outcome.finish(busy_s=busy_s, work_audio_s=delivered_s, batch_out_of_memory=recovered)
        return outcome

    def check(self) -> dict:
        """Delivered == protect_batch == per-clip protect == protect_looped, bit for bit.

        The call compared is the first delivered call of the timed loop.  Its
        protect_batch reference runs in chunks of OFFLINE_CHECK_BATCH_SEGMENTS
        segments, and every reference starts from an empty im2col store, so
        the check fits under the ceiling whatever the timed loop left behind.
        """
        import numpy as np
        from repro.nn import clear_im2col_buffer_cache

        if self.first_call is None:
            return {"passed": False, "detail": "no call was delivered"}
        clips, delivered = self.first_call
        clear_im2col_buffer_cache()
        batched = self.system.protect_batch(
            clips, max_batch_segments=OFFLINE_CHECK_BATCH_SEGMENTS
        )
        for clip, wave, result in zip(clips, delivered, batched):
            if not np.array_equal(result.shadow_wave.data, wave):
                return {"passed": False, "detail": "delivered != protect_batch"}
            for engine in (self.system.protect, self.system.protect_looped):
                clear_im2col_buffer_cache()
                if not np.array_equal(engine(clip).shadow_wave.data, wave):
                    return {"passed": False, "detail": f"delivered != {engine.__name__}"}
        return {"passed": True, "detail": f"{len(clips)} clips bit-identical"}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------------
# live: open-loop real-time streams into the multi-tenant service
# ----------------------------------------------------------------------------
class Live:
    """Real-time streams into the service, in rounds of fresh sessions.

    Every round opens one session per tenant, each starting at a phase drawn
    uniformly over one segment, and streams ``LIVE_ROUND_SEGMENTS`` segments
    of 20 ms chunks on the real-time schedule.  When every shadow of the round
    has been collected the sessions close and the next round draws new
    phases, so one run samples many phase layouts (how segments of different
    streams line up decides which ticks coalesce).  Round 0 is the warm-up.
    """

    roots = ("core.stream_batch.tick", "serving.session.feed", "serving.session.collect")

    def __init__(self, config, seed: int, scratch: Path) -> None:
        self.config = config
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        import numpy as np
        from repro.core import NECSystem
        from repro.serving import EnrollmentRegistry, ProtectionService

        rng = np.random.default_rng([self.seed, 0])
        root = self.scratch / "registry"
        bootstrap = EnrollmentRegistry(root, config=self.config)
        bootstrap.save_models(NECSystem(self.config, seed=0))
        self.registry = EnrollmentRegistry(root)
        self.service = ProtectionService(self.registry)
        self.tenants = [f"tenant{index}" for index in range(LIVE_STREAMS)]
        for tenant in self.tenants:
            self.service.enroll(tenant, _references(rng, self.config))

    def round_inputs(self, round_index: int):
        """Start phases (s) and audio of every stream of one round."""
        import numpy as np

        rng = np.random.default_rng([self.seed, 1, round_index])
        segment_s = self.config.segment_samples / self.config.sample_rate
        phases = rng.uniform(0.0, segment_s, size=LIVE_STREAMS)
        audio = [
            rng.normal(scale=0.1, size=LIVE_ROUND_SEGMENTS * self.config.segment_samples)
            for _ in range(LIVE_STREAMS)
        ]
        return phases, audio

    def run(self, seconds: float) -> Outcome:
        outcome = Outcome()
        self.log = []  # (tenant, audio, collected shadow waves) per session
        lag_ms = []
        self._round(0, outcome, None)
        started = time.perf_counter()
        round_index = 1
        while time.perf_counter() < started + seconds:
            self._round(round_index, outcome, lag_ms)
            round_index += 1
        outcome.window = (started, time.perf_counter())
        if self.service.loop.error is not None:
            outcome.note(self.service.loop.error)
        outcome.finish(
            generator_lag_ms=lag_ms,
            budget_misses=sum(1 for value in outcome.op_ms if value > LATENCY_BUDGET_MS)
            + outcome.failed,
        )
        return outcome

    def _round(self, round_index: int, outcome: Outcome, lag_ms) -> None:
        """Stream one round; record latencies and lags unless it is the warm-up."""
        chunk = int(round(LIVE_CHUNK_SECONDS * self.config.sample_rate))
        per_segment = self.config.segment_samples // chunk
        segment_s = self.config.segment_samples / self.config.sample_rate
        phases, audio = self.round_inputs(round_index)
        sessions = [self.service.open_session(tenant) for tenant in self.tenants]
        waves = [[] for _ in sessions]
        collected_at = [[] for _ in sessions]

        def poll() -> None:
            for k, session in enumerate(sessions):
                try:
                    results = session.collect()
                except Exception as error:  # its segments count as failed below
                    outcome.note(error)
                    continue
                now = time.perf_counter()
                for result in results:
                    waves[k].append(result.shadow_wave.data)
                    collected_at[k].append(now)

        t0 = time.perf_counter() + LIVE_CHUNK_SECONDS
        starts = [t0 + phase for phase in phases]
        chunks = LIVE_ROUND_SEGMENTS * per_segment
        queue = [(starts[k] + LIVE_CHUNK_SECONDS, k, 0) for k in range(LIVE_STREAMS)]
        heapq.heapify(queue)
        while queue:
            due, k, index = heapq.heappop(queue)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if lag_ms is not None:
                lag_ms.append(1000.0 * (time.perf_counter() - due))
            try:
                sessions[k].feed(audio[k][index * chunk : (index + 1) * chunk])
            except Exception as error:  # its segments count as failed below
                outcome.note(error)
            if index + 1 < chunks:
                heapq.heappush(
                    queue, (starts[k] + (index + 2) * LIVE_CHUNK_SECONDS, k, index + 1)
                )
            poll()

        drain_end = time.perf_counter() + LIVE_DRAIN_SECONDS
        while time.perf_counter() < drain_end and self.service.loop.error is None:
            if all(len(got) == LIVE_ROUND_SEGMENTS for got in collected_at):
                break
            time.sleep(0.002)
            poll()
        gave_up = time.perf_counter()
        for k, session in enumerate(sessions):
            session.close(drain=False)
            self.log.append((self.tenants[k], audio[k], waves[k]))
            if lag_ms is None:
                continue
            # The chunk completing segment s was due at starts[k] + (s + 1) * segment_s.
            for s in range(LIVE_ROUND_SEGMENTS):
                outcome.attempted += 1
                due = starts[k] + (s + 1) * segment_s
                if s < len(collected_at[k]):
                    outcome.succeed(1000.0 * (collected_at[k][s] - due))
                else:  # its error, if any, was noted when it happened
                    outcome.fail(None, 1000.0 * (gave_up - due))

    def check(self) -> dict:
        """Each session's shadows == a direct immediate StreamingProtector's."""
        import numpy as np
        from repro.core import NECSystem, StreamingProtector

        chunk = int(round(LIVE_CHUNK_SECONDS * self.config.sample_rate))
        system = self.service.system
        compared = 0
        for tenant, audio, waves in self.log:
            direct = NECSystem(self.config, encoder=system.encoder, selector=system.selector)
            direct.set_embedding(self.registry.embedding(tenant))
            protector = StreamingProtector(direct)
            expected = []
            for start in range(0, audio.size, chunk):
                expected.extend(r.shadow_wave.data for r in protector.feed(audio[start : start + chunk]))
            if len(waves) > len(expected) or not all(
                np.array_equal(a, b) for a, b in zip(waves, expected)
            ):
                return {"passed": False, "detail": f"{tenant} differs from direct protection"}
            compared += len(waves)
        if compared == 0:
            return {"passed": False, "detail": "no shadow was collected"}
        return {"passed": True, "detail": f"{compared} segments bit-identical"}

    def close(self) -> None:
        self.service.shutdown(drain=False, timeout=30.0)


# ----------------------------------------------------------------------------
# train: streaming minibatch training
# ----------------------------------------------------------------------------
class _TimedStream:
    """Hands ``fit_streaming`` the real example stream until the deadline.

    It stops at a batch boundary once the deadline has passed, and times how
    long the training loop waits for each batch of examples.
    """

    def __init__(self, stream, batch: int) -> None:
        self.stream = stream
        self.batch = batch
        self.deadline = None
        self.min_steps = TRAIN_LOSS_STEP + 1
        self.wait_s = []

    def iterate(self, start: int = 0, count=None):
        source = self.stream.iterate(start=start, count=count, prefetch=TRAIN_PREFETCH)
        index = 0
        try:
            while True:
                if index % self.batch == 0:
                    steps = index // self.batch
                    if (
                        self.deadline is not None
                        and steps >= self.min_steps
                        and time.perf_counter() >= self.deadline
                    ):
                        return
                    self.wait_s.append(0.0)
                began = time.perf_counter()
                example = next(source, None)
                self.wait_s[-1] += time.perf_counter() - began
                if example is None:
                    return
                yield example
                index += 1
        finally:
            source.close()


class Train:
    roots = ("core.train_step",)

    def __init__(self, config, seed: int) -> None:
        self.config = config
        self.seed = seed

    def _stream(self, training):
        from repro.audio.corpus import SyntheticCorpus
        from repro.core import SpectralEncoder
        from repro.core.training import ExampleStream

        corpus = SyntheticCorpus(num_speakers=6, sample_rate=self.config.sample_rate, seed=self.seed)
        targets, others = corpus.split_speakers(2, 4)
        stream = ExampleStream(
            corpus,
            SpectralEncoder(self.config, seed=0),
            self.config,
            targets,
            others,
            training=training,
            seed=self.seed,
        )
        for target in targets:
            stream.d_vector_for(target)
        return stream

    def setup(self) -> None:
        from repro.core import Selector, SelectorTrainer
        from repro.core.config import TrainingConfig

        self.training = TrainingConfig(
            batch_size=TRAIN_BATCH, prefetch=TRAIN_PREFETCH, noise_scenarios=TRAIN_NOISE_SCENARIOS
        )
        self.stream = self._stream(self.training)
        self.trainer = SelectorTrainer(Selector(self.config, seed=0), config=self.training)

    def run(self, seconds: float) -> Outcome:
        outcome = Outcome()
        timed = _TimedStream(self.stream, TRAIN_BATCH)
        step_spans = []
        trainer = self.trainer
        step_batch = trainer.step_batch

        def timed_step(examples):
            began = time.perf_counter()
            result = step_batch(examples)
            ended = time.perf_counter()
            step_spans.append((began, ended))
            if timed.deadline is None:  # step 0 is the warm-up
                timed.deadline = ended + seconds
            return result

        trainer.step_batch = timed_step
        began = time.perf_counter()
        failure = None
        try:
            history = trainer.fit_streaming(timed, steps=10_000, batch_size=TRAIN_BATCH)
        except Exception as error:
            failure, failed_at = error, time.perf_counter()
            history = None
        finally:
            del trainer.step_batch
        self.losses = list(history.losses) if history is not None else []
        # A step's time as the training loop sees it: from the end of the
        # previous step (step 0 is the warm-up) through waiting for the batch
        # to the end of the optimiser step.
        ends = [end for _, end in step_spans]
        for previous, end in zip(ends, ends[1:]):
            outcome.succeed(1000.0 * (end - previous))
        if failure is not None:
            # The failed step ran from the end of the last step that finished.
            outcome.fail(failure, 1000.0 * (failed_at - (ends[-1] if ends else began)))
        outcome.attempted = max(len(step_spans) - 1, 0) + outcome.failed
        outcome.window = (ends[0], ends[-1]) if len(ends) > 1 else (0.0, 0.0)
        outcome.finish(
            step_ms=[1000.0 * (end - start) for start, end in step_spans[1:]],
            busy_s=outcome.window[1] - outcome.window[0],
            examples=(len(ends) - 1) * TRAIN_BATCH,
            data_wait_ms=[1000.0 * value for value in timed.wait_s[1 : len(step_spans)]],
            losses=self.losses,
            loss_step=TRAIN_LOSS_STEP,
        )
        return outcome

    def check(self) -> dict:
        """Finite losses; a fresh run of the same code repeats steps 0-2 exactly."""
        from repro.core import Selector, SelectorTrainer

        replayed = TRAIN_LOSS_STEP + 1
        if len(self.losses) < replayed:
            return {"passed": False, "detail": f"only {len(self.losses)} steps ran"}
        if not all(math.isfinite(loss) for loss in self.losses):
            return {"passed": False, "detail": "non-finite loss"}
        # A fresh stream and trainer, built as in set-up, through the same
        # fit_streaming path (prefetch thread included), up to the loss step.
        replay = SelectorTrainer(Selector(self.config, seed=0), config=self.training)
        history = replay.fit_streaming(
            self._stream(self.training), steps=replayed, batch_size=TRAIN_BATCH
        )
        if list(history.losses) != self.losses[:replayed]:
            return {
                "passed": False,
                "detail": f"losses {list(history.losses)!r} != {self.losses[:replayed]!r}",
            }
        return {
            "passed": True,
            "detail": f"{len(self.losses)} finite losses, steps 0-{TRAIN_LOSS_STEP} repeat",
        }

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------------
def fingerprint(config) -> dict:
    """The host and program settings a measurement belongs to."""
    import platform
    from dataclasses import asdict

    import numpy as np
    import scipy

    blas = {}
    try:
        blas_info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = {"name": blas_info.get("name"), "version": blas_info.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    blas["threads"] = _blas_threads()
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {
            key: os.environ[key]
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "geometry": asdict(config),
        "memory_ceiling_bytes": MEMORY_CEILING_BYTES,
    }


def _blas_threads():
    """OpenBLAS's thread count, read from the loaded library, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("offline", "live", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--skip-check", action="store_true")
    parser.add_argument("--geometry", choices=GEOMETRIES, default="default")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING_BYTES, MEMORY_CEILING_BYTES))
    out = Path(args.out)
    scratch = Path(tempfile.mkdtemp(prefix=out.stem + "-", dir=out.parent))
    try:
        return _run(args, out, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, out: Path, scratch: Path) -> int:
    began = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro.core  # noqa: F401  (the import cost is part of set-up)
    import repro.serving  # noqa: F401
    from repro.core import NECConfig

    import_s = time.perf_counter() - began
    config = NECConfig.default() if args.geometry == "default" else NECConfig.tiny()

    tracer = None
    if args.trace:
        sys.path.insert(0, str(PERFBENCH))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    if args.workload == "offline":
        workload = Offline(config, args.seed)
    elif args.workload == "live":
        workload = Live(config, args.seed, scratch)
    else:
        workload = Train(config, args.seed)
    workload.setup()
    setup_s = time.time() - args.spawned_at
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        out.write_text(json.dumps(result))
        return 0

    try:
        outcome = workload.run(args.seconds)
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracing.layer_metrics(
                tracer, outcome.window, workload.roots, outcome.attempted
            )
            tracer.dump(str(out.with_suffix(".spans.jsonl")))
        if not args.skip_check:
            result["check"] = workload.check()
    finally:
        workload.close()
    result.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        errors=outcome.errors,
        values=outcome.values,
        fingerprint=fingerprint(config),
    )
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
