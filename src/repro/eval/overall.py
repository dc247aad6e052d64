"""Overall system benchmark: SDR and WER, hide-Bob and retain-Alice (Fig. 11)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.asr.recognizer import TemplateRecognizer
from repro.eval.common import (
    ExperimentContext,
    prepare_context,
    run_sharded,
)
from repro.eval.datasets import BenchmarkDataset, compile_benchmark_dataset
from repro.eval.reporting import format_table, summarize
from repro.metrics.sdr import sdr


@dataclass
class InstanceMeasurement:
    """Metrics for one benchmark mixture, with and without NEC."""

    scenario: str
    target_speaker: str
    sdr_target_mixed: float
    sdr_target_recorded: float
    sdr_background_mixed: float
    sdr_background_recorded: float
    wer_target_mixed: Optional[float] = None
    wer_target_recorded: Optional[float] = None
    wer_background_mixed: Optional[float] = None
    wer_background_recorded: Optional[float] = None


@dataclass
class OverallResult:
    """The Fig. 11 series: per-instance measurements plus summaries."""

    measurements: List[InstanceMeasurement] = field(default_factory=list)

    def _series(self, attribute: str) -> List[float]:
        values = [getattr(m, attribute) for m in self.measurements]
        return [v for v in values if v is not None and np.isfinite(v)]

    def summary(self) -> Dict[str, Dict[str, float]]:
        names = [
            "sdr_target_mixed",
            "sdr_target_recorded",
            "sdr_background_mixed",
            "sdr_background_recorded",
            "wer_target_mixed",
            "wer_target_recorded",
            "wer_background_mixed",
            "wer_background_recorded",
        ]
        # One pass per metric: the series used for the emptiness check is the
        # same one that gets summarised (the old comprehension evaluated
        # ``self._series(name)`` twice per metric).
        result: Dict[str, Dict[str, float]] = {}
        for name in names:
            series = self._series(name)
            if series:
                result[name] = summarize(series)
        return result

    def hide_target_effective(self) -> bool:
        """Did NEC lower the target's SDR in the recording (the headline claim)?"""
        summary = self.summary()
        return (
            summary["sdr_target_recorded"]["median"]
            < summary["sdr_target_mixed"]["median"]
        )

    def table(self) -> str:
        summary = self.summary()
        rows = []
        for name, stats in summary.items():
            rows.append([name, stats["median"], stats["mean"], stats["min"], stats["max"]])
        return format_table(["metric", "median", "mean", "min", "max"], rows)


def run_overall_benchmark(
    context: Optional[ExperimentContext] = None,
    dataset: Optional[BenchmarkDataset] = None,
    instances_per_scenario: int = 2,
    scenarios: Sequence[str] = ("joint", "babble", "factory", "vehicle"),
    compute_wer: bool = False,
    recognizer: Optional[TemplateRecognizer] = None,
    seed: int = 0,
    num_workers: Optional[int] = None,
) -> OverallResult:
    """Fig. 11: SDR (and optionally WER) with and without NEC.

    For every mixture the recorded audio is formed by the ideal superposition
    of the shadow wave (the same recording model as the paper's benchmark);
    the "mixed" columns are the no-NEC baseline.  WER is computed by the
    template recogniser when ``compute_wer=True`` (it dominates the runtime,
    so SDR-only runs are the default for quick checks).

    ``num_workers`` shards the instances over forked workers via
    :func:`repro.eval.common.run_sharded`; every instance is protected by its
    own ``protect`` call wherever it runs, so the benchmark result does not
    depend on the worker count.
    """
    context = context if context is not None else prepare_context(seed=seed)
    config = context.config
    if dataset is None:
        dataset = compile_benchmark_dataset(
            context.corpus,
            context.target_speakers,
            context.other_speakers,
            instances_per_scenario=instances_per_scenario,
            scenarios=scenarios,
            duration=config.segment_seconds,
            seed=seed,
        )
    if compute_wer and recognizer is None:
        recognizer = TemplateRecognizer(sample_rate=config.sample_rate, seed=seed)

    def measure(_index: int, instance) -> InstanceMeasurement:
        system = context.system_for(instance.target_speaker)
        protection = system.protect(instance.mixed)
        recorded = system.superpose(instance.mixed, protection)
        measurement = InstanceMeasurement(
            scenario=instance.scenario,
            target_speaker=instance.target_speaker,
            sdr_target_mixed=sdr(instance.target_component.data, instance.mixed.data),
            sdr_target_recorded=sdr(instance.target_component.data, recorded.data),
            sdr_background_mixed=sdr(instance.background_component.data, instance.mixed.data),
            sdr_background_recorded=sdr(instance.background_component.data, recorded.data),
        )
        if compute_wer and recognizer is not None:
            measurement.wer_target_mixed = recognizer.wer(instance.mixed, instance.target_text)
            measurement.wer_target_recorded = recognizer.wer(recorded, instance.target_text)
            if instance.background_text:
                measurement.wer_background_mixed = recognizer.wer(
                    instance.mixed, instance.background_text
                )
                measurement.wer_background_recorded = recognizer.wer(
                    recorded, instance.background_text
                )
        return measurement

    result = OverallResult()
    result.measurements = run_sharded(measure, dataset.instances, num_workers=num_workers)
    return result
