"""A small immutable-ish audio container used throughout the reproduction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.dsp.filters import amplitude_to_db, db_to_amplitude, rms


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """Return ``values``; raise ``ValueError`` if any is NaN or Inf (public-boundary guard)."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} contains NaN or Inf values")
    return values


@dataclass
class AudioSignal:
    """A mono audio signal: samples plus a sample rate.

    The samples are stored as float64 in nominal full-scale units (typical
    speech sits around +-0.1 .. +-0.5).  Sound-pressure levels are attached via
    :meth:`with_spl` / :attr:`reference_spl` so that the propagation model can
    convert between digital amplitude and dB SPL.
    """

    data: np.ndarray
    sample_rate: int
    reference_spl: Optional[float] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64).reshape(-1)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    # -- basic properties -------------------------------------------------
    @property
    def num_samples(self) -> int:
        return int(self.data.size)

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.num_samples / self.sample_rate

    def rms(self) -> float:
        return rms(self.data)

    def peak(self) -> float:
        return float(np.max(np.abs(self.data))) if self.num_samples else 0.0

    def rms_db(self) -> float:
        """RMS level in dBFS."""
        return amplitude_to_db(self.rms())

    def copy(self) -> "AudioSignal":
        return AudioSignal(self.data.copy(), self.sample_rate, self.reference_spl)

    # -- level manipulation -----------------------------------------------
    def normalize(self, peak: float = 0.9) -> "AudioSignal":
        """Scale so that the absolute peak equals ``peak``."""
        current = self.peak()
        if current == 0:
            return self.copy()
        return AudioSignal(self.data * (peak / current), self.sample_rate, self.reference_spl)

    def scale(self, factor: float) -> "AudioSignal":
        return AudioSignal(self.data * factor, self.sample_rate, self.reference_spl)

    def scale_to_rms(self, target_rms: float) -> "AudioSignal":
        current = self.rms()
        if current == 0:
            return self.copy()
        return AudioSignal(self.data * (target_rms / current), self.sample_rate, self.reference_spl)

    def scale_to_db(self, target_db: float) -> "AudioSignal":
        """Scale so the RMS level equals ``target_db`` dBFS."""
        return self.scale_to_rms(db_to_amplitude(target_db))

    def with_spl(self, spl_db: float) -> "AudioSignal":
        """Attach the sound-pressure level (dB SPL) this signal represents at source."""
        return AudioSignal(self.data.copy(), self.sample_rate, reference_spl=spl_db)

    # -- length manipulation ------------------------------------------------
    def pad_to(self, num_samples: int) -> "AudioSignal":
        if num_samples < self.num_samples:
            raise ValueError("pad_to target is shorter than the signal; use trim_to")
        padded = np.pad(self.data, (0, num_samples - self.num_samples))
        return AudioSignal(padded, self.sample_rate, self.reference_spl)

    def trim_to(self, num_samples: int) -> "AudioSignal":
        return AudioSignal(self.data[:num_samples].copy(), self.sample_rate, self.reference_spl)

    def fit_to(self, num_samples: int) -> "AudioSignal":
        """Pad or trim to exactly ``num_samples`` samples."""
        if self.num_samples >= num_samples:
            return self.trim_to(num_samples)
        return self.pad_to(num_samples)

    def fit_to_duration(self, seconds: float) -> "AudioSignal":
        return self.fit_to(int(round(seconds * self.sample_rate)))

    def segment(self, start_seconds: float, end_seconds: float) -> "AudioSignal":
        start = max(int(round(start_seconds * self.sample_rate)), 0)
        end = min(int(round(end_seconds * self.sample_rate)), self.num_samples)
        if end <= start:
            raise ValueError("empty segment requested")
        return AudioSignal(self.data[start:end].copy(), self.sample_rate, self.reference_spl)

    # -- combination --------------------------------------------------------
    def _check_compatible(self, other: "AudioSignal") -> None:
        if self.sample_rate != other.sample_rate:
            raise ValueError(
                f"sample-rate mismatch: {self.sample_rate} vs {other.sample_rate}"
            )

    def __add__(self, other: "AudioSignal") -> "AudioSignal":
        self._check_compatible(other)
        length = max(self.num_samples, other.num_samples)
        mixed = np.zeros(length)
        mixed[: self.num_samples] += self.data
        mixed[: other.num_samples] += other.data
        return AudioSignal(mixed, self.sample_rate)

    def concatenate(self, other: "AudioSignal") -> "AudioSignal":
        self._check_compatible(other)
        return AudioSignal(np.concatenate([self.data, other.data]), self.sample_rate)

    @staticmethod
    def silence(duration: float, sample_rate: int) -> "AudioSignal":
        return AudioSignal(np.zeros(int(round(duration * sample_rate))), sample_rate)
