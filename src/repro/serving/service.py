"""The protection service: registry + shared batch + tick loop + sessions.

:class:`ProtectionService` is the process-level front door of multi-tenant
NEC serving.  One Selector (and one encoder) is shared by every tenant — the
Selector is speaker-conditioned through its d-vector input, so multi-tenancy
costs no extra weights:

- the :class:`~repro.serving.registry.EnrollmentRegistry` supplies (and
  persists) per-tenant d-vectors and the model checkpoints;
- every open :class:`~repro.serving.session.ProtectionSession` submits its
  completed segments to one shared :class:`~repro.core.selector.StreamBatch`,
  each row carrying that tenant's d-vector;
- the :class:`~repro.serving.loop.TickLoop` thread coalesces all pending
  segments — across sessions and tenants — into one Selector pass per tick.

Because coalescing is bit-transparent (each batched row equals the dedicated
single-stream pass exactly), the service's shadow waves are bit-identical to
running a private :class:`~repro.core.pipeline.StreamingProtector` per
stream; the batch only buys throughput.  Shutdown is graceful: the loop
drains every submitted segment, the batch is closed
(:meth:`StreamBatch.close`), and closed sessions can still collect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.audio.signal import AudioSignal
from repro.core.config import NECConfig
from repro.core.pipeline import NECSystem
from repro.core.selector import StreamBatch
from repro.serving.loop import TickLoop
from repro.serving.registry import EnrollmentRegistry
from repro.serving.session import ProtectionSession


@dataclass
class ServiceStats:
    """Aggregate serving counters (scheduling efficiency, not per-stream latency)."""

    ticks: int = 0
    busy_ticks: int = 0                 # ticks that inferred at least one segment
    segments_coalesced: int = 0
    max_batch_size: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Segments coalesced per non-empty tick."""
        return self.segments_coalesced / self.busy_ticks if self.busy_ticks else 0.0


class ProtectionService:
    """Multi-tenant protection serving on one shared StreamBatch.

    Bootstrap and serve::

        registry = EnrollmentRegistry(root, config=config)
        service = ProtectionService(registry, system=system)   # or registry-only
        service.enroll("alice", reference_clips)
        with service:
            session = service.open_session("alice")
            session.feed(chunk)
            results = session.collect(wait=True)
            session.close()

    Restart from disk (bit-identical weights and d-vectors)::

        service = ProtectionService(EnrollmentRegistry(root))

    When no ``system`` is passed, the registry must hold saved model
    checkpoints (:meth:`EnrollmentRegistry.save_models`) and the service is
    reconstructed from them via :meth:`EnrollmentRegistry.load_system`.
    """

    def __init__(
        self,
        registry: EnrollmentRegistry,
        system: Optional[NECSystem] = None,
        poll_interval_s: float = 0.05,
        latency_budget_ms: Optional[float] = None,
        autostart: bool = True,
    ) -> None:
        self.registry = registry
        if system is None:
            system = registry.load_system()
        if system.config != registry.config:
            raise ValueError("system config does not match the registry config")
        self.system = system
        self.config: NECConfig = system.config
        self.latency_budget_ms = latency_budget_ms
        self.batch = StreamBatch(system.selector)
        self.loop = TickLoop(self.batch, poll_interval_s=poll_interval_s)
        self.stats = ServiceStats()
        self._sessions: Dict[str, ProtectionSession] = {}
        self._shutdown = False
        if autostart:
            self.loop.start()

    # -- enrollment --------------------------------------------------------
    def enroll(
        self,
        tenant_id: str,
        reference_audios: Sequence[Union[AudioSignal, np.ndarray]],
    ) -> np.ndarray:
        """Enroll a tenant through the registry (persisted when rooted)."""
        return self.registry.enroll(tenant_id, reference_audios, self.system.encoder)

    def tenants(self) -> List[str]:
        return self.registry.tenants()

    # -- sessions ----------------------------------------------------------
    def open_session(
        self,
        tenant_id: str,
        stream_id: Optional[str] = None,
        latency_budget_ms: Optional[float] = None,
    ) -> ProtectionSession:
        """A new protected stream for an enrolled tenant.

        Each session gets its own lightweight :class:`NECSystem` view —
        sharing the service's Selector, encoder and config, carrying only the
        tenant's d-vector — so concurrent tenants coalesce into the same
        ticks while each row keeps its own conditioning vector.
        """
        if self._shutdown:
            raise RuntimeError("service is shut down; cannot open sessions")
        tenant_system = NECSystem(
            self.config, encoder=self.system.encoder, selector=self.system.selector
        )
        tenant_system.set_embedding(self.registry.embedding(tenant_id))
        session = ProtectionSession(
            self,
            tenant_id,
            tenant_system,
            stream_id=stream_id,
            latency_budget_ms=(
                latency_budget_ms
                if latency_budget_ms is not None
                else self.latency_budget_ms
            ),
        )
        if session.stream_id in self._sessions:
            raise ValueError(f"stream id '{session.stream_id}' is already open")
        self._sessions[session.stream_id] = session
        self.stats.sessions_opened += 1
        return session

    def session(self, stream_id: str) -> ProtectionSession:
        if stream_id not in self._sessions:
            raise KeyError(f"no open session '{stream_id}'")
        return self._sessions[stream_id]

    def sessions(self) -> List[ProtectionSession]:
        return list(self._sessions.values())

    def _session_closed(self, session: ProtectionSession) -> None:
        if self._sessions.pop(session.stream_id, None) is not None:
            self.stats.sessions_closed += 1

    # -- lifecycle ---------------------------------------------------------
    @property
    def running(self) -> bool:
        return self.loop.running and not self._shutdown

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no submitted segment awaits a tick (service-wide).

        Ticked results still belong to their sessions — collect per session.
        """
        self.loop.wake()
        return self.loop.wait_for(
            lambda: self.batch.pending_requests == 0, timeout=timeout
        )

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Graceful teardown: close sessions, drain and stop the loop, close the batch.

        With ``drain`` (default) every open session is flushed and drained —
        its remaining results land in ``session.drained_results`` — and every
        submitted segment gets its Selector pass before the tick thread exits.

        Teardown always completes: if draining fails (the tick loop died, or a
        session timed out), the remaining sessions close without draining,
        every session ends CLOSED, the loop stops and the batch closes — and
        only then is the first failure raised, once.  Idempotent.
        """
        if self._shutdown:
            return
        self._shutdown = True
        failure: Optional[Exception] = None
        for session in list(self._sessions.values()):
            try:
                session.close(drain=drain and failure is None, timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - re-raised after teardown
                failure = failure or exc
                session.close(drain=False)
        try:
            self.loop.shutdown(drain=drain and failure is None, timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - re-raised after teardown
            failure = failure or exc
        self._harvest_stats()
        self.batch.close()
        if failure is not None:
            raise failure

    def _harvest_stats(self) -> None:
        self.stats.ticks = self.batch.ticks
        self.stats.busy_ticks = self.batch.busy_ticks
        self.stats.segments_coalesced = self.batch.segments_coalesced
        self.stats.max_batch_size = self.batch.max_tick_segments

    def __enter__(self) -> "ProtectionService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown(drain=exc_type is None)
