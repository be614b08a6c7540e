"""Load-balancing router over N simulated accelerator instances.

Each device is one :class:`repro.accel.AcceleratorSimulator`.  The fleet
may be *homogeneous* (the default: ``num_devices`` copies of one design
point) or *heterogeneous* — pass ``specs`` with one
``(AcceleratorConfig, FpgaDevice)`` pair per instance to mix design
points (e.g. a ZCU102 (8, 16) next to a ZCU111 (16, 16)).

Dispatch is earliest-*finish*: a batch runs on the device that completes
it soonest, accounting for both the device's queue and its design point's
service time for the batch's *padded* shape (``seq_len = bucket``,
``batch_size = len(batch)``).  For homogeneous fleets this degenerates to
the classic earliest-available rule.  Service times come from the
simulator's cycle-level schedule, so SLO accounting and balancing both see
the same latency model the paper's Tables III/IV use.

Latency estimates are memoized per (design point, seq_len, batch_size) —
the scheduler is analytic, so a shape's latency never changes across
calls, and identical design points share cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..accel.config import AcceleratorConfig
from ..accel.devices import FpgaDevice, ZCU102
from ..accel.simulator import AcceleratorSimulator
from ..bert.config import BertConfig

DeviceSpec = Tuple[AcceleratorConfig, FpgaDevice]


@dataclass
class DeviceState:
    """One accelerator instance's timeline."""

    device_id: int
    simulator: AcceleratorSimulator
    spec: DeviceSpec
    busy_until_ms: float = 0.0
    busy_ms: float = 0.0
    batches_served: int = 0
    requests_served: int = 0


@dataclass(frozen=True)
class Dispatch:
    """Where and when one batch executes."""

    device_id: int
    start_ms: float
    finish_ms: float
    service_ms: float


class DeviceRouter:
    """Earliest-finish routing across (possibly heterogeneous) accelerators."""

    def __init__(
        self,
        model_config: BertConfig,
        num_devices: int = 1,
        accel_config: AcceleratorConfig = None,
        device: FpgaDevice = ZCU102,
        specs: Optional[Sequence[DeviceSpec]] = None,
    ):
        """Args:
            model_config: Served model architecture (drives the schedule).
            num_devices: Fleet size for the homogeneous case (ignored when
                ``specs`` is given).
            accel_config: Design point of the homogeneous fleet.
            device: FPGA part of the homogeneous fleet.
            specs: Optional explicit per-instance ``(config, device)``
                pairs — the heterogeneous fleet constructor.

        Raises:
            ValueError: If the fleet would be empty.
        """
        if specs is None:
            if num_devices < 1:
                raise ValueError(f"num_devices must be >= 1, got {num_devices}")
            specs = [(accel_config or AcceleratorConfig(), device)] * num_devices
        specs = list(specs)
        if not specs:
            raise ValueError("specs must name at least one device")
        self.model_config = model_config
        self.devices: List[DeviceState] = [
            DeviceState(
                device_id=i,
                simulator=AcceleratorSimulator(cfg, dev),
                spec=(cfg, dev),
            )
            for i, (cfg, dev) in enumerate(specs)
        ]
        # Equal specs share one design index, so the memo key hashes an
        # int instead of the frozen config tuple.
        designs: Dict[DeviceSpec, int] = {}
        self._design_of: List[int] = [
            designs.setdefault(state.spec, len(designs)) for state in self.devices
        ]
        self._latency_cache: Dict[Tuple[int, int, int], float] = {}
        # Gray-failure seam: a straggling node serves every batch this
        # many times slower than the nominal schedule.  1.0 (the default)
        # takes no extra float op, so healthy runs keep their exact bytes;
        # the fleet's chaos layer toggles it over gray windows.
        self.slowdown = 1.0

    def estimate_latency_ms(
        self, seq_len: int, batch_size: int, device_id: int = 0
    ) -> float:
        """Cycle-accurate latency of one (padded) batch on one device.

        Args:
            seq_len: Padded sequence length (the batch's bucket).
            batch_size: Number of rows in the batch.
            device_id: Which instance's design point to price (instances
                sharing a design point share cache entries).

        Returns:
            Service milliseconds from the simulator's cycle-level schedule,
            memoized per ``(design point, seq_len, batch_size)`` — and cheap
            even on a miss, because the workload derivation and the
            scheduler's own results are memoized underneath.
        """
        key = (self._design_of[device_id], seq_len, batch_size)
        cached = self._latency_cache.get(key)
        if cached is None:
            state = self.devices[device_id]
            report = state.simulator.simulate(
                self.model_config, seq_len=seq_len, batch_size=batch_size
            )
            cached = self._latency_cache[key] = report.latency_ms
        return cached

    def dispatch(self, seq_len: int, batch_size: int, ready_ms: float) -> Dispatch:
        """Place a batch on the earliest-finishing device; advance its clock.

        A slow-but-idle device can lose to a fast-but-queued one: the rule
        minimizes ``max(ready, busy_until) + service``, with ties broken by
        lower ``busy_until`` then device id — which reduces exactly to
        earliest-available for homogeneous fleets.

        Args:
            seq_len: Padded sequence length (the batch's bucket).
            batch_size: Number of rows in the batch.
            ready_ms: Simulated time the batch became ready to run.

        Returns:
            The :class:`Dispatch` record (device, start/finish/service times).
        """

        def finish_key(state: DeviceState) -> Tuple[float, float, int]:
            service = self.estimate_latency_ms(seq_len, batch_size, state.device_id)
            start = max(ready_ms, state.busy_until_ms)
            return (start + service, state.busy_until_ms, state.device_id)

        device = min(self.devices, key=finish_key)
        service_ms = self.estimate_latency_ms(seq_len, batch_size, device.device_id)
        if self.slowdown != 1.0:
            # Gray window: realized service stretches; device selection
            # (above) deliberately stays nominal — a router cannot know a
            # node went gray, only the circuit breaker can observe it.
            service_ms = service_ms * self.slowdown
        start_ms = max(ready_ms, device.busy_until_ms)
        finish_ms = start_ms + service_ms
        device.busy_until_ms = finish_ms
        device.busy_ms += service_ms
        device.batches_served += 1
        device.requests_served += batch_size
        return Dispatch(
            device_id=device.device_id,
            start_ms=start_ms,
            finish_ms=finish_ms,
            service_ms=service_ms,
        )

    def block_until(self, ready_ms: float) -> None:
        """Push every instance's availability to at least ``ready_ms``.

        The cold-start hook: a replica that just booted spends its weight
        load + warm-up window unavailable, so the fleet layer blocks the
        router for that long before the first batch can start.
        """
        for state in self.devices:
            state.busy_until_ms = max(state.busy_until_ms, ready_ms)

    def busy_ms_by_device(self) -> Dict[int, float]:
        """Total busy milliseconds accumulated per device id."""
        return {d.device_id: d.busy_ms for d in self.devices}

    @property
    def num_devices(self) -> int:
        return len(self.devices)


def service_table(
    model_config: BertConfig,
    accel_config: AcceleratorConfig,
    device: FpgaDevice,
    buckets: Sequence[int],
    max_batch_size: int,
):
    """Batch-price table for one design point: ``table[b][s]`` ms.

    The columnar fleet engine's pricing hook: every service time a fleet
    run can ever dispatch, precomputed as a ``(len(buckets),
    max_batch_size + 1)`` float64 array (column 0 unused — batch sizes are
    1-based).  Prices come from the *same* memoized simulator call
    :meth:`DeviceRouter.estimate_latency_ms` uses, so the table and the
    event-loop router agree bit for bit.

    Args:
        model_config: Served model architecture.
        accel_config: The design point to price.
        device: FPGA part hosting it.
        buckets: Padded sequence lengths (the batcher's buckets).
        max_batch_size: Largest batch the batcher can flush.

    Returns:
        ``numpy.ndarray`` of shape ``(len(buckets), max_batch_size + 1)``.
    """
    import numpy as np

    simulator = AcceleratorSimulator(accel_config, device)
    table = np.zeros((len(buckets), max_batch_size + 1), dtype=np.float64)
    for b, bucket in enumerate(buckets):
        for size in range(1, max_batch_size + 1):
            report = simulator.simulate(model_config, seq_len=bucket, batch_size=size)
            table[b, size] = report.latency_ms
    return table
