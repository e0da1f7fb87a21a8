"""Compile a :class:`~repro.faults.plan.FaultPlan` onto the event kernel.

The injector is deliberately thin: :meth:`FaultInjector.arm` walks the
plan once and queues one ``call_later`` callback per fault edge
(injection, and — for windowed faults — clearing). *What* a fault does is delegated
to a handler object (:class:`~repro.faults.session.SessionChaos` in the
full simulation, recording stubs in tests) through two methods::

    token = handler.apply(fault, now_s)   # None = not applicable, skip
    handler.clear(fault, token, now_s)    # only for faults with an end

An empty plan schedules **nothing**: the simulation's event stream,
trace digest and RNG consumption are byte-identical to a run with no
injector constructed at all. That zero-overhead property is guarded by
``tests/faults/test_zero_fault_equivalence.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Protocol

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability
    from repro.sim.engine import Environment


class FaultHandler(Protocol):
    """What the injector needs from the thing that executes faults."""

    def apply(self, fault: Any, now_s: float) -> Optional[Any]:
        """Execute a fault; return a token for :meth:`clear`, or
        ``None`` when the fault found no applicable target."""

    def clear(self, fault: Any, token: Any, now_s: float) -> None:
        """End a windowed fault previously applied with ``token``."""


class FaultInjector:
    """Schedules a plan's faults as kernel events and tracks tallies."""

    def __init__(
        self,
        env: "Environment",
        plan: FaultPlan,
        handler: FaultHandler,
        obs: "Observability | None" = None,
        component: str = "chaos",
    ):
        self.env = env
        self.plan = plan
        self.handler = handler
        self._obs = obs
        self.component = component
        self.armed = False
        #: Faults that found a target and were applied.
        self.injected = 0
        #: Windowed faults whose end edge has fired.
        self.cleared = 0
        #: Faults that found no applicable target (e.g. a crash rank
        #: beyond the number of live supernodes).
        self.skipped = 0

    def arm(self) -> int:
        """Schedule every fault edge; returns the number scheduled.

        Idempotent-hostile on purpose: arming twice would double-fire
        faults, so a second call raises.
        """
        if self.armed:
            raise RuntimeError("injector is already armed")
        self.armed = True
        for fault in self.plan.faults:
            delay = fault.at_s - self.env.now
            if delay < 0:
                raise ValueError(
                    f"fault at t={fault.at_s} is in the past "
                    f"(now={self.env.now})")
            self.env.call_later(delay, self._fire, fault)
        return len(self.plan)

    # -- edges --------------------------------------------------------------
    def _fire(self, fault) -> None:
        now = self.env.now
        token = self.handler.apply(fault, now)
        if token is None:
            self.skipped += 1
            self._emit("fault.skip", fault)
            return
        self.injected += 1
        self._emit("fault.inject", fault)
        clear_at = self._clear_time(fault)
        if clear_at is None:
            return
        self.env.call_later(clear_at - now, self._clear, fault, token)

    def _clear(self, fault, token) -> None:
        """The fault's window ended: undo what :meth:`_fire` applied."""
        self.handler.clear(fault, token, self.env.now)
        self.cleared += 1
        self._emit("fault.clear", fault)

    @staticmethod
    def _clear_time(fault) -> Optional[float]:
        duration = getattr(fault, "duration_s", None)
        if duration is not None:
            return fault.at_s + duration
        return getattr(fault, "recover_at_s", None)

    def _emit(self, kind: str, fault) -> None:
        if self._obs is None:
            return
        data = {"fault": fault.kind}
        for name in ("supernode", "host_id", "duration_s", "recover_at_s",
                     "extra_s", "loss_fraction", "factor", "fraction"):
            value = getattr(fault, name, None)
            if value is not None:
                data[name] = value
        self._obs.emit(self.env.now, self.component, kind, **data)
