"""Preemptible host-CPU model with exact time accounting.

The CPU runs two classes of work:

* **user contexts** — application code consuming CPU time via
  :meth:`CpuContext.compute`; several contexts share the CPU round-robin
  with a configurable quantum (one context per node in the paper's setup,
  two in the netperf baseline);
* **kernel work** — interrupt handlers and traps submitted via
  :meth:`CPU.kernel_work`; kernel work always preempts user work and is
  serviced FIFO.

The model is exact: a ``compute(d)`` call occupies the CPU for precisely
``d`` seconds of *user* time, stretched in wall-clock time by any kernel
work that arrives meanwhile.  The conservation law

    ``user_time + kernel_time + idle_time == elapsed``

holds at every instant and is enforced by tests — it is what makes COMB's
availability metric meaningful.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..config import CpuConfig
from ..sim.engine import Engine
from ..sim.errors import SimulationError
from ..sim.events import Event


class CpuContext:
    """A schedulable user-level execution context (one process's share).

    Create via :meth:`CPU.new_context`.  A context may have at most one
    outstanding :meth:`compute` call; application processes interleave
    ``compute`` with waits on other events (message completions, timers),
    during which the context does not occupy the CPU.
    """

    __slots__ = ("cpu", "name", "user_time_s", "_remaining", "_event",
                 "_spin_release", "_in_trap")

    def __init__(self, cpu: "CPU", name: str):
        self.cpu = cpu
        self.name = name
        #: Total user CPU seconds consumed so far (completed segments only;
        #: use :meth:`CPU.context_time` for an up-to-the-instant figure).
        self.user_time_s = 0.0
        self._remaining: Optional[float] = None
        self._event: Optional[Event] = None
        #: Set when a spin's awaited event fired while this context was
        #: off-CPU; the spin then ends the instant the context runs again.
        self._spin_release = False
        #: Nesting depth of outstanding traps (see :meth:`trap`).
        self._in_trap = 0

    def trap(self, cost_s: float, fn=None, label: str = "") -> Event:
        """Synchronous kernel work on behalf of this context (a syscall).

        Unlike :meth:`CPU.kernel_work` (asynchronous interrupt work), a trap
        preserves the calling context's scheduling slot: the process resumes
        its own quantum when the kernel returns instead of rotating to the
        back of the run queue.
        """
        return self.cpu.trap(self, cost_s, fn, label)

    def compute(self, seconds: float) -> Event:
        """Consume ``seconds`` of user CPU time; the event fires when done.

        The wall-clock duration is at least ``seconds`` and grows with any
        preempting kernel work or competing user contexts.
        """
        return self.cpu._submit_compute(self, seconds)

    @property
    def busy(self) -> bool:
        """``True`` while a compute request is outstanding."""
        return self._event is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CpuContext {self.name!r} user={self.user_time_s:.6f}s>"


class _KernelJob:
    __slots__ = ("cost", "fn", "event", "label")

    def __init__(self, cost: float, fn, event: Optional[Event], label: str):
        self.cost = cost
        self.fn = fn
        self.event = event
        self.label = label


class _Grant:
    """Bookkeeping for the user context currently holding the CPU."""

    __slots__ = ("ctx", "resume_time", "quantum_left", "epoch", "untimed")

    def __init__(self, ctx: CpuContext, now: float, quantum: float):
        self.ctx = ctx
        self.resume_time = now
        self.quantum_left = quantum
        self.epoch = 0
        #: ``True`` when an infinite spin runs with no competitor, so no
        #: rotation timer is armed (it is armed lazily if contention
        #: appears).  Keeps deadlocked spins from generating endless
        #: rotation events — the schedule drains and deadlock is detectable.
        self.untimed = False


class CPU:
    """A single host processor shared by user contexts and kernel work."""

    def __init__(self, engine: Engine, config: CpuConfig, name: str = "cpu"):
        self.engine = engine
        self.config = config
        self.name = name
        self._kernel_queue: Deque[_KernelJob] = deque()
        self._kernel_job: Optional[_KernelJob] = None
        self._kernel_started = 0.0
        self._running: Optional[_Grant] = None
        self._preempted: Optional[_Grant] = None
        self._ready: Deque[CpuContext] = deque()
        #: Completed kernel CPU seconds.
        self.kernel_time_s = 0.0
        #: Completed user CPU seconds, all contexts.
        self.user_time_s = 0.0
        #: Per-label kernel-work profile: label -> [count, total_seconds].
        #: Transports label their traps/handlers ("isend_trap",
        #: "portals_rx", ...), so this breaks down exactly where kernel
        #: time went — the instrument behind the calibration in
        #: EXPERIMENTS.md.
        self.kernel_profile: dict = {}
        self._created = engine.now
        self._contexts: list = []

    # ------------------------------------------------------------- factories
    def new_context(self, name: str = "") -> CpuContext:
        """Create a user context scheduled on this CPU."""
        ctx = CpuContext(self, name or f"{self.name}.ctx{len(self._contexts)}")
        self._contexts.append(ctx)
        return ctx

    # ------------------------------------------------------------ kernel side
    def kernel_work(
        self,
        cost_s: float,
        fn: Optional[Callable[[], None]] = None,
        label: str = "",
        want_event: bool = True,
    ) -> Optional[Event]:
        """Submit ``cost_s`` seconds of kernel-mode work (FIFO, preempts user).

        ``fn`` runs when the work completes (use it to commit the state
        change the kernel work represents, e.g. "copy done").  The returned
        event fires at the same instant.  Callers that only care about
        ``fn`` (interrupt delivery) pass ``want_event=False`` and get
        ``None`` back — no completion event is allocated.
        """
        if cost_s < 0:
            raise ValueError("negative kernel work cost")
        job = _KernelJob(cost_s, fn, Event(self.engine) if want_event else None, label)
        self._kernel_queue.append(job)
        if self._running is not None:
            self._pause_user()
        if self._kernel_job is None:
            self._start_next_kernel()
        return job.event

    def trap(self, ctx: CpuContext, cost_s: float, fn=None, label: str = "") -> Event:
        """Kernel work on behalf of ``ctx`` that keeps its scheduling slot.

        While the trap is outstanding, ``ctx``'s parked grant does not lapse
        in :meth:`_dispatch`, so the context continues its quantum when the
        kernel returns — matching real syscall semantics.
        """
        ctx._in_trap += 1
        ev = self.kernel_work(cost_s, fn, label=label)
        assert ev is not None

        def _leave(_ev) -> None:
            ctx._in_trap -= 1

        ev.callbacks.append(_leave)
        return ev

    @property
    def in_kernel(self) -> bool:
        """``True`` while kernel work occupies the CPU."""
        return self._kernel_job is not None


    # -------------------------------------------------------------- user side
    def _submit_compute(self, ctx: CpuContext, seconds: float) -> Event:
        if seconds < 0:
            raise ValueError("negative compute duration")
        if ctx._event is not None:
            raise SimulationError(f"{ctx.name} already has an outstanding compute")
        ev = Event(self.engine)
        if seconds == 0.0:
            ev.succeed()
            return ev
        ctx._event = ev
        ctx._remaining = seconds
        self._enqueue_ctx(ctx)
        self._dispatch()
        return ev

    def _enqueue_ctx(self, ctx: CpuContext) -> None:
        """Queue a context for dispatch, honouring quantum continuation.

        A context whose previous grant is parked in ``_preempted`` (it just
        finished a compute segment, or ended a spin, within its timeslice)
        continues on that grant rather than re-queueing behind other ready
        contexts — real schedulers let the running process keep its quantum
        across back-to-back system calls.
        """
        if self._preempted is not None and self._preempted.ctx is ctx:
            return  # _dispatch resumes the parked grant
        self._ready.append(ctx)
        # Contention appeared: a lazily-untimed spinner must now rotate.
        grant = self._running
        if grant is not None and grant.untimed:
            grant.untimed = False
            self._arm_timer(grant)

    def spin_until(self, ctx: CpuContext, event: Event) -> Event:
        """Busy-wait: occupy the CPU with ``ctx`` until ``event`` fires.

        Models an MPI-style busy-wait loop without simulating each loop
        iteration: the context consumes user CPU time (preemptible by kernel
        work, sharing round-robin with other contexts) until the moment
        ``event`` triggers.  The returned event fires at that moment.

        The caller can measure the user time actually consumed with
        :meth:`context_time` before/after — under kernel preemption it is
        less than the wall-clock wait.
        """
        done = Event(self.engine)
        if event.triggered:
            done.succeed()
            return done
        if ctx._event is not None:
            raise SimulationError(f"{ctx.name} already has an outstanding compute")
        ctx._event = done
        ctx._remaining = float("inf")
        self._enqueue_ctx(ctx)
        self._dispatch()

        def _stop(_ev) -> None:
            self._finish_spin(ctx)

        event.callbacks.append(_stop)
        return done

    def _finish_spin(self, ctx: CpuContext) -> None:
        ev = ctx._event
        if ev is None or ev.triggered:
            return
        grant = self._running
        if grant is not None and grant.ctx is ctx:
            # The spinner holds the CPU: it observes the event right now.
            now = self.engine._now
            elapsed_s = now - grant.resume_time
            ctx.user_time_s += elapsed_s
            self.user_time_s += elapsed_s
            grant.quantum_left -= elapsed_s
            grant.epoch += 1
            self._running = None
            # Park the grant: the spinner usually issues its next CPU
            # request immediately (progress pass) and should keep its slot.
            self._preempted = grant
            ctx._event = None
            ctx._remaining = None
            ev.succeed()
            if self._ready or self._kernel_queue:
                self._defer_dispatch()
            # Otherwise nothing can claim the CPU except a fresh request,
            # and every entry point (_submit_compute, spin_until,
            # kernel_work) dispatches itself — the parked grant either
            # continues or lapses there, with identical semantics.
        else:
            # Off-CPU (preempted by kernel work or waiting in the ready
            # queue): a busy-wait loop only *observes* the event once it is
            # scheduled again, so keep spinning on the queue and release at
            # the next grant (see _dispatch).
            ctx._spin_release = True

    def _defer_dispatch(self) -> None:
        """Dispatch at the end of the current timestamp.

        Gives processes resumed by events at this instant the chance to
        re-request the CPU (continuing their quantum) before the slot is
        handed to another ready context.
        """
        self.engine._call(self._dispatch_cb, None)

    def _dispatch_cb(self, _arg) -> None:
        self._dispatch()

    # ------------------------------------------------------------- accounting
    def elapsed(self) -> float:
        """Wall-clock seconds since this CPU was created."""
        return self.engine.now - self._created

    def snapshot(self) -> dict:
        """Instantaneous accounting: user, kernel and idle seconds.

        Includes the partially-completed current segment, so the three
        figures always sum to :meth:`elapsed`.
        """
        now = self.engine.now
        user = self.user_time_s
        kernel = self.kernel_time_s
        if self._running is not None:
            user += now - self._running.resume_time
        if self._kernel_job is not None:
            kernel += now - self._kernel_started
        idle = self.elapsed() - user - kernel
        return {"user_s": user, "kernel_s": kernel, "idle_s": idle}

    def profile_report(self) -> str:
        """Human-readable kernel-time breakdown by label."""
        lines = [f"{self.name}: kernel {self.kernel_time_s * 1e3:.3f} ms"]
        for label, (count, total) in sorted(
            self.kernel_profile.items(), key=lambda kv: -kv[1][1]
        ):
            lines.append(
                f"  {label or '<unlabelled>':20s} n={count:<7d} "
                f"total={total * 1e3:9.3f} ms  "
                f"mean={total / count * 1e6:7.2f} us"
            )
        return "\n".join(lines)

    def context_time(self, ctx: CpuContext) -> float:
        """User CPU seconds consumed by ``ctx`` up to this instant."""
        t = ctx.user_time_s
        if self._running is not None and self._running.ctx is ctx:
            t += self.engine._now - self._running.resume_time
        return t

    # --------------------------------------------------------------- internal
    def _start_next_kernel(self) -> None:
        job = self._kernel_queue.popleft()
        self._kernel_job = job
        self._kernel_started = self.engine._now
        # A continuation with the heap key of engine.timeout(job.cost).
        # The job rides as its argument (a completion ``fn`` may submit
        # further kernel work before this callback finishes, so
        # ``_kernel_job`` is not reliable at fire time).
        self.engine._call(self._kernel_done_cb, job, job.cost)

    def _kernel_done_cb(self, job: _KernelJob) -> None:
        self.kernel_time_s += job.cost
        entry = self.kernel_profile.get(job.label)
        if entry is None:
            entry = self.kernel_profile[job.label] = [0, 0.0]
        entry[0] += 1
        entry[1] += job.cost
        self._kernel_job = None
        if job.fn is not None:
            job.fn()
        ev = job.event
        if ev is not None and not ev.triggered:
            if ev.callbacks:
                ev.succeed()
            else:
                # Nobody is listening (fn-style interrupt work): complete
                # in place instead of a heap round-trip.  A later yield
                # of this event still resumes inline via the
                # processed-event path in Process._resume.
                ev._ok = True
                ev._value = None
                ev._processed = True
                ev.callbacks = None
        if self._kernel_job is not None:
            # ``fn`` submitted kernel work, which already started the next
            # queued job: starting another here would double-book the CPU.
            return
        if self._kernel_queue:
            self._start_next_kernel()
        else:
            self._dispatch()

    def _pause_user(self) -> None:
        grant = self._running
        assert grant is not None
        now = self.engine._now
        elapsed_s = now - grant.resume_time
        grant.ctx._remaining -= elapsed_s
        grant.ctx.user_time_s += elapsed_s
        self.user_time_s += elapsed_s
        grant.quantum_left -= elapsed_s
        grant.epoch += 1
        self._running = None
        self._preempted = grant

    def _dispatch(self) -> None:
        if self._kernel_job is not None or self._running is not None:
            return
        if self._kernel_queue:
            self._start_next_kernel()
            return
        grant: Optional[_Grant] = None
        if self._preempted is not None:
            grant = self._preempted
            self._preempted = None
            if grant.ctx._event is None:
                if grant.ctx._in_trap > 0:
                    # Mid-trap (syscall in flight): the context keeps its
                    # slot; retry once the trap unwinds.
                    self._preempted = grant
                    self._defer_dispatch()
                    return
                # The context did not re-request the CPU: it yielded
                # voluntarily, so the parked grant lapses.
                grant = None
            elif grant.quantum_left <= 0:
                # Quantum exhausted while preempted: rotate to the tail.
                if self._ready:
                    self._ready.append(grant.ctx)
                    grant = None
                else:
                    grant.quantum_left = self.config.timeslice_s
        if grant is None:
            if not self._ready:
                return
            ctx = self._ready.popleft()
            grant = _Grant(ctx, self.engine._now, self.config.timeslice_s)
        grant.resume_time = self.engine._now
        self._running = grant
        if grant.ctx._spin_release:
            # The awaited event fired while this context was off-CPU: the
            # spin ends the instant the context is scheduled again.
            self._release_spin_grant(grant)
            return
        self._arm_timer(grant)

    def _release_spin_grant(self, grant: _Grant) -> None:
        ctx = grant.ctx
        ctx._spin_release = False
        grant.epoch += 1
        self._running = None
        self._preempted = grant
        ev = ctx._event
        ctx._event = None
        ctx._remaining = None
        if ev is not None and not ev.triggered:
            ev.succeed()
        if self._ready or self._kernel_queue:
            self._defer_dispatch()

    def _arm_timer(self, grant: _Grant) -> None:
        ctx = grant.ctx
        # An uncontended infinite spin needs no rotation timer; it is armed
        # lazily by _enqueue_ctx if a competitor shows up.
        if (ctx._remaining == float("inf") and not self._ready
                and self._preempted is None):
            grant.untimed = True
            return
        grant.untimed = False
        # The timer may be (re)armed mid-run (lazy arming): account for the
        # stretch already executed since the grant resumed.
        already = self.engine._now - grant.resume_time
        # Clamp float drift: repeated preemption subtracts elapsed times and
        # can leave remainders a few ulp below zero.
        quantum = max(grant.quantum_left - already, 0.0)
        remaining = max(ctx._remaining - already, 0.0)
        completes = remaining <= quantum
        run_for = remaining if completes else quantum

        # Timer state rides as the continuation's argument; a bound method
        # replaces a per-arm closure on this hot path.
        self.engine._call(self._timer_cb, (grant, grant.epoch, completes),
                          run_for)

    def _timer_cb(self, state: tuple) -> None:
        grant, epoch, completes = state
        if self._running is not grant or grant.epoch != epoch:
            return  # stale timer: grant was preempted meanwhile
        ctx = grant.ctx
        now = self.engine._now
        elapsed_s = now - grant.resume_time
        ctx.user_time_s += elapsed_s
        self.user_time_s += elapsed_s
        ctx._remaining -= elapsed_s
        grant.quantum_left -= elapsed_s
        self._running = None
        if completes:
            ev = ctx._event
            ctx._event = None
            ctx._remaining = None
            if ev is not None and not ev.triggered:
                ev.succeed()
            # Park the grant so an immediate follow-up request from the
            # same context continues its quantum.
            self._preempted = grant
            if self._ready or self._kernel_queue:
                self._defer_dispatch()
        else:
            # Quantum expiry: rotate to the tail of the ready queue.
            self._ready.append(ctx)
            self._dispatch()
