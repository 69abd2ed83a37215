"""The traced run: per-layer numbers for every workload.

Each workload runs one untraced operation, then the same operation with
wrappers installed around the public functions of each layer.  The
wrappers live here, in the benchmark, and are removed afterwards; the
program is not edited.  Calls made on rank threads are attributed to rank
0 only (the ranks run the same SPMD program), so rank 0's wall time in a
layer is what is reported.  Time inside a layer includes waiting for the
interpreter lock held by the other rank.

Metric names are ``<workload>.<layer>.<metric>``.  Layer times are per
operation (per SCF iteration on scf-16, per apply on fd-64), so a
workload's layer times and its ``other`` term add up to its traced
operation time; ``*_share`` metrics are those times divided by it.
``trace.overhead_s`` is the traced minus the untraced operation time.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict

import numpy as np

from repro.core.engine import DistributedStencil, SequentialStencil
from repro.core.planner import Planner
from repro.des.core import Simulator
from repro.dft import SCFLoop
from repro.dft.band_ortho import BandRingExecutor
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer, step_category
from repro.stencil.kernel import apply_stencil_batch
from repro.transport.inproc import (
    GroupEndpoint,
    InprocTransport,
    RankEndpoint,
    RecvHandle,
)

from workloads import DES4096, FD64, RANKS, SCF16, Plan16k

#: The traced run ignores ``--seed``: the seed changes scf-16's density
#: and so its Poisson sweep count, and the traced run's counts must repeat
#: exactly between runs.
SEED = 0

#: engine step kinds split out of the ``comm`` category
_STEP_BUCKET = {"PostSend": "post", "PostRecv": "post", "WaitAll": "wait"}

#: untraced fd-64 applies behind the tail metric: its 90th percentile
#: then has ten samples above it
TAIL_APPLIES = 100

#: floating-point operations per point of the radius-2 (13-point)
#: stencil: 13 multiplies and 12 adds
_FLOPS_PER_POINT = 25


def _on_rank0() -> bool:
    return threading.current_thread().name == "rank0"


class Wrappers:
    """Timing/counting wrappers on class attributes, removed on exit."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._undo: list = []

    def __enter__(self) -> "Wrappers":
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def time(self, owner, name: str, key: str, rank0: bool = True) -> None:
        """Add the wall time and the number of calls of ``owner.name``."""
        orig = owner.__dict__[name]
        seconds, calls, clock = self.seconds, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            if rank0 and not _on_rank0():
                return orig(*args, **kwargs)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                seconds[key] += clock() - t0
                calls[key] += 1

        self._patch(owner, name, wrapper)

    def count(self, owner, name: str, key: str) -> None:
        """Count the calls of ``owner.name`` (any thread)."""
        orig = owner.__dict__[name]
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)

        self._patch(owner, name, wrapper)

    def step_hook(self, step, worker: int, start: float, end: float) -> None:
        """``DistributedStencil.apply``'s public ``on_step`` hook."""
        kind = type(step).__name__
        bucket = _STEP_BUCKET.get(kind) or step_category(kind)
        self.seconds[f"engine.{bucket}"] += end - start
        self.calls["engine.steps"] += 1

    def engine_by_instance(self, names: dict[int, str]) -> None:
        """Time ``DistributedStencil.apply`` per engine instance on rank 0,
        and pass it :meth:`step_hook` when the caller gives no hook."""
        orig = DistributedStencil.__dict__["apply"]
        seconds, calls, clock = self.seconds, self.calls, time.perf_counter

        def apply(engine, ep, grids, *args, **kwargs):
            if not _on_rank0():
                return orig(engine, ep, grids, *args, **kwargs)
            if kwargs.get("on_step") is None:
                kwargs["on_step"] = self.step_hook
            key = names.get(id(engine), "other")
            t0 = clock()
            try:
                return orig(engine, ep, grids, *args, **kwargs)
            finally:
                seconds[key] += clock() - t0
                calls[key] += 1

        self._patch(DistributedStencil, "apply", apply)

    def des(self) -> None:
        """Count the DES queue's scheduling calls and time ``Simulator.run``."""
        self.count(Simulator, "call_soon", "des.call_soon")
        self.count(Simulator, "call_at", "des.call_at")
        orig = Simulator.__dict__["run"]
        seconds, calls, clock = self.seconds, self.calls, time.perf_counter

        def run(sim, *args, **kwargs):
            before = sim.events_processed
            t0 = clock()
            try:
                return orig(sim, *args, **kwargs)
            finally:
                seconds["des.run"] += clock() - t0
                calls["des.events"] += sim.events_processed - before

        self._patch(Simulator, "run", run)


def _trace_block(prefix: str, untraced: float, traced: float) -> dict:
    return {
        f"{prefix}.trace.untraced_s": untraced,
        f"{prefix}.trace.traced_s": traced,
        f"{prefix}.trace.overhead_s": traced - untraced,
    }


def trace_scf(seed: int) -> tuple[dict, list[bool]]:
    w = SCF16(seed)
    untraced, first = w.run_once()
    registry = MetricsRegistry()
    with Wrappers() as tw:
        tw.engine_by_instance(
            {id(w.scf.poisson.engine): "poisson", id(w.scf.kinetic_engine): "kinetic"}
        )
        tw.time(BandRingExecutor, "band_matrix", "subspace")
        tw.time(BandRingExecutor, "rotate", "subspace")
        tw.time(RankEndpoint, "allreduce", "allreduce")
        tw.time(GroupEndpoint, "allreduce", "allreduce")
        tw.time(RecvHandle, "wait", "wait")
        traced, result = w.run_once(InprocTransport(RANKS, metrics=registry))
    checks = [w.check(first), w.check(result)]

    t0 = time.perf_counter()
    solve = w.scf.poisson.solve(result.density)
    solve_s = time.perf_counter() - t0
    checks.append(solve.converged)

    t0 = time.perf_counter()
    seq = SCFLoop(
        w.grid, w.v_ext, n_bands=w.BANDS, occupations=[2.0] * w.BANDS,
        tolerance=1e-4, max_iterations=30,
    ).run()
    seq_s = time.perf_counter() - t0
    checks.append(seq.converged)

    it = result.iterations
    s, n = tw.seconds, tw.calls
    layers = {
        "poisson": s["poisson"] / it,
        "kinetic": s["kinetic"] / it,
        "subspace": s["subspace"] / it,
        "allreduce": s["allreduce"] / it,
    }
    other = traced - sum(layers.values())
    p = "scf-16"
    m = {
        f"{p}.poisson.apply_s": layers["poisson"],
        f"{p}.poisson.applies": n["poisson"],
        f"{p}.poisson.solve_s": solve_s,
        f"{p}.poisson.iterations": solve.sweeps,
        f"{p}.kinetic.apply_s": layers["kinetic"],
        f"{p}.kinetic.applies": n["kinetic"],
        f"{p}.subspace.s": layers["subspace"],
        f"{p}.transport.allreduce_s": layers["allreduce"],
        f"{p}.transport.allreduces": n["allreduce"],
        f"{p}.transport.wait_s": s["wait"] / it,
        f"{p}.transport.messages": registry.total("transport_messages_total"),
        f"{p}.transport.bytes": registry.total("transport_bytes_total"),
        f"{p}.engine.compute_s": s["engine.compute"] / it,
        f"{p}.engine.post_s": s["engine.post"] / it,
        f"{p}.engine.wait_s": s["engine.wait"] / it,
        f"{p}.engine.steps": n["engine.steps"],
        f"{p}.scf.other_s": other,
        f"{p}.scf.iterations": it,
        f"{p}.poisson.share": layers["poisson"] / traced,
        f"{p}.kinetic.share": layers["kinetic"] / traced,
        f"{p}.subspace.share": layers["subspace"] / traced,
        f"{p}.transport.allreduce_share": layers["allreduce"] / traced,
        f"{p}.scf.other_share": other / traced,
        f"{p}.baseline.scf_seq_s": seq_s,
    }
    m.update(_trace_block(p, untraced, traced))
    return m, checks


def trace_fd(seed: int) -> tuple[dict, list[bool]]:
    w = FD64(seed)
    n = w.CHUNK
    first = w.apply(TAIL_APPLIES, check=True)
    untraced_times = [t for t, _ in first]
    untraced = statistics.median(untraced_times)
    registry = MetricsRegistry()
    with Wrappers() as tw:
        tw.time(RecvHandle, "wait", "wait")
        applies = w.apply(
            n, transport=InprocTransport(RANKS, metrics=registry),
            on_step=tw.step_hook, check=True,
        )
    traced = statistics.median(t for t, _ in applies)
    checks = [ok for _, ok in first + applies] + [w.gathered_ok()]

    # the kernel alone on rank 0's block stack
    stack = np.stack([w.blocks[0][g].data for g in range(w.GRIDS)])
    out = np.empty((w.GRIDS,) + w.blocks[0][0].interior.shape)
    scratch = np.empty(out.shape[1:])
    kernel = []
    for _ in range(5):
        t0 = time.perf_counter()
        apply_stencil_batch(stack, w.coeffs, out_stack=out, scratch=scratch)
        kernel.append(time.perf_counter() - t0)
    checks.append(all(
        np.array_equal(out[g], w.expected[0][g]) for g in range(w.GRIDS)
    ))
    kernel_points = out.size

    seq = []
    for _ in range(3):
        t0 = time.perf_counter()
        SequentialStencil(w.grid, w.coeffs).apply(w.arrays)
        seq.append(time.perf_counter() - t0)

    s, c = tw.seconds, tw.calls
    steps = {k: s[f"engine.{k}"] / n for k in ("compute", "post", "wait", "sync")}
    # the rest of the apply, including rank 0 waiting for the slower rank
    other = traced - sum(steps.values())
    p = "fd-64"
    m = {
        f"{p}.fd_mpts_per_s": w.points / untraced / 1e6,
        f"{p}.fd_apply_p90_s": statistics.quantiles(untraced_times, n=10)[-1],
        f"{p}.engine.compute_s": steps["compute"],
        f"{p}.engine.post_s": steps["post"],
        f"{p}.engine.wait_s": steps["wait"],
        f"{p}.engine.other_s": other,
        f"{p}.engine.steps": c["engine.steps"] / n,
        f"{p}.engine.compute_share": steps["compute"] / traced,
        f"{p}.engine.post_share": steps["post"] / traced,
        f"{p}.engine.wait_share": steps["wait"] / traced,
        f"{p}.engine.other_share": other / traced,
        f"{p}.transport.wait_s": s["wait"] / n,
        f"{p}.transport.messages": registry.total("transport_messages_total") / n,
        f"{p}.transport.bytes": registry.total("transport_bytes_total") / n,
        f"{p}.stencil.mpts_per_s": kernel_points / statistics.median(kernel) / 1e6,
        f"{p}.stencil.flops": kernel_points * _FLOPS_PER_POINT,
        f"{p}.stencil.bytes_computed": (stack.size + out.size) * stack.itemsize,
        f"{p}.baseline.fd_seq_mpts_per_s": w.points / statistics.median(seq) / 1e6,
    }
    m.update(_trace_block(p, untraced, traced))
    return m, checks


def trace_des(seed: int) -> tuple[dict, list[bool]]:
    w = DES4096(seed)
    untraced, _, result, spans = w.replay()
    checks = [w.check(result, spans)]
    del spans
    with Wrappers() as tw:
        tw.des()
        tw.time(SpanTracer, "extend_steps", "flush", rank0=False)
        traced, simulate_s, result, spans = w.replay()
    checks.append(w.check(result, spans))
    checks.append(tw.calls["des.events"] == result.events)
    s, c = tw.seconds, tw.calls
    read_s = traced - simulate_s
    build_s = simulate_s - s["des.run"] - s["flush"]
    p = "des-4096"
    m = {
        f"{p}.des.events": result.events,
        f"{p}.des.events_per_s": result.events / s["des.run"],
        f"{p}.des.call_soon": c["des.call_soon"],
        f"{p}.des.call_at": c["des.call_at"],
        f"{p}.des.run_s": s["des.run"],
        f"{p}.des.build_s": build_s,
        f"{p}.des.ir_steps": result.ir_steps,
        f"{p}.des.messages": result.messages,
        f"{p}.des.trace_spans": len(spans),
        f"{p}.des.trace_flush_s": s["flush"],
        f"{p}.des.trace_read_s": read_s,
        f"{p}.des.run_share": s["des.run"] / traced,
        f"{p}.des.build_share": build_s / traced,
        f"{p}.des.trace_share": (s["flush"] + read_s) / traced,
        f"{p}.sim.fd_makespan_s": result.total,
        f"{p}.sim.utilization": result.utilization,
    }
    m.update(_trace_block(p, untraced, traced))
    return m, checks


def trace_plan(seed: int) -> tuple[dict, list[bool]]:
    w = Plan16k(seed)
    untraced, first = w.rank()
    with Wrappers() as tw:
        tw.time(Planner, "enumerate", "price", rank0=False)
        tw.time(Planner, "evaluate", "price", rank0=False)
        tw.time(Planner, "cross_check", "des_check", rank0=False)
        tw.des()
        traced, result = w.rank()
    checks = [w.check(first), w.check(result)]
    s, c = tw.seconds, tw.calls
    top = result.choices[: w.TOP_K]
    p = "plan-16k"
    m = {
        f"{p}.planner.candidates": len(result.choices),
        f"{p}.planner.rejected": len(result.rejected),
        f"{p}.planner.price_s": s["price"],
        f"{p}.planner.des_check_s": s["des_check"],
        f"{p}.planner.model_vs_des_max": max(abs(ch.model_vs_des - 1) for ch in top),
        f"{p}.planner.price_share": s["price"] / traced,
        f"{p}.planner.des_check_share": s["des_check"] / traced,
        f"{p}.des.events": c["des.events"],
        f"{p}.des.events_per_s": c["des.events"] / s["des.run"],
        f"{p}.des.call_soon": c["des.call_soon"],
        f"{p}.des.call_at": c["des.call_at"],
        f"{p}.des.run_s": s["des.run"],
        f"{p}.sim.best_step_s": top[0].des_time,
    }
    m.update(_trace_block(p, untraced, traced))
    return m, checks


TRACES = (trace_scf, trace_fd, trace_des, trace_plan)
