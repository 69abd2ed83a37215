"""The benchmark workloads: seeded inputs, one timed operation, checks.

Each workload class builds everything before its first timed operation in
``__init__`` (that is what ``setup_s`` times).  The end-to-end workloads
expose ``ops(seconds)``, which runs the timed operation for about
``seconds`` and returns one :class:`Op` per operation, each already
checked.

Every workload runs in one process with at most ``RANKS`` rank threads:
the reference host has two cores, and four rank threads make the OS
scheduler, not the program, set the timing.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.approaches import approach_by_name
from repro.core.engine import DistributedStencil, SequentialStencil
from repro.core.jobspec import JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec
from repro.core.planner import Planner
from repro.core.schedule import clear_plan_cache
from repro.core.simrun import simulate_spec
from repro.dft.distributed_scf import DistributedSCF
from repro.grid.array import gather, scatter
from repro.grid.decompose import Decomposition
from repro.grid.grid import GridDescriptor
from repro.grid.halo import HaloSpec
from repro.obs.spans import SpanTracer
from repro.stencil.coefficients import laplacian_coefficients
from repro.transport.inproc import InprocTransport, run_ranks

RANKS = 2
APPROACH = "flat-optimized"


@dataclass
class Op:
    """One timed operation: its wall seconds and whether its output checked."""

    seconds: float
    ok: bool


def _timed_loop(seconds: float, op) -> list[Op]:
    """Call ``op()`` (which returns a list of :class:`Op`) for ``seconds``.

    At least one call is made, and another starts only if it is expected
    to end within ``seconds``, so a run's length stays near ``seconds``
    even when one call takes most of it.  Garbage from the previous call
    is collected untimed, so its objects do not slow the collector during
    the next.
    """
    out: list[Op] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        out += op()
        end = time.perf_counter()
        if end - start + (end - t0) > seconds:
            return out


# -- scf-16 ---------------------------------------------------------------------
def trap_potential(n: int, spacing: float) -> tuple[GridDescriptor, np.ndarray]:
    """The anisotropic harmonic trap of the distributed-SCF tests."""
    gd = GridDescriptor((n, n, n), pbc=(False,) * 3, spacing=spacing)
    x, y, z = gd.coordinates()
    c = (n + 1) * spacing / 2
    v = 0.5 * ((x - c) ** 2 + 1.44 * (y - c) ** 2 + 1.96 * (z - c) ** 2)
    return gd, v


class SCF16:
    """``DistributedSCF.run`` for a fixed number of iterations at 16^3."""

    name = "scf-16"
    N = 16
    SPACING = 0.45
    BANDS = 4
    ITERATIONS = 2
    #: The Poisson solve stops at a relative residual of 1e-7.  A 1-rank
    #: and a 2-rank run differ only by reduction round-off, which can move
    #: that stop by a sweep; the resulting energy shift stays below ten
    #: times the Poisson tolerance (the test suite's rank-count invariance
    #: bound is the same 1e-6 Ha).
    ENERGY_ATOL = 1e-6

    def __init__(self, seed: int):
        self.grid, self.v_ext = trap_potential(self.N, self.SPACING)
        self.spec = JobSpec(
            problem=ProblemSpec.from_grid(self.grid, self.BANDS),
            layout=LayoutSpec(approach=APPROACH, n_cores=RANKS),
            runtime=RuntimeSpec(
                tolerance=0.0, max_iterations=self.ITERATIONS, seed=seed
            ),
        )
        self.scf = DistributedSCF.from_spec(self.spec, self.v_ext)
        self._reference = None

    def reference(self):
        """The same spec and seed on one rank (computed once, untimed)."""
        if self._reference is None:
            one = replace(self.spec, layout=replace(self.spec.layout, n_cores=1))
            self._reference = DistributedSCF.from_spec(one, self.v_ext).run()
        return self._reference

    def check(self, result) -> bool:
        ref = self.reference()
        return (
            result.iterations == self.ITERATIONS
            and bool(np.all(np.abs(result.energies - ref.energies) <= self.ENERGY_ATOL))
            and abs(result.total_energy - ref.total_energy) <= self.ENERGY_ATOL
        )

    def run_once(self, transport=None):
        """One timed ``run``: (seconds per iteration, result)."""
        t0 = time.perf_counter()
        result = self.scf.run(transport=transport)
        return (time.perf_counter() - t0) / result.iterations, result

    def ops(self, seconds: float) -> list[Op]:
        self.reference()

        def op() -> list[Op]:
            per_iter, result = self.run_once()
            return [Op(per_iter, self.check(result))]

        return _timed_loop(seconds, op)


# -- fd-64 ----------------------------------------------------------------------
class FD64:
    """Steady-state batched ``DistributedStencil.apply`` over 32 grids of 64^3."""

    name = "fd-64"
    SHAPE = (64, 64, 64)
    GRIDS = 32
    BATCH = 4
    #: applies per ``run_ranks`` call; each is timed on its own
    CHUNK = 8

    def __init__(self, seed: int):
        self.grid = GridDescriptor(self.SHAPE, spacing=0.2)
        rng = np.random.default_rng(seed)
        self.arrays = {g: rng.standard_normal(self.SHAPE) for g in range(self.GRIDS)}
        self.coeffs = laplacian_coefficients(2, spacing=self.grid.spacing)
        self.decomp = Decomposition(self.grid, RANKS)
        self.engine = DistributedStencil(self.decomp, self.coeffs)
        self.approach = approach_by_name(APPROACH)
        halo = HaloSpec(self.coeffs.radius)
        per_grid = {g: scatter(a, self.decomp, halo) for g, a in self.arrays.items()}
        self.blocks = [
            {g: per_grid[g][r] for g in range(self.GRIDS)} for r in range(RANKS)
        ]
        self.out: list = [None] * RANKS
        self.expected = None
        self.points = self.GRIDS * self.grid.n_points
        # first cold call: allocates the output blocks and fills the arena
        self.apply(1)

    def reference(self):
        """``SequentialStencil`` output, cut into each rank's interiors."""
        if self.expected is None:
            seq = SequentialStencil(self.grid, self.coeffs).apply(self.arrays)
            halo = HaloSpec(self.coeffs.radius)
            self.sequential = seq
            self.expected = [
                {g: scatter(seq[g], self.decomp, halo)[r].interior.copy()
                 for g in range(self.GRIDS)}
                for r in range(RANKS)
            ]
        return self.expected

    def apply(self, n: int, transport=None, on_step=None, check=False):
        """``n`` applies on ``RANKS`` threads.

        Returns ``(seconds, ok)`` per apply: the slower rank's time (ranks
        start each apply together after a barrier) and whether every
        rank's output matched the sequential result bit for bit.
        """
        times = [[0.0] * n for _ in range(RANKS)]
        oks = [[True] * n for _ in range(RANKS)]
        expected = self.reference() if check else None

        def rank_fn(ep):
            r = ep.rank
            grids = self.blocks[r]
            hook = on_step if r == 0 else None
            for i in range(n):
                ep.barrier()
                t0 = time.perf_counter()
                self.out[r] = self.engine.apply(
                    ep, grids, approach=self.approach, batch_size=self.BATCH,
                    out=self.out[r], on_step=hook,
                )
                times[r][i] = time.perf_counter() - t0
                if expected is not None:
                    oks[r][i] = all(
                        np.array_equal(self.out[r][g].interior, expected[r][g])
                        for g in range(self.GRIDS)
                    )

        run_ranks(RANKS, rank_fn, transport=transport)
        return [
            (max(times[r][i] for r in range(RANKS)),
             all(oks[r][i] for r in range(RANKS)))
            for i in range(n)
        ]

    def gathered_ok(self) -> bool:
        """The gathered output equals ``SequentialStencil`` bit for bit."""
        self.reference()
        return all(
            np.array_equal(
                gather([self.out[r][g] for r in range(RANKS)]), self.sequential[g]
            )
            for g in range(self.GRIDS)
        )

    def ops(self, seconds: float) -> list[Op]:
        self.reference()
        transport = InprocTransport(RANKS)

        def op() -> list[Op]:
            return [Op(t, ok) for t, ok in
                    self.apply(self.CHUNK, transport=transport, check=True)]

        out = _timed_loop(seconds, op)
        if not self.gathered_ok():
            out[-1] = Op(out[-1].seconds, False)
        return out


# -- des-4096 ---------------------------------------------------------------------
class DES4096:
    """One traced paper-scale replay plus reading its spans.

    Deterministic: the seed is not used.  Each replay starts from an empty
    plan cache, as a ``repro doctor`` process does.
    """

    name = "des-4096"
    #: reproduction outputs of this replay; a change that only speeds up
    #: the simulator must keep them bit-identical
    MAKESPAN = 0.00036277876541373203
    UTILIZATION = 1.0
    IR_STEPS = 409600
    MESSAGES = 98304

    def __init__(self, seed: int):
        self.spec = JobSpec(
            problem=ProblemSpec(shape=(64, 64, 64), n_grids=16),
            layout=LayoutSpec(approach=APPROACH, n_cores=4096, batch_size=4),
        )
        self.events = None

    def replay(self):
        """One traced replay from a cold plan cache.

        Returns ``(seconds, simulate_s, result, spans)``: the whole
        operation, and the part spent in ``simulate_spec`` before the
        spans are read.
        """
        clear_plan_cache()
        gc.collect()
        t0 = time.perf_counter()
        tracer = SpanTracer(plane="sim")
        result = simulate_spec(self.spec, step_tracer=tracer)
        t1 = time.perf_counter()
        spans = tracer.spans()
        return time.perf_counter() - t0, t1 - t0, result, spans

    def check(self, result, spans) -> bool:
        if self.events is None:
            self.events = result.events
        return (
            result.total == self.MAKESPAN
            and result.utilization == self.UTILIZATION
            and result.ir_steps == self.IR_STEPS
            and result.messages == self.MESSAGES
            and result.events == self.events
            and len(spans) == result.ir_steps
        )

    def ops(self, seconds: float) -> list[Op]:
        def op() -> list[Op]:
            dt, _, result, spans = self.replay()
            return [Op(dt, self.check(result, spans))]

        return _timed_loop(seconds, op)


# -- plan-16k ---------------------------------------------------------------------
class Plan16k:
    """``Planner.rank`` for the Fig. 7 problem at 16384 cores, DES-checked.

    Measured in the traced run only: one call takes 15-22 s, too few
    samples per run for a steady end-to-end figure.  Deterministic: the
    seed is not used.  Each call starts from an empty
    plan cache, as a ``repro plan`` process does.
    """

    name = "plan-16k"
    CORES = 16384
    TOP_K = 3
    #: the planner tests' model-vs-DES bound
    MODEL_VS_DES = 0.05
    CANDIDATES = 59
    REJECTED = 4
    #: DES seconds of the winning configuration's step (reproduction output)
    BEST_STEP = 6.34129358250328

    def __init__(self, seed: int):
        self.problem = ProblemSpec(shape=(192, 192, 192), n_grids=2816)
        self.planner = Planner()

    def rank(self):
        clear_plan_cache()
        gc.collect()
        t0 = time.perf_counter()
        result = self.planner.rank(self.problem, self.CORES, des_top_k=self.TOP_K)
        return time.perf_counter() - t0, result

    def check(self, result) -> bool:
        top = result.choices[: self.TOP_K]
        return (
            len(result.choices) == self.CANDIDATES
            and len(result.rejected) == self.REJECTED
            and all(abs(c.model_vs_des - 1) <= self.MODEL_VS_DES for c in top)
            and top[0].des_time == self.BEST_STEP
        )


#: the end-to-end workloads; ``Plan16k`` runs in the traced pass only
WORKLOADS = {w.name: w for w in (SCF16, FD64, DES4096)}
