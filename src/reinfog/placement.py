"""Placement search: a GA/firefly/PSO memetic hybrid plus single-method baselines.

Candidate solutions are integer assignment vectors (node index per component).
The hybrid keeps a continuous shadow position per gene for the PSO phase and
re-derives the integer assignment by rounding after every move. Fitness is the
negated penalized objective, so all searches maximize fitness.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Assignment,
    Component,
    Node,
    PlacementInstance,
    check_constraints,
    objective,
)

ROULETTE_EPS = 1e-6
DEFAULT_PENALTY = 1e3
ENUMERATION_LIMIT = 10_000_000  # most assignments brute_force_optimal enumerates


class InstanceTooLarge(ValueError):
    """Exhaustive enumeration would exceed ENUMERATION_LIMIT."""


class InfeasibleInstance(ValueError):
    """No assignment satisfies the capacity and deadline constraints."""


@dataclass
class PlacementParams:
    population_size: int = 200
    generations: int = 100
    num_operations: int | None = None  # parent-pair operations per generation; None -> P // 2
    crossover_rate: float = 0.8        # probability a selected pair is actually crossed
    mutation_rate: float = 0.05
    fa_alpha: float = 0.2
    fa_beta: float = 0.8
    fa_gamma: float = 0.5
    pso_w: float = 0.7
    pso_c1: float = 2.0
    pso_c2: float = 2.0
    penalty_lambda: float = DEFAULT_PENALTY

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population needs at least two individuals")
        if self.generations < 1:
            raise ValueError("at least one generation required")
        if self.num_operations is not None and self.num_operations < 1:
            raise ValueError("num_operations must be at least 1")
        for name in ("crossover_rate", "mutation_rate", "fa_alpha", "fa_beta"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("fa_gamma", "penalty_lambda"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        for name in ("pso_w", "pso_c1", "pso_c2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def operations(self) -> int:
        return self.num_operations if self.num_operations is not None else self.population_size // 2

    @classmethod
    def madcp(cls, **kw) -> "PlacementParams":
        return cls(**kw)

    @classmethod
    def ga(cls, **kw) -> "PlacementParams":
        kw.setdefault("population_size", 100)
        kw.setdefault("crossover_rate", 0.9)
        return cls(**kw)

    @classmethod
    def fa(cls, **kw) -> "PlacementParams":
        kw.setdefault("population_size", 100)
        kw.setdefault("fa_gamma", 0.1)
        return cls(**kw)

    @classmethod
    def pso(cls, **kw) -> "PlacementParams":
        kw.setdefault("population_size", 100)
        return cls(**kw)


@dataclass(eq=False)
class Population:
    """Array-backed population; row index addresses one individual.

    Swarm state (velocity, personal best) belongs to the individual living in
    the row: an engine that replaces a generation wholesale and then reads
    swarm state must re-key it to the incoming individuals.
    """

    assign: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    pbest_position: np.ndarray
    pbest_fitness: np.ndarray


class _CostTables:
    """Precomputed per-(component, node) costs for vectorized evaluation.

    Matches the scalar model functions exactly: fitness_many(A)[k] equals
    fitness(Assignment(A[k]), inst, lam) up to float summation order.
    """

    def __init__(self, inst: PlacementInstance) -> None:
        self.m = inst.num_components
        self.n = inst.num_nodes
        u = np.array([c.compute_req for c in inst.components])
        d = np.array([c.deadline for c in inst.components])
        cap = np.array([nd.compute_cap for nd in inst.nodes])
        power = np.array([nd.power_draw for nd in inst.nodes])
        op_time = u[:, None] / cap[None, :]
        op_energy = power[None, :] * op_time
        self.cost = inst.omega1 * op_time + inst.omega2 * op_energy
        self.deadline_over = np.maximum(0.0, op_time - d[:, None])
        self.demand_cycles = u
        self.demand_mem = np.array([c.mem_req for c in inst.components])
        self.cap_cycles = cap
        self.cap_mem = np.array([nd.mem_avail for nd in inst.nodes])
        # row g * n + node of both per-gene tables; take() with assign + _gene_base
        self._per_gene = np.stack([self.cost, self.deadline_over]).reshape(2, -1)
        self._gene_base = np.arange(self.m) * self.n
        self._demand = np.stack([self.demand_cycles, self.demand_mem])[:, None, :]
        self._caps = np.stack([cap, self.cap_mem])[:, None, :]
        self._layouts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._firefly: dict[tuple[int, int], tuple] = {}

    def _firefly_buffers(self, shape: tuple[int, int]) -> tuple:
        """A firefly pass's buffers for a population of `shape`, built once per shape.

        Genes take the narrowest unsigned type that holds a node index: the
        step to an attractor wraps around, and adding it back is still exact.
        `heads[k]` holds the views an attractor with k movers works on.
        """
        buffers = self._firefly.get(shape)
        if buffers is None:
            gene = np.min_scalar_type(self.n - 1)
            snapshot, work, step = (np.empty(shape, gene) for _ in range(3))
            drawn = np.empty(shape)  # first the 0/1 gene differences, then the uniforms
            uniform = np.empty(shape)
            moves = np.empty(shape, dtype=bool)
            flags = moves.view(np.uint8)
            heads = [(work[:k], step[:k], drawn[:k], uniform[:k], moves[:k], flags[:k])
                     for k in range(shape[0] + 1)]
            buffers = self._firefly[shape] = (snapshot, list(snapshot), work, heads,
                                              np.zeros(shape[1], gene))
        return buffers

    def _gene_sums(self, assign: np.ndarray) -> np.ndarray:
        """Per-row sums of the gene cost (row 0) and deadline overrun (row 1)."""
        return self._per_gene.take(assign + self._gene_base, axis=1).sum(axis=2)

    def _capacity_over(self, assign: np.ndarray) -> np.ndarray:
        """Per-row compute plus memory overload, from per-(row, node) demand sums.

        The sums add components in order, like a one-hot sum over the
        component axis: `bincount` for several nodes, and for one node the
        pairwise sum that numpy gives a contiguous axis.
        """
        size = assign.shape[0]
        if self.n == 1:
            sums = np.array([self.demand_cycles.sum(), self.demand_mem.sum()])
            loads = np.broadcast_to(sums[:, None, None], (2, size, 1))
        else:
            layout = self._layouts.get(size)
            if layout is None:  # bins: (resource, row, node); weights follow assign
                offsets = (np.arange(2 * size) * self.n).reshape(2, size, 1)
                weights = np.broadcast_to(self._demand, (2, size, self.m)).ravel()
                layout = self._layouts[size] = (offsets, weights)
            offsets, weights = layout
            loads = np.bincount((assign + offsets).ravel(), weights,
                                2 * size * self.n).reshape(2, size, self.n)
        over = np.maximum(0.0, loads - self._caps).sum(axis=2)
        return over[0] + over[1]

    def objective_many(self, assign: np.ndarray) -> np.ndarray:
        return self._gene_sums(assign)[0]

    def violation_many(self, assign: np.ndarray) -> np.ndarray:
        return self._capacity_over(assign) + self._gene_sums(assign)[1]

    def fitness_many(self, assign: np.ndarray, penalty_lambda: float) -> np.ndarray:
        cost, late = self._gene_sums(assign)
        over = self._capacity_over(assign)
        over += late
        return -(cost + penalty_lambda * over)


def fitness(assignment: Assignment, inst: PlacementInstance,
            penalty_lambda: float = DEFAULT_PENALTY) -> float:
    """Negated penalized objective; higher is better, feasible peaks at -F."""
    report = check_constraints(assignment, inst)
    return -(objective(assignment, inst) + penalty_lambda * report.total_violation)


def generate_population(inst: PlacementInstance, params: PlacementParams,
                        rng: np.random.Generator,
                        tables: _CostTables | None = None) -> Population:
    """Uniform random assignments; positions mirror them, velocities ~ U(-1, 1)."""
    p, m, n = params.population_size, inst.num_components, inst.num_nodes
    assign = rng.integers(0, n, size=(p, m))
    position = assign.astype(float)
    velocity = rng.uniform(-1.0, 1.0, size=(p, m))
    tables = _CostTables(inst) if tables is None else tables
    pbest_fitness = tables.fitness_many(assign, params.penalty_lambda)
    return Population(assign, position, velocity, position.copy(), pbest_fitness)


def firefly_movement(pop: Population, inst: PlacementInstance, alpha: float,
                     beta: float, gamma: float, rng: np.random.Generator,
                     penalty_lambda: float = DEFAULT_PENALTY,
                     tables: _CostTables | None = None,
                     fit: np.ndarray | None = None) -> Population:
    """Discrete firefly pass over the whole population.

    Brightness is the fitness of the population at phase entry; attractor
    assignments are snapshotted at the same moment. For every ordered pair
    (i, j) with fitness(j) > fitness(i), processed in ascending j per mover,
    each gene of i is overwritten by j's gene with probability
    beta * exp(-gamma * r^2), where r is the normalized Hamming distance
    between i's current assignment and the attractor. Afterwards every gene of
    every individual is resampled with probability alpha, and positions are
    re-synced to the moved assignments.

    The pass works on a copy of the rows stably sorted by snapshot
    brightness, so the movers of attractor j, the rows strictly dimmer than
    it, are a prefix of that copy and are updated in place. Each attractor
    with movers takes one (movers, genes) uniform draw whose rows follow
    mover index order; `ranks` reorders them onto the prefix, so the random
    stream is consumed exactly as a per-mover gather would. The step to the
    attractor gives the Hamming distance (its non-zero genes) and, with the
    genes that stay zeroed, the move itself. Genes, buffers and every
    per-attractor view come from `tables`, which builds them once per
    population shape. `tables` is built from `inst` when not given; `fit`,
    the fitness of `pop.assign`, is computed when not given.
    """
    if tables is None:
        tables = _CostTables(inst)
    assign = pop.assign  # left as it is until the pass ends: its rows are the attractors
    if fit is None:
        fit = tables.fitness_many(assign, penalty_lambda)
    size, m = assign.shape
    order = np.argsort(fit, kind="stable")
    counts = np.searchsorted(fit[order], fit, side="left")
    counts[np.isnan(fit)] = 0  # NaN is dimmer than nothing and brighter than nothing
    # ranks[k, s]: index-order rank of prefix row s among the first k rows
    ranks = np.zeros((size + 1, size), dtype=np.intp)
    np.cumsum(order[:, None] < order[None, :], axis=0, out=ranks[1:])
    r = np.arange(m + 1) / m
    move_p = (beta * np.exp(-gamma * r * r))[:, None]  # row d: Hamming distance d
    ones = np.ones(m)
    snapshot, attractors, work, heads, zero = tables._firefly_buffers(assign.shape)
    np.copyto(snapshot, assign, casting="unsafe")
    snapshot.take(order, axis=0, out=work)
    for attractor, k in zip(attractors, counts.tolist()):
        if k == 0:
            continue
        head, s, u, v, mv, flags = heads[k]
        np.subtract(attractor, head, out=s)
        np.not_equal(s, zero, out=u)
        p = move_p.take(u.dot(ones).astype(np.intp), axis=0)  # exact 0/1 sums
        rng.random(out=u)
        u.take(ranks[k, :k], axis=0, out=v, mode="clip")
        np.less(v, p, out=mv)
        s *= flags  # a gene already equal to the attractor's has a zero step
        head += s
    assign[order] = work
    if alpha > 0.0:
        noise = rng.random(assign.shape) < alpha
        hits = int(noise.sum())
        if hits:
            assign[noise] = rng.integers(0, tables.n, hits)
    pop.position = assign.astype(float)  # a GA phase before may have resized `assign`
    return pop


def pso_update(pop: Population, inst: PlacementInstance, gbest_position: np.ndarray,
               w: float, c1: float, c2: float, rng: np.random.Generator) -> Population:
    """One PSO move, in place: velocity update, position clamp to [0, n-1], re-round.

    The velocity is w * v + c1 * r1 * (pbest - x) + c2 * r2 * (gbest - x),
    evaluated in that order, with r1 and r2 uniform draws of the swarm's shape.
    """
    x, v = pop.position, pop.velocity
    r1 = rng.random(x.shape)
    r2 = rng.random(x.shape)
    gap = np.subtract(pop.pbest_position, x)
    r1 *= c1
    r1 *= gap
    np.subtract(gbest_position, x, out=gap)
    r2 *= c2
    r2 *= gap
    v *= w
    v += r1
    v += r2
    x += v
    np.clip(x, 0.0, inst.num_nodes - 1.0, out=x)
    pop.assign[:] = np.rint(x, out=gap)
    return pop


@dataclass(frozen=True)
class TraceRow:
    generation: int
    best_fitness: float
    best_F: float
    feasible: bool
    elapsed_ms: float  # wall time spent inside this generation


@dataclass
class RunTrace:
    rows: list[TraceRow] = field(default_factory=list)

    def best_fitness_series(self) -> list[float]:
        return [r.best_fitness for r in self.rows]

    def generation_times_ms(self) -> list[float]:
        return [r.elapsed_ms for r in self.rows if r.generation > 0]


@dataclass(frozen=True)
class PlacementResult:
    algorithm: str
    assignment: Assignment
    fitness: float
    objective_value: float
    feasible: bool
    trace: RunTrace


def _ga_offspring(assign: np.ndarray, fit: np.ndarray, params: PlacementParams,
                  n_nodes: int, rng: np.random.Generator) -> np.ndarray:
    """Batched selection + crossover + mutation producing 2 * operations children.

    Behaviorally identical per operation to the select_parents, crossover and
    mutate oracles in tests/test_placement.py; random draws are grouped by
    kind so the whole generation vectorizes.
    """
    ops = params.operations
    pop_size, m = assign.shape
    w = fit - fit.min() + ROULETTE_EPS
    cum = np.cumsum(w)
    picks = np.searchsorted(cum, rng.random(2 * ops) * cum[-1], side="right")
    np.minimum(picks, pop_size - 1, out=picks)
    children = assign[picks]  # row 2i is the first parent of pair i, row 2i + 1 the second
    if m >= 2:
        crossed = rng.random(ops) < params.crossover_rate
        cuts = rng.integers(1, m, size=ops)
        cuts[~crossed] = m  # cut at m keeps both parents whole
        pairs = children.reshape(ops, 2, m)
        # each child keeps its own parent's genes left of the cut, its partner's after
        left = (np.arange(m) < cuts[:, None])[:, None, :]
        children = np.where(left, pairs, pairs[:, ::-1]).reshape(2 * ops, m)
    mask = rng.random(children.shape) < params.mutation_rate
    hits = int(mask.sum())
    if hits:
        children[mask] = rng.integers(0, n_nodes, hits)
    return children


def _run_engine(inst: PlacementInstance, params: PlacementParams,
                rng: np.random.Generator | int | None, algorithm: str,
                ga_phase: bool, fa_phase: bool, pso_phase: bool) -> PlacementResult:
    rng = np.random.default_rng(rng)
    tables = _CostTables(inst)
    lam = params.penalty_lambda
    pop = generate_population(inst, params, rng, tables)
    fit = pop.pbest_fitness.copy()
    best_idx = int(np.argmax(fit))
    gbest_assign = pop.assign[best_idx].copy()
    gbest_position = pop.position[best_idx].copy()
    gbest_fitness = float(fit[best_idx])

    trace = RunTrace()
    described = best_F = best_feasible = None

    def record(gen: int, elapsed_ms: float) -> None:
        nonlocal described, best_F, best_feasible
        if described is not gbest_assign:  # a new incumbent is a new array
            described = gbest_assign
            a = Assignment(tuple(int(v) for v in gbest_assign))
            best_F = objective(a, inst)
            best_feasible = check_constraints(a, inst).feasible
        trace.rows.append(TraceRow(gen, gbest_fitness, best_F, best_feasible, elapsed_ms))

    record(0, 0.0)
    for gen in range(1, params.generations + 1):
        t0 = time.perf_counter()
        if ga_phase:
            # a new generation: positions mirror it (a firefly pass that
            # follows sets them), swarm state is untouched
            pop.assign = _ga_offspring(pop.assign, fit, params, inst.num_nodes, rng)
            if not fa_phase:
                pop.position = pop.assign.astype(float)
        if fa_phase:
            # without a GA phase the population is the one `fit` was taken of
            firefly_movement(pop, inst, params.fa_alpha, params.fa_beta,
                             params.fa_gamma, rng, lam, tables=tables,
                             fit=None if ga_phase else fit)
        if ga_phase and pso_phase:
            # Wholesale replacement created brand-new individuals: personal
            # bests are keyed to individuals, so each fresh one is its own
            # best and starts at rest. Keeping the dead slots' bests instead
            # anchors the swarm to long-gone genomes and stalls the search.
            # pso_update reads only pbest_position, so no fitness is taken.
            pop.pbest_position = pop.position.copy()
            pop.velocity = np.zeros_like(pop.position)
        if pso_phase:
            pso_update(pop, inst, gbest_position, params.pso_w,
                       params.pso_c1, params.pso_c2, rng)
        fit = tables.fitness_many(pop.assign, lam)
        if pso_phase and not ga_phase:  # a GA phase resets the bests next generation
            improved = fit > pop.pbest_fitness
            np.copyto(pop.pbest_fitness, fit, where=improved)
            improved = improved[:, None]
            np.copyto(pop.pbest_position, pop.position, where=improved)
        best_idx = int(np.argmax(fit))
        if fit[best_idx] > gbest_fitness:  # ties keep the earlier incumbent
            gbest_fitness = float(fit[best_idx])
            gbest_assign = pop.assign[best_idx].copy()
            gbest_position = pop.position[best_idx].copy()
        record(gen, (time.perf_counter() - t0) * 1e3)

    final = Assignment(tuple(int(v) for v in gbest_assign))
    return PlacementResult(algorithm=algorithm, assignment=final,
                           fitness=gbest_fitness, objective_value=best_F,
                           feasible=best_feasible, trace=trace)


def madcp_run(inst: PlacementInstance, params: PlacementParams | None = None,
              rng: np.random.Generator | int | None = None) -> PlacementResult:
    """Full memetic loop: GA operations, firefly pass, PSO move, best tracking."""
    return _run_engine(inst, params or PlacementParams.madcp(), rng, "madcp",
                       ga_phase=True, fa_phase=True, pso_phase=True)


def ga_run(inst: PlacementInstance, params: PlacementParams | None = None,
           rng: np.random.Generator | int | None = None) -> PlacementResult:
    return _run_engine(inst, params or PlacementParams.ga(), rng, "ga",
                       ga_phase=True, fa_phase=False, pso_phase=False)


def fa_run(inst: PlacementInstance, params: PlacementParams | None = None,
           rng: np.random.Generator | int | None = None) -> PlacementResult:
    return _run_engine(inst, params or PlacementParams.fa(), rng, "fa",
                       ga_phase=False, fa_phase=True, pso_phase=False)


def pso_run(inst: PlacementInstance, params: PlacementParams | None = None,
            rng: np.random.Generator | int | None = None) -> PlacementResult:
    return _run_engine(inst, params or PlacementParams.pso(), rng, "pso",
                       ga_phase=False, fa_phase=False, pso_phase=True)


def random_placement(inst: PlacementInstance,
                     rng: np.random.Generator | int | None = None) -> PlacementResult:
    """Single uniform random assignment, wrapped like the search results."""
    rng = np.random.default_rng(rng)
    a = Assignment(tuple(int(v) for v in rng.integers(0, inst.num_nodes,
                                                      inst.num_components)))
    fit = fitness(a, inst)
    F, feasible = objective(a, inst), check_constraints(a, inst).feasible
    trace = RunTrace([TraceRow(0, fit, F, feasible, 0.0)])
    return PlacementResult("random", a, fit, F, feasible, trace)


def brute_force_optimal(inst: PlacementInstance) -> tuple[Assignment, float]:
    """Exhaustive search over all n^m assignments; feasible minimum objective.

    Enumerates in lexicographic order so ties resolve to the first-encountered
    assignment. Raises InstanceTooLarge when n^m exceeds ENUMERATION_LIMIT and
    InfeasibleInstance when no assignment satisfies the constraints.
    """
    m, n = inst.num_components, inst.num_nodes
    space = n ** m
    if space > ENUMERATION_LIMIT:
        raise InstanceTooLarge(f"{n}^{m} = {space} assignments exceed the "
                               f"enumeration budget of {ENUMERATION_LIMIT}")
    tables = _CostTables(inst)
    best_assign: tuple[int, ...] | None = None
    best_f = np.inf
    combos = itertools.product(range(n), repeat=m)
    chunk_size = 1 << 14
    while True:
        chunk = list(itertools.islice(combos, chunk_size))
        if not chunk:
            break
        block = np.array(chunk, dtype=np.int64).reshape(len(chunk), m)
        feas = tables.violation_many(block) == 0.0
        if not feas.any():
            continue
        f_vals = tables.objective_many(block)
        f_vals[~feas] = np.inf
        idx = int(np.argmin(f_vals))
        if f_vals[idx] < best_f:  # strict keeps the lexicographically first tie
            best_f = float(f_vals[idx])
            best_assign = tuple(int(v) for v in block[idx])
    if best_assign is None:
        raise InfeasibleInstance("no feasible assignment exists for this instance")
    a = Assignment(best_assign)
    return a, objective(a, inst)


def random_instance(m: int, n: int, rng: np.random.Generator | int | None = None,
                    slack: float = 2.0) -> PlacementInstance:
    """Seeded synthetic instance; `slack` scales node capacity over total demand."""
    rng = np.random.default_rng(rng)
    compute = rng.uniform(50.0, 400.0, m)
    mem = rng.uniform(64.0, 512.0, m)
    cap = rng.uniform(0.5, 1.5, n) * (compute.sum() * slack / n)
    mem_avail = rng.uniform(0.5, 1.5, n) * (mem.sum() * slack / n)
    power = rng.uniform(5.0, 150.0, n)
    # deadlines satisfiable on the fastest node, binding on slower ones
    deadline = compute / cap.max() * rng.uniform(1.1, 4.0, m)
    comps = tuple(Component(i, float(compute[i]), float(mem[i]), float(deadline[i]))
                  for i in range(m))
    nodes = tuple(Node(j, float(cap[j]), float(mem_avail[j]), float(power[j]))
                  for j in range(n))
    return PlacementInstance(comps, nodes)
