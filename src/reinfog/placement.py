"""Placement search: a GA/firefly/PSO memetic hybrid plus single-method baselines.

Candidate solutions are integer assignment vectors (node index per component).
The hybrid keeps a continuous shadow position per gene for the PSO phase and
re-derives the integer assignment by rounding after every move. Fitness is the
negated penalized objective, so all searches maximize fitness.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

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


class InstanceTooLarge(ValueError):
    """Exhaustive enumeration would exceed the configured budget."""


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
    rng_seed: int | None = None

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population needs at least two individuals")
        if self.generations < 1:
            raise ValueError("at least one generation required")
        for name in ("crossover_rate", "mutation_rate", "fa_alpha", "fa_beta"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.penalty_lambda < 0 or self.fa_gamma < 0:
            raise ValueError("penalty_lambda and fa_gamma must be non-negative")

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
        kw.setdefault("mutation_rate", 0.05)
        return cls(**kw)

    @classmethod
    def fa(cls, **kw) -> "PlacementParams":
        kw.setdefault("population_size", 100)
        kw.setdefault("fa_alpha", 0.2)
        kw.setdefault("fa_beta", 0.8)
        kw.setdefault("fa_gamma", 0.1)
        return cls(**kw)

    @classmethod
    def pso(cls, **kw) -> "PlacementParams":
        kw.setdefault("population_size", 100)
        kw.setdefault("pso_w", 0.7)
        kw.setdefault("pso_c1", 2.0)
        kw.setdefault("pso_c2", 2.0)
        return cls(**kw)


class Population:
    """Array-backed population; row index addresses one individual.

    Swarm state (velocity, personal best) belongs to the individual living in
    the row. replace_assignments leaves it alone: an engine that replaces a
    generation wholesale and then reads swarm state must re-key it to the
    incoming individuals.
    """

    def __init__(self, assign: np.ndarray, position: np.ndarray, velocity: np.ndarray,
                 pbest_assign: np.ndarray, pbest_position: np.ndarray,
                 pbest_fitness: np.ndarray) -> None:
        self.assign = assign
        self.position = position
        self.velocity = velocity
        self.pbest_assign = pbest_assign
        self.pbest_position = pbest_position
        self.pbest_fitness = pbest_fitness

    @property
    def size(self) -> int:
        return self.assign.shape[0]

    @property
    def genes(self) -> int:
        return self.assign.shape[1]

    def __len__(self) -> int:
        return self.size

    def replace_assignments(self, new_assign: np.ndarray) -> None:
        """Install a new generation; positions mirror it, swarm state is untouched."""
        self.assign = new_assign
        self.position = new_assign.astype(float)


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
        self._rows = np.arange(self.m)

    def objective_many(self, assign: np.ndarray) -> np.ndarray:
        return self.cost[self._rows[None, :], assign].sum(axis=1)

    def violation_many(self, assign: np.ndarray) -> np.ndarray:
        size = assign.shape[0]
        bins = (np.arange(size)[:, None] * self.n + assign).ravel()
        cycles = self._loads(bins, self.demand_cycles, size)
        mem = self._loads(bins, self.demand_mem, size)
        over = np.maximum(0.0, cycles - self.cap_cycles).sum(axis=1)
        over += np.maximum(0.0, mem - self.cap_mem).sum(axis=1)
        over += self.deadline_over[self._rows[None, :], assign].sum(axis=1)
        return over

    def _loads(self, bins: np.ndarray, demand: np.ndarray, size: int) -> np.ndarray:
        """Per-(row, node) demand sums, added in component order like a one-hot sum."""
        if self.n == 1:  # one-hot sum over a contiguous axis: numpy adds it pairwise
            return np.full((size, 1), demand.sum())
        return np.bincount(bins, np.tile(demand, size),
                           size * self.n).reshape(size, self.n)

    def fitness_many(self, assign: np.ndarray, penalty_lambda: float) -> np.ndarray:
        return -(self.objective_many(assign) + penalty_lambda * self.violation_many(assign))


def fitness(assignment: Assignment, inst: PlacementInstance,
            penalty_lambda: float = DEFAULT_PENALTY) -> float:
    """Negated penalized objective; higher is better, feasible peaks at -F."""
    report = check_constraints(assignment, inst)
    return -(objective(assignment, inst) + penalty_lambda * report.total_violation)


def _as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def generate_population(inst: PlacementInstance, params: PlacementParams,
                        rng: np.random.Generator) -> Population:
    """Uniform random assignments; positions mirror them, velocities ~ U(-1, 1)."""
    p, m, n = params.population_size, inst.num_components, inst.num_nodes
    assign = rng.integers(0, n, size=(p, m))
    position = assign.astype(float)
    velocity = rng.uniform(-1.0, 1.0, size=(p, m))
    tables = _CostTables(inst)
    pbest_fitness = tables.fitness_many(assign, params.penalty_lambda)
    return Population(assign, position, velocity, assign.copy(), position.copy(),
                      pbest_fitness)


def roulette_index(fitnesses: np.ndarray, rng: np.random.Generator) -> int:
    """Roulette draw over fitness shifted to positive weights."""
    w = fitnesses - fitnesses.min() + ROULETTE_EPS
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(idx, len(fitnesses) - 1)


def select_parents(pop: Population, fitnesses: np.ndarray,
                   rng: np.random.Generator) -> tuple[int, int]:
    """Two independent roulette draws; returns population slot indices."""
    return roulette_index(fitnesses, rng), roulette_index(fitnesses, rng)


def crossover(parent1: np.ndarray, parent2: np.ndarray, rng: np.random.Generator,
              rate: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Single-point crossover with probability `rate`, else plain copies."""
    m = len(parent1)
    if m < 2 or rng.random() >= rate:
        return parent1.copy(), parent2.copy()
    cut = int(rng.integers(1, m))
    child1 = np.concatenate([parent1[:cut], parent2[cut:]])
    child2 = np.concatenate([parent2[:cut], parent1[cut:]])
    return child1, child2


def mutate(assignment: np.ndarray, n_nodes: int, rate: float,
           rng: np.random.Generator) -> np.ndarray:
    """Each gene resampled uniformly over all node indices with probability `rate`."""
    out = assignment.copy()
    mask = rng.random(len(assignment)) < rate
    hits = int(mask.sum())
    if hits:
        out[mask] = rng.integers(0, n_nodes, hits)
    return out


def firefly_movement(pop: Population, inst: PlacementInstance, alpha: float,
                     beta: float, gamma: float, rng: np.random.Generator,
                     penalty_lambda: float = DEFAULT_PENALTY,
                     tables: _CostTables | None = None) -> Population:
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
    stream is consumed exactly as a per-mover gather would. `tables` is
    built from `inst` when not given.
    """
    if tables is None:
        tables = _CostTables(inst)
    snapshot = pop.assign.copy()
    fit = tables.fitness_many(snapshot, penalty_lambda)
    assign = pop.assign
    size, m = assign.shape
    order = np.argsort(fit, kind="stable")
    counts = np.searchsorted(fit[order], fit, side="left")
    counts[np.isnan(fit)] = 0  # NaN is dimmer than nothing and brighter than nothing
    # ranks[k, s]: index-order rank of prefix row s among the first k rows
    ranks = np.zeros((size + 1, size), dtype=np.intp)
    np.cumsum(order[:, None] < order[None, :], axis=0, out=ranks[1:])
    r = np.arange(m + 1) / m
    move_p = beta * np.exp(-gamma * r * r)  # indexed by Hamming distance
    work = assign[order]
    for attractor, k in zip(snapshot, counts.tolist()):
        if k == 0:
            continue
        head = work[:k]
        p = move_p[(head != attractor).sum(axis=1)]
        u = rng.random((k, m)).take(ranks[k, :k], axis=0)
        # a gene already equal to the attractor's is unchanged either way
        work[:k] = np.where(u < p[:, None], attractor, head)
    assign[order] = work
    if alpha > 0.0:
        noise = rng.random(assign.shape) < alpha
        hits = int(noise.sum())
        if hits:
            assign[noise] = rng.integers(0, tables.n, hits)
    pop.position[:] = assign
    return pop


def pso_velocity(velocity, position, pbest_position, gbest_position,
                 w: float, c1: float, c2: float, r1, r2):
    """Velocity rule on arrays or scalars; r1, r2 are the random factors."""
    return (w * velocity + c1 * r1 * (pbest_position - position)
            + c2 * r2 * (gbest_position - position))


def pso_update(pop: Population, inst: PlacementInstance, gbest_position: np.ndarray,
               w: float, c1: float, c2: float, rng: np.random.Generator) -> Population:
    """One PSO move: velocity update, position clamp to [0, n-1], re-round."""
    shape = pop.position.shape
    r1 = rng.random(shape)
    r2 = rng.random(shape)
    pop.velocity[:] = pso_velocity(pop.velocity, pop.position, pop.pbest_position,
                                   gbest_position[None, :], w, c1, c2, r1, r2)
    pop.position[:] = np.clip(pop.position + pop.velocity, 0.0, inst.num_nodes - 1.0)
    pop.assign[:] = np.rint(pop.position).astype(np.int64)
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

    Behaviorally identical per operation to select_parents/crossover/mutate;
    random draws are grouped by kind so the whole generation vectorizes.
    """
    ops = params.operations
    pop_size, m = assign.shape
    w = fit - fit.min() + ROULETTE_EPS
    cum = np.cumsum(w)
    picks = np.searchsorted(cum, rng.random(2 * ops) * cum[-1], side="right")
    picks = np.minimum(picks, pop_size - 1)
    p1 = assign[picks[0::2]]
    p2 = assign[picks[1::2]]
    if m >= 2:
        crossed = rng.random(ops) < params.crossover_rate
        cuts = rng.integers(1, m, size=ops)
        cuts = np.where(crossed, cuts, m)  # cut at m keeps both parents whole
        left = np.arange(m)[None, :] < cuts[:, None]
        c1 = np.where(left, p1, p2)
        c2 = np.where(left, p2, p1)
    else:
        c1, c2 = p1.copy(), p2.copy()
    children = np.empty((2 * ops, m), dtype=assign.dtype)
    children[0::2] = c1
    children[1::2] = c2
    mask = rng.random(children.shape) < params.mutation_rate
    hits = int(mask.sum())
    if hits:
        children[mask] = rng.integers(0, n_nodes, hits)
    return children


def _run_engine(inst: PlacementInstance, params: PlacementParams,
                rng: np.random.Generator | int | None, algorithm: str,
                ga_phase: bool, fa_phase: bool, pso_phase: bool) -> PlacementResult:
    rng = _as_rng(params.rng_seed if rng is None else rng)
    tables = _CostTables(inst)
    lam = params.penalty_lambda
    pop = generate_population(inst, params, rng)
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
            pop.replace_assignments(_ga_offspring(pop.assign, fit, params,
                                                  inst.num_nodes, rng))
        if fa_phase:
            firefly_movement(pop, inst, params.fa_alpha, params.fa_beta,
                             params.fa_gamma, rng, lam, tables=tables)
        if ga_phase and pso_phase:
            # Wholesale replacement created brand-new individuals: personal
            # bests are keyed to individuals, so each fresh one is its own
            # best and starts at rest. Keeping the dead slots' bests instead
            # anchors the swarm to long-gone genomes and stalls the search.
            pop.pbest_assign = pop.assign.copy()
            pop.pbest_position = pop.position.copy()
            pop.pbest_fitness = tables.fitness_many(pop.assign, lam)
            pop.velocity = np.zeros_like(pop.position)
        if pso_phase:
            pso_update(pop, inst, gbest_position, params.pso_w,
                       params.pso_c1, params.pso_c2, rng)
        fit = tables.fitness_many(pop.assign, lam)
        if pso_phase:
            improved = fit > pop.pbest_fitness
            if improved.any():
                pop.pbest_assign[improved] = pop.assign[improved]
                pop.pbest_position[improved] = pop.position[improved]
                pop.pbest_fitness[improved] = fit[improved]
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
    rng = _as_rng(rng)
    a = Assignment(tuple(int(v) for v in rng.integers(0, inst.num_nodes,
                                                      inst.num_components)))
    fit = fitness(a, inst)
    trace = RunTrace([TraceRow(0, fit, objective(a, inst),
                               check_constraints(a, inst).feasible, 0.0)])
    return PlacementResult("random", a, fit, objective(a, inst),
                           check_constraints(a, inst).feasible, trace)


def brute_force_optimal(inst: PlacementInstance,
                        limit: int = 10_000_000) -> tuple[Assignment, float]:
    """Exhaustive search over all n^m assignments; feasible minimum objective.

    Enumerates in lexicographic order so ties resolve to the first-encountered
    assignment. Raises InstanceTooLarge when n^m exceeds `limit` and
    InfeasibleInstance when no assignment satisfies the constraints.
    """
    m, n = inst.num_components, inst.num_nodes
    space = n ** m
    if space > limit:
        raise InstanceTooLarge(
            f"{n}^{m} = {space} assignments exceed the enumeration budget of {limit}")
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
                    slack: float = 2.0, omega1: float = 0.5,
                    omega2: float = 0.5) -> PlacementInstance:
    """Seeded synthetic instance; `slack` scales node capacity over total demand."""
    rng = _as_rng(rng)
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
    return PlacementInstance(comps, nodes, omega1=omega1, omega2=omega2)
