import itertools

import numpy as np
import pytest

from reinfog.model import (
    Assignment,
    Component,
    Node,
    PlacementInstance,
    check_constraints,
    objective,
)
from reinfog.placement import (
    InfeasibleInstance,
    InstanceTooLarge,
    PlacementParams,
    Population,
    _CostTables,
    _ga_offspring,
    brute_force_optimal,
    crossover,
    fa_run,
    firefly_movement,
    fitness,
    ga_run,
    generate_population,
    madcp_run,
    mutate,
    pso_run,
    pso_update,
    pso_velocity,
    random_instance,
    random_placement,
    roulette_index,
    select_parents,
)


def tiny_instance() -> PlacementInstance:
    comps = (
        Component(0, compute_req=100.0, mem_req=200.0, deadline=2.0),
        Component(1, compute_req=300.0, mem_req=100.0, deadline=1.0),
    )
    nodes = (
        Node(0, compute_cap=400.0, mem_avail=250.0, power_draw=40.0),
        Node(1, compute_cap=600.0, mem_avail=250.0, power_draw=90.0),
    )
    return PlacementInstance(comps, nodes)


def test_fitness_matches_model_ops():
    inst = tiny_instance()
    for combo in itertools.product(range(2), repeat=2):
        a = Assignment(combo)
        expected = -(objective(a, inst)
                     + 1000.0 * check_constraints(a, inst).total_violation)
        assert fitness(a, inst) == pytest.approx(expected, rel=1e-12)


def test_fitness_tables_match_scalar_route():
    rng = np.random.default_rng(11)
    inst = random_instance(5, 3, rng)
    tables = _CostTables(inst)
    assigns = rng.integers(0, 3, size=(40, 5))
    vec = tables.fitness_many(assigns, 1000.0)
    for k in range(40):
        scalar = fitness(Assignment(tuple(int(v) for v in assigns[k])), inst)
        assert vec[k] == pytest.approx(scalar, rel=1e-12)


def test_generate_population_bounds():
    rng = np.random.default_rng(0)
    inst = tiny_instance()
    pop = generate_population(inst, PlacementParams(population_size=30), rng)
    assert pop.size == 30 and pop.genes == 2
    assert pop.assign.min() >= 0 and pop.assign.max() < 2
    assert np.all((pop.velocity >= -1.0) & (pop.velocity <= 1.0))
    assert np.array_equal(pop.position, pop.assign.astype(float))
    assert np.array_equal(pop.pbest_assign, pop.assign)
    assert np.array_equal(pop.pbest_assign[3], pop.assign[3])


def test_roulette_analytic_probability():
    # weights after shift: eps, 2 + eps, 4 + eps -> top pick ~ 2/3
    fits = np.array([-5.0, -3.0, -1.0])
    rng = np.random.default_rng(42)
    draws = 20000
    hits = sum(roulette_index(fits, rng) == 2 for _ in range(draws))
    p = 4.0 / 6.0
    sigma = (p * (1 - p) / draws) ** 0.5
    assert abs(hits / draws - p) <= 3 * sigma


def test_roulette_uniform_when_flat():
    fits = np.zeros(4)
    rng = np.random.default_rng(1)
    counts = np.zeros(4)
    draws = 20000
    for _ in range(draws):
        counts[roulette_index(fits, rng)] += 1
    sigma = (0.25 * 0.75 / draws) ** 0.5
    assert np.all(np.abs(counts / draws - 0.25) <= 3 * sigma)


def test_select_parents_returns_two_indices():
    rng = np.random.default_rng(5)
    inst = tiny_instance()
    pop = generate_population(inst, PlacementParams(population_size=10), rng)
    i, j = select_parents(pop, pop.pbest_fitness, rng)
    assert 0 <= i < 10 and 0 <= j < 10


def test_crossover_single_point_structure():
    rng = np.random.default_rng(3)
    p1 = np.zeros(6, dtype=int)
    p2 = np.ones(6, dtype=int)
    saw_cut = False
    for _ in range(50):
        c1, c2 = crossover(p1, p2, rng, rate=1.0)
        cut = int(np.argmax(c1 == 1)) if (c1 == 1).any() else 6
        assert 1 <= cut <= 5  # cut point strictly inside
        assert np.all(c1[:cut] == 0) and np.all(c1[cut:] == 1)
        assert np.all(c1 + c2 == 1)
        saw_cut = True
    assert saw_cut


def test_crossover_rate_zero_copies():
    rng = np.random.default_rng(3)
    p1 = np.array([0, 1, 0, 1])
    p2 = np.array([1, 1, 0, 0])
    c1, c2 = crossover(p1, p2, rng, rate=0.0)
    assert np.array_equal(c1, p1) and np.array_equal(c2, p2)
    c1[0] = 9  # children must be copies, not views
    assert p1[0] == 0


def test_crossover_single_gene_copies():
    rng = np.random.default_rng(3)
    c1, c2 = crossover(np.array([0]), np.array([1]), rng, rate=1.0)
    assert c1[0] == 0 and c2[0] == 1


def test_mutate_rate_zero_and_stats():
    rng = np.random.default_rng(8)
    a = rng.integers(0, 5, 1000)
    assert np.array_equal(mutate(a, 5, 0.0, rng), a)
    # resampling may redraw the same node, so change rate is rate * (1 - 1/n)
    changed = (mutate(a, 5, 0.3, rng) != a).mean()
    p = 0.3 * (1 - 1 / 5)
    sigma = (p * (1 - p) / 1000) ** 0.5
    assert abs(changed - p) <= 3 * sigma


def brighter_instance() -> PlacementInstance:
    # node 1 strictly dominates node 0 on time and energy
    comps = (Component(0, 100.0, 10.0, 10.0), Component(1, 200.0, 10.0, 10.0))
    nodes = (Node(0, compute_cap=100.0, mem_avail=1e4, power_draw=50.0),
             Node(1, compute_cap=1000.0, mem_avail=1e4, power_draw=5.0))
    return PlacementInstance(comps, nodes)


def hand_population(rows: list[list[int]]) -> Population:
    assign = np.array(rows, dtype=np.int64)
    pos = assign.astype(float)
    return Population(assign, pos.copy(), np.zeros_like(pos), assign.copy(),
                      pos.copy(), np.zeros(len(rows)))


def test_firefly_identical_population_unchanged():
    inst = brighter_instance()
    pop = hand_population([[1, 1], [1, 1], [1, 1]])
    rng = np.random.default_rng(0)
    firefly_movement(pop, inst, alpha=0.0, beta=0.8, gamma=0.5, rng=rng)
    assert np.all(pop.assign == 1)


def test_firefly_dimmer_copies_brighter():
    inst = brighter_instance()
    pop = hand_population([[0, 0], [1, 1]])
    rng = np.random.default_rng(0)
    firefly_movement(pop, inst, alpha=0.0, beta=1.0, gamma=0.0, rng=rng)
    assert np.array_equal(pop.assign[0], [1, 1])  # moved to the attractor
    assert np.array_equal(pop.assign[1], [1, 1])  # brightest never moves
    assert np.array_equal(pop.position, pop.assign.astype(float))


def test_firefly_beta_zero_identity():
    inst = brighter_instance()
    pop = hand_population([[0, 0], [1, 1]])
    rng = np.random.default_rng(0)
    firefly_movement(pop, inst, alpha=0.0, beta=0.0, gamma=0.0, rng=rng)
    assert np.array_equal(pop.assign, [[0, 0], [1, 1]])


def test_firefly_alpha_resamples():
    inst = brighter_instance()
    pop = hand_population([[0, 0], [1, 1]])
    rng = np.random.default_rng(0)
    firefly_movement(pop, inst, alpha=1.0, beta=0.0, gamma=0.0, rng=rng)
    assert pop.assign.min() >= 0 and pop.assign.max() < 2


def test_pso_velocity_hand_case():
    assert pso_velocity(0.0, 0.0, 3.0, 3.0, w=0.7, c1=2.0, c2=2.0,
                        r1=0.5, r2=0.5) == 6.0


def test_pso_update_clamps_and_rounds():
    comps = tuple(Component(i, 10.0, 1.0, 10.0) for i in range(2))
    nodes = tuple(Node(j, 100.0, 1e3, 10.0) for j in range(4))
    inst = PlacementInstance(comps, nodes)
    pop = hand_population([[2, 1], [0, 0]])
    pop.position[:] = np.array([[2.5, 1.4], [0.0, 0.0]])
    pop.velocity[:] = np.array([[4.0, 0.0], [0.0, 0.0]])
    # personal and global attractors equal the positions: only inertia remains
    pop.pbest_position[:] = pop.position
    rng = np.random.default_rng(0)
    pso_update(pop, inst, gbest_position=pop.position[0].copy(),
               w=0.5, c1=2.0, c2=2.0, rng=rng)
    assert pop.position[0, 0] == 3.0  # 2.5 + 2.0 clamped to n - 1
    assert pop.assign[0, 0] == 3
    assert pop.assign[0, 1] == 1  # 1.4 rounds down
    # velocities include attraction toward row 0 for row 1
    assert np.all(pop.position >= 0.0) and np.all(pop.position <= 3.0)
    assert np.array_equal(pop.assign, np.rint(pop.position).astype(int))


def test_ga_offspring_count_and_range():
    rng = np.random.default_rng(2)
    inst = random_instance(4, 3, rng)
    params = PlacementParams(population_size=20, mutation_rate=0.2)
    pop = generate_population(inst, params, rng)
    children = _ga_offspring(pop.assign, pop.pbest_fitness, params, 3, rng)
    assert children.shape == (20, 4)  # 2 children per operation, ops = P // 2
    assert children.min() >= 0 and children.max() < 3


def test_brute_force_against_plain_enumeration():
    for seed in range(3):
        inst = random_instance(4, 3, np.random.default_rng(seed))
        best_a, best_f = brute_force_optimal(inst)
        expected_a, expected_f = None, float("inf")
        for combo in itertools.product(range(3), repeat=4):
            a = Assignment(combo)
            if check_constraints(a, inst).feasible:
                f = objective(a, inst)
                if f < expected_f:
                    expected_a, expected_f = a, f
        assert expected_a is not None
        assert best_a == expected_a
        assert best_f == pytest.approx(expected_f, rel=1e-12)


def test_brute_force_guard():
    inst = random_instance(30, 10, np.random.default_rng(0))
    with pytest.raises(InstanceTooLarge):
        brute_force_optimal(inst)


def test_brute_force_infeasible():
    comps = (Component(0, 10.0, mem_req=1000.0, deadline=10.0),)
    nodes = (Node(0, 100.0, mem_avail=10.0, power_draw=1.0),)
    with pytest.raises(InfeasibleInstance):
        brute_force_optimal(PlacementInstance(comps, nodes))


def small_params(**kw) -> PlacementParams:
    kw.setdefault("population_size", 24)
    kw.setdefault("generations", 12)
    return PlacementParams(**kw)


def test_madcp_run_deterministic_per_seed():
    inst = random_instance(5, 3, np.random.default_rng(4))
    a = madcp_run(inst, small_params(), rng=123)
    b = madcp_run(inst, small_params(), rng=123)
    assert a.assignment == b.assignment
    assert a.fitness == b.fitness
    assert a.trace.best_fitness_series() == b.trace.best_fitness_series()
    c = madcp_run(inst, small_params(), rng=124)
    assert c.trace.best_fitness_series() != a.trace.best_fitness_series() or \
        c.assignment == a.assignment


def test_runs_monotone_best_fitness():
    inst = random_instance(5, 3, np.random.default_rng(9))
    for runner in (madcp_run, ga_run, fa_run, pso_run):
        for seed in range(3):
            res = runner(inst, small_params(), rng=seed)
            series = res.trace.best_fitness_series()
            assert all(b >= a for a, b in zip(series, series[1:])), runner.__name__


def test_trace_shape_and_result_consistency():
    inst = random_instance(4, 3, np.random.default_rng(2))
    res = madcp_run(inst, small_params(generations=7), rng=0)
    assert [r.generation for r in res.trace.rows] == list(range(8))
    last = res.trace.rows[-1]
    assert last.best_fitness == res.fitness
    assert last.best_F == pytest.approx(res.objective_value)
    assert last.feasible == res.feasible
    assert res.fitness == pytest.approx(fitness(res.assignment, inst), rel=1e-9)


@pytest.mark.parametrize("algorithm, size, operations, node_of, best_fitness", [
    ("madcp", 21, None, (0, 2, 0, 2, 1, 2, 2, 0), -71.4041057692494),
    ("ga", 21, None, (2, 2, 1, 2, 3, 0, 0, 2), -77.49873306388099),
    ("madcp", 20, 3, (0, 2, 0, 2, 3, 2, 2, 0), -76.23237148085249),
    ("ga", 20, 3, (0, 2, 0, 1, 0, 2, 2, 2), -90.12558454817977),
    ("madcp", 20, 15, (0, 2, 0, 2, 3, 2, 2, 0), -76.23237148085249),
    ("ga", 20, 15, (0, 2, 2, 1, 2, 1, 2, 0), -89.36559666641442),
])
def test_population_size_change_pinned(algorithm, size, operations, node_of,
                                       best_fitness):
    # 2 * operations != population_size, so the GA phase changes the
    # population's size; the pinned results guard how swarm state follows
    inst = random_instance(8, 4, rng=np.random.default_rng(5))
    run, make = {"madcp": (madcp_run, PlacementParams.madcp),
                 "ga": (ga_run, PlacementParams.ga)}[algorithm]
    params = make(population_size=size, num_operations=operations, generations=10)
    res = run(inst, params, rng=np.random.default_rng(9))
    assert res.assignment.node_of == node_of
    assert res.fitness == pytest.approx(best_fitness, rel=1e-12)
    assert len(res.trace.rows) == 11


def test_madcp_reaches_brute_force_on_easy_instance():
    inst = random_instance(4, 3, np.random.default_rng(7))
    _, best_f = brute_force_optimal(inst)
    res = madcp_run(inst, PlacementParams(population_size=60, generations=40), rng=1)
    assert res.feasible
    assert res.objective_value == pytest.approx(best_f, rel=1e-9)


def test_random_placement_seeded():
    inst = tiny_instance()
    a = random_placement(inst, rng=5)
    b = random_placement(inst, rng=5)
    assert a.assignment == b.assignment
    assert len(a.trace.rows) == 1


def test_params_validation():
    with pytest.raises(ValueError):
        PlacementParams(population_size=1)
    with pytest.raises(ValueError):
        PlacementParams(crossover_rate=1.5)
    with pytest.raises(ValueError):
        PlacementParams(generations=0)
    assert PlacementParams.ga().crossover_rate == 0.9
    assert PlacementParams.fa().fa_gamma == 0.1
    assert PlacementParams.pso().population_size == 100
    assert PlacementParams.madcp().crossover_rate == 0.8
    assert PlacementParams(population_size=10).operations == 5


def _firefly_reference(pop, tables, alpha, beta, gamma, rng, penalty_lambda=1000.0):
    """The per-attractor gather/scatter loop that the prefix layout replaced."""
    snapshot = pop.assign.copy()
    fit = tables.fitness_many(snapshot, penalty_lambda)
    assign = pop.assign
    m = pop.genes
    for j in range(pop.size):
        movers = np.nonzero(fit < fit[j])[0]
        if movers.size == 0:
            continue
        block = assign[movers]
        diff = block != snapshot[j]
        r = diff.sum(axis=1) / m
        p = beta * np.exp(-gamma * r * r)
        mask = diff & (rng.random(block.shape) < p[:, None])
        if mask.any():
            attractor = np.broadcast_to(snapshot[j], block.shape)
            block[mask] = attractor[mask]
            assign[movers] = block
    if alpha > 0.0:
        noise = rng.random(assign.shape) < alpha
        hits = int(noise.sum())
        if hits:
            assign[noise] = rng.integers(0, tables.n, hits)
    pop.position[:] = assign.astype(float)
    return pop


def tied_rows(rng, size, m, n):
    """Random assignments where about a third of the rows repeat another row."""
    assign = rng.integers(0, n, size=(size, m))
    dups = rng.integers(0, size, size // 3)
    assign[rng.integers(0, size, size // 3)] = assign[dups]
    return assign


def assert_firefly_matches_reference(assign, inst, tables, alpha, beta, gamma, seed):
    ref = hand_population(assign.tolist())
    got = hand_population(assign.tolist())
    ref_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    _firefly_reference(ref, tables, alpha, beta, gamma, ref_rng)
    firefly_movement(got, inst, alpha, beta, gamma, got_rng, tables=tables)
    assert np.array_equal(got.assign, ref.assign)
    assert got.position.tobytes() == ref.position.tobytes()
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("size", [2, 3, 50, 200])
@pytest.mark.parametrize("m", [1, 30])
def test_firefly_matches_reference_loop(size, m):
    rng = np.random.default_rng([size, m])
    n = 4
    inst = random_instance(m, n, rng, slack=0.7)
    tables = _CostTables(inst)
    for beta, gamma, alpha in itertools.product((0.0, 0.8, 1.0), (0.0, 0.5), (0.0, 0.3)):
        assign = tied_rows(rng, size, m, n)
        assert_firefly_matches_reference(assign, inst, tables, alpha, beta, gamma,
                                         seed=int(rng.integers(2 ** 32)))


class _FixedFitness:
    """Cost-table stand-in whose fitness is given, NaN and -inf included."""

    def __init__(self, fit, n):
        self.fit = np.asarray(fit, dtype=float)
        self.n = n

    def fitness_many(self, assign, penalty_lambda):
        return self.fit.copy()


def test_firefly_nan_and_infinite_brightness_match_reference():
    inst = random_instance(6, 3, np.random.default_rng(1))
    fit = [-5.0, np.nan, -np.inf, -5.0, -1.0, np.nan, -np.inf, -2.0, -0.0, 0.0]
    assign = tied_rows(np.random.default_rng(2), len(fit), 6, 3)
    for seed in range(5):
        assert_firefly_matches_reference(assign, inst, _FixedFitness(fit, 3),
                                         0.3, 1.0, 0.5, seed)


def _violation_onehot(tables, assign):
    onehot = assign[:, :, None] == np.arange(tables.n)[None, None, :]
    cycles = (onehot * tables.demand_cycles[None, :, None]).sum(axis=1)
    mem = (onehot * tables.demand_mem[None, :, None]).sum(axis=1)
    over = np.maximum(0.0, cycles - tables.cap_cycles).sum(axis=1)
    over += np.maximum(0.0, mem - tables.cap_mem).sum(axis=1)
    over += tables.deadline_over[np.arange(tables.m)[None, :], assign].sum(axis=1)
    return over


def test_violation_many_matches_onehot_sum_bit_for_bit():
    # one node loads every component on it: the one-hot sum then reduced a
    # contiguous axis, which numpy sums pairwise for 8 or more terms
    rng = np.random.default_rng(30)
    violated = 0
    for trial in range(60):
        m = int(rng.integers(1, 60))
        n = 1 if trial % 2 == 0 else int(rng.integers(2, 16))
        inst = random_instance(m, n, rng, slack=float(rng.uniform(0.3, 0.99)))
        tables = _CostTables(inst)
        assign = rng.integers(0, n, size=(int(rng.integers(1, 120)), m))
        got = tables.violation_many(assign)
        assert got.tobytes() == _violation_onehot(tables, assign).tobytes()
        violated += int((got > 0).any())
    assert violated >= 50
