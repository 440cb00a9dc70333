import json

import numpy as np
import pytest

from reinfog.model import (
    AppDag,
    Assignment,
    Component,
    Node,
    PlacementInstance,
    ScheduleConfig,
    Task,
    TaskRun,
    check_constraints,
    critical_path,
    dag_from_json,
    dag_to_json,
    energy_consumption,
    ghg_emissions,
    instance_from_json,
    instance_to_json,
    objective,
    operation_energy,
    operation_time,
    response_time,
    topo_order,
    weighted_cost,
)


def small_instance() -> PlacementInstance:
    comps = (
        Component(0, compute_req=100.0, mem_req=512.0, deadline=2.0),
        Component(1, compute_req=250.0, mem_req=256.0, deadline=1.0),
        Component(2, compute_req=80.0, mem_req=128.0, deadline=0.5),
    )
    nodes = (
        Node(0, compute_cap=200.0, mem_avail=1024.0, power_draw=30.0),
        Node(1, compute_cap=500.0, mem_avail=512.0, power_draw=80.0),
    )
    return PlacementInstance(comps, nodes, omega1=0.6, omega2=0.4)


def test_operation_time_and_energy():
    c = Component(0, compute_req=100.0, mem_req=1.0, deadline=1.0)
    nd = Node(0, compute_cap=200.0, mem_avail=1.0, power_draw=30.0)
    assert operation_time(c, nd) == 0.5
    assert operation_energy(c, nd) == 15.0
    zero = Component(1, compute_req=0.0, mem_req=1.0, deadline=1.0)
    assert operation_time(zero, nd) == 0.0


def test_objective_hand_computed():
    # c0 on n0: 0.6*0.5 + 0.4*15   = 6.3
    # c1 on n1: 0.6*0.5 + 0.4*40   = 16.3
    # c2 on n1: 0.6*0.16 + 0.4*12.8 = 5.216
    inst = small_instance()
    a = Assignment((0, 1, 1))
    expected = 0.0
    for comp, j in zip(inst.components, a.node_of):
        nd = inst.nodes[j]
        o = comp.compute_req / nd.compute_cap
        expected += inst.omega1 * o + inst.omega2 * nd.power_draw * o
    got = objective(a, inst)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(27.816, rel=1e-9)


def test_objective_normalized_hand_computed():
    inst = small_instance()
    a = Assignment((0, 1, 1))
    t_max = max(c.compute_req / nd.compute_cap for c in inst.components for nd in inst.nodes)
    e_max = max(nd.power_draw * c.compute_req / nd.compute_cap
                for c in inst.components for nd in inst.nodes)
    expected = 0.0
    for comp, j in zip(inst.components, a.node_of):
        nd = inst.nodes[j]
        o = comp.compute_req / nd.compute_cap
        expected += inst.omega1 * o / t_max + inst.omega2 * nd.power_draw * o / e_max
    assert objective(a, inst, normalized=True) == pytest.approx(expected, rel=1e-12)


def test_objective_permutation_invariant():
    rng = np.random.default_rng(7)
    base = small_instance()
    for _ in range(20):
        perm = rng.permutation(3)
        comps = tuple(base.components[i] for i in perm)
        inst = PlacementInstance(comps, base.nodes, base.omega1, base.omega2)
        a = tuple(int(rng.integers(0, 2)) for _ in range(3))
        permuted = tuple(a[i] for i in perm)
        assert objective(Assignment(permuted), inst) == pytest.approx(
            objective(Assignment(a), base), rel=1e-12)


def test_objective_rejects_bad_assignment():
    inst = small_instance()
    with pytest.raises(ValueError):
        objective(Assignment((0, 1)), inst)
    with pytest.raises(ValueError):
        objective(Assignment((0, 1, 5)), inst)


def test_constraints_feasible_case():
    report = check_constraints(Assignment((0, 1, 1)), small_instance())
    assert report.feasible
    assert report.total_violation == 0.0


def test_constraints_overloads_hand_computed():
    inst = small_instance()
    # everything on n0: cycles 430 vs cap 200, and c1 misses its 1.0 s deadline
    rpt = check_constraints(Assignment((0, 0, 0)), inst)
    assert rpt.node_compute_overflow == (230.0, 0.0)
    assert rpt.node_mem_overflow == (0.0, 0.0)
    assert rpt.deadline_overflow == (0.0, 0.25, 0.0)
    assert rpt.total_violation == pytest.approx(230.25)
    assert not rpt.feasible
    # everything on n1: memory 896 vs 512
    rpt = check_constraints(Assignment((1, 1, 1)), inst)
    assert rpt.node_mem_overflow == (0.0, 384.0)
    assert rpt.total_violation == pytest.approx(384.0)


def diamond_dag() -> AppDag:
    return AppDag(0, (
        Task(0, compute_req=2.0, input_size=1.0, output_size=1.0),
        Task(1, compute_req=5.0, input_size=0.0, output_size=1.0, predecessors=(0,)),
        Task(2, compute_req=3.0, input_size=0.0, output_size=1.0, predecessors=(0,)),
        Task(3, compute_req=1.0, input_size=0.0, output_size=0.5, predecessors=(1, 2)),
    ))


def hand_schedule(times: dict[int, tuple[float, float]], node: int = 0) -> ScheduleConfig:
    sc = ScheduleConfig(app_id=0)
    for tid, (s, f) in times.items():
        sc.entries[tid] = TaskRun(node=node, start_s=s, finish_s=f, energy_j=0.0)
    return sc


def test_critical_path_diamond():
    sc = hand_schedule({0: (0, 2), 1: (2, 7), 2: (2, 5), 3: (7, 8)})
    assert critical_path(diamond_dag(), sc) == [0, 1, 3]
    assert response_time([diamond_dag()], [sc]) == 8.0


def test_critical_path_tie_picks_lowest_id():
    # branches of equal length: both finish at 7, path must go through task 1
    sc = hand_schedule({0: (0, 2), 1: (2, 7), 2: (2, 7), 3: (7, 8)})
    assert critical_path(diamond_dag(), sc) == [0, 1, 3]


def test_critical_path_prefers_sink_on_equal_finish():
    dag = AppDag(0, (Task(0, 5.0, 0.0, 0.0),
                     Task(1, 0.0, 0.0, 0.0, predecessors=(0,))))
    sc = hand_schedule({0: (0, 5), 1: (5, 5)})
    assert critical_path(dag, sc) == [0, 1]


def test_critical_path_requires_full_schedule():
    sc = hand_schedule({0: (0, 2)})
    with pytest.raises(ValueError):
        critical_path(diamond_dag(), sc)


def test_response_time_serial_chain_with_transfers():
    # durations 1, 2, 3 with 0.5 s transfer gaps: 1+0.5+2+0.5+3 = 7
    dag = AppDag(0, (Task(0, 1.0, 0.0, 1.0),
                     Task(1, 2.0, 0.0, 1.0, predecessors=(0,)),
                     Task(2, 3.0, 0.0, 1.0, predecessors=(1,))))
    sc = hand_schedule({0: (0.0, 1.0), 1: (1.5, 3.5), 2: (4.0, 7.0)})
    assert critical_path(dag, sc) == [0, 1, 2]
    assert response_time([dag], [sc]) == 7.0


def test_response_time_sums_applications():
    dag_a = diamond_dag()
    sc_a = hand_schedule({0: (0, 2), 1: (2, 7), 2: (2, 5), 3: (7, 8)})
    dag_b = AppDag(1, (Task(0, 3.0, 0.0, 0.0),))
    sc_b = hand_schedule({0: (0, 3)})
    sc_b.app_id = 1
    assert response_time([dag_a, dag_b], [sc_a, sc_b]) == 11.0


def test_response_time_honors_release():
    dag = AppDag(0, (Task(0, 3.0, 0.0, 0.0),))
    sc = hand_schedule({0: (2.0, 5.0)})
    sc.release_s = 2.0
    assert response_time([dag], [sc]) == 3.0


def test_energy_consumption_sums_tasks():
    sc = ScheduleConfig(0)
    sc.entries[0] = TaskRun(0, 0.0, 1.0, energy_j=3.0)
    sc.entries[1] = TaskRun(1, 0.0, 1.0, energy_j=4.0)
    assert energy_consumption([sc]) == 7.0


def test_weighted_cost_fixed_point():
    assert weighted_cost(5.0, 7.0, 5.0, 7.0) == 1.0
    assert weighted_cost(2.5, 7.0, 5.0, 7.0) == 0.75
    with pytest.raises(ValueError):
        weighted_cost(1.0, 1.0, 0.0, 1.0)


def test_ghg_hand_mix():
    assert ghg_emissions(2.0, [(700.0, 0.5), (50.0, 0.5)]) == 750.0
    assert ghg_emissions(0.0, [(700.0, 1.0)]) == 0.0


def test_ghg_validation():
    with pytest.raises(ValueError):
        ghg_emissions(1.0, [(700.0, 0.6), (50.0, 0.3)])
    with pytest.raises(ValueError):
        ghg_emissions(1.0, [(-1.0, 1.0)])
    with pytest.raises(ValueError):
        ghg_emissions(-1.0, [(700.0, 1.0)])
    with pytest.raises(ValueError):
        ghg_emissions(1.0, [])


def test_dag_validation():
    with pytest.raises(ValueError):
        AppDag(0, ())
    with pytest.raises(ValueError):
        AppDag(0, (Task(0, 1, 0, 0), Task(0, 1, 0, 0)))
    with pytest.raises(ValueError):
        AppDag(0, (Task(0, 1, 0, 0, predecessors=(9,)),))
    with pytest.raises(ValueError):
        AppDag(0, (Task(0, 1, 0, 0, predecessors=(1,)),
                   Task(1, 1, 0, 0, predecessors=(0,))))


def test_instance_validation():
    good = small_instance()
    with pytest.raises(ValueError):
        PlacementInstance(good.components, (Node(0, 0.0, 1.0, 1.0),))
    with pytest.raises(ValueError):
        PlacementInstance((), good.nodes)
    with pytest.raises(ValueError):
        PlacementInstance(
            (Component(0, 1.0, 1.0, deadline=0.0),), good.nodes)


def test_topo_order():
    assert topo_order(diamond_dag()) == [0, 1, 2, 3]
    flat = AppDag(0, (Task(2, 1, 0, 0), Task(0, 1, 0, 0), Task(1, 1, 0, 0)))
    assert topo_order(flat) == [0, 1, 2]


def test_instance_json_round_trip():
    inst = small_instance()
    doc = json.loads(json.dumps(instance_to_json(inst)))
    assert instance_from_json(doc) == inst
    with pytest.raises(ValueError):
        instance_from_json({"components": [{}], "nodes": []})


@pytest.mark.parametrize("path, literal", [
    (("components", 0, "compute_req"), "NaN"),
    (("components", 1, "deadline"), "Infinity"),
    (("components", 2, "mem_req"), "-Infinity"),
    (("nodes", 0, "compute_cap"), "Infinity"),
    (("nodes", 1, "mem_avail"), "NaN"),
    (("nodes", 0, "power_draw"), "NaN"),
    (("weights", "omega1"), "NaN"),
    (("weights", "omega2"), "Infinity"),
])
def test_instance_json_rejects_non_finite_numbers(path, literal):
    doc = instance_to_json(small_instance())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "@"
    text = json.dumps(doc).replace('"@"', literal)
    with pytest.raises(ValueError, match="must be finite"):
        instance_from_json(json.loads(text))


def test_dag_json_round_trip():
    dag = diamond_dag()
    doc = json.loads(json.dumps(dag_to_json(dag)))
    assert dag_from_json(doc) == dag
    with_deadline = AppDag(3, (Task(0, 1.0, 0.5, 0.25, deadline=9.5),))
    assert dag_from_json(json.loads(json.dumps(dag_to_json(with_deadline)))) == with_deadline
