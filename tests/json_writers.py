"""JSON writers for placement instances, application DAGs and clusters: the
inverses of the package's `*_from_json` readers, which only tests need."""

from reinfog.model import AppDag, PlacementInstance
from reinfog.sim import ClusterSpec


def instance_to_json(inst: PlacementInstance) -> dict:
    return {
        "components": [
            {"id": c.id, "compute_req": c.compute_req, "mem_req": c.mem_req,
             "deadline": c.deadline, "role": c.role}
            for c in inst.components
        ],
        "nodes": [
            {"id": nd.id, "compute_cap": nd.compute_cap, "mem_avail": nd.mem_avail,
             "power_draw": nd.power_draw}
            for nd in inst.nodes
        ],
        "weights": {"omega1": inst.omega1, "omega2": inst.omega2},
    }


def dag_to_json(dag: AppDag) -> dict:
    tasks = []
    for t in dag.tasks:
        row = {"id": t.id, "compute_req": t.compute_req, "input_size": t.input_size,
               "output_size": t.output_size, "predecessors": list(t.predecessors)}
        if t.deadline is not None:
            row["deadline"] = t.deadline
        tasks.append(row)
    return {"id": dag.id, "tasks": tasks}


def cluster_to_json(cluster: ClusterSpec) -> dict:
    return {
        "nodes": [
            {"id": nd.id, "compute_cap": nd.compute_cap, "mem_avail": nd.mem_avail,
             "power_draw": nd.power_draw}
            for nd in cluster.nodes
        ],
        "links": [
            {"src": src, "dst": dst, "latency_s": lk.latency_s,
             "bandwidth_mbps": lk.bandwidth_mbps}
            for (src, dst), lk in sorted(cluster.links.items())
        ],
    }
