"""Fog scheduling toolkit: placement search, DRL schedulers, and a cluster sim."""

from .model import (
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
    energy_consumption,
    ghg_emissions,
    objective,
    response_time,
    weighted_cost,
)
from .placement import (
    PlacementParams,
    PlacementResult,
    brute_force_optimal,
    fa_run,
    fitness,
    ga_run,
    madcp_run,
    pso_run,
    random_instance,
    random_placement,
)
from .network import (
    NetworkParams,
    dqn_update,
    forward,
    load_policy,
    save_policy,
)
from .replay import RandomReplayBuffer, ReservoirReplayBuffer, Transitions
from .explore import epsilon_at, eps_greedy, ou_step
from .dqn import DqnAgent, DqnConfig
from .sim import (
    ClusterSpec,
    EpisodeResult,
    IncrementalSim,
    RewardSpec,
    baseline_greedy,
    baseline_round_robin,
    encode_state,
    generate_workload,
    make_reward_spec,
    run_episode,
    simulate_workload,
    uniform_cluster,
)
from .protocol import PROTOCOL_VERSION, decode_frame, encode_frame
from .distributed import (
    Learner,
    SyncConfig,
    WorkerReport,
    centralized_mode,
    worker_loop,
)

__version__ = "0.1.0"
