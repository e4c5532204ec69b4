"""simrt: profile-driven heterogeneous task-scheduling runtime simulator."""

from . import audit
from .engine import (Metrics, SimConfig, SimResult, Trace, TraceRecord,
                     compute_metrics, simulate)
from .errors import (AuditError, BadInterval, CycleDetected, DuplicateId,
                     EngineError, GraphError, InvalidConfig, InvalidRate,
                     InvalidScenario, MissingCost, NegativeValue, ParseError,
                     SimrtError, UnknownDependency, UnresolvableCost)
from .profiles import (CostEntry, PlatformProfile, SetupMode, UnitKind, UnitSpec,
                       builtin_profiles, energy_of, load_profile, offload_time,
                       preference_matrix, restrict)
from .scenarios import (ScenarioSpec, convolution_batch, inference_comparison,
                        robot_pipeline)
from .scheduler import (BasicPolicy, Policy, Route, RouteClass, SchedulerState,
                        classify, dispatch, dispatch_latency, on_unit_free)
from .tasks import (Task, TaskGraph, TaskTags, dump_scenario, load_scenario,
                    validate_graph)

__version__ = "0.1.0"
