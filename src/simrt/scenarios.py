"""Scenario generators: convolution batches, the robot pipeline, and the
single-inference local-versus-cloud comparison.

Generation is deterministic: the same parameters always produce the same
graph, with task ids assigned in release order per stream. The graphs are
valid by construction, and each `TaskGraph` checks itself when it is built.
"""

from .errors import InvalidRate, _is_int_at_least
from .profiles import UnitKind
from .tasks import Task, TaskGraph, TaskTags, _frozen

_RT = TaskTags(real_time=True, image_input=False)
_RT_IMAGE = TaskTags(real_time=True, image_input=True)

# camera-frame pipeline per captured image; consumers of the frame carry
# the image tag, the sensor read and the map update do not
_CAMERA_CHAIN = (
    ("capture", _RT),
    ("undistort", _RT_IMAGE),
    ("gaussian_blur", _RT_IMAGE),
    ("feature_detect", _RT_IMAGE),
    ("optical_flow", _RT_IMAGE),
    ("update", _RT),
)

_DL_CHAIN = tuple((layer, _RT) for layer in (
    "conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8"))


@_frozen
class ScenarioSpec:
    """A named generated scenario."""
    name: str
    graph: TaskGraph
    pinned_units: frozenset | None = None  # restrict the profile to these units


def convolution_batch(n: int) -> TaskGraph:
    """n independent convolution tasks, all released at time zero."""
    if not _is_int_at_least(n, 0):
        raise InvalidRate("n", n, 0)
    return TaskGraph(
        Task(id=i + 1, workload="convolution", tags=_RT) for i in range(n))


def robot_pipeline(duration_s: int, camera_fps: int, imu_hz: int,
                   dl_fps: int, planning_hz: int = 10) -> TaskGraph:
    """Full robotic workload: periodic camera-frame chains, IMU propagation,
    CNN inference chains, periodic path planning, and two aperiodic
    non-real-time tasks (scene understanding and map generation) that only
    the tag-aware policy sends to the cloud.

    A stream at rate r releases duration_s * r chains, chain k at
    k * 1_000_000 // r µs; each stage depends on the one before it."""
    streams = (("camera_fps", camera_fps, _CAMERA_CHAIN),
               ("imu_hz", imu_hz, (("propagate", _RT),)),
               ("dl_fps", dl_fps, _DL_CHAIN),
               ("planning_hz", planning_hz, (("planning", _RT),)))
    for name, rate, _ in (("duration_s", duration_s, ()),) + streams:
        if not _is_int_at_least(rate, 1):
            raise InvalidRate(name, rate, 1)

    tasks = []
    for _, rate, stages in streams:
        for k in range(duration_s * rate):
            deps = frozenset()
            for workload, tags in stages:
                tasks.append(Task(id=len(tasks) + 1, workload=workload, tags=tags,
                                  deps=deps, release_us=k * 1_000_000 // rate))
                deps = frozenset((len(tasks),))
    for workload, image_input in (("scene_understanding", True), ("map_generation", False)):
        tasks.append(Task(id=len(tasks) + 1, workload=workload,
                          tags=TaskTags(real_time=False, image_input=image_input)))
    return TaskGraph(tasks)


def inference_comparison() -> list:
    """Three single-inference scenarios: pinned to the CPU, pinned to the
    GPU, and a non-real-time variant that the tag-aware policy offloads."""
    specs = []
    for name, units, tags in (
        ("inference-cpu", frozenset({UnitKind.CPU}), _RT),
        ("inference-gpu", frozenset({UnitKind.GPU}), _RT),
        ("inference-cloud", None, TaskTags(real_time=False, image_input=False)),
    ):
        graph = TaskGraph([Task(id=1, workload="alexnet", tags=tags)])
        specs.append(ScenarioSpec(name=name, graph=graph, pinned_units=units))
    return specs
