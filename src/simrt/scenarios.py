"""Scenario generators: convolution batches, the robot pipeline, and the
single-inference local-versus-cloud comparison.

Generation is deterministic: the same parameters always produce the same
graph, with task ids assigned in release order per stream. The graphs are
valid by construction; `simulate` checks every graph it runs.
"""

from dataclasses import dataclass

from .errors import InvalidRate
from .profiles import UnitKind
from .tasks import Task, TaskGraph, TaskTags

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

_DL_CHAIN = ("conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8")


@dataclass(frozen=True)
class ScenarioSpec:
    """A named generated scenario."""

    name: str
    graph: TaskGraph
    pinned_units: frozenset | None = None  # restrict the profile to these units


def convolution_batch(n: int) -> TaskGraph:
    """n independent convolution tasks, all released at time zero."""
    if type(n) is not int or n < 0:
        raise InvalidRate("n", n)
    return TaskGraph(
        Task(id=i + 1, workload="convolution", tags=_RT) for i in range(n))


def _periodic_releases(duration_s: int, rate_hz: int) -> list:
    """Release times (µs) for floor(duration * rate) periodic arrivals."""
    count = duration_s * rate_hz
    return [k * 1_000_000 // rate_hz for k in range(count)]


def robot_pipeline(duration_s: int, camera_fps: int, imu_hz: int,
                   dl_fps: int, planning_hz: int = 10) -> TaskGraph:
    """Full robotic workload: periodic camera-frame chains, IMU propagation,
    CNN inference chains, periodic path planning, and two aperiodic
    non-real-time tasks (scene understanding and map generation) that only
    the tag-aware policy sends to the cloud."""
    for name, rate in (("duration_s", duration_s), ("camera_fps", camera_fps),
                       ("imu_hz", imu_hz), ("dl_fps", dl_fps),
                       ("planning_hz", planning_hz)):
        if type(rate) is not int or rate <= 0:
            raise InvalidRate(name, rate)

    tasks = []
    next_id = 1

    def add(workload: str, tags: TaskTags, deps=(), release_us: int = 0) -> int:
        nonlocal next_id
        tasks.append(Task(id=next_id, workload=workload, tags=tags,
                          deps=frozenset(deps), release_us=release_us))
        next_id += 1
        return next_id - 1

    for release in _periodic_releases(duration_s, camera_fps):
        prev = None
        for workload, tags in _CAMERA_CHAIN:
            prev = add(workload, tags, deps=() if prev is None else (prev,),
                       release_us=release)

    for release in _periodic_releases(duration_s, imu_hz):
        add("propagate", _RT, release_us=release)

    for release in _periodic_releases(duration_s, dl_fps):
        prev = None
        for workload in _DL_CHAIN:
            prev = add(workload, _RT, deps=() if prev is None else (prev,),
                       release_us=release)

    for release in _periodic_releases(duration_s, planning_hz):
        add("planning", _RT, release_us=release)

    add("scene_understanding", TaskTags(real_time=False, image_input=True))
    add("map_generation", TaskTags(real_time=False, image_input=False))

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
