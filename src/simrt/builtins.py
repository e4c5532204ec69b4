"""Builtin calibrated platform profiles.

Values are calibration constants: measured values are carried exactly
where known, and the remaining entries are chosen to satisfy the
documented per-workload preference orderings and the setup-overhead
crossover between GPU and DSP offloads.
"""

import json

_SD820 = {
    "name": "sd820",
    "units": [
        {"kind": "CPU", "weight": 2},
        {"kind": "mGPU", "weight": 4, "gops": 160},
        {"kind": "DSP", "weight": 2, "gops": 4},
    ],
    "workloads": [
        {"name": "gaussian_blur", "ops": 15_400_000},
        {"name": "convolution", "ops": 30_100_000},
        {"name": "sobel", "ops": 74_700_000},
        {"name": "undistort"},
        {"name": "feature_detect"},
    ],
    "costs": {
        "gaussian_blur@CPU": {"kernel_us": 900, "energy_uj": 1500},
        "gaussian_blur@mGPU": {"setup_us": 3000, "xfer_in_us": 150, "kernel_us": 1000,
                               "xfer_out_us": 80, "energy_uj": 400},
        # kernel derived from ops at 4 GOPS
        "gaussian_blur@DSP": {"setup_us": 1000, "xfer_in_us": 100,
                              "xfer_out_us": 60, "energy_uj": 500},
        "convolution@CPU": {"kernel_us": 1350, "energy_uj": 4800},
        "convolution@mGPU": {"setup_us": 8000, "xfer_in_us": 120, "kernel_us": 220,
                             "xfer_out_us": 60, "energy_uj": 2400},
        "convolution@DSP": {"setup_us": 1000, "xfer_in_us": 60, "kernel_us": 6100,
                            "xfer_out_us": 40, "energy_uj": 2600},
        "sobel@CPU": {"kernel_us": 3200, "energy_uj": 6000},
        "sobel@mGPU": {"setup_us": 3500, "xfer_in_us": 250, "kernel_us": 600,
                       "xfer_out_us": 120, "energy_uj": 2200},
        "sobel@DSP": {"setup_us": 1000, "xfer_in_us": 150,
                      "xfer_out_us": 100, "energy_uj": 1800},
        "undistort@CPU": {"kernel_us": 1100, "energy_uj": 2000},
        "undistort@mGPU": {"setup_us": 3000, "xfer_in_us": 150, "kernel_us": 350,
                           "xfer_out_us": 80, "energy_uj": 500},
        "undistort@DSP": {"setup_us": 1000, "xfer_in_us": 100, "kernel_us": 2500,
                          "xfer_out_us": 60, "energy_uj": 700},
        "feature_detect@CPU": {"kernel_us": 2600, "energy_uj": 3000},
        "feature_detect@mGPU": {"setup_us": 3500, "xfer_in_us": 150, "kernel_us": 4000,
                                "xfer_out_us": 50, "energy_uj": 2400},
        "feature_detect@DSP": {"setup_us": 1000, "xfer_in_us": 100, "kernel_us": 1200,
                               "xfer_out_us": 50, "energy_uj": 600},
    },
}

_TX1_CLOUD = {
    "name": "tx1-cloud",
    "units": [
        {"kind": "CPU", "weight": 2},
        {"kind": "GPU", "weight": 4, "gops": 256},
    ],
    "workloads": [
        {"name": "alexnet"},
    ],
    "costs": {
        "alexnet@CPU": {"kernel_us": 400_000, "energy_uj": 800_000},
        "alexnet@GPU": {"kernel_us": 33_000, "energy_uj": 132_000},
    },
    "cloud": {"latency_us": [2_000_000, 5_000_000], "energy_uj": 10_000},
}

# Layer kernels on the mobile GPU are fixed-point calibration constants;
# CPU and DSP entries scale them by measured-style slowdown factors.
_DL_LAYERS = {
    # name: (ops, mgpu_us, mgpu_uj, cpu_us, cpu_uj, dsp_us, dsp_uj)
    "conv1": (210_800_000, 1300, 500, 5200, 2000, 7800, 750),
    "conv2": (895_500_000, 2200, 900, 8800, 3400, 13200, 1350),
    "conv3": (299_000_000, 1800, 650, 7200, 2600, 10800, 975),
    "conv4": (448_600_000, 2100, 750, 8400, 3000, 12600, 1125),
    "conv5": (299_000_000, 1800, 650, 7200, 2600, 10800, 975),
    "fc6": (75_500_000, 500, 200, 2000, 800, 3000, 300),
    "fc7": (33_600_000, 250, 100, 1000, 400, 1500, 150),
    "fc8": (8_000_000, 100, 50, 400, 160, 600, 75),
}


def _robot_profile() -> dict:
    workloads = [
        {"name": "capture"},
        {"name": "undistort"},
        {"name": "gaussian_blur", "ops": 15_400_000},
        {"name": "feature_detect"},
        {"name": "optical_flow"},
        {"name": "update"},
        {"name": "propagate"},
        {"name": "planning"},
    ]
    costs = {
        "capture@CPU": {"kernel_us": 300, "energy_uj": 150},
        "capture@mGPU": {"setup_us": 3000, "kernel_us": 300, "energy_uj": 200},
        "capture@DSP": {"setup_us": 800, "kernel_us": 300, "energy_uj": 180},
        # camera-frame stages run on the DSP only; the high-priority queue
        # skips units without an entry
        "undistort@DSP": {"setup_us": 800, "xfer_in_us": 80, "kernel_us": 1200,
                          "xfer_out_us": 40, "energy_uj": 700},
        "gaussian_blur@DSP": {"setup_us": 800, "xfer_in_us": 80, "kernel_us": 1500,
                              "xfer_out_us": 40, "energy_uj": 650},
        "feature_detect@DSP": {"setup_us": 800, "xfer_in_us": 60, "kernel_us": 900,
                               "xfer_out_us": 30, "energy_uj": 550},
        "optical_flow@DSP": {"setup_us": 800, "xfer_in_us": 60, "kernel_us": 700,
                             "xfer_out_us": 30, "energy_uj": 500},
        "update@CPU": {"kernel_us": 800, "energy_uj": 400},
        "update@mGPU": {"setup_us": 3000, "xfer_in_us": 50, "kernel_us": 1200,
                        "xfer_out_us": 30, "energy_uj": 500},
        "update@DSP": {"setup_us": 800, "xfer_in_us": 60, "kernel_us": 1500,
                       "xfer_out_us": 30, "energy_uj": 450},
        "propagate@CPU": {"kernel_us": 50, "energy_uj": 20},
        "propagate@mGPU": {"setup_us": 3000, "kernel_us": 80, "energy_uj": 30},
        "propagate@DSP": {"setup_us": 800, "kernel_us": 100, "energy_uj": 25},
        "planning@CPU": {"kernel_us": 1500, "energy_uj": 700},
        "planning@mGPU": {"setup_us": 3000, "kernel_us": 1800, "energy_uj": 800},
        "planning@DSP": {"setup_us": 800, "kernel_us": 2000, "energy_uj": 750},
    }
    for layer, (ops, g_us, g_uj, c_us, c_uj, d_us, d_uj) in _DL_LAYERS.items():
        workloads.append({"name": layer, "ops": ops})
        costs[f"{layer}@mGPU"] = {"setup_us": 3000, "xfer_in_us": 100, "kernel_us": g_us,
                                  "xfer_out_us": 50, "energy_uj": g_uj}
        costs[f"{layer}@CPU"] = {"kernel_us": c_us, "energy_uj": c_uj}
        costs[f"{layer}@DSP"] = {"setup_us": 800, "xfer_in_us": 100, "kernel_us": d_us,
                                 "xfer_out_us": 50, "energy_uj": d_uj}
    # cloud-only workloads carry no local entries
    workloads.append({"name": "scene_understanding"})
    workloads.append({"name": "map_generation"})
    return {
        "name": "sd820-robot",
        "units": _SD820["units"],
        "workloads": workloads,
        "costs": costs,
        "cloud": _TX1_CLOUD["cloud"],
    }


BUILTIN_PROFILE_TEXTS = {
    "sd820": json.dumps(_SD820, indent=2),
    "tx1-cloud": json.dumps(_TX1_CLOUD, indent=2),
    "sd820-robot": json.dumps(_robot_profile(), indent=2),
}
