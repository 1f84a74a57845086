"""Demonstration processing and latency-aware execution toolkit.

Modules:
    geometry   -- quaternion / SE(3) / SE(2) pose algebra and distances
    anchoring  -- unify per-sensor world frames via a shared fiducial board
    pipeline   -- raw capture streams -> 10 Hz chest-relative demo datasets
    diffusion  -- toy diffusion policy: schedule, denoiser, DDIM sampling
    executor   -- asynchronous receding-horizon execution with state matching
    sim        -- deterministic plant, scripted experts, scenarios, metrics
    report     -- markdown + SVG rendering of condition comparisons
    manifest   -- reproducibility manifests for every CLI run
    jsonl      -- line-oriented JSON reading and writing shared by every file format
    cli        -- operator commands: anchor, process, train-toy, simulate, report, replay
"""

__version__ = "0.1.0"
