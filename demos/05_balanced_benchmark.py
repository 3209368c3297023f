"""
Building a balanced registration set
====================================

From posed frames to a frame-pair benchmark that covers the whole motion
range instead of oversampling the easy consecutive pairs.
"""

import numpy as np

from lidarreg import (
    SelectorConfig,
    TrajectorySpec,
    build_candidate_pool,
    generate_trajectory,
    normalize_motions,
    select_balanced,
    set_distribution_report,
)

# Three synthetic drives: straight, a U-turn, and a random wander.  Each
# frame carries its ground-truth pose and a cloud in sensor coordinates.
sequences = [
    generate_trajectory(TrajectorySpec(profile="straight", n_frames=14,
                                       frame_spacing=5.0, seed=1,
                                       sequence_id="straight")),
    generate_trajectory(TrajectorySpec(profile="uturn", n_frames=12,
                                       frame_spacing=4.0, seed=2,
                                       sequence_id="uturn")),
    generate_trajectory(TrajectorySpec(profile="random", n_frames=14,
                                       frame_spacing=5.0, seed=3,
                                       sequence_id="wander")),
]

# The pool takes every k-th frame as a source and draws one overlapping
# target per source, so pool size stays linear in trajectory length.
cfg = SelectorConfig(k=1, min_overlap=0.3, r=0.35, target_count=20, seed=0)
pool = build_candidate_pool(sequences, cfg)
print(f"candidate pool: {len(pool)} pairs from {len(sequences)} sequences")

coords, bounds = normalize_motions(pool)
print("motion ranges (dx dy dz roll pitch yaw):")
print("  low ", bounds[:, 0].round(2))
print("  high", bounds[:, 1].round(2))

# Selection rejection-samples the normalized motion cube: a uniform draw
# keeps a nearby candidate or nothing, and among nearby candidates the
# least-used sequence wins, so the set stays fair across drives.
result = select_balanced(pool, cfg)
print(f"selected {len(result.records)} pairs in {result.attempts} attempts "
      f"(exhausted={result.exhausted})")

per_seq = {}
for record in result.records:
    per_seq[record.sequence_id] = per_seq.get(record.sequence_id, 0) + 1
print("per sequence:", dict(sorted(per_seq.items())))

# The distribution report is the balance check: counts over fixed bins
# for each motion parameter of the final set.
report = set_distribution_report(result.records)
yaw = report["yaw"]
occupied = int((yaw > 0).sum())
print(f"yaw histogram occupies {occupied} of {len(yaw)} bins")
print("distance counts:", report["distance"].tolist())
