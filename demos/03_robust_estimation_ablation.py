"""
Robust estimation, one component at a time
==========================================

What quality-ordered sampling, edge-length screening, and the local
optimization pass each buy on contaminated correspondence sets.
"""

import numpy as np

from lidarreg import (
    RansacConfig,
    SceneSpec,
    generate_scene,
    is_success,
    ransac_register,
    rotation_error,
    translation_error,
)


def first_success(res, gt):
    # iteration at which the running best model first met the success
    # bar; the improvement history makes this free to recover
    for iteration, _count, motion in res.best_history:
        if is_success(rotation_error(motion.rotation, gt.rotation),
                      translation_error(motion.translation, gt.translation)):
            return iteration
    return res.iterations_run + 1

N_SCENES = 25
VARIANTS = {
    "everything on":      dict(),
    "uniform sampling":   dict(use_prosac=False),
    "no fast rejection":  dict(rejection="none"),
    "no local opt":       dict(use_lo=False),
}

# Same 25 scenes for every variant: 30% inliers, descriptor quality 0.7,
# the regime where the component differences are visible.
scenes = [generate_scene(SceneSpec(n_points=1000, inlier_fraction=0.3,
                                   noise_sigma=0.2, quality_correlation=0.7,
                                   seed=s)) for s in range(N_SCENES)]

print(f"{'variant':<18} {'recall':>6} {'first ok':>9} {'inliers':>8} "
      f"{'rejected':>9} {'ms':>7}")
for name, overrides in VARIANTS.items():
    wins = 0
    first, inliers, rejected, wall = [], [], [], []
    for seed, scene in enumerate(scenes):
        cfg = RansacConfig(confidence=0.999, inlier_threshold=0.6,
                           seed=seed, **overrides)
        res = ransac_register(scene.src, scene.dst, scene.corrs, cfg)
        gt = scene.true_motion
        wins += is_success(rotation_error(res.motion.rotation, gt.rotation),
                           translation_error(res.motion.translation,
                                             gt.translation))
        first.append(first_success(res, gt))
        inliers.append(res.inlier_count)
        rejected.append(res.hypotheses_rejected_fast)
        wall.append(res.wall_time)
    print(f"{name:<18} {wins / N_SCENES:>6.2f} {np.mean(first):>9.1f} "
          f"{np.mean(inliers):>8.1f} {np.mean(rejected):>9.0f} "
          f"{1000 * np.mean(wall):>7.1f}")

# Typical reading: quality ordering finds its first good model within a
# couple of samples where uniform sampling needs dozens, fast rejection
# skips scoring passes that cannot win, and the local optimization pass
# lifts the final consensus when noise pushes inliers to the threshold.
# Termination still honors the same confidence bound for everyone, so
# recall stays flat while the work per scene moves around.
