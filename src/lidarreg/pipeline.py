"""End-to-end registration of one pair: match, filter, estimate, refine.

This is the shared orchestration used by the command-line tool and the
demo scripts.  Timing covers the registration work itself -- matching,
filtering, robust estimation, and refinement -- and never file loading,
which callers do beforehand.  Both times run from the start of matching,
so ``refined_time`` can be compared directly against ``coarse_time``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from .geom import Points, RigidMotion
from .gpf import GpfConfig, gpf
from .icp import IcpConfig, IcpResult, icp_refine
from .match import match_features, mnn_filter
from .ransac import RansacConfig, RegistrationResult, ransac_register

__all__ = ["PipelineConfig", "PairResult", "register_pair"]

FILTERS = ("none", "mnn", "gpf")
REFINERS = ("none", "icp")


@dataclass(frozen=True)
class PipelineConfig:
    correspondence_filter: str = "gpf"
    refine: str = "icp"
    gpf: GpfConfig = field(default_factory=GpfConfig)
    ransac: RansacConfig = field(default_factory=RansacConfig)
    icp: IcpConfig = field(default_factory=IcpConfig)

    def __post_init__(self) -> None:
        if self.correspondence_filter not in FILTERS:
            raise ValueError(f"correspondence_filter must be one of {FILTERS}")
        if self.refine not in REFINERS:
            raise ValueError(f"refine must be one of {REFINERS}")


@dataclass(frozen=True)
class PairResult:
    """Everything a caller needs to report one registered pair."""

    ransac: RegistrationResult
    icp: IcpResult | None
    corrs_total: int
    corrs_kept: int
    coarse_time: float
    refined_time: float | None

    @property
    def final(self) -> RigidMotion:
        return self.icp.motion if self.icp is not None else self.ransac.motion


def register_pair(src_points: Points, dst_points: Points,
                  src_desc, dst_desc, cfg: PipelineConfig) -> PairResult:
    """Full pipeline from descriptors: feature matching included in timing."""
    for side, points, desc in (("src", src_points, src_desc), ("dst", dst_points, dst_desc)):
        if len(desc) != len(points):
            raise ValueError(f"{side}_desc has {len(desc)} rows for {len(points)} {side}_points")
    t0 = perf_counter()
    corrs = match_features(src_desc, dst_desc)
    # match_features always marks a mutual pair, so the GPF budget is defined
    if cfg.correspondence_filter == "gpf":
        kept = gpf(src_points, corrs, cfg.gpf)
    elif cfg.correspondence_filter == "mnn":
        kept = mnn_filter(corrs)
    else:
        kept = corrs
    est = ransac_register(src_points, dst_points, kept, cfg.ransac)
    coarse_time = perf_counter() - t0

    icp_result = refined_time = None
    if cfg.refine == "icp":
        icp_result = icp_refine(src_points, dst_points, est.motion, cfg.icp)
        refined_time = perf_counter() - t0

    return PairResult(ransac=est, icp=icp_result, corrs_total=len(corrs),
                      corrs_kept=len(kept), coarse_time=coarse_time,
                      refined_time=refined_time)
