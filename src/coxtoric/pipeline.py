"""End-to-end driver: realize a codimension-one torus action combinatorially
as a subtorus of the big torus.

Given a fan and a lifted weight matrix W on the quotient presentation's
coordinates, the driver checks, in order: nondegeneracy of the fan, the
convex-support certificate for the absence of small holes, effectivity of
the diagonal action, and that the group generated by the lifted torus and
the kernel subgroup H has dimension m-1.  On success it emits the
cocharacter embedding Q * W^T of the torus into the big torus, together
with its saturation.  Each failed hypothesis produces a stable named
diagnostic instead of a generic failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cox import CoxPresentation, cox_presentation
from .errors import ShapeError, UnsupportedShapeError
from .fans import Fan
from .groups import WeightAction, decompose_subgroup, is_effective
from .intlin import IntMatrix, saturation_basis

DEGENERATE_FAN = "degenerate-fan"
HOLES_NOT_CERTIFIED = "holes-not-certified"
INEFFECTIVE_ACTION = "ineffective-action"
WRONG_DIMENSION = "wrong-dimension"

NOT_CERTIFIED = "not-certified"


def convex_support_verdict(fan: Fan) -> bool | str:
    """`Fan.has_convex_support`, or NOT_CERTIFIED where its criterion does not apply."""
    try:
        return fan.has_convex_support()
    except UnsupportedShapeError:
        return NOT_CERTIFIED


def presentation_summary(p: CoxPresentation) -> tuple[int, dict, dict | None]:
    """rank Q, and the `subgroup` and `class_group` entries of a report.
    H's relation matrix is Q^T: its decomposition is the class group
    Z^m / im(Q^T) of a nondegenerate fan, and rank Q = m - its torus rank."""
    torus_rank, orders = decompose_subgroup(p.kernel_group)
    rank_q = p.num_coordinates - torus_rank
    subgroup = {"torus_rank": torus_rank, "cyclic_orders": list(orders)}
    class_group = {"free": torus_rank, "torsion": list(orders)}
    return rank_q, subgroup, class_group if rank_q == p.delta.rank else None


@dataclass(frozen=True)
class PipelineReport:
    nondegenerate: bool
    no_small_holes_certified: bool | str
    cox_summary: dict
    input_torus_rank: int
    combined_dimension: int
    hypotheses_met: bool
    diagnostic: str | None
    embedding: IntMatrix | None
    embedding_saturation: IntMatrix | None
    isogeny_degree: int | None

    def to_dict(self) -> dict:
        return {
            "nondegenerate": self.nondegenerate,
            "no_small_holes_certified": self.no_small_holes_certified,
            "cox": self.cox_summary,
            "input_torus_rank": self.input_torus_rank,
            "combined_dimension": self.combined_dimension,
            "hypotheses_met": self.hypotheses_met,
            "diagnostic": self.diagnostic,
            "embedding": None if self.embedding is None
            else [list(row) for row in self.embedding.entries],
            "embedding_saturation": None if self.embedding_saturation is None
            else [list(row) for row in self.embedding_saturation.entries],
            "isogeny_degree": self.isogeny_degree,
        }


def theorem_pipeline(delta: Fan, action: WeightAction) -> PipelineReport:
    """Check the hypotheses and emit the subtorus embedding when they hold.
    One chain of checks names the first failed hypothesis, and one report is
    built from it; `is_effective` runs only on a fan that passes both fan checks."""
    m = len(delta.rays)
    if action.weights.cols != m:
        raise ShapeError(
            f"weight matrix has {action.weights.cols} columns, fan has {m} rays")
    n, r = delta.rank, action.torus_rank

    holes = convex_support_verdict(delta)
    p = cox_presentation(delta)
    rank_q, subgroup, class_group = presentation_summary(p)
    nondegenerate = class_group is not None
    summary = {"m": m, "class_group": class_group, "subgroup": subgroup}

    # ker W meets span(Q^T) in {Q^T y : (Q W^T)^T y = 0}, and ker Q^T lies in
    # ker (Q W^T)^T, so the meet has rank rank(Q) - rank(Q W^T)
    embedding = p.q_matrix @ action.weights.transpose()
    meet_rank = rank_q - embedding.rank()

    diagnostic = None
    if not nondegenerate:
        diagnostic = DEGENERATE_FAN
    elif holes is not True:
        diagnostic = HOLES_NOT_CERTIFIED
    elif not is_effective(action):
        diagnostic = INEFFECTIVE_ACTION
    elif r != n - 1 or meet_rank != 1:
        diagnostic = WRONG_DIMENSION

    met = diagnostic is None
    return PipelineReport(nondegenerate, holes, summary, r, m - meet_rank, met, diagnostic,
                          embedding if met else None,
                          saturation_basis(embedding) if met else None, 1 if met else None)
