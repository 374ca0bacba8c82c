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

from .cox import CoxPresentation, class_group, cox_presentation
from .errors import ShapeError, UnsupportedShapeError
from .fans import Fan
from .groups import WeightAction, decompose_subgroup, is_effective
from .intlin import IntMatrix, kernel_basis, saturation_basis

DEGENERATE_FAN = "degenerate-fan"
HOLES_NOT_CERTIFIED = "holes-not-certified"
INEFFECTIVE_ACTION = "ineffective-action"
WRONG_DIMENSION = "wrong-dimension"

NOT_CERTIFIED = "not-certified"


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


def _cox_summary(p: CoxPresentation) -> dict:
    free, torsion = (class_group(p) if p.delta.is_nondegenerate()
                     else (None, None))
    torus_rank, orders = decompose_subgroup(p.kernel_group)
    return {
        "m": p.num_coordinates,
        "class_group": None if free is None
        else {"free": free, "torsion": list(torsion)},
        "subgroup": {"torus_rank": torus_rank, "cyclic_orders": list(orders)},
    }


def theorem_pipeline(delta: Fan, action: WeightAction) -> PipelineReport:
    """Check the hypotheses and emit the subtorus embedding when they hold."""
    m = len(delta.rays)
    if action.weights.cols != m:
        raise ShapeError(
            f"weight matrix has {action.weights.cols} columns, fan has {m} rays")
    n, r = delta.rank, action.torus_rank

    nondegenerate = delta.is_nondegenerate()
    try:
        holes = delta.has_convex_support()
    except UnsupportedShapeError:
        holes = NOT_CERTIFIED

    p = cox_presentation(delta)
    summary = _cox_summary(p)
    effective = is_effective(action)

    qt = p.q_matrix.transpose()
    ker_w = IntMatrix.from_columns(kernel_basis(action.weights), rows=m)
    meet_rank = ker_w.rank() + qt.rank() - ker_w.hstack(qt).rank()
    combined_dimension = m - meet_rank

    embedding = p.q_matrix @ action.weights.transpose()

    diagnostic = None
    if not nondegenerate:
        diagnostic = DEGENERATE_FAN
    elif holes is not True:
        diagnostic = HOLES_NOT_CERTIFIED
    elif not effective:
        diagnostic = INEFFECTIVE_ACTION
    elif r != n - 1 or meet_rank != 1 or embedding.rank() != n - 1:
        diagnostic = WRONG_DIMENSION

    if diagnostic is not None:
        return PipelineReport(nondegenerate, holes, summary, r,
                              combined_dimension, False, diagnostic,
                              None, None, None)
    return PipelineReport(nondegenerate, holes, summary, r,
                          combined_dimension, True, None,
                          embedding, saturation_basis(embedding), 1)
