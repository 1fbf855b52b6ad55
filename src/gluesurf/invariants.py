"""Numerical invariants of the glued surface: irregularity, genus, K², Picard data.

The irregularity comes from the kernel of the paper's cusp matrix C (rows:
the degenerate cusps; columns: the anti-invariant functions, one per tau-pair).
C is -2 times the transpose of ``topology``'s relation matrix R, so q is read
from the rank of R; R keeps its Smith divisors, which the homology reuses.
"""

from __future__ import annotations

from .base import Record
from .errors import (
    DEFAULT_BUDGET,
    GeometricGenusNonzeroError,
    MissingFieldError,
    NegativeResultError,
    NormalizationIrregularError,
    SurfaceNotConnectedError,
)
from .gluing import DegenerateCusp, ValidatedGluing, cusps, euler_characteristics
from .grouptheory import (
    Fingerprint,
    GroupPresentation,
    fingerprint,
    tietze_simplify,
)
from .intlinalg import AbelianGroup, snf
from .topology import HomologyOfX, cusp_relations, homology_of_X, pi1_presentation


def irregularity(g: ValidatedGluing) -> tuple[int, int]:
    """(q, p_g) of the glued surface; requires X connected and regular normalization.

    q = dim ker C - #normal components + 1, and dim ker C = #tau-pairs - rank R.
    """
    if g.x_component_count != 1:
        raise SurfaceNotConnectedError(
            f"X has {g.x_component_count} components; the count enters the formula"
        )
    for n in g.normals:
        if n.q != 0:
            raise NormalizationIrregularError(
                f"normal component {n.id} has q = {n.q}; the algorithm needs q = 0"
            )
    q = len(g.tau_pairs) - snf(cusp_relations(g)).rank - len(g.normals) + 1
    chi = euler_characteristics(g).chi_x
    p_g = chi - 1 + q
    if q < 0 or p_g < 0:
        raise NegativeResultError(f"q = {q}, p_g = {p_g}; the input is inconsistent")
    return q, p_g


def k_squared(g: ValidatedGluing) -> int:
    """Self-intersection of the canonical divisor, summed from the descriptors."""
    total = 0
    for n in g.normals:
        if n.k_plus_d_sq is None:
            raise MissingFieldError(f"normal component {n.id} lacks k_plus_d_sq")
        total += n.k_plus_d_sq
    return total


class InvariantReport(Record):
    """Everything the CLI reports for one glued surface; ``cusp_partition`` is kept as a tuple."""

    __slots__ = ("chi", "q", "p_g", "k_squared", "cusp_partition", "homology", "pi1",
                 "fingerprint")

    def __init__(self, chi: int, q: int, p_g: int, k_squared: int,
                 cusp_partition: tuple[DegenerateCusp, ...], homology: HomologyOfX,
                 pi1: GroupPresentation, fingerprint: Fingerprint | None = None):
        if p_g != chi - 1 + q:
            raise ValueError("p_g, chi and q are inconsistent")
        self._set(chi, q, p_g, k_squared, tuple(cusp_partition), homology, pi1, fingerprint)


def compute_report(g: ValidatedGluing, *, catalog=None,
                   budget: int = DEFAULT_BUDGET) -> InvariantReport:
    """The full report; it carries a fingerprint against ``catalog`` when one is given.

    The abelianization of pi1 is H1, the cokernel of the tau-pairs x cusps
    matrix R, which ``irregularity`` reduces for its rank and ``homology_of_X``
    reads from the divisors R keeps; the exponent-sum matrix is not reduced.
    """
    chi = euler_characteristics(g).chi_x
    q, p_g = irregularity(g)
    presentation = pi1_presentation(g)
    fp = None
    if catalog is not None:
        fp = fingerprint(tietze_simplify(presentation), catalog=catalog, budget=budget)
    k2 = k_squared(g)
    return InvariantReport(
        chi=chi,
        q=q,
        p_g=p_g,
        k_squared=k2,
        cusp_partition=cusps(g),
        homology=homology_of_X(g),
        pi1=presentation,
        fingerprint=fp,
    )


class PicardSummary(Record):
    """Rank data of the Picard group when the geometric genus vanishes.

    ``structure`` spells out the connected component only in the clean
    case q = b1, where it is a torus of that dimension.
    """

    __slots__ = ("pic0_dim", "b1", "ns_target", "structure")

    def __init__(self, pic0_dim: int, b1: int, ns_target: AbelianGroup, structure: str | None):
        self._set(pic0_dim, b1, ns_target, structure)


def picard_summary(report: InvariantReport) -> PicardSummary:
    if report.p_g != 0:
        raise GeometricGenusNonzeroError(
            f"p_g = {report.p_g}; the exponential-sequence argument needs p_g = 0"
        )
    b1 = report.homology.h1.free_rank
    # H^2 via universal coefficients: free part of H_2 plus torsion of H_1
    ns_target = AbelianGroup(report.homology.h2.free_rank, report.homology.h1.torsion)
    structure = None
    if report.q == b1:
        if report.q == 0:
            structure = "1"
        elif report.q == 1:
            structure = "C*"
        else:
            structure = f"C*^{report.q}"
    return PicardSummary(
        pic0_dim=report.q,
        b1=b1,
        ns_target=ns_target,
        structure=structure,
    )
