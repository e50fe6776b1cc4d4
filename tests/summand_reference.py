"""Reference evaluators of single summands, for cross-checking decompositions.

The library describes a quadric motive by its summands but never evaluates
one summand on its own.  These two evaluators do, from the Witt oracle
alone: the Witt-consistency and det-splitting tests use them to tie
decompose_real to the level model at every extension.
"""

from quadpic import ModelError, TateTwist, ZERO_TWIST, pfister_real
from quadpic.decomp import Summand, parse_rost_kind


def tate_counts(summand: Summand, extension, model) -> tuple[list[int], list[int]]:
    """Upper and lower Tate positions split off a summand at an extension.

    A rost:r block splits exactly when the r-fold definite Pfister form is
    hyperbolic there; the two constituents then sit at shift + 2^(r-1) - 1
    (upper) and shift (lower).  Declared summands carry no constituent
    gradings, so they have no computable counts, and a declared lattice
    refuses the real Pfister form.
    """
    r = parse_rost_kind(summand.kind)
    if r is None:
        raise ModelError(
            f"summand {summand.cls.render()} has no constituent grading data"
        )
    split = model.witt_index(pfister_real(r), extension) == 2 ** (r - 1)
    if not split:
        return ([], [])
    return ([summand.shift + 2 ** (r - 1) - 1], [summand.shift])


def phi_ratio_summand(summand: Summand, extension, model) -> TateTwist:
    """Twist ratio of an indecomposable summand at an extension.

    Upper Tate constituents T(l)[2l] contribute (l)[2l]; lower ones divide
    out as (l)[2l-1].  Invariant under Tate shifts of the summand.
    """
    upper, lower = tate_counts(summand, extension, model)
    total = ZERO_TWIST
    for l in upper:
        total = total + TateTwist(l, 2 * l)
    for l in lower:
        total = total - TateTwist(l, 2 * l - 1)
    return total
