"""Alternative twist evaluator through the ordered Grassmannian tower.

For a form q of dimension n, the tower X_1, ..., X_n alternates
Grassmannians of the prime quadric and of the quadric itself:
X_{2t+1} = G(Q', t) and X_{2t+2} = G(Q, t).  Point existence is downward
closed along the tower, the largest pointed slot is the active index, and
the twist of e^q reads off from that index alone.  Everything is driven by
the point-existence oracle; no motive objects appear.

The active index is memoized in the lattice's memos["tower"], one row per
oracle group (form memo_id -> active index), the group read from the
lattice's group_of map.  This route reads neither the twists layer nor its
memo, and the twists layer never reads this one, so comparing the two
routes compares two separate computations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import ModelError
from .forms import Grassmannian, ProjectiveQuadric, QuadraticForm, prime
from .twists import TateTwist


class ProjectorTower(NamedTuple):
    form: QuadraticForm
    entries: tuple[Grassmannian, ...]

    @property
    def prime_quadric_dim(self) -> int:
        return self.form.dim - 1


def build_tower(q: QuadraticForm, model=None) -> ProjectorTower:
    """The length-dim(q) tower of Grassmannians for q.

    Declared forms need the model to resolve their prime link.
    """
    q_prime = prime(q) if model is None else model.prime_of(q)
    quadric = ProjectiveQuadric(q)
    quadric_prime = ProjectiveQuadric(q_prime)
    entries = []
    for i in range(1, q.dim + 1):
        if i % 2 == 1:
            entries.append(Grassmannian(quadric_prime, (i - 1) // 2))
        else:
            entries.append(Grassmannian(quadric, (i - 2) // 2))
    return ProjectorTower(q, tuple(entries))


def active_index(tower: ProjectorTower, extension, model) -> int:
    """Largest tower slot with a rational point over the extension (0 if none).

    A pointed slot above an unpointed one breaks downward closure and means
    the model is invalid; that is a hard error, not a verdict, and it is
    raised again on every call.
    """
    memo = model.memos["tower"]
    group = model.group_of[extension]
    row = memo.get(group) or memo.setdefault(group, {})  # one row for concurrent readers
    form = tower.form
    # memo_id keeps a declared id that spells a real key off the real entry
    active = row.get(form.memo_id)
    if active is not None:
        return active
    active = 0
    gap = None
    for i, grass in enumerate(tower.entries, start=1):
        if model.has_rational_point(grass, extension):
            if gap is not None:
                raise ModelError(
                    f"tower of {form.key}: slot {i} pointed above unpointed "
                    f"slot {gap} (downward closure violated)"
                )
            active = i
        elif gap is None:
            gap = i
    row[form.memo_id] = active
    return active


@lru_cache(maxsize=None)
def twist_readoff(i: int, n: int, nprime: int) -> TateTwist:
    """Twist of e^q from the active index i, with n = dim(q), nprime = dim(Q').

    Answers come from a table keyed by (i, n, nprime).  A refused index is
    never stored, so its ValueError is raised again on every call.
    """
    if not 0 <= i <= n:
        raise ValueError(f"active index {i} outside [0, {n}]")
    if i % 2 == 0:
        return TateTwist(i // 2, i)
    return TateTwist(nprime - (i - 1) // 2, 2 * nprime - i + 2)
