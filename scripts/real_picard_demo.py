#!/usr/bin/env python3
"""Walk through the real-backend computations on a small example family.

Shows the two evaluation routes agreeing, an independence certificate for
the pure parts of the definite Pfister forms, and the basis expansion of a
few determinants.
"""

import os
import sys

# run from a checkout: the engine source sits in <repo>/src
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from quadpic import (  # noqa: E402
    ProjectiveQuadric,
    QuadraticForm,
    basis_real,
    build_tower,
    active_index,
    det,
    generator_e,
    independent,
    pfister_real,
    phi_affine,
    real_lattice,
    twist_readoff,
)

real = QuadraticForm.real


def main() -> None:
    family = [real(0, 1), real(0, 2), real(0, 4), real(0, 8)]
    model = real_lattice(family + [real(5, 0), real(6, 2)], depth=3)
    print(f"lattice: {len(model.extension_tokens())} extensions")

    q = real(5, 0)
    tower = build_tower(q)
    print(f"\ntwist of e^{q.key} along the lattice (tower | closed form):")
    for token in model.extension_tokens()[:8]:
        i = active_index(tower, token, model)
        lhs = twist_readoff(i, q.dim, tower.prime_quadric_dim)
        rhs = phi_affine(q, token, model)
        print(f"  {token:<24} slot {i}: {lhs.render():>10} | {rhs.render():>10}")

    print("\nindependence of the Pfister pure parts:")
    certificate = independent(family, model)
    for step in certificate.steps:
        print(f"  eliminate e[{step.form}] via {step.witness}: {step.twist.render()}")

    print("\nbasis expansions of det(Q):")
    for q in (pfister_real(2), pfister_real(3), real(6, 2)):
        expansion = basis_real(det(ProjectiveQuadric(q), model), maxr=4)
        coords = ", ".join(f"r{r}: {c}" for r, c in expansion.coords) or "0"
        print(f"  det Q[{q.key}] -> {coords}   (tate {expansion.tate.render()})")

    e = generator_e(real(0, 4), model)
    expansion = basis_real(e, maxr=4)
    coords = ", ".join(f"r{r}: {c}" for r, c in expansion.coords)
    print(f"  e[(0,4)]     -> {coords}   (tate {expansion.tate.render()})")


if __name__ == "__main__":
    main()
