"""Randomized sweeps for the three scalar/norm inequalities.

Each suite draws seeded random inputs, evaluates both sides of its
inequality through the public operations, and reports the violation count
at 1e-12 relative tolerance:

  * boundary damping form:  lam0*x^2 + lam1*y^2 + (lt0+lt1)*x*y
                            >= mu_min/2 * (x^2 + y^2)
  * norm equivalence:       C0*||v||_1^2 <= ||v||_a^2 <= C1*||v||_1^2
  * sup-norm embedding:     max|v| <= sqrt(2)*||v||_1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galerkin import assemble, norm_1_sq, norm_a_sq, sup_norm, uniform_mesh
from .params import (
    ProblemParams,
    derive_constants,
    mu_min,
    quadratic_form_lhs,
    validate_params,
)

__all__ = [
    "PropertyReport",
    "random_admissible_params",
    "quadratic_form_suite",
    "norm_equivalence_suite",
    "sup_embedding_suite",
    "run_property_suites",
]

REL_TOL = 1e-12
_MESH_SIZES = (5, 17, 33, 65)


@dataclass(frozen=True)
class PropertyReport:
    name: str
    checked: int
    violations: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def random_admissible_params(rng: np.random.Generator) -> ProblemParams:
    """Rejection-sample params satisfying every hypothesis including decay."""
    while True:
        lam0 = rng.uniform(0.2, 4.0)
        lam1 = rng.uniform(0.2, 4.0)
        p = ProblemParams(
            h0=rng.uniform(0.2, 4.0),
            h1=rng.uniform(0.0, 3.0),
            lam0=lam0,
            lam1=lam1,
            ht0=rng.uniform(-0.5, 0.5),
            ht1=rng.uniform(-0.5, 0.5),
            lt0=rng.uniform(-1.0, 1.0),
            lt1=rng.uniform(-1.0, 1.0),
            K=rng.uniform(0.1, 3.0),
            lam=rng.uniform(0.1, 3.0),
        )
        if validate_params(p, require_decay_hypotheses=True).accepted:
            return p


def quadratic_form_suite(seed: int, n_points: int = 10_000, n_param_sets: int = 25) -> PropertyReport:
    rng = np.random.default_rng(seed)
    per_set = -(-n_points // n_param_sets)  # ceil
    checked = 0
    violations = 0
    worst = -np.inf
    for _ in range(n_param_sets):
        p = random_admissible_params(rng)
        floor = 0.5 * mu_min(p)
        x = rng.uniform(-10.0, 10.0, per_set)
        y = rng.uniform(-10.0, 10.0, per_set)
        scale = x**2 + y**2
        gap = floor * scale - quadratic_form_lhs(p, x, y)
        margin = gap / np.maximum(scale, 1.0)
        checked += per_set
        violations += int(np.count_nonzero(~(margin <= REL_TOL)))
        worst = max(worst, float(margin.max()))
    return PropertyReport("boundary damping form lower bound", checked, violations, worst)


def _vector_suite(name, seed, n_vectors, mesh_sizes, gap_and_scale) -> PropertyReport:
    """Draw one (per_mesh, n) block of random vectors per mesh size and count
    the vectors with gap > REL_TOL*scale (or a NaN gap), where ``gap_and_scale``
    maps the system and the block to both arrays."""
    rng = np.random.default_rng(seed)
    per_mesh = -(-n_vectors // len(mesh_sizes))
    violations = 0
    worst = -np.inf
    for n in mesh_sizes:
        sys = assemble(uniform_mesh(n), random_admissible_params(rng))
        gap, scale = gap_and_scale(sys, rng.uniform(-10.0, 10.0, (per_mesh, n)))
        worst = max(worst, float(np.max(gap / scale)))
        violations += int(np.count_nonzero(~(gap <= REL_TOL * scale)))
    return PropertyReport(name, per_mesh * len(mesh_sizes), violations, worst)


def norm_equivalence_suite(
    seed: int, n_vectors: int = 10_000, mesh_sizes: tuple[int, ...] = _MESH_SIZES
) -> PropertyReport:
    def gap_and_scale(sys, c):
        dc = derive_constants(sys.p)
        n1, na = norm_1_sq(sys, c), norm_a_sq(sys, c)
        return np.maximum(dc.C0 * n1 - na, na - dc.C1 * n1), np.maximum(n1, 1.0)

    return _vector_suite("norm equivalence", seed, n_vectors, mesh_sizes, gap_and_scale)


def sup_embedding_suite(
    seed: int, n_vectors: int = 10_000, mesh_sizes: tuple[int, ...] = _MESH_SIZES
) -> PropertyReport:
    def gap_and_scale(sys, c):
        bound = np.sqrt(2.0 * norm_1_sq(sys, c))
        return sup_norm(sys, c) - bound, np.maximum(bound, 1.0)

    return _vector_suite("sup-norm embedding", seed, n_vectors, mesh_sizes, gap_and_scale)


def run_property_suites(seed: int, n: int = 10_000) -> list[PropertyReport]:
    """All three suites with derived sub-seeds; used by the CLI and tests."""
    return [
        quadratic_form_suite(seed, n),
        norm_equivalence_suite(seed + 1, n),
        sup_embedding_suite(seed + 2, n),
    ]
