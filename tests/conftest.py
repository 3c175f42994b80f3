import math
from pathlib import Path

import numpy as np
import pytest

from twopointwave import (
    EnergyRecords,
    Forcing,
    ProblemParams,
    assemble,
    derive_constants,
    integrate,
    manufacture,
    norm_1_sq,
    project_initial_data,
    record_trajectory,
    uniform_mesh,
)

# The shipped reference scenario; its constants are REFERENCE below.
REFERENCE_CFG = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"

REFERENCE = ProblemParams(
    h0=1.0, h1=0.5, lam0=1.0, lam1=1.0,
    ht0=0.01, ht1=0.01, lt0=0.1, lt1=0.1,
    K=1.0, lam=1.0,
)


def flat_records(n, **overrides):
    """n zero records at spacing 0.1, with the given columns replaced."""
    columns = dict(t=0.1 * np.arange(n), E=np.zeros(n), psi=np.zeros(n),
                   Gamma=np.zeros(n), sigma=np.zeros(n), X=np.zeros(n))
    columns.update(overrides)
    return EnergyRecords(**columns)


def boundary_integral(sys, traj, records):
    """X minus the state norms v'Mv + u(0)^2 + c'Sc: the running integral
    of |u'(0,s)|^2 + |u'(1,s)|^2 that X adds to them."""
    V = traj.velocities
    norms = sys.M.form(V) + norm_1_sq(sys, traj.coeffs)
    return records.X - norms


@pytest.fixture(scope="session")
def ref_params():
    return REFERENCE


@pytest.fixture(scope="session")
def ref_dc():
    return derive_constants(REFERENCE)


@pytest.fixture(scope="session")
def ref_system():
    return assemble(uniform_mesh(65), REFERENCE)


@pytest.fixture(scope="session")
def ref_run(ref_system, ref_dc):
    """Reference homogeneous run: u0 = cos(pi x), u1 = 0, T = 10, dt = 1e-3."""
    mesh = ref_system.mesh
    c0, v0 = project_initial_data(
        mesh, lambda x: np.cos(np.pi * x), lambda x: np.zeros_like(x)
    )
    traj = integrate(ref_system, Forcing(), c0, v0, T=10.0, dt=1e-3)
    records = record_trajectory(traj, ref_system, REFERENCE, ref_dc)
    return traj, records


def _batch_forcings():
    """Forcings of every kind the batched load and sigma paths must reproduce
    bit for bit: the registry forms and their time derivatives, boundary data
    alone (scalar ``math`` closures), a user ``f`` and no forcing at all."""
    cases = {}
    for name in ("decaying_cosine", "decaying_affine", "polynomial"):
        for k in (0, 1):
            cases[f"{name}-dt{k}"] = manufacture(name, REFERENCE, 1.3).forcing(k)
    cases["boundary_only"] = Forcing(g0=math.cos, g1=lambda t: math.exp(-2.0 * t))
    cases["user_f"] = Forcing(f=lambda x, t: np.sin(3.0 * x + t) * np.exp(-x * t),
                              g1=lambda t: -t)
    cases["none"] = Forcing()
    return cases


BATCH_FORCINGS = _batch_forcings()


@pytest.fixture(params=sorted(BATCH_FORCINGS))
def batch_forcing(request):
    return BATCH_FORCINGS[request.param]
