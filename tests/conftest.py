"""Fixtures shared by the test modules."""

import sys

import numpy as np
import pytest

from kgalilei import hydrogen, scalars


@pytest.fixture
def scalar_products(monkeypatch) -> list:
    """A one-element counter of the calls of the scalar product kernel
    ``scalars._mul``, under every name a kgalilei module binds it to, so that
    no product escapes the count: ``RationalFunction.__mul__``, ``**`` and
    the loops that multiply coefficients directly all reach it."""
    calls = [0]
    mul = scalars._mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kgalilei":
            for attr, value in list(vars(module).items()):
                if value is mul:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def harmonic_levels():
    """The harmonic-oscillator control on the radial solver's own mesh.

    Returns a function of a HydrogenConfig with an explicit r_max: the
    lowest n_max - l levels of the unit spring r^2 / 2, with the mesh, box
    and scaling of ``radial_solve``'s finer mesh.  In Bohr units the spring
    constant is v_f a_0^4 = v_f^-3, so the diagonal adds g r^2 / 2 and the
    centrifugal term to the program's own kinetic matrix.
    """
    def levels(cfg):
        g = cfg.v_f ** -3.0
        l, count = cfg.l, cfg.n_max - cfg.l
        r, matrix = hydrogen._mesh(1.5 * (cfg.r_max / cfg.bohr_radius),
                                   cfg.n_points + 4 * cfg.n_max + 20)
        np.fill_diagonal(matrix, matrix.diagonal() + 0.5 * g * r ** 2
                         + l * (l + 1) / (2.0 * r * r))
        return (cfg.v_f * np.linalg.eigvalsh(matrix)[:count]).tolist()
    return levels
