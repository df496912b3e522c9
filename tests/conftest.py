"""Fixtures shared by the test modules."""

import sys

import pytest

from kgalilei import scalars


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
