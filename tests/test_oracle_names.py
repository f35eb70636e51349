"""The second routes that frobkit verify and the tests compare the library
against are oracles: frobkit.verify defines them, and neither the package
nor any other module of it holds them."""
import importlib
import pkgutil

import frobkit
from frobkit import verify

ORACLES = ("dual_basis_twist", "to_semilinear", "semilinear_nilpotent",
           "brute_force_solutions", "cartier_volume_by_decomposition",
           "frobenius_twist_root", "frobenius_twist_vector")


def test_oracles_are_defined_only_in_verify():
    for name in ORACLES:
        assert getattr(verify, name).__module__ == "frobkit.verify", name
    holders = []
    for info in pkgutil.iter_modules(frobkit.__path__):
        if info.name == "verify":
            continue
        module = importlib.import_module(f"frobkit.{info.name}")
        holders.extend(f"{info.name}.{name}" for name in ORACLES
                       if hasattr(module, name))
    holders.extend(name for name in ORACLES if hasattr(frobkit, name))
    assert not holders, holders
