"""Invariants of non-normal surfaces described by combinatorial gluing data.

Importing the package runs none of its submodules.  Each one except
``cli`` (``python -m gluesurf.cli`` warns if it is already in
``sys.modules``) and ``base`` (no public name) is registered there as a
lazy module and runs, with the modules it imports, when one of its names
is first read; so an error inside a submodule surfaces at that first use,
not at ``import gluesurf``.
A public name is looked up in its home module on every read and never
cached here, so ``gluesurf.snf`` is whatever ``gluesurf.intlinalg`` binds.
"""

import importlib.util
import sys
import types

# each public name, by the submodule that defines it
_EXPORTS = {
    "errors": ("BudgetExceededError", "GluesurfError", "GluingValidationError", "InputError",
               "UnsupportedError"),
    "gluing": ("CurveComponent", "DegenerateCusp", "GluingData", "NormalComponent",
               "ValidatedGluing", "cusps", "euler_characteristics", "gluing_from_dict",
               "gluing_to_dict", "quotient_curve", "validate_gluing"),
    "grouptheory": ("FiniteGroup", "Fingerprint", "GroupPresentation", "Word", "abelianization",
                    "catalog_group", "cyclic_reduce", "default_catalog", "fingerprint",
                    "free_reduce", "hom_count", "tietze_simplify", "word_from_str"),
    "intlinalg": ("AbelianGroup", "IntegerMatrix", "SmithDecomposition", "cokernel_invariants",
                  "snf"),
    "invariants": ("InvariantReport", "PicardSummary", "compute_report", "irregularity",
                   "k_squared", "picard_summary"),
    "topology": ("HomologyOfX", "HomotopyGraph", "homology_of_X", "homotopy_graph",
                 "mv_matrices", "pi1_presentation"),
    "fourlines": ("LinePairBijections", "OrbitRecord", "all_gluings", "build_four_lines",
                  "d4_action", "enumerate_orbits", "orbit_and_stabilizer"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


class _Loader:
    """Runs a registered submodule with the loader it was found with, on its first
    read; a run that raises leaves it lazy, so the next read runs it and raises again."""

    def __init__(self, loader):
        self._loader = loader

    def __getattr__(self, name):
        return getattr(self._loader, name)

    def exec_module(self, module):
        namespace, before = vars(module), dict(vars(module))  # 3.13: vars() reads __spec__
        try:
            self._loader.exec_module(module)
        except BaseException:
            namespace.clear()
            namespace.update(before)
            module.__class__ = types.ModuleType  # the class LazyLoader records as run
            importlib.util.LazyLoader(self).exec_module(module)
            raise


for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_Loader(_spec.loader))
    sys.modules[_spec.name] = globals()[_module] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__


__version__ = "0.1.0"
