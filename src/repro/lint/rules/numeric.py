"""NUM001 — dtype discipline in the ``repro.ecc`` and ``repro.nand`` kernels.

The vectorised BCH hot path (DESIGN §8) keeps its GF log/antilog
tables int64, runs the Chien search on uint16 copies of them (uint16
holds every index; int16 would wrap) and the parity GEMM in float32,
and runs Berlekamp–Massey on Python ints; the chip simulator's
block-level kernels (DESIGN §11) keep voltages float32 and latent fields
float64 end to end.  Their correctness proofs (batch == scalar,
bit-for-bit) assume no silent change of width.  An
array constructor without an explicit ``dtype=`` defaults to the
platform C long (``np.arange``/``np.array`` of ints: int32 on Windows,
int64 on Linux), which both breaks cross-platform bit-identity and
silently widens fixed-width pipelines at the first mixed operation.
``dtype=int`` has the same platform dependence spelled differently.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Rule, register
from ..findings import Finding, Severity
from ..project import ModuleInfo, Project

#: numpy constructors that must carry a dtype, with the 0-based index of
#: the positional slot that can supply it.
_CONSTRUCTORS = {
    "numpy.array": 1,
    "numpy.zeros": 1,
    "numpy.ones": 1,
    "numpy.empty": 1,
    "numpy.full": 2,
    "numpy.arange": 3,
    "numpy.frombuffer": 1,
}

#: Packages the rule applies to: the fixed-width BCH kernels and the
#: float32-voltage / float64-latent chip kernels.
_SCOPE_PREFIXES = ("repro.ecc", "repro.nand")


def _dtype_argument(node: ast.Call, positional_slot: int) -> ast.AST | None:
    for keyword in node.keywords:
        if keyword.arg == "dtype":
            return keyword.value
    if len(node.args) > positional_slot:
        return node.args[positional_slot]
    return None


@register
class MissingDtypeRule(Rule):
    """NUM001: numpy constructor in ecc/ without an explicit exact dtype."""

    code = "NUM001"
    name = "kernel-dtype-discipline"
    severity = Severity.ERROR
    description = (
        "np.array/zeros/ones/empty/full/arange/frombuffer in repro.ecc or "
        "repro.nand without an explicit dtype (or with platform-dependent "
        "dtype=int): defaults follow the platform C long and silently "
        "widen the fixed-width kernels"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if not module.modname.startswith(_SCOPE_PREFIXES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.dotted_source(node.func)
            if dotted not in _CONSTRUCTORS:
                continue
            dtype = _dtype_argument(node, _CONSTRUCTORS[dotted])
            short = dotted.replace("numpy.", "np.")
            if dtype is None:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"{short}() without an explicit dtype: the default "
                    f"follows the platform C long and widens the "
                    f"fixed-width kernels; state the dtype",
                )
            elif isinstance(dtype, ast.Name) and dtype.id == "int":
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"{short}(dtype=int) is the platform C long (int32 on "
                    f"Windows, int64 on Linux); use an explicit numpy "
                    f"dtype such as np.int16 or np.int64",
                )
