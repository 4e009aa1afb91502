"""Error-correcting codes: BCH, XOR parity, and the ECC-overhead planner."""

from .bch import BchCode, DecodeResult, EccError
from .gf import GF2m, PRIMITIVE_POLYS
from .overhead import EccPlan, binomial_tail, plan_for_budget, required_t
from .parity import ParityGroup

__all__ = [
    "BchCode",
    "DecodeResult",
    "EccError",
    "EccPlan",
    "GF2m",
    "PRIMITIVE_POLYS",
    "ParityGroup",
    "binomial_tail",
    "plan_for_budget",
    "required_t",
]
