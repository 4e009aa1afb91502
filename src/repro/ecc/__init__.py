"""Error-correcting codes: BCH, its word layout, and the ECC-overhead planner."""

from .bch import BchCode, DecodeResult, EccError
from .gf import GF2m, PRIMITIVE_POLYS
from .overhead import EccPlan, binomial_tail, plan_for_budget, required_t

__all__ = [
    "BchCode",
    "DecodeResult",
    "EccError",
    "EccPlan",
    "GF2m",
    "PRIMITIVE_POLYS",
    "binomial_tail",
    "plan_for_budget",
    "required_t",
]
