"""Enumeration budgets.

Every oracle refuses to approximate: when the enumeration space exceeds its
budget it raises :class:`BudgetExceededError` instead of truncating.  The
environment variable ``CLZETA_BUDGET`` overrides the per-operation defaults
globally; an explicit ``budget=`` argument wins over both.
"""

from __future__ import annotations

import os

DEFAULT_MATRIX_BUDGET = 2**26  # A-space size q^(n^2) for linear-in-B counting
DEFAULT_FULL_BUDGET = 2**20  # (A, B)-space size q^(2 n^2) for full enumeration
DEFAULT_ENDO_BUDGET = 2**24  # endomorphism count p^(sum min(lam_i, lam_j))
DEFAULT_CONJ_BUDGET = 2**20  # |Aut| for conjugacy-class counting
# |N|^d for the enumerated surjection probability; also |N|^2 for a module's
# addition table and |Aut| * |N| for the code tables of conj_classes_aut
DEFAULT_SURJ_BUDGET = 2**24


class BudgetExceededError(RuntimeError):
    def __init__(self, op: str, needed: int, budget: int):
        super().__init__(
            f"{op}: enumeration size {needed} exceeds budget {budget}"
        )
        self.op = op
        self.needed = needed
        self.budget = budget


def resolve(explicit: int | None, default: int) -> int:
    """Explicit argument > CLZETA_BUDGET environment override > default."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("CLZETA_BUDGET")
    if env:
        return int(env)
    return default


def check(op: str, needed: int, explicit: int | None, default: int) -> None:
    budget = resolve(explicit, default)
    if needed > budget:
        raise BudgetExceededError(op, needed, budget)
