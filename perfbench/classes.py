"""Seeded sample laws, one per free vanishing class.

Each recipe populates exactly the star patterns its class allows, with
seeded weights, so the class is known by construction.  The pattern sets
follow the class definitions in freesym.distributions.
"""

from __future__ import annotations

from freesym.distributions import CumulantSpecSingle

import oracle

ORDER = 6


def _recipes():
    def sym(w):
        return {"11": w(), "**": w(), "1111": w(), "****": w()}, False, 0.0

    def orth(w):
        v = w()
        return {p: v for p in ("11", "1*", "*1", "**")}, False, 0.0

    def semi(w):
        return {"11": w()}, True, 0.0

    def shifted_orth(w):
        return {"11": w()}, True, w()

    def m_unitary(w):
        return {"1*": w(), "*1": w(), "111": w(), "***": w()}, False, 0.0

    def free_unitary(w):
        return {"1*": w(), "*1": w(), "11**": w()}, False, 0.0

    def r_diagonal(w):
        return {"1*": w(), "*1": w(), "1*1*": -w(), "*1*1": -w()}, False, 0.0

    def circular(w):
        return {"1*": w(), "*1": w()}, False, 0.0

    def shifted_circular(w):
        return {"1*": w(), "*1": w()}, False, w()

    return (
        ("SYMMETRIC", None, sym),
        ("ORTHOGONAL", None, orth),
        ("SEMICIRCULAR", None, semi),
        ("SHIFTED_ORTHOGONAL", None, shifted_orth),
        ("M_UNITARY", 3, m_unitary),
        ("FREE_UNITARY", None, free_unitary),
        ("R_DIAGONAL", None, r_diagonal),
        ("CIRCULAR", None, circular),
        ("SHIFTED_CIRCULAR", None, shifted_circular),
    )


RECIPES = _recipes()


def sample(recipe, rng) -> tuple[CumulantSpecSingle, dict]:
    """The law as a freesym spec, and its cumulants on every pattern."""
    entries, selfadjoint, shift = recipe(lambda: float(1.0 + 0.5 * rng.uniform()))
    spec = CumulantSpecSingle(order=ORDER, entries=entries, selfadjoint=selfadjoint, shift=shift)
    full = {}
    for k in range(1, ORDER + 1):
        for p in oracle.patterns(k):
            if selfadjoint:
                value = next((v for q, v in entries.items() if len(q) == k), 0.0)
            else:
                value = entries.get(p, 0.0)
            if value:
                full[p] = complex(value)
    if shift:
        full["1"] = full.get("1", 0j) + shift
        full["*"] = full.get("*", 0j) + shift
    return spec, full


# the relation family whose models preserve each class (the paper's
# classification), as FamilyTag arguments
GOVERNING = {
    "SYMMETRIC": ("H_S_PLUS", None),
    "ORTHOGONAL": ("O_PLUS", None),
    "SEMICIRCULAR": ("O_PLUS", None),
    "SHIFTED_ORTHOGONAL": ("B_S_PLUS", None),
    "M_UNITARY": ("H_M_PLUS", 3),
    "FREE_UNITARY": ("H_0_PLUS", None),
    "R_DIAGONAL": ("H_PRIME_PLUS", None),
    "CIRCULAR": ("U_PLUS", None),
    "SHIFTED_CIRCULAR": ("B_PLUS", None),
}
