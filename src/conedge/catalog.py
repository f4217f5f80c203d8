"""Named cone catalog.

Each entry names a minimal cone by its invariance group, the component
names of its edge, and a default ambient dimension.  A cone is fixed by
its edge, so the closed-form margins are chosen by the edge, never by the
entry's name.  `FAMILIES` is the one table of edge families: per group and
component subset, the named family and its closed form, a kernel built on
a `structures.CHARACTERS` row: lambda_min of a commuting part (P, P_C,
P_H), the trace (laplace), or one nuclear-norm kernel, which serves both
the lagrangian planes (P_LAG) and the planes complex for one quaternionic
structure and lagrangian for the other two (GL_IJK).  `closed_form_for`
matches the components that survive at the ambient dimension (some vanish
in low dimension, e.g. h_sym0 at one quaternionic dimension), so any entry
or classification edge equal to an edge with a closed form gets it.  Each
closed form is one batch kernel over a stack of matrices (a single margin
is the batch of one) and agrees with the primal-dual translate kernel
(both compute the same pairing minimum over the polar base; the closed
form lies in the kernel's certified interval); the agreement is part of
the test suite, so neither route may be removed.  Edges without a closed
form run that kernel.

The catalog file format is a small INI-like key-value text:

    [P_C]
    group = un
    n = 4
    edge = c_skew

The environment variable CONEDGE_CATALOG can point at a replacement file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import structures as st
from .cones import EdgeCone
from .symspace import SymSubspace, direct_sum, zero_subspace

ENV_CATALOG = "CONEDGE_CATALOG"


@dataclass(frozen=True)
class CatalogSpec:
    name: str
    group_kind: str
    components: tuple[str, ...]   # edge component names; empty = zero edge
    default_n: int                # default ambient real dimension
    description: str = ""


DEFAULT_SPECS = (
    CatalogSpec("P", "on", (), 2,
                "positive-semidefinite cone; subfunctions are the convex ones"),
    CatalogSpec("laplace", "on", ("sym0",), 2,
                "trace half-space as a minimal cone (edge = traceless part)"),
    CatalogSpec("P_C", "un", ("c_skew",), 4,
                "complex hermitian positivity (plurisubharmonic functions)"),
    CatalogSpec("P_LAG", "un", ("c_sym0",), 4,
                "nonnegative traces on lagrangian planes"),
    CatalogSpec("P_H", "spn_sp1", ("h_skew3",), 4,
                "quaternionic hermitian positivity"),
    CatalogSpec("P_HSYM", "spn_sp1", ("h_sym0",), 8,
                "edge = traceless quaternion-hermitian block"),
    CatalogSpec("GL_IJK", "spn_s1", ("h_sym0", "e_j", "e_k"), 4,
                "planes that are I-complex and J,K-lagrangian"),
    CatalogSpec("P_EI", "spn_s1", ("e_i",), 4,
                "edge = I-aligned skew component only"),
)


def catalog_names() -> list[str]:
    return [s.name for s in DEFAULT_SPECS]


def edge_from_components(group: st.Group, components, comps=None) -> SymSubspace:
    """Direct sum of the named components; `comps` is the group's
    `irreducible_components`, computed here when not given."""
    if comps is None:
        comps = st.irreducible_components(group)
    parts = []
    for name in components:
        if name not in comps:
            raise KeyError(f"unknown component {name!r} for group {group.kind}")
        if name == "id":
            raise ValueError("the identity component is never a basic edge part")
        parts.append(comps[name])
    parts = [p for p in parts if p.dim > 0]
    if not parts:
        return zero_subspace(group.dim)
    return direct_sum(*parts)


# ----------------------------------------------------------------------
# closed-form margins, chosen by the edge: each factory takes the ambient
# dimension and returns one stack kernel (m, n, n) -> (m,) equal to
# min <A, Z> over the polar base tr Z = 1
# ----------------------------------------------------------------------

def _trace(n):
    return lambda a: np.trace(a, axis1=-2, axis2=-1) / n


def _lambda_min(part):
    """lambda_min of the named commutant part of A: "sym" (A itself) for P,
    "<s>_sym" for P_C over the structure s, "h_sym" for P_H."""
    def factory(n):
        proj = st.character_map(n, st.CHARACTERS[part])
        return lambda a: np.linalg.eigvalsh(proj(a))[..., 0]

    return factory


def _nuclear(part):
    """(tr A - nuclear norm of part(A)) / n, part anti-commuting with a
    structure (eigenvalues paired as +-mu): the least tr(A|_W)/(n/2) over
    planes W lagrangian for s under "<s>_skew" (P_LAG; the mean of the n/2
    smallest eigenvalues of part(A) + (tr A / n) Id), over planes complex
    for s and lagrangian for the other two under "e_<s>" (GL_IJK[s])."""
    def factory(n):
        proj = st.character_map(n, st.CHARACTERS[part])

        def kernel(a):
            lam = np.linalg.eigvalsh(proj(a))
            return (np.trace(a, axis1=-2, axis2=-1) - np.abs(lam).sum(axis=1)) / n

        return kernel

    return factory


@dataclass(frozen=True)
class EdgeFamily:
    """The named family an invariant edge belongs to."""

    label: str                   # e.g. "P_C[k]": P_C for the structure K
    larger: tuple                # sampler key of a containing group
    new: bool                    # genuinely circle-extended (spn_s1 only)
    kernel: Callable | None      # closed-form factory n -> stack kernel


# FAMILIES[kind][component subset]: every subset of a group's non-identity
# components is a basic edge.  `closed_form_for` takes the first row with a
# kernel whose surviving components match, so where two rows name one edge
# in low dimension the order decides: on lists the traceless edge first (in
# dimension 1 both edges are zero, and the cone keeps its linear weight),
# spn_s1 lists GL_IJK before P_C (GL_IJK(4) keeps its own kernel).
FAMILIES = {
    "on": {
        ("sym0",): EdgeFamily("laplace", ("on",), False, _trace),
        (): EdgeFamily("P", ("on",), False, _lambda_min("sym")),
    },
    "un": {
        (): EdgeFamily("P", ("on",), False, _lambda_min("sym")),
        ("c_sym0",): EdgeFamily("P_LAG", ("un", "std"), False, _nuclear("c_skew")),
        ("c_skew",): EdgeFamily("P_C", ("un", "std"), False, _lambda_min("c_sym")),
        ("c_sym0", "c_skew"): EdgeFamily("laplace", ("on",), False, _trace),
    },
    "spn_sp1": {
        (): EdgeFamily("P", ("on",), False, _lambda_min("sym")),
        ("h_sym0",): EdgeFamily("P_HSYM", ("spn_sp1",), False, None),
        ("h_skew3",): EdgeFamily("P_H", ("spn_sp1",), False, _lambda_min("h_sym")),
        ("h_sym0", "h_skew3"): EdgeFamily("laplace", ("on",), False, _trace),
    },
    "spn_s1": {
        (): EdgeFamily("P", ("on",), False, _lambda_min("sym")),
        ("h_sym0",): EdgeFamily("P_HSYM", ("spn_sp1",), False, None),
        ("e_i",): EdgeFamily("P_EI[i]", ("spn_s1", "i"), True, None),
        ("e_j",): EdgeFamily("P_EI[j]", ("spn_s1", "j"), True, None),
        ("e_k",): EdgeFamily("P_EI[k]", ("spn_s1", "k"), True, None),
        ("h_sym0", "e_i"): EdgeFamily("P_LAG[i]", ("un", "i"), False, _nuclear("i_skew")),
        ("h_sym0", "e_j"): EdgeFamily("P_LAG[j]", ("un", "j"), False, _nuclear("j_skew")),
        ("h_sym0", "e_k"): EdgeFamily("P_LAG[k]", ("un", "k"), False, _nuclear("k_skew")),
        ("h_sym0", "e_i", "e_j"): EdgeFamily("GL_IJK[k]", ("spn_s1", "k"), True, _nuclear("e_k")),
        ("h_sym0", "e_i", "e_k"): EdgeFamily("GL_IJK[j]", ("spn_s1", "j"), True, _nuclear("e_j")),
        ("h_sym0", "e_j", "e_k"): EdgeFamily("GL_IJK[i]", ("spn_s1", "i"), True, _nuclear("e_i")),
        ("e_i", "e_j"): EdgeFamily("P_C[k]", ("un", "k"), False, _lambda_min("k_sym")),
        ("e_i", "e_k"): EdgeFamily("P_C[j]", ("un", "j"), False, _lambda_min("j_sym")),
        ("e_j", "e_k"): EdgeFamily("P_C[i]", ("un", "i"), False, _lambda_min("i_sym")),
        ("e_i", "e_j", "e_k"): EdgeFamily("P_H", ("spn_sp1",), False, _lambda_min("h_sym")),
        ("h_sym0", "e_i", "e_j", "e_k"): EdgeFamily("laplace", ("on",), False, _trace),
    },
}
FAMILIES["spn"] = FAMILIES["spn_s1"]  # same components


def closed_form_for(group: st.Group, components, comps):
    """(kernel, linear weight) of the closed form for the edge spanned by
    `components` of `group`, or (None, None) when none is known.

    `comps` is the group's `irreducible_components`.  The first
    `FAMILIES[group.kind]` row with a kernel matches when the same
    components survive (have positive dimension at this ambient size) in
    the row and in `components`, so two names for one edge get one closed
    form.  The traceless edge's margin is linear, <A, Id/n>."""
    def surviving(names):
        return frozenset(c for c in names if comps[c].dim > 0)

    n = group.dim
    edge = surviving(components)
    for subset, family in FAMILIES[group.kind].items():
        if family.kernel is not None and surviving(subset) == edge:
            return family.kernel(n), np.eye(n) / n if family.kernel is _trace else None
    return None, None


def group_for(spec: CatalogSpec, n_real: int) -> st.Group:
    return st.Group(spec.group_kind, n_real)


def build_cone(name: str, n: int | None = None, *, check: bool = False,
               specs=None) -> EdgeCone:
    """Instantiate a catalog cone at ambient real dimension n.

    With check=True the edge is re-verified basic (slower; the catalog
    edges are traceless, which already forces basicness).
    """
    spec = find_spec(name, specs)
    n_real = spec.default_n if n is None else n
    group = group_for(spec, n_real)
    comps = st.irreducible_components(group)
    edge = edge_from_components(group, spec.components, comps)
    kernel, lin_w = closed_form_for(group, spec.components, comps)
    return EdgeCone(edge, check=check, name=spec.name, fast_margin=kernel,
                    linear_margin_weight=lin_w)


def find_spec(name: str, specs=None) -> CatalogSpec:
    for s in specs or load_default_specs():
        if s.name == name:
            return s
    raise KeyError(f"no catalog cone named {name!r}")


# ----------------------------------------------------------------------
# catalog file round trip
# ----------------------------------------------------------------------

def dump_catalog(specs=None) -> str:
    lines = ["# conedge cone catalog"]
    for s in specs or DEFAULT_SPECS:
        lines.append("")
        lines.append(f"[{s.name}]")
        lines.append(f"group = {s.group_kind}")
        lines.append(f"n = {s.default_n}")
        lines.append(f"edge = {','.join(s.components)}")
        if s.description:
            lines.append(f"description = {s.description}")
    return "\n".join(lines) + "\n"


def parse_catalog(text: str) -> list[CatalogSpec]:
    specs = []
    current: dict | None = None

    def flush():
        if current is None:
            return
        missing = {"group", "n"} - current.keys()
        if missing:
            raise ValueError(f"catalog entry {current.get('name')} missing {missing}")
        comps = tuple(c for c in current.get("edge", "").split(",") if c)
        specs.append(
            CatalogSpec(current["name"], current["group"], comps,
                        int(current["n"]), current.get("description", ""))
        )

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            current = {"name": line[1:-1].strip()}
            continue
        if "=" not in line or current is None:
            raise ValueError(f"malformed catalog line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        current[key] = val
    flush()
    return specs


def load_default_specs() -> list[CatalogSpec]:
    path = os.environ.get(ENV_CATALOG)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_catalog(fh.read())
    return list(DEFAULT_SPECS)
