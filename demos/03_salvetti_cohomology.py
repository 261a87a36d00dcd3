"""Cohomology of Artin groups with Laurent polynomial coefficients.

Builds the finite free complex attached to a reflection type, shows its
coboundary matrices, and reads off invariant factors of the cohomology
over Q and over prime fields.
"""

from artinfib import (GF, cohomology, homology, build_salvetti_complex,
                      finite_type_system, format_poly, smith_normal_form)

A2 = build_salvetti_complex(finite_type_system("A2"))
print("A2 complex ranks:", A2.ranks)
for k in range(A2.top_degree):
    print(f"d^{k} =", [[format_poly(e) for e in row]
                       for row in A2.diff(k)])

# invariant factors of one differential via Smith normal form
dec = smith_normal_form(A2.diff(1), A2.domain)
print("SNF diagonal of d^1:", [format_poly(d) for d in dec.diagonal])

# every cohomology group of these complexes is pure torsion over Q
for name in ("A1", "A2", "A3", "B3", "I2(5)", "H3"):
    C = build_salvetti_complex(finite_type_system(name))
    groups = cohomology(C)
    body = ", ".join(f"H^{g.degree} = {g}" for g in groups)
    print(f"{name}: {body}")

# homology reads the same Smith forms as cohomology; its torsion
# matches the cohomology one degree up
A3 = build_salvetti_complex(finite_type_system("A3"))
hom = homology(A3)
co = cohomology(A3)
print("\nA3 homology:", "; ".join(f"H_{g.degree} = {g}" for g in hom))
for k in range(A3.top_degree):
    assert hom[k].torsion_dim == co[k + 1].torsion_dim

# modular coefficients change the invariant factors, not the machinery
for p in (2, 3):
    groups = cohomology(build_salvetti_complex(finite_type_system("A2"),
                                               GF(p)))
    print(f"A2 over Z/{p}:", "; ".join(f"H^{g.degree} = {g}"
                                       for g in groups))
