"""Betti numbers and monodromy of discriminant Milnor fibers.

The degree-k Betti number of the fiber equals the torsion dimension of
the degree k+1 Laurent cohomology, and the monodromy acts as
multiplication by q, so its characteristic polynomial is the product of
the invariant factors and has the Betti number as its degree.  Over Q
the eigenvalue structure is read off the cyclotomic factorization.
"""

from artinfib import (QQ, build_salvetti_complex, cohomology,
                      finite_type_system, format_poly,
                      monodromy_char_poly)

for name in ("A2", "A3", "B3", "H3"):
    C = build_salvetti_complex(finite_type_system(name))
    rows = monodromy_char_poly(cohomology(C), QQ)
    print(f"{name}:")
    for r in rows:
        eig = " ".join(f"Phi_{n}" + (f"^{m}" if m > 1 else "")
                       for n, m in r.cyclotomic) or "-"
        print(f"  degree {r.degree}: betti {r.betti}, "
              f"char poly {format_poly(r.charpoly)}, eigenvalues {eig}")

# every eigenvalue in sight is a root of unity; for the dihedral
# family the orders appearing in the top degree run through divisors
# of 2m related to m
print("\ndihedral family, top degree eigenvalue orders:")
for m in range(3, 13):
    C = build_salvetti_complex(finite_type_system(f"I2({m})"))
    rows = monodromy_char_poly(cohomology(C), QQ)
    orders = [n for n, _ in rows[1].cyclotomic]
    print(f"  I2({m}): {orders}")
