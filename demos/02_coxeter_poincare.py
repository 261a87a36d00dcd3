"""Finite reflection types and their length generating polynomials.

Shows the degree-table route to Poincare polynomials, the brute force
enumeration oracle that validates it, and the classification of
parabolic subgroups inside a bigger diagram.
"""

from artinfib import (finite_type_system, format_poly,
                      parabolic_components, parse_label, poincare_poly,
                      poincare_poly_bruteforce, poincare_quotient,
                      system_from_string)

for name in ("A3", "B3", "H3", "I2(7)"):
    label = parse_label(name)
    system = finite_type_system(label)
    W = poincare_poly(system)
    print(f"{name}: degrees {label.degrees()}, |W| = {label.group_order()}")
    print("  W(q) =", format_poly(W))
    # the brute force oracle enumerates the group through an exact
    # reflection representation and counts elements by length
    assert W == poincare_poly_bruteforce(system)
    # W(q) has integer coefficients, and W(1) counts the group
    assert W.evaluate(1) == label.group_order()

# parabolic subgroups are named by the types of their induced subdiagram
e6 = finite_type_system("E6")
print("\nE6 with generator 4 removed splits into:")
for label, gens in parabolic_components(e6, {1, 2, 3, 5, 6}):
    print(f"  {label} on generators {gens}")

# quotients W_{Delta + j} / W_Delta are exact polynomials; they become
# the coboundary coefficients of the Salvetti complex
a3 = finite_type_system("A3")
print("\nA3: W_123 / W_12 =",
      format_poly(poincare_quotient(a3, {1, 2}, 3)))

# reducible types multiply
both = system_from_string("A1xB2")
print("A1xB2: W(q) =", format_poly(poincare_poly(both)))
