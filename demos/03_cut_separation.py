"""Separating a fractional point with aggregation cuts.

Given a point, the separator scans every sampled weight vector, keeps
the most violated facet of the corresponding hull, then locally refines
the best weight on a finer grid around it.
"""

from fractions import Fraction

from aggclosure import Instance, PACKING, SampleScheme, separate


def describe(result, label):
    if result.inside:
        print(f"{label}: no sampled hull cuts the point")
        return
    lam = " ".join(str(w) for w in result.witness.weights[0])
    print(f"{label}:")
    print(f"  cut        {result.cut.render()}")
    print(f"  violation  {result.violation}")
    print(f"  weights    {lam}")


def main():
    inst = Instance(PACKING, ((3, 4), (2, 1)), (7, 5), instance_id="demo3")
    x = (Fraction(5, 2), Fraction(0))
    print("instance: packing, rows 3x + 4y <= 7 and 2x + y <= 5")
    print(f"point to separate: ({x[0]}, {x[1]})")
    print("both rows admit it fractionally; x <= 2 is the strongest single cut")

    scheme = SampleScheme(grid_denominator=2)
    coarse = separate(inst, scheme, x, rounds=0)
    describe(coarse, "\ncoarse grid, no refinement")

    refined = separate(inst, scheme, x, rounds=2)
    describe(refined, "\nsame grid plus two refinement rounds")

    if not coarse.inside and not refined.inside:
        gain = refined.violation - coarse.violation
        if gain > 0:
            print(f"\nrefinement deepened the violation by {gain}")
        else:
            print("\nthe coarse grid already found the deepest sampled cut")

    inside = separate(inst, scheme, (Fraction(1), Fraction(1)))
    print(f"\ninteger-feasible probe (1, 1) reported inside: {inside.inside}")


if __name__ == "__main__":
    main()
