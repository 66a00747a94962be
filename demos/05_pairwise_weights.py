"""Keeping two aggregated rows instead of one.

A weight matrix with two columns folds the system into a pair of
knapsack rows whose joint hull can be strictly tighter than the
intersection of the two single-column hulls. This demo exhibits an
instance where the pairwise closure cuts off a vertex the single-column
closure keeps.
"""

from aggclosure import (
    Instance,
    PACKING,
    SampleScheme,
    build_relaxation,
    integer_hull,
    sample_lambdas,
    sampled_closure,
)
from aggclosure.polyhedra import contains, poly_subset, render_point


def main():
    inst = Instance(PACKING, ((2, 1, 0), (1, 5, 5)), (7, 5), instance_id="demo5")
    print("instance: packing, rows 2x + y <= 7 and x + 5y + 5z <= 5")

    single = sampled_closure(inst, SampleScheme(grid_denominator=2))
    paired = sampled_closure(inst, SampleScheme(grid_denominator=2, k=2))

    print("\nsingle-column closure:")
    for line in single.render_lines():
        print(f"  {line}")
    print("\ntwo-column closure at the same grid:")
    for line in paired.render_lines():
        print(f"  {line}")

    print(f"\npaired inside single: {poly_subset(paired, single)}")
    print(f"single inside paired: {poly_subset(single, paired)}")

    cut_off = [v for v in single.vrep_points if not contains(paired, v)]
    for v in cut_off:
        print(f"\nvertex {render_point(v)} of the single-column closure is cut off;")
        for pair in sample_lambdas(inst.m, SampleScheme(grid_denominator=2, k=2)):
            hull = integer_hull(build_relaxation(inst, pair))
            if not contains(hull, v):
                cols = "; ".join(" ".join(str(w) for w in col) for col in pair.weights)
                print(f"  the pair hull for weight columns [{cols}] rejects it")
                break


if __name__ == "__main__":
    main()
