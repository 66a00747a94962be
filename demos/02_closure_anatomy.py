"""All the pieces of a sampled aggregation closure, on one instance.

The closure engine returns more than the final body: the grid of
sampled weights, the recursion bound L, the facet tuples it collected,
the surviving antichain S, the tuple body K, and the covering shift
bound. This walk-through prints each piece for a two-row covering
instance.
"""

from aggclosure import COVERING, Instance, SampleScheme, aggregation_closure, sample_lambdas
from aggclosure.polyhedra import render_point


def main():
    inst = Instance(COVERING, ((2, 3), (3, 2)), (4, 4), instance_id="demo2")
    scheme = SampleScheme(grid_denominator=4)
    print("instance: covering, rows 2x + 3y >= 4 and 3x + 2y >= 4")
    print(f"scheme: grid denominator {scheme.grid_denominator}, single-column weights")

    grid = sample_lambdas(inst.m, scheme)
    print(f"\nsampled weight vectors ({len(grid)}):")
    for agg in grid:
        print("  " + " ".join(str(w) for w in agg.weights[0]))

    art = aggregation_closure(inst, scheme)

    print("\nrecursion bound L (one-variable closures, one per dropped column):")
    for line in art.L().render_lines():
        print(f"  {line}")

    print(f"\nfacet tuples collected: {len(art.T_sample)}, surviving antichain: {len(art.S)}")
    for t in art.S:
        pts = ", ".join(render_point(p) for p in t.points)
        lam = " ".join(str(w) for w in t.source_lambda.weights[0])
        print(f"  tuple ({pts})  from weights {lam}")

    print("\ntuple body K:")
    for line in art.K().render_lines():
        print(f"  {line}")

    print("\nclosure = K, L, and the nonnegative orthant intersected:")
    for line in art.closure.render_lines():
        print(f"  {line}")

    print(f"\nshift bound gamma = {art.gamma}: adding it to any single coordinate")
    print("of a point of L lands back inside every sampled hull")


if __name__ == "__main__":
    main()
