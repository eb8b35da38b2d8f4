"""Count relabeling orbits across block shapes.

Every treatment assignment on an a x b grid belongs to an orbit under
the t! relabelings, and the orbit count follows from Stirling numbers.
This walks a few shapes, confirms the formula against a streamed
enumeration, and shows the census the enumerate command reports.
"""

from fielddesign.arrays import LabelPool, Shape, enumerate_label_matrix, orbit_count, orbit_size


def main() -> None:
    print(f"{'shape':>10} {'arrays':>12} {'orbits':>8}  largest orbit")
    for a, b, t in [(2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 3, 3), (3, 4, 3)]:
        shape = Shape(a, b, t)
        arrays = t ** shape.p
        count = orbit_count(shape)
        if count <= 100_000:
            pool = LabelPool(shape, enumerate_label_matrix(shape))
            sizes = [orbit_size(s) for s in pool]
            assert len(pool) == count
            assert sum(sizes) == arrays
            k = sizes.index(max(sizes))
            note = f"{sizes[k]} members, e.g. {pool[k]}"
        else:
            note = "(not enumerated)"
        print(f"({a},{b},{t}):{arrays:>12}{count:>9}  {note}")


if __name__ == "__main__":
    main()
