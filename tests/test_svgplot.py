import re

import numpy as np

from darksol import svgplot


def per_point(curves):
    """Every polyline's points string as the plot formed it point by point,
    each coordinate a numpy scalar through the screen map."""
    pw = svgplot._W - svgplot._ML - svgplot._MR
    ph = svgplot._H - svgplot._MT - svgplot._MB
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in curves])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in curves])
    xmin, xmax = float(np.min(xs)), float(np.max(xs))
    ymin, ymax = float(np.min(ys)), float(np.max(ys))
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    out = []
    for _, x, y in curves:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.size > svgplot._MAX_POINTS:
            stride = int(np.ceil(x.size / svgplot._MAX_POINTS))
            x, y = x[::stride], y[::stride]
        out.append(" ".join(
            f"{svgplot._ML + (a - xmin) / (xmax - xmin) * pw:.2f},"
            f"{svgplot._MT + (ymax - b) / (ymax - ymin) * ph:.2f}"
            for a, b in zip(x, y)))
    return out


def test_polylines_keep_the_per_point_coordinates(tmp_path, rng):
    # three 4,097-node curves, longer than _MAX_POINTS so they are
    # thinned: the array expressions write the per-point formula's text
    x = np.linspace(-8.0, 8.0, 4097)
    curves = [("tanh", x, np.tanh(1.3 * x)),
              ("noise", x, rng.standard_normal(x.size) * 1e-3),
              ("wave", x, 1.0 + 0.5 * np.cos(2.0 * np.pi * x))]
    assert x.size > svgplot._MAX_POINTS
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, curves, title="t", xlabel="x", ylabel="y")
    drawn = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert drawn == per_point(curves)
    assert len(drawn[0].split()) == len(x[::3])
