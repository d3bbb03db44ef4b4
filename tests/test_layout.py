import math

import numpy as np
import pytest

from cachesec import NetworkLayout, PolarPoint, build_line_layout


def test_line_layout_matches_figure_geometry():
    lay = build_line_layout(1.0, 0.5, 1, 2.0)
    assert lay.sbs[0].r == pytest.approx(1.0)
    assert lay.mbs.r == pytest.approx(3.0)


def test_line_layout_pythagoras():
    lay = build_line_layout(1.0, 0.5, 3, 2.0)
    r = lay.sbs_distances()
    assert r[0] == pytest.approx(1.0)
    assert r[1] == pytest.approx(math.sqrt(1.25))
    assert r[2] == pytest.approx(math.sqrt(2.0))


def test_line_layout_sorted_invariant():
    lay = build_line_layout(1.0, 0.5, 2, 2.0)
    r = lay.sbs_distances()
    assert (np.diff(r) >= 0).all()


def test_line_layout_k1_two_distances():
    lay = build_line_layout(0.7, 0.3, 1, 1.9)
    assert lay.sbs[0].r == pytest.approx(0.7)
    assert lay.mbs.r == pytest.approx(0.7 + 1.9)


@pytest.mark.parametrize("bad", [
    dict(r_s1_o=0.0, r_s=0.5, K=1, r_b_s1=2.0),
    dict(r_s1_o=1.0, r_s=-1.0, K=1, r_b_s1=2.0),
    dict(r_s1_o=1.0, r_s=0.5, K=0, r_b_s1=2.0),
    dict(r_s1_o=1.0, r_s=0.5, K=1, r_b_s1=0.0),
])
def test_line_layout_rejects_bad_args(bad):
    with pytest.raises(ValueError):
        build_line_layout(**bad)


def test_polar_point_normalizes_angle():
    p = PolarPoint(1.0, -math.pi / 2)
    assert 0.0 <= p.theta < 2 * math.pi
    assert p.y == pytest.approx(-1.0)


def test_polar_point_rejects_negative_radius():
    with pytest.raises(ValueError):
        PolarPoint(-1.0, 0.0)


def test_polar_point_rejects_non_finite_angle():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="angle must be finite"):
            PolarPoint(1.0, theta)


@pytest.mark.parametrize("mbs, sbs, message", [
    (PolarPoint(3.0, 0.0), (), "at least one SBS"),
    (PolarPoint(0.0, 0.0), (PolarPoint(1.0, 0.0),), "MBS must not coincide"),
], ids=["no-sbs", "mbs-at-user"])
def test_layout_rejects_degenerate_nodes(mbs, sbs, message):
    with pytest.raises(ValueError, match=message):
        NetworkLayout(mbs=mbs, sbs=sbs)


def test_layout_rejects_unsorted_sbs():
    with pytest.raises(ValueError):
        NetworkLayout(mbs=PolarPoint(3.0, 0.0),
                      sbs=(PolarPoint(2.0, 0.0), PolarPoint(1.0, 0.0)))


def test_layout_rejects_sbs_at_origin():
    with pytest.raises(ValueError):
        NetworkLayout(mbs=PolarPoint(3.0, 0.0), sbs=(PolarPoint(0.0, 0.0),))
