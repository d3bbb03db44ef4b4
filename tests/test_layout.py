import math

import numpy as np
import pytest

from cachesec import NetworkLayout, build_line_layout


def test_line_layout_matches_figure_geometry():
    lay = build_line_layout(1.0, 0.5, 1, 2.0)
    assert abs(lay.sbs[0]) == pytest.approx(1.0)
    assert abs(lay.mbs) == pytest.approx(3.0)


def test_line_layout_coordinates_are_exact():
    # the mirror fold of the SOP grids reads exact shared coordinates
    lay = build_line_layout(1.0, 0.5, 3, 2.0)
    assert lay.mbs == 3j
    assert lay.sbs == (1j, 0.5 + 1j, 1.0 + 1j)


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
    assert abs(lay.sbs[0]) == pytest.approx(0.7)
    assert abs(lay.mbs) == pytest.approx(0.7 + 1.9)


@pytest.mark.parametrize("bad", [
    dict(r_s1_o=0.0, r_s=0.5, K=1, r_b_s1=2.0),
    dict(r_s1_o=1.0, r_s=-1.0, K=1, r_b_s1=2.0),
    dict(r_s1_o=1.0, r_s=0.5, K=0, r_b_s1=2.0),
    dict(r_s1_o=1.0, r_s=0.5, K=1, r_b_s1=0.0),
])
def test_line_layout_rejects_bad_args(bad):
    with pytest.raises(ValueError):
        build_line_layout(**bad)


@pytest.mark.parametrize("mbs, sbs, message", [
    (3.0 + 0j, (), "at least one SBS"),
    (0j, (1.0 + 0j,), "MBS must not coincide"),
    (complex(math.inf, 0.0), (1.0 + 0j,), "MBS must .* finite distance"),
    (3.0 + 0j, (complex(0.0, math.nan),), "SBSs must .* finite distance"),
    (3.0 + 0j, (complex(1.5e308, 1.5e308),), "SBSs must .* finite distance"),
], ids=["no-sbs", "mbs-at-user", "mbs-at-inf", "sbs-at-nan",
        "sbs-distance-overflows"])
def test_layout_rejects_degenerate_nodes(mbs, sbs, message):
    with pytest.raises(ValueError, match=message):
        NetworkLayout(mbs=mbs, sbs=sbs)


def test_layout_rejects_unsorted_sbs():
    with pytest.raises(ValueError):
        NetworkLayout(mbs=3.0 + 0j, sbs=(2.0 + 0j, 1.0 + 0j))


def test_layout_rejects_sbs_at_origin():
    with pytest.raises(ValueError):
        NetworkLayout(mbs=3.0 + 0j, sbs=(0j,))
