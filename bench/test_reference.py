"""The benchmark's reference checks accept dualreg's outputs and reject corrupted ones.

Each test runs a program function on a small synthetic pair, shows that the
matching check in bench/reference.py passes, then corrupts the output (a
field shifted by one voxel, one flipped label voxel) and shows that the
check fails.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
for _p in (BENCH.parent / "src", BENCH):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import reference  # noqa: E402
from dualreg import losses, metrics, stn, volgrid  # noqa: E402
from reference import CheckFailed  # noqa: E402

SHAPE = (24, 24, 24)


@pytest.fixture(scope="module")
def pair():
    moving, moving_labels = volgrid.synth_phantom(3, SHAPE)
    field = volgrid.synth_deformation(3, SHAPE, 2.0, 6.0)
    fixed = stn.warp(moving, field)
    fixed_labels = stn.warp_labels(moving_labels, field)
    # a second, unrelated field: the one being scored is not the ground truth
    guess = volgrid.synth_deformation(4, SHAPE, 1.5, 6.0)
    return moving, fixed, moving_labels, fixed_labels, guess


def shifted(field):
    return volgrid.DisplacementField(np.roll(field.data, 1, axis=1))


def flipped(labels):
    out = labels.copy()
    idx = tuple(int(i) for i in np.argwhere(out == 1)[0])
    out[idx] = 0
    return out


def test_objective(pair):
    moving, fixed, _, _, guess = pair
    w = losses.LossWeights(1.5)
    loss = losses.total_loss(moving, fixed, guess, w)
    reference.check_objective("objective", loss, moving.data, fixed.data, guess.data, 1.5)
    bad = losses.total_loss(moving, fixed, shifted(guess), w)
    with pytest.raises(CheckFailed):
        reference.check_objective("objective", bad, moving.data, fixed.data, guess.data, 1.5)


def test_resample(pair):
    moving, _, _, _, guess = pair
    reference.check_resample("warp", stn.warp(moving, guess).data, moving.data, guess.data)
    bad = stn.warp(moving, shifted(guess)).data
    with pytest.raises(CheckFailed):
        reference.check_resample("warp", bad, moving.data, guess.data)


def test_label_warp(pair):
    _, _, moving_labels, _, guess = pair
    warped = stn.warp_labels(moving_labels, guess).labels
    reference.check_label_warp("labels", warped, moving_labels.labels, guess.data)
    with pytest.raises(CheckFailed):
        reference.check_label_warp("labels", flipped(warped), moving_labels.labels, guess.data)


def test_dice_and_asd(pair):
    _, _, moving_labels, fixed_labels, guess = pair
    a = stn.warp_labels(moving_labels, guess).labels
    b = fixed_labels.labels
    for label in (1, 2, 3):
        reference.check_close("dice", metrics.dice(a, b, label), reference.dice(a, b, label),
                              rtol=reference.METRIC_RTOL)
        reference.check_close("asd", metrics.asd(a, b, label), reference.asd(a, b, label),
                              rtol=reference.METRIC_RTOL)
    with pytest.raises(CheckFailed):
        reference.check_close("dice", metrics.dice(a, flipped(b), 1), reference.dice(a, b, 1),
                              rtol=reference.METRIC_RTOL)
    with pytest.raises(CheckFailed):
        reference.check_close("asd", metrics.asd(a, flipped(b), 1), reference.asd(a, b, 1),
                              rtol=reference.METRIC_RTOL)


def test_evaluation_report(pair):
    _, _, moving_labels, fixed_labels, guess = pair
    report = metrics.evaluate_pair(guess, moving_labels, fixed_labels).to_dict()
    reference.check_report("report", report, guess.data, moving_labels.labels, fixed_labels.labels)
    bad = metrics.evaluate_pair(guess, moving_labels,
                                volgrid.LabelMask(flipped(fixed_labels.labels))).to_dict()
    with pytest.raises(CheckFailed):
        reference.check_report("report", bad, guess.data, moving_labels.labels,
                               fixed_labels.labels)


def test_jacobian(pair):
    guess = pair[4]
    reference.check_jacobian("jacobian", *metrics.jacobian_stats(guess), guess.data)
    with pytest.raises(CheckFailed):
        reference.check_jacobian("jacobian", *metrics.jacobian_stats(shifted(guess)), guess.data)


def test_ground_truth_field_scores_perfectly(pair):
    moving, fixed, moving_labels, fixed_labels, _ = pair
    truth = volgrid.synth_deformation(3, SHAPE, 2.0, 6.0)
    want = reference.evaluate(truth.data, moving_labels.labels, fixed_labels.labels)
    assert all(r["dice"] == 1.0 and r["asd_mm"] == 0.0 for r in want["labels"].values())
    assert want["folding_count"] == 0
