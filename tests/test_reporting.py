"""rounds.csv round trip: a written trajectory reads back as its in-memory columns."""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmoo.core import RoundRecord
from fedmoo.federation import TrajectoryLog
from fedmoo.reporting import COLUMNS, read_rounds_csv, round_columns, write_rounds_csv

# Signed zeros, subnormals, the smallest normal and values near the largest double.
EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
            1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)


def doubles(nonnegative=False):
    extremes = [v for v in EXTREMES if not nonnegative or v >= 0.0]
    return st.one_of(st.floats(min_value=0.0 if nonnegative else None,
                               allow_nan=False, allow_infinity=False),
                     st.sampled_from(extremes))


@st.composite
def trajectories(draw):
    """Random records for S objectives and T rounds; T=0 is a run that diverged in round 1."""
    S = draw(st.integers(1, 5))
    T = draw(st.integers(0, 20))
    vectors = st.lists(doubles(), min_size=S, max_size=S).map(np.array)
    records = [RoundRecord(t=t + 1, weights=draw(vectors), d_norm_sq=draw(doubles(True)),
                           dbar_norm_sq=draw(doubles(True)), losses=draw(vectors),
                           delta_q=draw(st.none() | doubles(True)), fw_gap=draw(doubles()),
                           lambda_drift=draw(st.none() | doubles()))
               for t in range(T)]
    return TrajectoryLog(records=records, config=SimpleNamespace(S=S))


@settings(max_examples=100, deadline=None)
@given(trajectories())
def test_rounds_csv_reads_back_bit_for_bit(traj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rounds.csv"
        write_rounds_csv(path, traj)
        got = read_rounds_csv(path)
    want = round_columns(traj)
    assert list(got) == list(want) == list(COLUMNS)
    for i, rec in enumerate(traj.records):  # each row is its record, absent metrics NaN
        row = {"t": rec.t, "lambda": rec.weights, "d_norm_sq": rec.d_norm_sq,
               "dbar_norm_sq": rec.dbar_norm_sq,
               "running_min_dbar": min(r.dbar_norm_sq for r in traj.records[:i + 1]),
               "losses": rec.losses, "delta_Q": np.nan if rec.delta_q is None else rec.delta_q,
               "fw_gap": rec.fw_gap,
               "lambda_drift": np.nan if rec.lambda_drift is None else rec.lambda_drift}
        for key, value in row.items():
            assert np.array_equal(want[key][i], value, equal_nan=True), (key, i)
    assert want["lambda"].shape == want["losses"].shape == (len(traj.records), traj.config.S)
    for key in COLUMNS:
        assert (got[key].dtype, got[key].shape) == (want[key].dtype, want[key].shape), key
        assert np.array_equal(got[key], want[key], equal_nan=True), key
        assert got[key].tobytes() == want[key].tobytes(), key  # signed zeros too
