import numpy as np

from dynten.synth import dynamic_er, dynamic_sbm, sbm_matched_er


def test_zero_drift_freezes_structure():
    net, members = dynamic_sbm(30, 5, 2, 0.3, 0.02, drift=0.0, seed=1)
    for m in members:
        assert np.array_equal(m, members[0])
    # with no churn the dyads persist verbatim
    first = net.snapshots[0].toarray()
    for A in net.snapshots[1:]:
        assert np.array_equal(A.toarray(), first)


def test_drift_changes_some_memberships():
    _, members = dynamic_sbm(100, 6, 2, 0.2, 0.01, drift=0.1, seed=2)
    changed = (members[-1] != members[0]).mean()
    assert 0.0 < changed < 0.9


def test_balanced_initial_blocks():
    _, members = dynamic_sbm(60, 1, 3, 0.2, 0.01, seed=3)
    counts = np.bincount(members[0])
    assert counts.tolist() == [20, 20, 20]


def test_sbm_density_reflects_probabilities():
    net, members = dynamic_sbm(80, 1, 2, 0.3, 0.02, seed=4)
    A = net.snapshots[0].toarray()
    m = members[0]
    same = np.equal.outer(m, m)
    np.fill_diagonal(same, False)
    diff = ~same & ~np.eye(80, dtype=bool)
    assert abs(A[same].mean() - 0.3) < 0.05
    assert abs(A[diff].mean() - 0.02) < 0.01


def test_er_resamples_every_slice():
    net = dynamic_er(40, 4, 0.15, seed=5)
    mats = [A.toarray() for A in net.snapshots]
    assert not np.array_equal(mats[0], mats[1])
    assert abs(mats[0].mean() - 0.15) < 0.05


def test_matched_er_density():
    er = sbm_matched_er(100, 2, 2, 0.2, 0.01, seed=6)
    sbm, _ = dynamic_sbm(100, 2, 2, 0.2, 0.01, 0.0, seed=6)
    d_er = np.mean([A.toarray().mean() for A in er.snapshots])
    d_sbm = np.mean([A.toarray().mean() for A in sbm.snapshots])
    assert abs(d_er - d_sbm) < 0.02


def test_seeded_reproducibility():
    a, _ = dynamic_sbm(30, 3, seed=7)
    b, _ = dynamic_sbm(30, 3, seed=7)
    for A, B in zip(a.snapshots, b.snapshots):
        assert np.array_equal(A.indptr, B.indptr)
        assert np.array_equal(A.indices, B.indices)
