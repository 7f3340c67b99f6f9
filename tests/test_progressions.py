"""Progression membership and the positive-intersection decision."""

from powergraphs import APPair, SENTINEL, ap_contains, aps_intersect_oracle, aps_intersect_positively


def test_contains_singleton_zero():
    assert ap_contains(APPair(0, 0), 0)
    assert not ap_contains(APPair(0, 0), 1)


def test_contains_enumerated_examples():
    # AP(3,4) = {3, 7, 11, ...}
    assert ap_contains(APPair(3, 4), 3)
    assert ap_contains(APPair(3, 4), 11)
    assert not ap_contains(APPair(3, 4), 5)
    assert not ap_contains(APPair(3, 4), 2)  # below the start


def test_contains_zero_step_is_singleton():
    assert ap_contains(APPair(5, 0), 5)
    assert not ap_contains(APPair(5, 0), 10)


def test_intersection_examples():
    assert aps_intersect_positively(APPair(1, 1), APPair(1, 1))
    assert not aps_intersect_positively(APPair(1, 0), APPair(2, 0))
    assert not aps_intersect_positively(SENTINEL, APPair(1, 1))
    assert not aps_intersect_positively(APPair(2, 4), APPair(3, 6))
    assert aps_intersect_positively(APPair(2, 4), APPair(4, 6))  # meet at 10


def test_singleton_vs_progression():
    assert aps_intersect_positively(APPair(3, 0), APPair(1, 2))
    assert not aps_intersect_positively(APPair(4, 0), APPair(1, 2))
    assert aps_intersect_positively(APPair(3, 0), APPair(3, 0))


def test_zero_starts_with_positive_steps():
    # 0 itself never counts, but 6 lies in both progressions
    assert aps_intersect_positively(APPair(0, 2), APPair(0, 3))


def test_sentinel_never_intersects():
    for a in range(6):
        for d in range(6):
            q = APPair(a, d)
            assert not aps_intersect_positively(SENTINEL, q)
            assert not aps_intersect_positively(q, SENTINEL)


def test_intersection_is_symmetric():
    pairs = [APPair(a, d) for a in range(5) for d in range(5)]
    for p in pairs:
        for q in pairs:
            assert aps_intersect_positively(p, q) == aps_intersect_positively(q, p)


def test_shared_member_implies_intersection():
    pairs = [APPair(a, d) for a in range(7) for d in range(5)]
    for p in pairs:
        for q in pairs:
            if any(ap_contains(p, m) and ap_contains(q, m) for m in range(1, 40)):
                assert aps_intersect_positively(p, q)


def test_oracle_matches_decision_on_small_grid():
    # the full [0,12]^4 grid lives in the acceptance suite; this keeps the
    # unit run quick while staying exhaustive over a smaller cube, which
    # also takes negative starts
    for pa in range(-4, 9):
        for pd in range(9):
            p = APPair(pa, pd)
            for qa in range(-4, 9):
                for qd in range(9):
                    q = APPair(qa, qd)
                    assert aps_intersect_positively(p, q) == aps_intersect_oracle(p, q), (p, q)
