import pickle
from fractions import Fraction

import numpy as np
import pytest

from oiglearn.brute import (
    materialize_hprime,
    materialize_thresholds,
    next_prime_above,
    table_erm_scan,
    table_patterns,
    threshold_erm_scan,
    trial_division_split,
    vc_dimension,
)
from oiglearn.classes import (
    FiniteTableClass,
    HPrimeClass,
    MarginThresholdClass,
    class_from_config,
    is_prime,
    semiprime_split,
)
from oiglearn.core import STAR, ContractViolation, loss_abs, loss_bin, loss_mc


def test_finite_table_examples():
    zero = FiniteTableClass(("a", "b"), [(0, 0)], "binary")
    assert zero.consistent_on(("a",), (0,)) is True
    assert zero.erm_value_on(("a",), (1,), loss_bin) == 1
    reals = FiniteTableClass(
        ("x",), [(Fraction(1, 5),), (Fraction(4, 5),)], "real"
    )
    assert reals.range_consistent_on(("x",), (Fraction(7, 10),), (Fraction(1),)) is True


def test_finite_table_star_semantics():
    partial = FiniteTableClass(("a", "b"), [(STAR, 1), (0, 0)], "binary")
    # the starred hypothesis cannot witness any labeling touching point a
    assert partial.consistent_on(("a", "b"), (1, 1)) is False
    assert partial.consistent_on(("b",), (1,)) is True
    assert partial.project_onto(("a", "b")) == frozenset({(0, 0)})


def test_finite_table_validation():
    with pytest.raises(ContractViolation):
        FiniteTableClass(("a",), [(0,), (0,)], "binary")  # duplicate rows
    with pytest.raises(ContractViolation):
        FiniteTableClass(("a",), [(2,)], "binary")
    with pytest.raises(ContractViolation):
        FiniteTableClass(("a", "a"), [(0, 0)], "binary")  # duplicate points


def _interval_class(domain_size):
    """Every interval [a, b) of the points 0..domain_size-1, the empty one first."""
    rows = [(0,) * domain_size] + [
        tuple(1 if a <= x < b else 0 for x in range(domain_size))
        for a in range(domain_size)
        for b in range(a + 1, domain_size + 1)
    ]
    return FiniteTableClass(tuple(range(domain_size)), rows, "binary")


def test_finite_table_kernel_matches_row_scan_on_intervals():
    cls = _interval_class(128)
    assert len(cls.table) == 8257
    gen = np.random.default_rng(41)
    answers = set()
    for _ in range(500):
        n = int(gen.integers(1, 9))
        xs = tuple(int(v) for v in gen.integers(0, 128, size=n))
        if gen.random() < 0.5:  # labels of a random interval: a realizable query
            row = cls.table[int(gen.integers(0, len(cls.table)))]
            ys = tuple(row[x] for x in xs)
        else:
            ys = tuple(int(v) for v in gen.integers(0, 2, size=n))
        answer = cls.consistent_on(xs, ys)
        assert answer == (tuple(ys) in table_patterns(cls, xs)), (xs, ys)
        answers.add(answer)
    assert answers == {True, False}


def test_finite_table_kernel_edge_cases():
    cls = _interval_class(8)
    assert cls.consistent_on((3, 3), (1, 0)) is False
    assert cls.consistent_on((3, 5, 3), (1, 1, 1)) is True
    assert cls.project_onto((2, 2)) == frozenset({(0, 0), (1, 1)})
    assert cls.consistent_on((), ()) is True
    assert cls.project_onto(()) == frozenset({()})
    with pytest.raises(ContractViolation):
        cls.consistent_on((8,), (0,))
    with pytest.raises(ContractViolation):
        cls.consistent_on((0, 0, 8), (1, 0, 0))  # the duplicate already rules out every row
    with pytest.raises(ContractViolation):
        cls.project_onto((8,))
    with pytest.raises(ContractViolation):
        cls.consistent_on((1, 2), (1,))
    multi = FiniteTableClass((0, 1), [(1, 2), (2, 2)], "multiclass", num_classes=3)
    assert multi.consistent_on((1,), (3,)) is False  # label 3 is in no row of column 1
    assert multi.project_onto((1, 0)) == frozenset({(2, 1), (2, 2)})


def test_finite_table_pickles():
    classes = [
        _interval_class(6),
        FiniteTableClass(("a", "b"), [(STAR, 1), (0, 0), (1, STAR)], "binary"),
        FiniteTableClass((0, 1, 2), [(1, 2, 3), (3, 1, 1)], "multiclass", num_classes=3),
        FiniteTableClass((0, 1), [(Fraction(1, 4), Fraction(3, 4)), (1, 0)], "real"),
    ]
    for cls in classes:
        cls.project_onto(cls.domain[:1])  # one column's bitsets built before pickling, the rest after
        copies = [pickle.loads(pickle.dumps(cls))]
        if cls.kind == "real":
            # the first copy was pickled before the integer rows existed, this one after
            cls.erm_value_on(cls.domain, cls.table[0], loss_abs)
            copies.append(pickle.loads(pickle.dumps(cls)))
        gen = np.random.default_rng(43)
        labels = sorted({v for row in cls.table for v in row if v is not STAR})
        for _ in range(100):
            n = int(gen.integers(1, 4))
            xs = tuple(cls.domain[int(i)] for i in gen.integers(0, len(cls.domain), size=n))
            ys = tuple(labels[int(i)] for i in gen.integers(0, len(labels), size=n))
            for copy in copies:
                assert copy.consistent_on(xs, ys) == cls.consistent_on(xs, ys)
                assert copy.project_onto(xs) == cls.project_onto(xs)
                assert copy.erm_value_on(xs, ys, loss_bin) == cls.erm_value_on(xs, ys, loss_bin)
                if cls.kind == "real":
                    value = table_erm_scan(cls, xs, ys, loss_abs)
                    assert copy.erm_value_on(xs, ys, loss_abs) == value
                    assert cls.erm_value_on(xs, ys, loss_abs) == value


def _random_real_table(gen, points, denominators):
    """A real table of 1 to 8 distinct rows whose entries are k/d, d drawn
    from `denominators`."""
    rows = set()
    for _ in range(int(gen.integers(1, 9))):
        dens = [denominators[int(i)] for i in gen.integers(0, len(denominators), size=points)]
        rows.add(tuple(Fraction(int(gen.integers(0, d + 1)), d) for d in dens))
    return FiniteTableClass(tuple(range(points)), sorted(rows), "real")


# entries 0 and 1 only (D = 1), halves and quarters, and mixed denominators
_TABLE_DENOMINATORS = ((1,), (2, 4), (3, 5, 8))
# query labels over denominators that do and do not divide the table's, and
# labels given as ints and as floats (read exactly, as binary fractions)
_LABEL_DENOMINATORS = (1, 2, 3, 4, 7, 10, 16)


def test_real_table_abs_erm_matches_scan():
    gen = np.random.default_rng(53)
    for k in range(600):
        denominators = _TABLE_DENOMINATORS[k % len(_TABLE_DENOMINATORS)]
        cls = _random_real_table(gen, int(gen.integers(1, 6)), denominators)
        n = int(gen.integers(1, 13))  # more points than columns, so points repeat
        xs = tuple(int(v) for v in gen.integers(0, len(cls.domain), size=n))
        dens = [_LABEL_DENOMINATORS[int(i)] for i in gen.integers(0, len(_LABEL_DENOMINATORS), size=n)]
        ys = tuple(Fraction(int(gen.integers(0, d + 1)), d) for d in dens)
        if k % 5 == 0:
            ys = tuple(int(y) if y.denominator == 1 else float(y) for y in ys)
        value = cls.erm_value_on(xs, ys, loss_abs)
        assert value == table_erm_scan(cls, xs, ys, loss_abs), (cls.table, xs, ys)
        assert type(value) is Fraction
        if k % 10 == 0:  # any other loss keeps the scan
            assert cls.erm_value_on(xs, ys, loss_bin) == table_erm_scan(cls, xs, ys, loss_bin)


def test_real_table_abs_erm_edge_cases():
    third, half = Fraction(1, 3), Fraction(1, 2)
    cls = FiniteTableClass((0, 1, 2), [(0, 0, 1), (half, 1, 0), (1, half, half)], "real")
    # the zero-loss row is the last one; the rows before it are still compared
    assert cls.erm_value_on((2, 0, 2), (half, 1, half), loss_abs) == 0
    assert cls.erm_value_on((0, 1), (third, third), loss_abs) == Fraction(1, 3)
    assert cls.erm_value_on((1, 1), (third, 1), loss_abs) == Fraction(1, 3)
    for ys in ((Fraction(-1, 3), half), (half, Fraction(4, 3)), (0, 2), (0, -0.5)):
        for xs in ((0, 1), (1, 1)):
            with pytest.raises(ContractViolation):
                cls.erm_value_on(xs, ys, loss_abs)
            with pytest.raises(ContractViolation):
                table_erm_scan(cls, xs, ys, loss_abs)
    with pytest.raises(ContractViolation):
        cls.erm_value_on((3,), (0,), loss_abs)


def test_threshold_and_hprime_pickle():
    threshold = MarginThresholdClass.regular(0, Fraction(1, 12), 13, Fraction(1, 8))
    grid_points = [Fraction(k, 10) for k in range(11)]
    cases = ((threshold, grid_points), (HPrimeClass(bound=60), list(range(1, 61))))
    gen = np.random.default_rng(44)
    for cls, points in cases:
        copy = pickle.loads(pickle.dumps(cls))
        answers = set()
        for _ in range(200):
            n = int(gen.integers(1, 4))
            xs = tuple(points[int(i)] for i in gen.integers(0, len(points), size=n))
            ys = tuple(int(v) for v in gen.integers(0, 2, size=n))
            answer = copy.consistent_on(xs, ys)
            assert answer == cls.consistent_on(xs, ys), (cls, xs, ys)
            answers.add(answer)
            if cls is threshold:
                assert copy.erm_value_on(xs, ys, loss_bin) == cls.erm_value_on(xs, ys, loss_bin)
                assert copy.project_onto(xs) == cls.project_onto(xs)
        assert answers == {True, False}


@pytest.mark.parametrize(
    "cls, xs",
    [
        (_interval_class(8), (1, 2)),
        (MarginThresholdClass.regular(0, Fraction(1, 12), 13, Fraction(1, 8)),
         (Fraction(9, 10), Fraction(1, 10))),
        (HPrimeClass(50), (15, 3)),
    ],
    ids=["finite_table", "margin_threshold", "hprime"],
)
def test_consistent_on_rejects_length_mismatch(cls, xs):
    with pytest.raises(ContractViolation):
        cls.consistent_on(xs, (1,))
    with pytest.raises(ContractViolation):
        cls.consistent_on(xs[:1], (1, 0))
    with pytest.raises(ContractViolation):
        cls.erm_value_on(xs, (1,), loss_bin)
    with pytest.raises(ContractViolation):
        cls.erm_value_on(xs[:1], (1, 0), loss_bin)


def test_margin_threshold_examples():
    cls = MarginThresholdClass.regular(0, Fraction(1, 100), 101, Fraction(1, 10))
    assert cls.consistent_on((Fraction(9, 10), Fraction(1, 10)), (1, 0)) is True
    assert cls.consistent_on((Fraction(1, 10), Fraction(9, 10)), (1, 0)) is False
    assert cls.consistent_on((), ()) is True


def test_margin_threshold_vs_materialized_enumeration():
    cls = MarginThresholdClass.regular(0, Fraction(1, 12), 13, Fraction(1, 8))
    points = tuple(Fraction(k, 10) for k in range(11))
    table = materialize_thresholds(cls, points)
    gen = np.random.default_rng(5)
    for _ in range(1000):
        n = int(gen.integers(1, 6))
        xs = tuple(points[int(i)] for i in gen.integers(0, len(points), size=n))
        ys = tuple(int(v) for v in gen.integers(0, 2, size=n))
        assert cls.consistent_on(xs, ys) == table.consistent_on(xs, ys)
        assert cls.erm_value_on(xs, ys, loss_bin) == table.erm_value_on(xs, ys, loss_bin)


def test_margin_threshold_erm_sweep_matches_scan():
    cls = MarginThresholdClass.regular(Fraction(1, 100), Fraction(1, 50), 50, Fraction(1, 200))
    # the grid points and the band edges t +- margin
    edges = sorted({t + d for t in cls.grid for d in (-cls.margin, 0, cls.margin)})
    gen = np.random.default_rng(47)
    for k in range(500):
        n = 1 if k < 50 else int(gen.integers(1, 61))
        if gen.random() < 0.5:
            xs = tuple(edges[int(i)] for i in gen.integers(0, len(edges), size=n))
        else:
            xs = tuple(Fraction(int(v), 64) for v in gen.integers(-2, 67, size=n))
        labels = (0, 1, STAR) if k % 2 else (0, 1)
        ys = tuple(labels[int(i)] for i in gen.integers(0, len(labels), size=n))
        expected = threshold_erm_scan(cls, xs, ys, loss_bin)
        assert cls.erm_value_on(xs, ys, loss_bin) == expected, (xs, ys)
        if k % 10 == 0:  # any other loss keeps the scan
            assert cls.erm_value_on(xs, ys, loss_mc) == threshold_erm_scan(cls, xs, ys, loss_mc)
    # on a band edge x = t + margin labels 1 and x = t - margin labels 0
    t = cls.grid[7]
    assert cls.erm_value_on((t + cls.margin, t - cls.margin), (1, 0), loss_bin) == 0
    assert cls.erm_value_on((t,), (STAR,), loss_bin) == 1


def test_margin_threshold_projection_is_steps():
    cls = MarginThresholdClass.regular(0, Fraction(1, 50), 51, Fraction(1, 50))
    xs = (Fraction(1, 10), Fraction(5, 10), Fraction(9, 10))
    patterns = cls.project_onto(xs)
    assert patterns <= {(1, 1, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0)}
    assert (0, 1, 1) in patterns  # threshold between the first two points


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number
    assert is_prime(2**61 - 1)
    small = [n for n in range(2, 500) if all(n % d for d in range(2, n))]
    assert [n for n in range(2, 500) if is_prime(n)] == small


def test_factoring_helpers():
    assert semiprime_split(15) == (3, 5)
    assert semiprime_split(49) == (7, 7)
    assert semiprime_split(30) is None
    assert semiprime_split(7) is None
    assert semiprime_split(1) is None
    a, b = 2**31 - 1, 2**61 - 1
    assert semiprime_split(a * b) == (a, b)
    assert semiprime_split(a * a) == (a, a)
    assert semiprime_split(999983 * 1000003) == (999983, 1000003)
    assert semiprime_split(3 * 5 * 7) is None
    assert semiprime_split(3 * a * b) is None
    assert semiprime_split(a * a * a) is None
    assert next_prime_above(13) == 17


def test_semiprime_split_matches_trial_division():
    for n in range(1, 50_000):
        assert semiprime_split(n) == trial_division_split(n), n


def test_hprime_examples():
    cls = HPrimeClass(bound=100)
    assert cls.consistent_on((4, 6, 9), (0, 0, 0)) is True  # no positives
    assert cls.consistent_on((15, 3), (1, 0)) is False  # only h_{3,5} covers 15
    assert cls.consistent_on((7,), (1,)) is True  # pair 7 with a fresh prime


def test_hprime_case_analysis():
    cls = HPrimeClass(bound=1000)
    # two primes and their product
    assert cls.consistent_on((3, 5, 15), (1, 1, 1)) is True
    assert cls.consistent_on((3, 5, 16), (1, 1, 1)) is False
    assert cls.consistent_on((3, 5, 15), (1, 1, 0)) is False
    # composite plus prime: ratio must be prime and not denied
    assert cls.consistent_on((15, 3), (1, 1)) is True
    assert cls.consistent_on((15, 3, 5), (1, 1, 0)) is False
    assert cls.consistent_on((16, 3), (1, 1)) is False
    # two composites can never share a hypothesis
    assert cls.consistent_on((15, 21), (1, 1)) is False
    # three primes cannot either
    assert cls.consistent_on((2, 3, 5), (1, 1, 1)) is False
    # a non-semiprime positive is covered by its point indicator
    assert cls.consistent_on((30, 15), (1, 0)) is True
    assert cls.consistent_on((30, 2), (1, 0)) is True
    # a semiprime positive fails once a factor is denied
    assert cls.consistent_on((49, 7), (1, 0)) is False
    # contradictory duplicate
    assert cls.consistent_on((9, 9), (1, 0)) is False


def test_hprime_query_validation():
    cls = HPrimeClass(bound=50)
    with pytest.raises(ContractViolation):
        cls.consistent_on((0,), (1,))
    with pytest.raises(ContractViolation):
        cls.consistent_on((51,), (1,))


def test_hprime_matches_brute_force_window():
    cls = HPrimeClass(bound=200)
    window = list(range(1, 36))
    table = materialize_hprime(cls, window)
    gen = np.random.default_rng(23)
    for _ in range(1000):
        n = int(gen.integers(1, 5))
        xs = tuple(int(v) for v in gen.integers(1, 36, size=n))
        ys = tuple(int(v) for v in gen.integers(0, 2, size=n))
        assert cls.consistent_on(xs, ys) == table.consistent_on(xs, ys), (xs, ys)


def test_hprime_window_vc_dimension_at_most_3():
    cls = HPrimeClass(bound=40)
    table = materialize_hprime(cls, list(range(2, 31)))
    assert vc_dimension(table, check_growth=False) <= 3


def test_class_from_config_round_trip():
    finite = class_from_config(
        {"kind": "finite_table", "domain": [0, 1], "table": [[0, "*"], [1, 1]]}
    )
    assert finite.value_at(0, 1) is STAR
    margin = class_from_config(
        {"kind": "margin_threshold", "grid": ["0", "0.02", 50], "margin": "0.1"}
    )
    assert len(margin.grid) == 50
    assert margin.grid[1] == Fraction(1, 50)
    hp = class_from_config({"kind": "hprime", "bound": 64})
    assert hp.bound == 64
    reals = class_from_config(
        {"kind": "finite_real", "domain": ["0.5"], "table": [["0.25"], ["0.75"]]}
    )
    assert reals.table[0][0] == Fraction(1, 4)
    mc = class_from_config(
        {
            "kind": "finite_multiclass",
            "domain": [0, 1],
            "table": [[1, 2], [3, 1]],
            "num_classes": 3,
        }
    )
    assert mc.num_classes == 3
    with pytest.raises(ContractViolation):
        class_from_config({"kind": "nope"})


def test_random_finite_classes_match_enumeration():
    gen = np.random.default_rng(29)
    for _ in range(200):
        rows = set()
        while len(rows) < 5:
            rows.add(
                tuple(
                    STAR if gen.random() < 0.2 else int(gen.integers(0, 2))
                    for _ in range(4)
                )
            )
        cls = FiniteTableClass(tuple(range(4)), sorted(rows, key=str), "binary")
        n = int(gen.integers(1, 6))
        xs = tuple(int(v) for v in gen.integers(0, 4, size=n))
        ys = tuple(int(v) for v in gen.integers(0, 2, size=n))
        slow = any(
            all(row[x] == y for x, y in zip(xs, ys)) for row in cls.table
        )
        assert cls.consistent_on(xs, ys) == slow
