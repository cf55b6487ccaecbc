"""Fuzzy engine tests: membership, rulebases, inference, surfaces."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from certaintrust import (
    ArityMismatch,
    EmptyAggregate,
    IndexOutOfRange,
    InvalidDomain,
    LinguisticVariable,
    MembershipFunction,
    Rule,
    RuleBase,
    TERM_LABELS,
    fuzzify,
    gaussian_mf,
    generate_rulebase,
    infer,
    make_variable,
    mean_consequent,
    surface_grid,
)
from certaintrust.fuzzy import infer_batch

import oracle


def unit_inputs(n=3):
    return [make_variable(f"x{i}", 0.0, 1.0) for i in range(n)]


def unit_rulebase(n=3):
    return generate_rulebase(unit_inputs(n), make_variable("y", 0.0, 1.0))


class TestGaussianMf:
    def test_analytic_points(self):
        mf = MembershipFunction(center=0.5, sigma=0.2)
        assert gaussian_mf(0.5, mf) == 1.0
        assert gaussian_mf(0.7, mf) == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert gaussian_mf(0.1, mf) == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_symmetry(self):
        mf = MembershipFunction(center=2.0, sigma=0.7)
        for d in (0.1, 0.5, 1.3, 4.0):
            assert gaussian_mf(2.0 + d, mf) == pytest.approx(
                gaussian_mf(2.0 - d, mf), abs=1e-12
            )

    def test_strictly_positive_below_one_off_center(self):
        mf = MembershipFunction(center=0.0, sigma=1.0)
        for x in (-10.0, -0.3, 0.2, 25.0):
            assert 0.0 < gaussian_mf(x, mf) < 1.0

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            MembershipFunction(center=0.0, sigma=0.0)


class TestMakeVariable:
    def test_unit_domain_centers(self):
        v = make_variable("v", 0.0, 1.0)
        assert [mf.center for _, mf in v.terms] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert [label for label, _ in v.terms] == list(TERM_LABELS)

    def test_sigma_gives_half_membership_crossover(self):
        # independently: solve exp(-(0.125)^2 / (2 s^2)) = 0.5
        expected = 0.125 / math.sqrt(2.0 * math.log(2.0))
        v = make_variable("v", 0.0, 1.0)
        for _, mf in v.terms:
            assert mf.sigma == pytest.approx(expected, abs=1e-12)
        lo_mf = v.terms[0][1]
        assert gaussian_mf(0.125, lo_mf) == pytest.approx(0.5, abs=1e-12)

    def test_percent_domain_is_affinely_scaled(self):
        v = make_variable("v", 0.0, 100.0)
        assert [mf.center for _, mf in v.terms] == [0.0, 25.0, 50.0, 75.0, 100.0]
        assert v.terms[0][1].sigma == pytest.approx(10.6165225, abs=1e-6)

    def test_empty_domain_rejected(self):
        with pytest.raises(InvalidDomain, match=r"^v: need lo < hi, got \[1\.0, 1\.0\]$"):
            make_variable("v", 1.0, 1.0)
        with pytest.raises(InvalidDomain, match=r"^v: need lo < hi, got \[2\.0, -1\.0\]$"):
            make_variable("v", 2.0, -1.0)

    def test_make_variable_is_the_class(self):
        assert make_variable is LinguisticVariable
        v = LinguisticVariable("v", 0, 100)
        assert v == make_variable("v", 0.0, 100.0)
        assert [mf.center for _, mf in v.terms] == [0.0, 25.0, 50.0, 75.0, 100.0]
        with pytest.raises(TypeError):
            LinguisticVariable("v", 0.0, 1.0, v.terms)

    @pytest.mark.parametrize("lo, hi, message", [
        (-math.inf, math.inf, "need finite lo and hi"),
        (0.0, math.nan, "need finite lo and hi"),
        (False, 1.0, "need finite lo and hi"),
        (0, 2 ** 1100, "need finite lo and hi"),
        (0.0, "1", "need finite lo and hi"),
        (-1e308, 1e308, r"domain width inf gives 2 sigma\^2 = inf"),
        (-1e200, 1e200, r"domain width 2e\+200 gives 2 sigma\^2 = inf"),
        (0.0, 1e-320, r"domain width 1e-320 gives 2 sigma\^2 = 0.0"),
    ])
    def test_domain_must_give_finite_positive_memberships(self, lo, hi, message):
        with pytest.raises(InvalidDomain, match=f"^v: {message}"):
            make_variable("v", lo, hi)

    @pytest.mark.parametrize("name", ["", "  ", None, 3])
    def test_name_must_be_a_non_empty_string(self, name):
        with pytest.raises(ValueError, match="^name must be a non-empty string"):
            make_variable(name, 0.0, 1.0)


class TestFuzzify:
    def test_center_has_full_membership(self):
        v = make_variable("v", 0.0, 1.0)
        degrees = fuzzify(v, 0.5)
        assert degrees[2] == 1.0

    def test_midpoint_between_adjacent_terms(self):
        v = make_variable("v", 0.0, 1.0)
        degrees = fuzzify(v, 0.375)
        assert degrees[1] == pytest.approx(0.5, abs=1e-12)
        assert degrees[2] == pytest.approx(0.5, abs=1e-12)

    def test_domain_edge(self):
        v = make_variable("v", 0.0, 1.0)
        degrees = fuzzify(v, 0.0)
        assert degrees[0] == 1.0
        assert all(d > 0.0 for d in degrees)
        assert all(b < a for a, b in zip(degrees, degrees[1:]))

    def test_out_of_domain_clamped(self):
        v = make_variable("v", 0.0, 100.0)
        assert fuzzify(v, -5.0) == fuzzify(v, 0.0)
        assert fuzzify(v, 104.0) == fuzzify(v, 100.0)
        assert fuzzify(v, -math.inf) == fuzzify(v, 0.0)
        assert fuzzify(v, math.inf) == fuzzify(v, 100.0)
        with pytest.raises(InvalidDomain, match="^v: input is NaN"):
            fuzzify(v, math.nan)


class TestRulebaseGeneration:
    def test_printed_boundary_rules(self):
        rb = unit_rulebase(3)
        table = {r.antecedent: r.consequent for r in rb.rules}
        assert table[(0, 0, 0)] == 0
        assert table[(1, 0, 0)] == 0  # mean 1/3 rounds down to Very_Low
        assert table[(4, 4, 4)] == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_cartesian_product(self, n):
        rb = unit_rulebase(n)
        assert len(rb.rules) == 5 ** n
        antecedents = {r.antecedent for r in rb.rules}
        assert len(antecedents) == 5 ** n
        assert all(0 <= r.consequent <= 4 for r in rb.rules)

    def test_mean_policy_matches_oracle_table(self):
        rb = unit_rulebase(3)
        table = oracle.mean_rule_table(3)
        for rule in rb.rules:
            assert rule.consequent == table[rule.antecedent]

    def test_mean_policy_is_monotone(self):
        for n in (3, 4):
            table = {r.antecedent: r.consequent for r in unit_rulebase(n).rules}
            for ante, cons in table.items():
                for i in range(n):
                    if ante[i] < 4:
                        higher = ante[:i] + (ante[i] + 1,) + ante[i + 1:]
                        assert table[higher] >= cons

    def test_round_half_up(self):
        assert mean_consequent((0, 1)) == 1  # mean 0.5 rounds up
        assert mean_consequent((2, 3)) == 3  # mean 2.5 rounds up
        assert mean_consequent((1, 1, 1)) == 1

    def test_duplicate_antecedents_rejected(self):
        v = unit_inputs(1)
        with pytest.raises(ValueError, match=r"^rule 3: duplicate antecedent \(2,\) \(first at rule 1\)$"):
            RuleBase(tuple(v), make_variable("y", 0.0, 1.0),
                     (Rule((2,), 2), Rule((1,), 1), Rule((2,), 3)))

    def test_arity_mismatch_rejected(self):
        v = unit_inputs(2)
        with pytest.raises(ArityMismatch):
            RuleBase(tuple(v), make_variable("y", 0.0, 1.0), (Rule((1,), 1),))

    def test_no_inputs_rejected(self):
        with pytest.raises(ValueError, match="^a rulebase needs at least one input variable$"):
            RuleBase((), make_variable("y", 0.0, 1.0), ())

    def test_term_index_endpoints(self):
        assert Rule((0, 4), 4).antecedent == (0, 4)
        for antecedent, consequent in (((5, 0), 0), ((0, 5), 0), ((0, 0), 5), ((-1, 0), 0)):
            with pytest.raises(IndexOutOfRange, match=r"^term index -?[15] out of range 0\.\.4$"):
                Rule(antecedent, consequent)


class TestInfer:
    def test_all_medium_is_midpoint(self):
        rb = unit_rulebase(3)
        got = infer(rb, [0.5, 0.5, 0.5])
        assert got == pytest.approx(0.5, abs=1e-6)
        ref = oracle.bruteforce_infer([0.5, 0.5, 0.5])
        assert got == pytest.approx(ref, abs=1e-9)

    def test_all_very_high(self):
        rb = unit_rulebase(3)
        got = infer(rb, [1.0, 1.0, 1.0])
        assert 0.75 <= got <= 1.0
        assert got > infer(rb, [0.5, 0.5, 0.5])
        assert got == pytest.approx(oracle.bruteforce_infer([1.0, 1.0, 1.0]), abs=1e-9)

    @pytest.mark.parametrize(
        "xs",
        [
            [0.1, 0.6, 0.9],
            [0.0, 0.0, 0.0],
            [0.33, 0.48, 0.71],
            [1.0, 0.2, 0.5],
        ],
    )
    def test_matches_bruteforce_oracle(self, xs):
        rb = unit_rulebase(3)
        assert infer(rb, xs) == pytest.approx(
            oracle.bruteforce_infer(xs), abs=1e-9
        )

    def test_output_within_domain(self):
        rb = unit_rulebase(2)
        for xs in itertools.product([0.0, 0.25, 0.6, 1.0], repeat=2):
            assert 0.0 <= infer(rb, list(xs)) <= 1.0

    def test_permutation_symmetry(self):
        rb = unit_rulebase(3)
        xs = [0.15, 0.62, 0.87]
        base = infer(rb, xs)
        for perm in itertools.permutations(xs):
            assert infer(rb, list(perm)) == pytest.approx(base, abs=1e-12)

    def test_continuity_probe(self):
        rb = unit_rulebase(3)
        for xs in ([0.3, 0.5, 0.7], [0.12, 0.12, 0.99]):
            base = infer(rb, xs)
            for i in range(3):
                bumped = list(xs)
                bumped[i] += 1e-6
                assert abs(infer(rb, bumped) - base) < 1e-3

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            infer(unit_rulebase(3), [0.5, 0.5])

    def test_nan_input_rejected_and_infinities_clamped(self):
        rb = unit_rulebase(3)
        with pytest.raises(InvalidDomain, match="^x1: input is NaN"):
            infer(rb, [0.5, math.nan, 0.5])
        assert infer(rb, [-math.inf, 0.5, math.inf]) == infer(rb, [0.0, 0.5, 1.0])

    def test_empty_rulebase_has_no_aggregate(self):
        rb = RuleBase(tuple(unit_inputs(1)), make_variable("y", 0.0, 1.0), ())
        with pytest.raises(EmptyAggregate):
            infer(rb, [0.5])

    @pytest.mark.parametrize("lo, hi", [(-1e150, 1e150), (0.0, 1e-160)])
    def test_widest_and_narrowest_sound_domains_infer(self, lo, hi):
        rb = generate_rulebase([make_variable(f"x{i}", lo, hi) for i in range(2)],
                               make_variable("y", lo, hi))
        for xs in ([lo, lo], [lo, hi], [hi, hi], [(lo + hi) / 2] * 2):
            assert lo <= infer(rb, xs) <= hi


#: hypothesis examples per arity; the oracle needs ~0.5 s per full 625-rule table
KERNEL_EXAMPLES = {1: 25, 2: 20, 3: 8, 4: 3}


@st.composite
def kernel_cases(draw, n):
    """A domain, a rule table over ``n`` inputs and an input vector.

    Tables are either the full rounded-mean table or a random partial one
    in which at least one output term concludes no rule.
    """
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (0.0, 100.0)]))
    terms = range(len(TERM_LABELS))
    antecedents = list(itertools.product(terms, repeat=n))
    missing = draw(st.sampled_from(terms))
    partial = st.dictionaries(
        st.sampled_from(antecedents),
        st.sampled_from([k for k in terms if k != missing]),
        min_size=1,
        max_size=min(len(antecedents), 40),
    )
    table = draw(st.one_of(st.just(oracle.mean_rule_table(n)), partial))
    margin = 0.2 * (hi - lo)
    xs = draw(st.lists(st.floats(lo - margin, hi + margin), min_size=n, max_size=n))
    return lo, hi, table, xs


#: sha256 of :func:`infer_digest`, recorded by running these min-only
#: cases against commit cdfd010, the last engine with a product t-norm,
#: whose min results the earlier digest (taken with the per-rule-row
#: kernel) pinned; any change in a result's last bit changes it
INFER_DIGEST = "a35bb09a1bd8e3e484539e891012486187149b59971d21bb1f06cb2ca649b8fa"


def digest_cases():
    """Seeded ``(rulebase, xs)`` pairs for the bit-exactness digest.

    Arity 1-4 over three domains; the full rounded-mean table and three
    partial tables whose consequents use one to four of the five terms;
    domain edges and term centres exactly, and points up to
    30% of the domain width outside it.
    """
    rng = random.Random(2013)
    for n in (1, 2, 3, 4):
        for lo, hi in ((0.0, 1.0), (0.0, 100.0), (-3.0, 7.5)):
            inputs = tuple(make_variable(f"x{i}", lo, hi) for i in range(n))
            output = make_variable("y", lo, hi)
            antecedents = list(itertools.product(range(len(TERM_LABELS)), repeat=n))
            rulebases = [generate_rulebase(inputs, output)]
            for size in (1, 3, len(antecedents) // 2):
                used = rng.sample(range(len(TERM_LABELS)), rng.randint(1, 4))
                rules = tuple(Rule(a, rng.choice(used)) for a in rng.sample(antecedents, size))
                rulebases.append(RuleBase(inputs, output, rules))
            width = hi - lo
            exact = [mf.center for _, mf in inputs[0].terms]
            for rb in rulebases:
                points = [[rng.choice(exact) for _ in range(n)] for _ in range(3)]
                points += [
                    [rng.uniform(lo - 0.3 * width, hi + 0.3 * width) for _ in range(n)]
                    for _ in range(8)
                ]
                for xs in points:
                    yield rb, xs


def infer_digest():
    """sha256 over ``float.hex`` of every :func:`infer` result in :func:`digest_cases`."""
    h = hashlib.sha256()
    for rb, xs in digest_cases():
        h.update(infer(rb, xs).hex().encode() + b"\n")
    return h.hexdigest()


def batch_digest():
    """:func:`infer_digest`, with each rulebase's group of :func:`digest_cases`
    passed to :func:`infer_batch` as one call."""
    h = hashlib.sha256()
    for rb, group in itertools.groupby(digest_cases(), key=lambda c: c[0]):
        rows = [xs for _, xs in group]
        for y in infer_batch([rb] * len(rows), rows):
            h.update(y.hex().encode() + b"\n")
    return h.hexdigest()


class TestKernelAgainstOracle:
    @pytest.mark.parametrize("n", sorted(KERNEL_EXAMPLES))
    def test_infer_matches_oracle(self, n):
        @settings(max_examples=KERNEL_EXAMPLES[n], deadline=None)
        @given(kernel_cases(n))
        def check(case):
            lo, hi, table, xs = case
            rb = RuleBase(
                tuple(make_variable(f"x{i}", lo, hi) for i in range(n)),
                make_variable("y", lo, hi),
                tuple(Rule(ante, cons) for ante, cons in table.items()),
            )
            got = infer(rb, xs)
            ref = oracle.bruteforce_infer(xs, lo, hi, table=table)
            assert got == pytest.approx(ref, abs=1e-9)

        check()

    def test_results_are_bit_identical_to_the_recorded_digest(self):
        assert infer_digest() == INFER_DIGEST

    def test_batch_results_are_bit_identical_to_the_recorded_digest(self):
        assert batch_digest() == INFER_DIGEST

    def test_kernel_degrees_equal_fuzzify_bit_for_bit(self):
        for rb, xs in digest_cases():
            want = [d for v, x in zip(rb.inputs, xs) for d in fuzzify(v, x)]
            got = rb.kernel.degrees(xs)
            assert [d.hex() for d in got] == [d.hex() for d in want] + [(0.0).hex()]

    def test_cached_rule_arrays_leave_equality_and_hash_alone(self):
        a, b = unit_rulebase(3), unit_rulebase(3)
        infer(a, [0.2, 0.5, 0.9])
        assert "kernel" in vars(a) and "kernel" not in vars(b)
        assert a == b
        assert hash(a) == hash(b)


@st.composite
def batch_cases(draw):
    """1-8 rows, each under its own rulebase over 1-4 inputs, all of one content.

    Each row's rulebase names its inputs ``row<r>_x<i>``; the table is the
    full rounded-mean one or a random partial one; points up to 30% of
    the domain width outside it.
    """
    n = draw(st.integers(1, 4))
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (0.0, 100.0), (-3.0, 7.5)]))
    terms = range(len(TERM_LABELS))
    antecedents = list(itertools.product(terms, repeat=n))
    partial = st.dictionaries(st.sampled_from(antecedents), st.sampled_from(terms),
                              min_size=1, max_size=min(len(antecedents), 40))
    table = draw(st.one_of(st.just(oracle.mean_rule_table(n)), partial))
    rules = tuple(Rule(ante, cons) for ante, cons in table.items())
    margin = 0.3 * (hi - lo)
    rows = draw(st.lists(st.lists(st.floats(lo - margin, hi + margin), min_size=n, max_size=n),
                         min_size=1, max_size=8))
    rbs = [RuleBase(tuple(make_variable(f"row{r}_x{i}", lo, hi) for i in range(n)),
                    make_variable(f"row{r}_y", lo, hi), rules) for r in range(len(rows))]
    return rbs, rows


class TestInferBatch:
    @settings(max_examples=80, deadline=None)
    @given(batch_cases())
    def test_equals_infer_bit_for_bit(self, case):
        rbs, rows = case
        want = [infer(rb, xs).hex() for rb, xs in zip(rbs, rows)]
        assert [y.hex() for y in infer_batch(rbs, rows)] == want

    @settings(max_examples=40, deadline=None)
    @given(batch_cases(), st.data())
    def test_nan_names_the_input_of_its_row(self, case, data):
        rbs, rows = case
        r = data.draw(st.integers(0, len(rows) - 1))
        i = data.draw(st.integers(0, len(rows[r]) - 1))
        rows[r][i] = math.nan
        with pytest.raises(InvalidDomain, match=f"^row{r}_x{i}: input is NaN$"):
            infer_batch(rbs, rows)

    @settings(max_examples=40, deadline=None)
    @given(batch_cases(), st.data())
    def test_row_of_wrong_arity_is_refused(self, case, data):
        rbs, rows = case
        r = data.draw(st.integers(0, len(rows) - 1))
        rows[r] = data.draw(st.sampled_from([rows[r][:-1], rows[r] + [0.0]]))
        with pytest.raises(ArityMismatch):
            infer_batch(rbs, rows)

    def test_equal_content_shares_one_table(self):
        a, b = unit_rulebase(3), unit_rulebase(3)
        renamed = generate_rulebase([make_variable(f"v{i}", 0.0, 1.0) for i in range(3)],
                                    make_variable("z", 0.0, 1.0))
        assert a.kernel.table is b.kernel.table is renamed.kernel.table
        assert unit_rulebase(2).kernel.table is not a.kernel.table
        wider = generate_rulebase(unit_inputs(3), make_variable("y", 0.0, 2.0))
        assert wider.kernel.table is not a.kernel.table

    def test_misshapen_batches_are_refused(self):
        rb = unit_rulebase(3)
        other = generate_rulebase(unit_inputs(3), make_variable("y", 0.0, 2.0))
        for rbs, rows in (([], []), ([rb], []), ([rb, rb], [[0.5] * 3]),
                          ([rb, other], [[0.5] * 3] * 2)):
            with pytest.raises(ValueError, match="one rulebase per row, all sharing one"):
                infer_batch(rbs, rows)

    def test_empty_aggregate_is_refused(self):
        rb = RuleBase(tuple(unit_inputs(1)), make_variable("y", 0.0, 1.0), ())
        with pytest.raises(EmptyAggregate):
            infer_batch([rb, rb], [[0.2], [0.7]])


def one_input_rulebase(*rules):
    """A rulebase over one input and one output, both on ``[0, 1]``."""
    return RuleBase(
        (make_variable("x", 0.0, 1.0),),
        make_variable("y", 0.0, 1.0),
        tuple(Rule((ante,), cons) for ante, cons in rules),
    )


class TestCentroid:
    """Centroid properties of the aggregate, seen through :func:`infer`."""

    def test_clipped_mid_term_is_symmetric(self):
        rb = one_input_rulebase((2, 2))
        for x in (0.5, 0.35):  # clipped at 1.0, then at about 0.37
            assert infer(rb, [x]) == pytest.approx(0.5, abs=1e-9)

    def test_two_equal_terms_balance(self):
        # 0.5 sits exactly between the Low and High centres: equal strengths
        rb = one_input_rulebase((1, 1), (3, 3))
        assert infer(rb, [0.5]) == pytest.approx(0.5, abs=1e-9)

    def test_edge_term_pulled_inward(self):
        edge = make_variable("y", 0.0, 1.0).terms[4][1]
        got = infer(one_input_rulebase((4, 4)), [1.0])  # fires at 1.0: the whole curve
        ref = oracle.bruteforce_centroid(lambda x: gaussian_mf(x, edge), 0.0, 1.0)
        assert got == pytest.approx(ref, abs=1e-9)
        assert got < 1.0 - 0.05  # truncated mass is asymmetric

    def test_empty_aggregate_rejected(self):
        for n in (1, 2, 3, 4):
            rb = RuleBase(tuple(unit_inputs(n)), make_variable("y", 0.0, 1.0), ())
            with pytest.raises(EmptyAggregate):
                infer(rb, [0.5] * n)


class TestSurfaceGrid:
    def test_corner_cell_equals_direct_inference(self):
        rb = unit_rulebase(3)
        grid = surface_grid(rb, 0, 1, resolution=2)
        assert grid.values[1][1] == pytest.approx(
            infer(rb, [1.0, 1.0, 0.5]), abs=1e-12
        )

    def test_symmetric_under_axis_swap(self):
        rb = unit_rulebase(3)
        grid = surface_grid(rb, 0, 1, resolution=5)
        for i in range(5):
            for j in range(5):
                assert grid.values[i][j] == pytest.approx(grid.values[j][i], abs=1e-12)

    def test_csv_shape_and_precision(self):
        rb = unit_rulebase(2)
        text = surface_grid(rb, 0, 1, resolution=3).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,z"
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 3
            for part in parts:
                assert len(part.split(".")[1]) == 6

    def test_row_major_order(self):
        rb = unit_rulebase(2)
        grid = surface_grid(rb, 0, 1, resolution=2)
        lines = grid.to_csv().strip().split("\n")[1:]
        xs = [float(line.split(",")[0]) for line in lines]
        assert xs == [0.0, 0.0, 1.0, 1.0]  # x varies slowest

    def test_errors(self):
        rb = unit_rulebase(3)
        with pytest.raises(IndexOutOfRange):
            surface_grid(rb, 0, 0)
        for x, y in ((0, 7), (0, 3), (3, 0)):
            with pytest.raises(IndexOutOfRange, match=r"^input index [37] out of range 0\.\.2$"):
                surface_grid(rb, x, y)
        with pytest.raises(InvalidDomain):
            surface_grid(rb, 0, 1, resolution=1)


class TestSurfaceRippleByTnorm:
    """The min-conjunction surface has inherent non-monotone ripples of
    just under one point on a 0-100 domain (they persist at 20x finer
    centroid sampling, so they are not discretization artifacts).  Pin
    the ripple on the 51x51 existence surface, and the whole-domain band
    of any one-input raise, so regressions in either direction surface.

    The band comes from ``tools/ripple_search.py``: 400,000 seeded steps
    per arity on the generated 0-100 tables (seeds 11 and 12), each a
    uniform point, one input and a raise of up to 5 points, found worst
    drops of 2.19 points (3 inputs) and 2.06 (4 inputs); a seeded local
    search around each of the ten worst steps per arity climbed every one
    to 2.2994-2.2999, at a full 5-point raise from 82.5 (or 12.5, by
    symmetry) while another input sits near 93.8 (or 6.2).  The band is
    2.35 points, above that supremum by a margin far wider than any
    rounding.
    """

    BAND = 2.35

    @staticmethod
    def rulebase(n):
        return generate_rulebase(
            [make_variable(f"v{i}", 0.0, 100.0) for i in range(n)],
            make_variable("out", 0.0, 100.0),
        )

    def worst_drop(self, resolution=51):
        grid = surface_grid(self.rulebase(3), 0, 1, resolution=resolution)
        worst = 0.0
        values = grid.values
        for i in range(resolution):
            for j in range(resolution - 1):
                worst = max(worst, values[i][j] - values[i][j + 1])
                worst = max(worst, values[j][i] - values[j + 1][i])
        return worst

    def test_min_ripple_is_real_and_bounded(self):
        worst = self.worst_drop()
        assert 0.3 < worst < 1.2

    @pytest.mark.parametrize("xs, i", [
        ([95.25, 93.81, 82.5], 2),
        ([93.78, 82.5, 77.9, 99.2], 1),
    ])
    def test_one_input_raise_stays_within_the_band(self, xs, i):
        n = len(xs)
        rb = self.rulebase(n)
        up = list(xs)
        up[i] += 5.0
        assert 2.25 < infer(rb, xs) - infer(rb, up) <= self.BAND  # a worst step of the search

        rng = random.Random(30 + n)
        for _ in range(4000):
            xs = [rng.uniform(0.0, 100.0) for _ in range(n)]
            up = list(xs)
            i = rng.randrange(n)
            up[i] = min(up[i] + rng.uniform(0.0, 5.0), 100.0)
            assert infer(rb, xs) - infer(rb, up) <= self.BAND, (xs, up)
