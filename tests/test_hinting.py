import itertools
import math
from random import Random
from statistics import fmean

import pytest
from hypothesis import given, settings, strategies as st

from oracles import best_match_oracle
from senseparse.diagnostics import Diagnostics
from senseparse.errors import UnknownName
from senseparse.hinting import (
    AdviceMap,
    Hint,
    apply_prehints,
    augment,
    fix_senses,
    prehint,
    progressive_scorer,
)
from senseparse.parser import (
    ChartParser,
    Constituent,
    Grammar,
    GrammarRule,
    Token,
)

unit = st.floats(0.0, 1.0, allow_nan=False)


def constituent(word, span, onto_type, score, cid=0):
    return Constituent(cid, span, "X", onto_type, word, score, head=span[0])


def combine_bass(ontology, scorer, child_scores, head_type="electric-bass", weight=1.0):
    """The parent a rule builds over one "bass" daughter per score, headed
    by the first daughter and scored with ``scorer``."""
    children = [
        constituent("bass", (i, i + 1), head_type, score, cid=i)
        for i, score in enumerate(child_scores)
    ]
    rule = GrammarRule("X", ("X",) * len(children), 0, (), weight)
    parser = ChartParser(Grammar([]), ontology, {})
    return parser.combine(rule, children, cid=len(children), rejected={}, scorer=scorer)


# -- matching ----------------------------------------------------------------------


def matches(hint, word, span, onto_type, ontology):
    """Whether a query on a map holding only ``hint`` matches it."""
    return AdviceMap([hint]).best_match(word, span, onto_type, ontology) is hint


def test_match_hint_on_descendant_type(ontology):
    hint = Hint("bass", 3, "musical-instrument", 0.9)
    assert matches(hint, "bass", (3, 4), "electric-bass", ontology)


def test_match_fails_on_unrelated_type(ontology):
    hint = Hint("bass", 3, "musical-instrument", 0.9)
    assert not matches(hint, "bass", (3, 4), "freshwater-fish", ontology)


def test_match_fails_on_disjoint_spans(ontology):
    # the advised token lies just past one span and at the end of the other
    hint = Hint("bass", 2, "musical-instrument", 0.9)
    assert not matches(hint, "bass", (0, 2), "electric-bass", ontology)
    assert not matches(hint, "bass", (3, 4), "electric-bass", ontology)


def test_match_fails_on_word_mismatch(ontology):
    hint = Hint("bass", 3, "musical-instrument", 0.9)
    assert not matches(hint, "drum", (3, 4), "electric-bass", ontology)


def test_match_exact_type_is_reflexive(ontology):
    hint = Hint("bass", 3, "electric-bass", 0.9)
    assert matches(hint, "bass", (3, 4), "electric-bass", ontology)


# -- augment --------------------------------------------------------------------


def test_augment_paper_point():
    assert augment(0.5, 0.8, 0.5) == pytest.approx(0.7, abs=1e-12)


def test_augment_alpha_zero_is_constant_one():
    for s_c, s in [(0.0, 0.0), (0.3, 0.9), (1.0, 0.2)]:
        assert augment(s_c, s, 0.0) == 1.0


def test_augment_identity_inputs():
    for alpha in (0.0, 0.25, 0.5, 1.0):
        assert augment(1.0, 1.0, alpha) == 1.0


OUTSIDE_UNIT = (
    math.nextafter(0.0, -math.inf),
    math.nextafter(1.0, math.inf),
    math.nan,
)


@pytest.mark.parametrize("good", (0.0, 1.0))
@pytest.mark.parametrize("bad", OUTSIDE_UNIT, ids=("below", "above", "nan"))
@pytest.mark.parametrize("name", ("s_c", "s", "alpha"))
def test_augment_rejects_out_of_range(name, bad, good):
    # the other two sit on a bound, so only ``name`` can be the one named
    args = {"s_c": good, "s": good, "alpha": good, name: bad}
    with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 1\], got {bad}$"):
        augment(**args)


@pytest.mark.parametrize("s_c, s, alpha", itertools.product((0.0, 1.0), repeat=3))
def test_augment_accepts_the_bounds(s_c, s, alpha):
    assert augment(s_c, s, alpha) == alpha * (s_c * s) + (1.0 - alpha)


@settings(max_examples=200, deadline=None)
@given(s_c=unit, s=unit, alpha=unit)
def test_augment_bounds_and_monotonicity(s_c, s, alpha):
    value = augment(s_c, s, alpha)
    assert 1.0 - alpha - 1e-12 <= value <= 1.0 + 1e-12
    bumped = min(1.0, s_c + 0.1)
    assert augment(bumped, s, alpha) >= value - 1e-12
    bumped_s = min(1.0, s + 0.1)
    assert augment(s_c, bumped_s, alpha) >= value - 1e-12


# -- progressive score --------------------------------------------------------------


def test_progressive_leaf_without_hint_is_own_score(ontology):
    advice = AdviceMap(())
    item = ("bass", (3, 4), "electric-bass")
    assert progressive_scorer(advice, ontology, 0.5)(item, 0.6) == 0.6


def test_progressive_leaf_with_hint_is_augment(ontology):
    advice = AdviceMap([Hint("bass", 3, "musical-instrument", 0.8)])
    item = ("bass", (3, 4), "electric-bass")
    assert progressive_scorer(advice, ontology, 0.5)(item, 0.5) == pytest.approx(0.7)


def test_progressive_parent_averages_root_and_children(ontology):
    # the hook augments the root component, sqrt(0.4 * 0.9) = 0.6, to
    # 0.5 * (0.6 * 0.8) + 0.5 = 0.74; combine averages it with the daughters
    advice = AdviceMap([Hint("bass", 1, "musical-instrument", 0.8)])
    scorer = progressive_scorer(advice, ontology, 0.5)
    parent = combine_bass(ontology, scorer, [0.4, 0.9])
    assert parent.effective_score == pytest.approx((0.74 + 0.4 + 0.9) / 3)


def test_progressive_best_hint_highest_score_then_name(ontology):
    hints = [
        Hint("bass", 3, "musical-instrument", 0.6),
        Hint("bass", 3, "electric-bass", 0.9),
    ]
    advice = AdviceMap(hints)
    item = ("bass", (3, 4), "electric-bass")
    # alpha=1: augment = s_c * s = the chosen hint's score
    assert progressive_scorer(advice, ontology, 1.0)(item, 1.0) == pytest.approx(0.9)

    tied = AdviceMap(
        [
            Hint("bass", 3, "musical-instrument", 0.9),
            Hint("bass", 3, "artifact", 0.9),
        ]
    )
    best = tied.best_match("bass", (3, 4), "electric-bass", ontology)
    assert best.onto_type == "artifact"


_TYPES = ("electric-bass", "musical-instrument", "artifact", "freshwater-fish", "no-such-type")
_spans = st.tuples(st.integers(0, 4), st.integers(1, 3)).map(lambda p: (p[0], p[0] + p[1]))
_hints = st.lists(
    st.builds(
        Hint,
        word=st.sampled_from(("bass", "drum")),
        token=st.integers(0, 6),
        onto_type=st.sampled_from(_TYPES),
        score=st.sampled_from((0.25, 0.5, 1.0)),
    ),
    max_size=8,
)
_queries = st.lists(
    st.tuples(st.sampled_from(("bass", "drum")), _spans, st.sampled_from(_TYPES)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(hints=_hints, queries=_queries)
def test_best_match_equals_list_scan_oracle(ontology, hints, queries):
    # each query scans the map afresh, so a repeated one gives the same hint
    advice = AdviceMap(hints)
    for word, span, onto_type in queries + queries:
        expected = best_match_oracle(hints, word, span, onto_type, ontology)
        assert advice.best_match(word, span, onto_type, ontology) is expected


def test_progressive_empty_advice_equals_plain_recursive_mean(ontology):
    scorer = progressive_scorer(AdviceMap(()), ontology, 0.5)
    rng = Random(5)
    for _ in range(50):
        own = rng.random()
        assert scorer(("bass", (0, 2), "electric-bass"), own) == own
        children = [rng.random() for _ in range(rng.randrange(1, 4))]
        hooked = combine_bass(ontology, scorer, children)
        plain = combine_bass(ontology, None, children)
        assert hooked == plain
        root = math.prod(children) ** (1.0 / len(children))
        assert hooked.effective_score == fmean((root, *children))


def test_alpha_zero_hinted_order_determined_by_children(ontology):
    # both parents match a hint on their head token; with alpha=0 each root
    # component is 1, so only the children decide the ordering, whatever
    # the rule weights
    advice = AdviceMap(
        [Hint("bass", 0, "musical-instrument", 0.2),
         Hint("bass", 0, "electric-bass", 0.9)]
    )
    scorer = progressive_scorer(advice, ontology, 0.0)
    assert scorer(("bass", (0, 2), "electric-bass"), 0.1) == 1.0
    low = combine_bass(ontology, scorer, [0.9, 0.9], "electric-bass", weight=0.1)
    high = combine_bass(ontology, scorer, [0.2, 0.2], "musical-instrument", weight=1.0)
    assert low.effective_score == pytest.approx((1.0 + 0.9 + 0.9) / 3)
    assert high.effective_score == pytest.approx((1.0 + 0.2 + 0.2) / 3)
    assert low.effective_score > high.effective_score


# -- prehint -----------------------------------------------------------------------


TOKENS = [
    Token(0, 1, "i", "i", "PRO"),
    Token(2, 8, "played", "play", "V"),
    Token(9, 12, "the", "the", "DET"),
    Token(13, 17, "bass", "bass", "N"),
]


def test_prehint_emits_score_one_entry(resources):
    advice = AdviceMap([Hint("bass", 3, "musical-instrument", 0.9)])
    additions = prehint(advice, resources.lexicon, TOKENS)
    assert list(additions) == [3]
    [entry] = additions[3]
    assert entry.score == 1.0
    assert entry.onto_type == "musical-instrument"


def test_prehint_keeps_one_entry_per_advised_type(resources):
    # two types on one token both get an entry, in type order
    advice = AdviceMap(
        [
            Hint("bass", 3, "musical-instrument", 0.9),
            Hint("bass", 3, "drum", 0.6),
        ]
    )
    additions = prehint(advice, resources.lexicon, TOKENS)
    assert [e.onto_type for e in additions[3]] == ["drum", "musical-instrument"]


def test_hint_with_unknown_type_raises(resources):
    # build_advice_map only emits ontology types; a direct caller's unknown
    # type fails loudly instead of being skipped
    advice = AdviceMap([Hint("bass", 3, "no-such-type", 0.9)])
    with pytest.raises(UnknownName, match="no-such-type"):
        prehint(advice, resources.lexicon, TOKENS)
    with pytest.raises(UnknownName, match="no-such-type"):
        fix_senses(advice, base_entries(resources), resources.lexicon, TOKENS)


def test_prehint_no_template_skipped_with_diagnostic(resources):
    # a verb-position token advised with a type no verb template fits
    diag = Diagnostics()
    advice = AdviceMap([Hint("play", 1, "bread", 0.9)])
    additions = prehint(advice, resources.lexicon, TOKENS, diag)
    assert additions == {}
    assert diag.lines() == ["skipped-prehint play bread: no compatible template"]


def test_prehint_advises_the_first_token(resources):
    advice = AdviceMap([Hint("i", 0, "animal", 1.0)])
    additions = prehint(advice, resources.lexicon, TOKENS)
    assert [(i, e.onto_type) for i, bucket in additions.items() for e in bucket] == [
        (0, "animal")
    ]


def test_prehint_empty_advice_no_entries(resources):
    assert prehint(AdviceMap(()), resources.lexicon, TOKENS) == {}


def test_apply_prehints_never_shrinks_and_replaces_duplicates(resources):
    base = [
        resources.lexicon.candidate_entries(t.lemma, t.pos, resources.graph)
        for t in TOKENS
    ]
    advice = AdviceMap([Hint("bass", 3, "electric-bass", 1.0)])
    additions = prehint(advice, resources.lexicon, TOKENS)
    merged = apply_prehints(base, additions)
    for before, after in zip(base, merged):
        assert len(after) >= len(before)
    fixed_bass = [e for e in merged[3] if e.onto_type == "electric-bass"]
    assert len(fixed_bass) == 1  # the duplicate core entry was replaced, not doubled
    assert fixed_bass[0].score == 1.0


# -- fix_senses -----------------------------------------------------------------------


def base_entries(resources):
    return [
        resources.lexicon.candidate_entries(t.lemma, t.pos, resources.graph)
        for t in TOKENS
    ]


def test_fix_senses_filters_to_advised_type(resources):
    advice = AdviceMap([Hint("bass", 3, "electric-bass", 1.0)])
    base = base_entries(resources)
    fixed = fix_senses(advice, base, resources.lexicon, TOKENS)
    # the surviving entry is the core one, not a synthesized score-1 entry
    assert fixed[3] == [e for e in base[3] if e.onto_type == "electric-bass"]
    assert fixed[3][0].score < 1.0


def test_fix_senses_synthesizes_when_nothing_survives(resources):
    advice = AdviceMap([Hint("bass", 3, "drum", 1.0)])
    fixed = fix_senses(advice, base_entries(resources), resources.lexicon, TOKENS)
    assert {e.onto_type for e in fixed[3]} == {"drum"}
    assert fixed[3][0].score == 1.0


def test_fix_senses_forces_the_first_token(resources):
    advice = AdviceMap([Hint("i", 0, "animal", 1.0)])
    fixed = fix_senses(advice, base_entries(resources), resources.lexicon, TOKENS)
    assert [e.onto_type for e in fixed[0]] == ["animal"]


def test_fix_senses_leaves_unadvised_tokens_alone(resources):
    advice = AdviceMap([Hint("bass", 3, "electric-bass", 1.0)])
    base = base_entries(resources)
    fixed = fix_senses(advice, base, resources.lexicon, TOKENS)
    assert fixed[0] == base[0]
    assert fixed[1] == base[1]
    assert fixed[2] == base[2]


def test_fix_senses_never_empties_an_advised_token(resources):
    # advised type that no template fits: forcing is skipped, entries kept
    diag = Diagnostics()
    advice = AdviceMap([Hint("play", 1, "bread", 1.0)])
    base = base_entries(resources)
    fixed = fix_senses(advice, base, resources.lexicon, TOKENS, diag)
    assert fixed[1] == base[1]
    assert diag.lines() == [
        "forced-entry-failed play bread: no template",
        "forcing-skipped token 1 kept original entries",
    ]


# -- alpha validation ---------------------------------------------------------------


def test_progressive_score_rejects_bad_alpha(ontology):
    advice = AdviceMap([Hint("bass", 3, "electric-bass", 0.9)])
    with pytest.raises(ValueError, match="alpha must be in"):
        progressive_scorer(advice, ontology, 1.5)(("bass", (3, 4), "electric-bass"), 0.5)
