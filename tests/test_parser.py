import math
import re
from random import Random
from statistics import fmean

import pytest
from hypothesis import given, settings, strategies as st

from oracles import best_parse_oracle, verify_role_soundness
from senseparse.errors import ParseFailure, StructuralError
from senseparse.evaluation import VariantConfig, parse_sentence_with_variant, run_variant
from senseparse.lexicon import LexicalEntry
from senseparse.parser import (
    FALLBACK_TYPE,
    Chart,
    ChartParser,
    Constituent,
    GrammarRule,
    ParserConfig,
    Token,
    fragment_fallback,
    parse_grammar,
)


def make_parser(resources, **config_kwargs):
    config = ParserConfig(**config_kwargs)
    return ChartParser(
        resources.grammar, resources.ontology, resources.lexicon.templates, config
    )


def entries_for(resources, tokens):
    return [
        resources.lexicon.candidate_entries(t.lemma, t.pos, resources.graph)
        for t in tokens
    ]


def sentence_tokens(text, pos_tags):
    """The tokens of ``text``, split at spaces, with their character spans."""
    lemmas = {"cooked": "cook", "played": "play", "saw": "see"}
    return [
        Token(i, m.start(), m.end(), m.group(), lemmas.get(m.group(), m.group()), p)
        for i, (m, p) in enumerate(zip(re.finditer(r"\S+", text), pos_tags))
    ]


COOKED_BASS = sentence_tokens("i cooked the bass", ["PRO", "V", "DET", "N"])
PLAYED_BASS = sentence_tokens("i played the bass", ["PRO", "V", "DET", "N"])


def leaf(cid, span, category, onto_type, word, score):
    return Constituent(cid, span, category, onto_type, word, score, head=span[0])


# -- combine -------------------------------------------------------------------


def vp_rule():
    return GrammarRule("VP", ("V", "NP"), 0, ((1, "affected"),), 1.0)


def test_combine_accepts_restriction_satisfying_filler(resources):
    parser = make_parser(resources)
    v = leaf(0, (0, 1), "V", "cook-action", "cook", 0.8)
    np = leaf(1, (1, 2), "NP", "freshwater-fish", "bass", 0.6)
    built = parser.combine(vp_rule(), [v, np], cid=2, rejected={})
    assert built is not None
    assert built.onto_type == "cook-action"
    assert built.word == "cook"
    assert [(role, built.children[i]) for i, role in built.role_links] == [("affected", np)]
    # root component: weight times the daughters' geometric mean
    assert built.effective_score == pytest.approx((math.sqrt(0.8 * 0.6) + 0.8 + 0.6) / 3)


def test_combine_rejects_restriction_violation(resources):
    parser = make_parser(resources)
    rejected = {}
    v = leaf(0, (0, 1), "V", "cook-action", "cook", 0.8)
    np = leaf(1, (1, 2), "NP", "idea-type", "idea", 0.6)
    assert parser.combine(vp_rule(), [v, np], cid=2, rejected=rejected) is None
    assert list(rejected) == [("affected", "phys-obj", "idea-type")]


def test_combine_unary_weight_one_is_identity(resources):
    parser = make_parser(resources)
    np_rule = GrammarRule("NP", ("N",), 0, (), 1.0)
    n = leaf(0, (0, 1), "N", "bread", "bread", 0.37)
    built = parser.combine(np_rule, [n], cid=1, rejected={})
    assert built.effective_score == pytest.approx(0.37)


def test_combine_parent_holds_its_daughters_and_head_token(resources):
    parser = make_parser(resources)
    v = leaf(0, (0, 1), "V", "cook-action", "cook", 0.8)
    np = leaf(1, (1, 2), "NP", "freshwater-fish", "bass", 0.6)
    rule = vp_rule()
    built = parser.combine(rule, [v, np], cid=0, rejected={})
    assert (built.id, built.span, built.category) == (0, (0, 2), "VP")
    assert built.children == (v, np)
    assert built.head == 0
    # the role edges are the rule's own links; a leaf has none
    assert built.role_links is rule.role_links
    assert v.role_links == ()
    # the head token comes from the head daughter, however deep it sits
    rule = GrammarRule("X", ("N", "VP"), 1, (), 1.0)
    n = leaf(2, (2, 3), "N", "bread", "bread", 0.5)
    shifted = built._replace(span=(3, 5), head=3)
    outer = parser.combine(rule, [n, shifted], cid=4, rejected={})
    assert (outer.head, outer.word, outer.onto_type) == (3, "cook", "cook-action")
    assert outer.children == (n, shifted)


def test_combine_rejects_undeclared_role(resources):
    parser = make_parser(resources)
    rejected = {}
    rule = GrammarRule("X", ("N", "N"), 0, ((1, "affected"),), 1.0)
    a = leaf(0, (0, 1), "N", "bread", "bread", 0.5)
    b = leaf(1, (1, 2), "N", "cheese", "cheese", 0.5)
    assert parser.combine(rule, [a, b], cid=2, rejected=rejected) is None
    assert list(rejected) == [("affected", "(undeclared)", "cheese")]


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    weight=st.floats(0.0, 1.0, exclude_min=True),
)
def test_combine_scores_the_parent_it_builds(resources, scores, weight):
    # each arity is scored inline; each must equal the general form, the
    # weighted geometric mean and ``fmean``, to the last bit
    parser = make_parser(resources)
    children = [leaf(k, (k, k + 1), "N", "bread", f"w{k}", s) for k, s in enumerate(scores)]
    rule = GrammarRule("X", ("N",) * len(scores), 0, (), weight)
    root = weight * math.prod(scores) ** (1.0 / len(scores))
    # no hook: the recursive mean of the root component and the daughters'
    plain = parser.combine(rule, children, cid=0, rejected={})
    assert plain.effective_score == fmean((root, *scores))

    # a hook: called once with the head word, span and type and the root
    # component; its value is the root component the mean is taken over
    calls = []

    def hook(item, own):
        calls.append((item, own))
        return own / 2 + 0.25

    hooked = parser.combine(rule, children, cid=0, rejected={}, scorer=hook)
    assert calls == [(("w0", (0, len(scores)), "bread"), root)]
    assert hooked == plain._replace(effective_score=fmean((root / 2 + 0.25, *scores)))
    identity = parser.combine(
        rule, children, cid=0, rejected={}, scorer=lambda item, own: own
    )
    assert identity == plain


def test_combine_calls_no_hook_on_a_role_violation(resources):
    parser = make_parser(resources)
    v = leaf(0, (0, 1), "V", "cook-action", "cook", 0.8)
    np = leaf(1, (1, 2), "NP", "idea-type", "idea", 0.6)
    calls = []
    assert parser.combine(vp_rule(), [v, np], 2, {}, scorer=lambda *a: calls.append(a)) is None
    assert calls == []


def test_parse_calls_the_hook_once_per_seeded_or_built_item(resources):
    parser = make_parser(resources)
    entries = entries_for(resources, COOKED_BASS)
    unhooked = parser.parse(COOKED_BASS, entries, "t1")

    built = []
    original = parser.combine

    def counted(*args, **kwargs):
        constituent = original(*args, **kwargs)
        if constituent is not None:
            built.append(constituent)
        return constituent

    parser.combine = counted
    calls = []

    def identity_hook(item, own):
        calls.append(item)
        return own

    hooked = parser.parse(COOKED_BASS, entries, "t1", scorer=identity_hook)
    assert hooked == unhooked
    assert len(calls) == sum(map(len, entries)) + len(built)
    # the leaves are hooked first, each with its entry's word, token and type
    leaves = [
        (e.word, (i, i + 1), e.onto_type) for i, bucket in enumerate(entries) for e in bucket
    ]
    assert calls[: len(leaves)] == leaves
    assert calls[len(leaves):] == [(c.word, c.span, c.onto_type) for c in built]


# -- chart pruning ----------------------------------------------------------------


def test_prune_chart_beam_keeps_top_three():
    chart = Chart(beam_width=3)
    for i, score in enumerate([0.9, 0.1, 0.5, 0.7, 0.3]):
        chart.add(leaf(i, (0, 1), "N", f"t{i}", "w", score))
    assert chart.live == {0, 3, 2}


def test_prune_chart_tie_breaks_by_type_then_insertion():
    chart = Chart(beam_width=1)
    chart.add(leaf(0, (0, 1), "N", "zeta", "w", 0.5))
    chart.add(leaf(1, (0, 1), "N", "alpha", "w", 0.5))
    chart.add(leaf(2, (0, 1), "N", "alpha", "w", 0.5))
    assert chart.live == {1}


def test_chart_indexes_match_filter_over_live_items():
    categories = ("A", "B", "C")
    for seed in range(40):
        rng = Random(seed)
        beam_width = 1 + seed % 3
        chart = Chart(beam_width)
        added: list[Constituent] = []
        for cid in range(rng.randrange(5, 60)):
            start = rng.randrange(5)
            c = leaf(
                cid, (start, rng.randrange(start + 1, 7)), rng.choice(categories),
                rng.choice(("t1", "t2")), "w", rng.choice((0.25, 0.5, 0.75)),
            )
            added.append(c)
            chart.add(c)

            # the beam: the best beam_width of every item ever added to a cell
            cells: dict = {}
            for a in added:
                cells.setdefault((a.span, a.category), []).append(a)
            expected_live = set()
            for cell in cells.values():
                cell.sort(key=lambda a: (-a.effective_score, a.onto_type, a.id))
                expected_live.update(a.id for a in cell[:beam_width])
            assert chart.live == expected_live

            live = [a for a in added if a.id in chart.live]
            for position in range(8):
                # the (end|start, category) indexes the parse loop and the
                # fragment cover read
                for category in categories:
                    ending = chart._ending.get((position, category), {})
                    assert list(ending.values()) == [
                        a for a in live if a.span[1] == position and a.category == category
                    ]
                    starting = chart._starting.get((position, category), {})
                    assert list(starting.values()) == [
                        a for a in live if a.span[0] == position and a.category == category
                    ]


class InsertThenCut:
    """Reference chart: each item joins its cell, the cell is sorted in
    beam order and cut to the beam width, and the items cut leave ``live``
    and the indexes."""

    def __init__(self, beam_width):
        self.beam_width = beam_width
        self._cells, self.live = {}, set()
        self._ending, self._starting = {}, {}

    def add(self, constituent):
        key = (constituent.span, constituent.category)
        cell = sorted([*self._cells.get(key, ()), constituent], key=_beam_key)
        self._cells[key] = cell[: self.beam_width]
        if constituent in self._cells[key]:
            start, end = constituent.span
            self.live.add(constituent.id)
            self._ending.setdefault((end, constituent.category), {})[constituent.id] = constituent
            self._starting.setdefault((start, constituent.category), {})[constituent.id] = constituent
        for cut in cell[self.beam_width :]:
            self.live.discard(cut.id)
            self._ending.get((cut.span[1], cut.category), {}).pop(cut.id, None)
            self._starting.get((cut.span[0], cut.category), {}).pop(cut.id, None)
        return constituent.id in self.live


def _beam_key(c):
    return (-c.effective_score, c.onto_type, c.id)


def chart_state(chart):
    """Every store of the chart, with the index dicts in insertion order."""
    def ordered(index):
        return {key: list(cell.items()) for key, cell in index.items()}
    return chart._cells, chart.live, ordered(chart._ending), ordered(chart._starting)


def test_chart_add_matches_an_insert_then_cut_reference():
    # few scores, types and spans, so cells fill and keys tie on score
    for seed in range(200):
        rng = Random(seed)
        beam_width = 1 + seed % 4
        chart, reference = Chart(beam_width), InsertThenCut(beam_width)
        pruned = []
        original = chart.prune_cell

        def counted(key):
            pruned.append(key)
            original(key)

        chart.prune_cell = counted
        cid = 0
        for n in range(rng.randrange(1, 80)):
            cid += rng.randrange(1, 3)
            start = rng.randrange(3)
            c = leaf(
                cid, (start, rng.randrange(start + 1, 4)), rng.choice(("A", "B")),
                rng.choice(("t1", "t2", "t3")), "w", rng.choice((0.2, 0.4, 0.6, 0.8)),
            )
            assert chart.add(c) == reference.add(c)
            assert chart_state(chart) == chart_state(reference)
            # once per add, on the new item's cell
            assert len(pruned) == n + 1
            assert pruned[-1] == (c.span, c.category)


# -- fragment fallback ---------------------------------------------------------------


def test_fallback_returns_single_full_span_fragment():
    chart = Chart(beam_width=5)
    chart.add(leaf(0, (0, 3), "S", "action", "cook", 0.2))
    chart.add(leaf(1, (0, 1), "N", "bread", "bread", 0.9))
    tokens = sentence_tokens("a a a", [None] * 3)
    fragments = fragment_fallback(chart, tokens, 10)
    assert [f.span for f in fragments] == [(0, 3)]


def test_fallback_two_fragments():
    chart = Chart(beam_width=5)
    chart.add(leaf(0, (0, 2), "NP", "bread", "bread", 0.5))
    chart.add(leaf(1, (2, 3), "N", "cheese", "cheese", 0.5))
    tokens = sentence_tokens("a a a", [None] * 3)
    fragments = fragment_fallback(chart, tokens, 10)
    assert [f.span for f in fragments] == [(0, 2), (2, 3)]


def test_fallback_fills_gaps_with_fallback_type():
    # ids count up from next_id; the category is the token's POS, or X
    chart = Chart(beam_width=5)
    tokens = [
        Token(0, 0, 1, "A", "a", "N"), Token(1, 2, 3, "B", "b", None), Token(2, 4, 5, "C", "c", "N")
    ]
    fragments = fragment_fallback(chart, tokens, 7)
    assert fragments == [
        Constituent(7, (0, 1), "N", FALLBACK_TYPE, "a", 0.0, head=0),
        Constituent(8, (1, 2), "X", FALLBACK_TYPE, "b", 0.0, head=1),
        Constituent(9, (2, 3), "N", FALLBACK_TYPE, "c", 0.0, head=2),
    ]


# -- parse ------------------------------------------------------------------------


def test_parse_cooked_bass_spans_with_fish_reading(resources):
    parser = make_parser(resources)
    result = parser.parse(COOKED_BASS, entries_for(resources, COOKED_BASS), "t1")
    assert result.spanning
    assert len(result.fragments) == 1
    node = result.logical_form.node_at(3)
    assert node.onto_type == "freshwater-fish"
    edges = {(p, role, c) for p, role, c in result.logical_form.edges}
    assert (1, "affected", 3) in edges
    assert (1, "agent", 0) in edges


def test_parse_played_bass_reproduces_biased_mislabel(resources):
    parser = make_parser(resources)
    result = parser.parse(PLAYED_BASS, entries_for(resources, PLAYED_BASS), "t2")
    assert result.spanning
    assert result.logical_form.node_at(3).onto_type == "freshwater-fish"


def test_parse_no_entries_yields_per_token_fallback(resources):
    parser = make_parser(resources)
    tokens = sentence_tokens("blorp zzz qqq", ["N"] * 3)
    result = parser.parse(tokens, [[], [], []], "t3")
    assert not result.spanning
    assert len(result.fragments) == 3
    assert all(f.onto_type == "referential-sem" for f in result.fragments)


def test_parse_empty_token_list_is_an_error(resources):
    parser = make_parser(resources)
    with pytest.raises(ParseFailure):
        parser.parse([], [], "t4")


def test_parse_rejects_entry_lists_that_do_not_match_the_tokens(resources):
    parser = make_parser(resources)
    entries = entries_for(resources, COOKED_BASS)
    with pytest.raises(ParseFailure, match="one entry list per token required"):
        parser.parse(COOKED_BASS, entries[:-1], "t1")
    entries[3] = entries[3] + [LexicalEntry("bass", "no-such-template", "drum", 0.9)]
    with pytest.raises(ParseFailure, match="'bass' names missing template no-such-template"):
        parser.parse(COOKED_BASS, entries, "t1")


def test_parse_rejects_entry_with_unknown_type(resources):
    parser = make_parser(resources)
    entries = entries_for(resources, COOKED_BASS)
    entries[3] = entries[3] + [LexicalEntry("bass", entries[3][0].template, "no-such-type", 0.9)]
    with pytest.raises(ParseFailure, match="'bass' names unknown type no-such-type"):
        parser.parse(COOKED_BASS, entries, "t1")


def test_parse_respects_pop_budget(resources):
    parser = make_parser(resources, max_pops=2)
    result = parser.parse(COOKED_BASS, entries_for(resources, COOKED_BASS), "t5")
    assert result.agenda_pops <= 2


def test_parse_numbers_items_in_build_order(resources, monkeypatch):
    # seeded leaves first, token by token, then each built item: ids
    # count up from 0 with no gap, pruned items included
    added = []
    original = Chart.add

    def record(chart, constituent):
        added.append(constituent)
        return original(chart, constituent)

    monkeypatch.setattr(Chart, "add", record)
    entries = entries_for(resources, COOKED_BASS)
    make_parser(resources).parse(COOKED_BASS, entries, "t")
    seeded = sum(len(e) for e in entries)
    assert [c.id for c in added] == list(range(len(added)))
    assert len(added) > seeded
    assert [c.head for c in added[:seeded]] == [
        i for i, bucket in enumerate(entries) for _ in bucket
    ]
    assert all(c.children for c in added[seeded:])


def test_parse_accepts_a_root_scoring_exactly_the_threshold(resources):
    entries = entries_for(resources, COOKED_BASS)
    first = make_parser(resources).parse(COOKED_BASS, entries, "t")
    threshold = first.fragments[0].effective_score
    again = make_parser(resources, accept_threshold=threshold).parse(COOKED_BASS, entries, "t")
    assert again.fragments == first.fragments
    assert again.agenda_pops == first.agenda_pops


def test_parse_deterministic(resources):
    parser = make_parser(resources)
    entries = entries_for(resources, COOKED_BASS)
    first = parser.parse(COOKED_BASS, entries, "t6")
    second = parser.parse(COOKED_BASS, entries, "t6")
    assert str(first.logical_form) == str(second.logical_form)
    assert first.agenda_pops == second.agenda_pops
    assert [f.effective_score for f in first.fragments] == [
        f.effective_score for f in second.fragments
    ]


def test_parse_results_are_role_sound(resources, corpus):
    for sentence in corpus[:8]:
        result, _ = parse_sentence_with_variant(
            resources, sentence, (), VariantConfig("plain")
        )
        assert verify_role_soundness(result, resources.ontology) == []


def test_fragment_cover_is_disjoint_and_total(resources, corpus, fixtures_dir):
    config = VariantConfig("fixed")
    from senseparse.advice import load_advice

    advice = load_advice(fixtures_dir / "advice.txt")
    for sentence in corpus:
        result, _ = parse_sentence_with_variant(
            resources, sentence, advice.get(sentence.sentence_id, ()), config
        )
        covered = []
        for fragment in result.fragments:
            covered.extend(range(*fragment.span))
        assert covered == list(range(len(sentence.tokens)))


def test_best_first_matches_exhaustive_oracle(resources):
    parser = make_parser(
        resources, beam_width=10**6, max_pops=10**6, accept_threshold=1.0
    )
    for tokens in (COOKED_BASS, PLAYED_BASS):
        # no token of these sentences has more candidates than a token keeps
        entries = entries_for(resources, tokens)
        want = best_parse_oracle(
            tokens, entries, resources.grammar, resources.ontology,
            resources.lexicon.templates,
        )
        result = parser.parse(tokens, entries, "oracle")
        assert result.spanning
        assert result.fragments[0].effective_score == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("variant, spanning", [("plain", 30), ("pre", 30), ("fixed", 24)])
def test_best_first_root_is_optimal_on_fixture(
    resources, corpus, advice_records, monkeypatch, variant, spanning
):
    # default parser config and the entries run_variant builds: the first
    # spanning pop is the best spanning derivation, and fixed's other
    # sentences have none, so the forced senses fragment them, not the search
    parses = []
    original = ChartParser.parse

    def capture(self, tokens, entries, *args, **kwargs):
        result = original(self, tokens, entries, *args, **kwargs)
        parses.append((tokens, entries, result))
        return result

    monkeypatch.setattr(ChartParser, "parse", capture)
    run_variant(resources, corpus, advice_records, VariantConfig(variant))
    assert len(parses) == 30
    optimal = 0
    for tokens, entries, result in parses:
        want = best_parse_oracle(
            tokens, entries, resources.grammar, resources.ontology,
            resources.lexicon.templates,
        )
        if not result.spanning:
            assert want is None
            continue
        root = result.fragments[0].effective_score
        assert root <= want + 1e-9
        assert root == pytest.approx(want, abs=1e-9)
        optimal += 1
    assert optimal == spanning


def test_parser_config_accepts_its_smallest_settings_and_scales_the_budget():
    smallest = ParserConfig(beam_width=1, max_pops=1, accept_threshold=0.0)
    assert smallest.pop_budget(4) == 1
    assert ParserConfig(accept_threshold=1.0).pop_budget(4) == 160  # 10 * n^2
    for bad in ({"beam_width": 0}, {"max_pops": 0}, {"accept_threshold": 1.5}):
        with pytest.raises(ValueError):
            ParserConfig(**bad)


def test_fallback_type_must_exist(resources):
    from senseparse.ontology import parse_ontology

    tiny = parse_ontology("type root parent -\n")
    with pytest.raises(StructuralError, match="fallback"):
        ChartParser(resources.grammar, tiny, resources.lexicon.templates)
    # the abstention type is read from the config but is not a setting of it
    assert ParserConfig._fields == ("beam_width", "max_pops", "accept_threshold")
    assert ParserConfig().fallback_type == FALLBACK_TYPE


# -- grammar file ----------------------------------------------------------------------


def test_parse_grammar_roundtrip():
    grammar = parse_grammar(
        "rule S -> NP VP head 1 weight 1.0 link 0:agent\n"
        "rule NP -> N head 0 weight 0.8\n"
    )
    assert len(grammar.rules) == 2
    assert grammar.rules[0].role_links == ((0, "agent"),)
    assert grammar.positions["NP"] == [(0, 0)]
    assert grammar.positions["N"] == [(1, 0)]


def test_parse_grammar_rejects_bad_head():
    from senseparse.errors import FormatError

    with pytest.raises(FormatError, match="head"):
        parse_grammar("rule S -> NP VP head 5 weight 1.0\n")


def test_parse_grammar_rejects_bad_weight():
    from senseparse.errors import FormatError

    with pytest.raises(FormatError, match="weight"):
        parse_grammar("rule S -> NP head 0 weight 1.5\n")


def test_parse_grammar_rejects_link_to_head():
    from senseparse.errors import FormatError

    with pytest.raises(FormatError, match="head"):
        parse_grammar("rule S -> NP VP head 1 weight 1.0 link 1:agent\n")
