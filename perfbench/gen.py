"""Seeded input generator for the benchmark workloads.

Writes one workload's inputs, in the program's own file formats, into a
directory::

    python3 perfbench/gen.py --workload long-ambig --seed 3 --out DIR

Files written: ``ontology.txt synsets.txt lexicon.txt grammar.txt
corpus.txt advice.txt`` (what ``eval`` reads), ``cli_advice.txt`` (the same
advice re-anchored in the annotated text that ``parse --sentence``
receives), ``cli_sentences.txt`` (``<sentence-id>\\t<annotated text>``) and
``gold_types.txt`` (``<synset> <type>``, the type each gold synset subsumes
to by construction; the program never reads it).  The same seed gives
byte-identical files.

Workloads:

- ``fixture`` copies the shipped ``fixtures/`` files (the seed is unused).
- ``long-ambig``: 5-40 token sentences under a recursive grammar
  (``NP -> NP PP``, ``VP -> VP PP``, coordination) over a small ambiguous
  vocabulary; a fixed share of the advice names the wrong sense and every
  confidence is below 1.
- ``wide-lexicon``: an ontology of 10^3 types, a multi-inheritance synset
  graph of 10^4 synsets and 2*10^3 core entries, all drawn from the seed;
  5-8 token sentences whose nouns are rare words reached only through
  synsets, each sentence with several advice records.

Synthetic sentences realize fixed sentence frames (see "sentence frames"
below), so every seed has the same make-up.  In both synthetic workloads
half of the gold nouns have a gold sense that the lexical prior does not
favour, so hints have something to correct.  The generator prints the
share of token occurrences whose (lemma, POS) pair already appeared
earlier in the corpus.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random

import checks

WORKLOADS = ("fixture", "long-ambig", "wide-lexicon")
INPUT_FILES = ("ontology.txt", "synsets.txt", "lexicon.txt", "grammar.txt")

# Share of gold noun occurrences whose prior favours the gold sense, and
# share of advice records that name a wrong sense, both as exact counts
# over the frames.
FAVOURED_SHARE = {"long-ambig": 0.5, "wide-lexicon": 0.5}
ADVICE_ERROR_SHARE = {"long-ambig": 0.25, "wide-lexicon": 0.1}

# One frame per length.  The corpus is CHUNKS[workload] chunks; each chunk
# realizes every frame once, in an order the seed shuffles, so chunks are
# interchangeable units of work.
FRAME_LENGTHS = {
    "long-ambig": (5, 9, 13, 17, 21, 25, 29, 33, 37, 40),
    "wide-lexicon": (5, 6, 7, 8),
}
CHUNKS = {"long-ambig": 3, "wide-lexicon": 12}

GRAMMAR_RECURSIVE = """\
# Recursive grammar: PP attachment to NP and VP, NP and VP coordination.
rule S -> NP VP head 1 weight 1.0 link 0:agent
rule VP -> V NP head 0 weight 1.0 link 1:affected
rule VP -> VP PP head 0 weight 0.9 link 1:circ
rule VP -> VP CONJ VP head 0 weight 0.9 link 2:coord
rule NP -> NP PP head 0 weight 0.9 link 1:mod
rule NP -> NP CONJ NP head 0 weight 0.9 link 2:coord
rule PP -> P NP head 1 weight 1.0
rule NP -> DET N head 1 weight 0.9
rule NP -> N head 0 weight 0.8
rule NP -> PRO head 0 weight 1.0
"""

FUNCTION_TEMPLATES = """\
template trans-verb cat V slots subj:agent,obj:affected
template noun cat N slots -
template pronoun cat PRO slots -
template determiner cat DET slots -
template prep cat P slots -
template conj cat CONJ slots -

default-template N noun
default-template V trans-verb
default-template PRO pronoun
default-template DET determiner
default-template P prep
default-template CONJ conj

entry the cat DET template determiner type referential-sem
entry a cat DET template determiner type referential-sem
entry with cat P template prep type referential-sem
entry near cat P template prep type referential-sem
entry on cat P template prep type referential-sem
entry by cat P template prep type referential-sem
entry and cat CONJ template conj type referential-sem
entry i cat PRO template pronoun type person
entry you cat PRO template pronoun type person
entry she cat PRO template pronoun type person
"""

DETS = ("the", "a")
PREPS = ("with", "near", "on", "by")
PRONOUNS = ("i", "you", "she")


@dataclass
class World:
    """Ontology, synsets, lexicon and the facts the generator knows."""

    ontology: list[str] = field(default_factory=list)  # file lines
    synsets: list[str] = field(default_factory=list)
    lexicon: list[str] = field(default_factory=list)
    # noun lemma -> [(synset, type, favoured)], one per sense
    senses: dict[str, list[tuple[str, str, bool]]] = field(default_factory=dict)
    # sense shape (kinds of a lemma's senses) -> lemmas
    by_shape: dict[tuple[str, ...], list[str]] = field(default_factory=dict)
    # kind of a type: "animate", "phys" or "abstract"
    kind: dict[str, str] = field(default_factory=dict)
    verbs: dict[str, str] = field(default_factory=dict)  # lemma -> "phys" | "abstract"
    gold_types: dict[str, str] = field(default_factory=dict)


@dataclass
class Tok:
    lemma: str
    pos: str
    gold: tuple[str, str] | None = None  # (synset, type)
    advice: tuple[str, str] | None = None  # (first synset, its weight)


# -- shared ontology skeleton ------------------------------------------------------


def _type(name: str, parent: str | None, roles: str = "", synsets: str = "") -> str:
    line = f"type {name} parent {parent or '-'}"
    if roles:
        line += f" roles {roles}"
    if synsets:
        line += f" synsets {synsets}"
    return line


def _skeleton(world: World) -> None:
    world.ontology += [
        "# Synthetic ontology.",
        _type("root", None),
        _type("referential-sem", "root"),
        _type("situation", "root", "coord:situation"),
        _type("action", "situation", "agent:animate:required,affected:phys-obj,circ:phys-obj"),
        _type("mental-action", "situation", "agent:animate:required,affected:abstract-obj,circ:phys-obj"),
        _type("phys-obj", "root", "mod:phys-obj,coord:phys-obj"),
        _type("animate", "phys-obj"),
        _type("person", "animate"),
        _type("abstract-obj", "root", "mod:abstract-obj,coord:abstract-obj"),
    ]
    world.kind.update(
        {"phys-obj": "phys", "animate": "animate", "person": "animate", "abstract-obj": "abstract"}
    )


def _verbs(world: World, phys: int, mental: int) -> None:
    for i in range(phys + mental):
        kind = "phys" if i < phys else "abstract"
        parent = "action" if kind == "phys" else "mental-action"
        name = f"act{i:02d}"
        lemma = f"verb{i:02d}"
        world.ontology.append(_type(name, parent))
        world.lexicon.append(f"entry {lemma} cat V template trans-verb type {name}")
        world.verbs[lemma] = kind


# -- long-ambig --------------------------------------------------------------------

# Kinds of each noun's three senses; the first sense has the high prior.
LONG_AMBIG_SHAPES = [
    ("animate", "phys", "phys"), ("phys", "animate", "abstract"),
    ("phys", "phys", "animate"), ("phys", "abstract", "phys"),
    ("abstract", "phys", "phys"),
]


def build_long_ambig_world() -> World:
    """A small, fixed world: 40 three-sense nouns over 24 sense types."""
    world = World()
    _skeleton(world)
    _verbs(world, phys=8, mental=3)
    classes = {"animate": "animate", "phys": "phys-obj", "abstract": "abstract-obj"}
    types_by_kind: dict[str, list[str]] = {}
    for kind, parent in classes.items():
        for i in range(8):
            name = f"{kind}{i}"
            world.ontology.append(_type(name, parent))
            world.kind[name] = kind
            types_by_kind.setdefault(kind, []).append(name)
    mapped: dict[str, list[str]] = {}
    for i in range(40):
        lemma = f"noun{i:02d}"
        shape = LONG_AMBIG_SHAPES[i % len(LONG_AMBIG_SHAPES)]
        world.by_shape.setdefault(shape, []).append(lemma)
        picked: list[str] = []
        for k, kind in enumerate(shape):
            pool = [t for t in types_by_kind[kind] if t not in picked]
            picked.append(pool[(i * 3 + k * 5) % len(pool)])
        world.senses[lemma] = []
        for k, onto_type in enumerate(picked):
            synset = f"{lemma}.n.{k + 1:02d}"
            favoured = k == 0
            freq = ("0.7", "0.2", "0.1")[k]
            world.lexicon.append(
                f"entry {lemma} cat N template noun type {onto_type} freq {freq}"
            )
            world.synsets.append(f"synset {synset} lemmas {lemma} hypernyms -")
            mapped.setdefault(onto_type, []).append(synset)
            world.senses[lemma].append((synset, onto_type, favoured))
            world.gold_types[synset] = onto_type
    for index, line in enumerate(world.ontology):
        name = line.split()[1]
        if line.startswith("type ") and name in mapped:
            world.ontology[index] = f"{line} synsets {','.join(mapped[name])}"
    return world


# -- wide-lexicon ------------------------------------------------------------------

WIDE_LEXICON_SHAPES = [
    ("animate", "phys"), ("phys", "abstract"), ("phys", "abstract"),
    ("phys", "phys"), ("phys", "phys"),
]


def build_wide_lexicon_world(rng: Random) -> World:
    """About 10^3 types, 10^4 synsets and 2*10^3 core entries.

    Every type has one mapped anchor synset.  Unmapped intermediate
    synsets hang below anchors in chains; each synset's primary hypernym
    leads to its type's anchor, and any extra hypernym is strictly farther
    from every mapped synset, so breadth-first subsumption reaches exactly
    one type at its first mapped level and the generator knows it.
    """
    world = World()
    _skeleton(world)
    _verbs(world, phys=10, mental=4)
    tops = {"animate": "animate", "phys": "phys-obj", "abstract": "abstract-obj"}
    counts = {"animate": 150, "phys": 550, "abstract": 300}
    types: list[str] = []
    parents: dict[str, str] = {}
    with_part: set[str] = set()
    # names carry no kind, so name order (the tie-break among generated
    # entries) is independent of a sense's kind
    numbers = list(range(sum(counts.values())))
    rng.shuffle(numbers)
    for kind, top in tops.items():
        members = [top]
        for _ in range(counts[kind]):
            name = f"ty{numbers.pop():04d}"
            parent = members[rng.randrange(len(members))]
            roles = ""
            if rng.random() < 0.05:
                roles = "part:phys-obj"
                with_part.add(name)
            world.ontology.append(_type(name, parent, roles, f"anchor.{name}"))
            world.kind[name] = kind
            members.append(name)
            types.append(name)
            parents[name] = parent

    # synsets: anchors, intermediates, lemma-bearing leaves
    dmin: dict[str, int] = {}
    owner: dict[str, str] = {}
    for name in types:
        parent = parents[name]
        hyper = f"anchor.{parent}" if parent in parents else "-"
        world.synsets.append(f"synset anchor.{name} lemmas - hypernyms {hyper}")
        dmin[f"anchor.{name}"] = 0
        owner[f"anchor.{name}"] = name
    anchors = [f"anchor.{name}" for name in types]
    mids: list[str] = []
    for i in range(4000):
        sid = f"mid.{i:04d}"
        # mostly below an earlier intermediate, so chains run several
        # levels deep before reaching an anchor
        deep = mids and rng.random() < 0.85
        primary = mids[rng.randrange(len(mids))] if deep else anchors[rng.randrange(len(anchors))]
        hypers = [primary] + _extra_hypernyms(rng, mids or anchors, dmin, dmin[primary])
        world.synsets.append(f"synset {sid} lemmas - hypernyms {','.join(sorted(hypers))}")
        dmin[sid] = dmin[primary] + 1
        owner[sid] = owner[primary]
        mids.append(sid)

    pool = anchors + mids
    by_kind: dict[str, list[str]] = {}
    for sid in pool:
        by_kind.setdefault(world.kind[owner[sid]], []).append(sid)
    n_lemmas = 2500
    for i in range(n_lemmas):
        lemma = f"rare{i:04d}"
        kinds = WIDE_LEXICON_SHAPES[i % len(WIDE_LEXICON_SHAPES)]
        world.by_shape.setdefault(kinds, []).append(lemma)
        senses = []
        for k, kind in enumerate(kinds):
            while True:
                primary = by_kind[kind][rng.randrange(len(by_kind[kind]))]
                if all(owner[primary] != t for _, t in senses):
                    break
            sid = f"{lemma}.n.{k + 1:02d}"
            hypers = [primary] + _extra_hypernyms(rng, mids, dmin, dmin[primary])
            world.synsets.append(
                f"synset {sid} lemmas {lemma} hypernyms {','.join(sorted(hypers))}"
            )
            senses.append((sid, owner[primary]))
            world.gold_types[sid] = owner[primary]
        # generated entries tie on score; the beam and entry pruning then
        # prefer the lexicographically least type, which is the favoured one
        least = min(t for _, t in senses)
        world.senses[lemma] = [(sid, t, t == least) for sid, t in senses]

    # core entries: donors for template choice, over random noun types
    world.lexicon.append("template noun-part cat N slots of:part")
    for i in range(2000):
        onto_type = types[rng.randrange(len(types))]
        freq = rng.choice(("0.2", "0.5", "0.8"))
        template = "noun-part" if onto_type in with_part and i % 2 else "noun"
        world.lexicon.append(
            f"entry core{i:04d} cat N template {template} type {onto_type} freq {freq}"
        )
    return world


def _extra_hypernyms(rng: Random, pool: list[str], dmin: dict[str, int], primary_d: int) -> list[str]:
    extras = []
    for _ in range(rng.randrange(0, 3)):
        cand = pool[rng.randrange(len(pool))]
        if dmin[cand] > primary_d and cand not in extras:
            extras.append(cand)
    return extras


# -- sentence frames -----------------------------------------------------------------
#
# A frame fixes a sentence's structure: each token's part of speech, each
# verb's kind, and for each noun the shape of its lemma (the kinds of its
# senses), which sense is gold, whether the prior favours it, and what the
# advice says.  Frames come from a seed-independent generator; the seed
# picks the words that realize them (and, for wide-lexicon, the world), so
# every seed has the same make-up and the same amount of work per chunk.


@dataclass(frozen=True)
class Slot:
    pos: str
    kind: str = ""  # verbs: "phys" or "abstract"
    kinds: tuple[str, ...] = ()  # nouns: the kinds the position admits
    shape: tuple[str, ...] = ()  # nouns: kinds of the lemma's senses
    sense: int = 0  # index of the gold sense
    favoured: bool = True  # the prior favours the gold sense
    advised: int = 0  # index of the sense the advice puts first
    weight: str = "0.8"  # the advice's weight on that sense


def _pattern(rng: Random, n: int, share: float) -> list[bool]:
    """Exactly round(n * share) True values in shuffled order."""
    k = round(n * share)
    out = [True] * k + [False] * (n - k)
    rng.shuffle(out)
    return out


ANY_KIND = ("animate", "phys", "abstract")


def _np(kinds: tuple[str, ...], det: bool) -> list[Slot]:
    return ([Slot("DET")] if det else []) + [Slot("N", kinds=kinds)]


def _vp(rng: Random, det: bool) -> list[Slot]:
    kind = "phys" if rng.random() < 0.75 else "abstract"
    return [Slot("V", kind=kind)] + _np(("animate", "phys") if kind == "phys" else ("abstract",), det)


def long_ambig_frame(rng: Random, length: int) -> list[Slot]:
    """Exactly ``length`` tokens: subject, verb, object, then PP,
    NP-coordination and VP-coordination segments in random order."""
    while True:
        base = rng.choice((3, 4, 5))
        rest = length - base
        if rest >= 0 and rest != 1:
            break
    # 3: PRO V N; 4: PRO V DET N; 5: DET N V DET N
    slots = _np(("animate",), det=True) if base == 5 else [Slot("PRO")]
    slots += _vp(rng, det=base != 3)
    while rest > 0:
        size = rng.choice([n for n in (2, 3, 4) if n <= rest and rest - n != 1])
        if size == 2:
            slots += [Slot("P")] + _np(ANY_KIND, det=False)
        elif size == 3 and rng.random() < 0.6:
            slots += [Slot("P")] + _np(ANY_KIND, det=True)
        elif size == 3:
            slots += [Slot("CONJ")] + _np(("animate", "phys"), det=True)
        else:
            slots += [Slot("CONJ")] + _vp(rng, det=True)
        rest -= size
    return slots


def wide_lexicon_frame(rng: Random, length: int) -> list[Slot]:
    """5: DET N V DET N; 6: PRO V DET N P N; 7: DET N V DET N P N;
    8: DET N V DET N P DET N."""
    slots = [Slot("PRO")] if length == 6 else _np(("animate",), det=True)
    slots += _vp(rng, det=True)
    if length >= 6:
        slots += [Slot("P")] + _np(ANY_KIND, det=length == 8)
    return slots


def build_frames(workload: str, shapes: list[tuple[str, ...]]) -> list[list[Slot]]:
    """The workload's frames, one per length, with the favoured share and
    the advice error share applied as exact counts over all their nouns."""
    rng = Random(f"{workload}/frames")
    make = long_ambig_frame if workload == "long-ambig" else wide_lexicon_frame
    frames = [make(rng, n) for n in FRAME_LENGTHS[workload]]
    nouns = [(f, i) for f, frame in enumerate(frames) for i, slot in enumerate(frame) if slot.pos == "N"]
    favoured = _pattern(rng, len(nouns), FAVOURED_SHARE[workload])
    wrong = _pattern(rng, len(nouns), ADVICE_ERROR_SHARE[workload])
    for (f, i), want, is_wrong in zip(nouns, favoured, wrong):
        slot = frames[f][i]
        # long-ambig: the first sense always has the high prior; in
        # wide-lexicon whether the prior favours the gold sense is a property
        # of the lemma the seed picks
        options = [
            (shape, k) for shape in shapes for k, kind in enumerate(shape)
            if kind in slot.kinds and (workload != "long-ambig" or (k == 0) == want)
        ]
        shape, sense = options[rng.randrange(len(options))]
        others = [k for k in range(len(shape)) if k != sense]
        advised = others[rng.randrange(len(others))] if is_wrong else sense
        weight = rng.choice(("0.6", "0.7", "0.8", "0.9"))
        frames[f][i] = replace(slot, shape=shape, sense=sense, favoured=want, advised=advised, weight=weight)
    return frames


def realize(frame: list[Slot], world: World, rng: Random) -> list[Tok]:
    fixed = {"DET": DETS, "PRO": PRONOUNS, "P": PREPS, "CONJ": ("and",)}
    toks = []
    for slot in frame:
        if slot.pos in fixed:
            words = fixed[slot.pos]
            toks.append(Tok(words[rng.randrange(len(words))], slot.pos))
        elif slot.pos == "V":
            verbs = [v for v in sorted(world.verbs) if world.verbs[v] == slot.kind]
            toks.append(Tok(verbs[rng.randrange(len(verbs))], "V"))
        else:
            lemmas = [
                lemma for lemma in world.by_shape[slot.shape]
                if world.senses[lemma][slot.sense][2] == slot.favoured
            ]
            lemma = lemmas[rng.randrange(len(lemmas))]
            senses = world.senses[lemma]
            toks.append(Tok(lemma, "N", senses[slot.sense][:2], (senses[slot.advised][0], slot.weight)))
    return toks


# -- writing ------------------------------------------------------------------------


def _cli_text(tokens: list[tuple[str, str, str]]) -> tuple[str, list[tuple[int, int]]]:
    """Annotated ``parse --sentence`` text and each token's character span."""
    parts, spans, pos = [], [], 0
    for surface, lemma, tag in tokens:
        text = f"{surface}/{tag}" if lemma == surface.lower() else f"{surface}/{lemma}/{tag}"
        parts.append(text)
        spans.append((pos, pos + len(text)))
        pos += len(text) + 1
    return " ".join(parts), spans


def write_synthetic(out: Path, world: World, sentences: list[list[Tok]]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "ontology.txt").write_text("\n\n".join(world.ontology) + "\n", encoding="utf-8")
    (out / "synsets.txt").write_text("\n".join(world.synsets) + "\n", encoding="utf-8")
    lexicon = FUNCTION_TEMPLATES + "\n".join(world.lexicon) + "\n"
    (out / "lexicon.txt").write_text(lexicon, encoding="utf-8")
    (out / "grammar.txt").write_text(GRAMMAR_RECURSIVE, encoding="utf-8")

    corpus, advice = [], []
    for index, toks in enumerate(sentences):
        sid = f"s{index + 1:03d}"
        corpus.append(f"sentence {sid}")
        start = 0
        for i, t in enumerate(toks):
            end = start + len(t.lemma)
            gold = f" gold={t.gold[0]}" if t.gold else ""
            corpus.append(f"tok {i} {start} {end} {t.lemma} {t.lemma} {t.pos}{gold}")
            if t.advice:
                top, hi = t.advice
                rest = [synset for synset, _, _ in world.senses[t.lemma] if synset != top]
                lo = f"{(1.0 - float(hi)) / len(rest):.2f}"
                weights = ",".join([f"{top}={hi}"] + [f"{s}={lo}" for s in rest])
                advice.append(f"advice {sid} {start} {end} {t.lemma} {weights}")
            start = end + 1
        corpus.append("")
    (out / "corpus.txt").write_text("\n".join(corpus), encoding="utf-8")
    (out / "advice.txt").write_text("\n".join(advice) + "\n", encoding="utf-8")
    gold = "".join(f"{s} {t}\n" for s, t in sorted(world.gold_types.items()))
    (out / "gold_types.txt").write_text(gold, encoding="utf-8")


def write_cli_files(out: Path) -> None:
    """Re-anchor ``advice.txt`` in the annotated text ``parse`` receives."""
    sentences = checks.read_corpus(out / "corpus.txt")
    lines, advice = [], []
    spans_by_sid = {}
    for sid, toks in sentences:
        text, spans = _cli_text([(surface, lemma, pos) for _, _, surface, lemma, pos, _ in toks])
        lines.append(f"{sid}\t{text}\n")
        spans_by_sid[sid] = {(start, end): span for (start, end, *_), span in zip(toks, spans)}
    for raw in (out / "advice.txt").read_text(encoding="utf-8").splitlines():
        fields = raw.split()
        if not fields or fields[0] != "advice":
            continue
        sid, start, end = fields[1], int(fields[2]), int(fields[3])
        cli_start, cli_end = spans_by_sid[sid][(start, end)]
        advice.append(f"advice {sid} {cli_start} {cli_end} {' '.join(fields[4:])}\n")
    (out / "cli_sentences.txt").write_text("".join(lines), encoding="utf-8")
    (out / "cli_advice.txt").write_text("".join(advice), encoding="utf-8")


def repetition_share(corpus_path: Path) -> float:
    """Share of token occurrences whose (lemma, POS) appeared earlier."""
    seen: set[tuple[str, str]] = set()
    repeated = total = 0
    for _, toks in checks.read_corpus(corpus_path):
        for _, _, _, lemma, pos, _ in toks:
            total += 1
            repeated += (lemma, pos) in seen
            seen.add((lemma, pos))
    return repeated / total if total else 0.0


def generate(workload: str, seed: int, out: Path, root: Path) -> None:
    if workload == "fixture":
        source = root / "fixtures"
        out.mkdir(parents=True, exist_ok=True)
        for name in INPUT_FILES + ("corpus.txt", "advice.txt"):
            shutil.copyfile(source / name, out / name)
    elif workload in FRAME_LENGTHS:
        rng = Random(f"{workload}/{seed}")
        if workload == "long-ambig":
            world, shapes = build_long_ambig_world(), LONG_AMBIG_SHAPES
        else:
            world, shapes = build_wide_lexicon_world(rng), WIDE_LEXICON_SHAPES
        frames = build_frames(workload, shapes)
        sentences = []
        for _ in range(CHUNKS[workload]):
            order = list(range(len(frames)))
            rng.shuffle(order)
            sentences += [realize(frames[f], world, rng) for f in order]
        write_synthetic(out, world, sentences)
    else:
        raise ValueError(f"unknown workload {workload}")
    write_cli_files(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    generate(args.workload, args.seed, Path(args.out), root)
    share = repetition_share(Path(args.out) / "corpus.txt")
    print(f"{args.workload} seed {args.seed}: repeated (lemma, POS) share {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
