"""Property tests for the interaction between the text banks and the
Fig.-4 seed keyword query — the pipeline's bootstrap depends on it."""

import numpy as np

from repro.corpus import vocab
from repro.corpus.identity import PersonFactory
from repro.corpus.templates import TACTIC_SENTENCES, render_cth
from repro.pipeline.seeds import matches_seed_query
from repro.taxonomy.attack_types import AttackSubtype
from repro.types import Gender, Platform


def test_query_patterns_trigger_first_clause():
    # Every pattern the Fig.-4 query lists satisfies its mobilising clause
    # when paired with a target reference.
    from repro.pipeline.seeds import MOBILIZING_PATTERNS

    for pattern in MOBILIZING_PATTERNS:
        assert matches_seed_query(f"{pattern} go after him"), pattern


def test_query_misses_some_mobilizing_openers():
    """The query is a keyword heuristic, not a parser: some of the
    generator's openers fall outside it (faithful to the paper — its
    seed query is knowingly incomplete)."""
    misses = [
        opener for opener in vocab.MOBILIZING_OPENERS
        if not matches_seed_query(f"{opener} go after him")
    ]
    assert misses  # at least one opener escapes the query


def test_benign_mobilizing_often_matches_query():
    """A sizeable share of the benign mobilising bank is query-positive —
    these are the query's false positives the experts filter in §5.1."""
    hits = sum(matches_seed_query(t) for t in vocab.BENIGN_MOBILIZING)
    assert hits / len(vocab.BENIGN_MOBILIZING) > 0.5


def test_static_mirror_bank_escapes_person_query():
    """The static mirror bank targets non-persons ('it', 'the bot'), so
    the person-pronoun target clause correctly misses most of it."""
    hits = sum(matches_seed_query(t) for t in vocab.TACTIC_MIRROR_NEGATIVES)
    assert hits / len(vocab.TACTIC_MIRROR_NEGATIVES) < 0.5


def test_programmatic_mirrors_often_match_query():
    """Programmatic mirrors reuse person pronouns, so a decent share are
    query-positive — the seed set's realistic false-positive supply."""
    from repro.corpus.templates import render_tactic_mirror

    rng = np.random.default_rng(3)
    texts = [render_tactic_mirror(rng) for _ in range(100)]
    hits = sum(matches_seed_query(t) for t in texts)
    assert hits / len(texts) > 0.25


def test_benign_topics_do_not_match_query():
    for topic in vocab.BENIGN_TOPICS:
        assert not matches_seed_query(topic), topic


def test_tactic_sentences_have_placeholders():
    """Every tactic sentence formats cleanly with the standard slots."""
    slots = dict(subj="he", obj="him", poss="his", name="X Y",
                 handle="xy", employer="Acme", family="Z Y")
    for subtype, bank in TACTIC_SENTENCES.items():
        for template in bank:
            rendered = template.format(**slots)
            assert "{" not in rendered and "}" not in rendered, (subtype, template)


def test_rendered_cth_gender_pronoun_counts():
    """Gender-visible CTH text contains the target's pronoun group more
    often than the other group (feeds the §5.6 extractor)."""
    from repro.extraction.gender import pronoun_counts

    rng = np.random.default_rng(0)
    people = PersonFactory(rng)
    female_wins = 0
    n = 60
    for _ in range(n):
        person = people.make(Gender.FEMALE)
        text = render_cth(
            rng, [AttackSubtype.MASS_FLAGGING, AttackSubtype.RAIDING],
            person, gender_visible=True, platform=Platform.CHAT,
        )
        male, female = pronoun_counts(text)
        if female > male:
            female_wins += 1
    assert female_wins / n > 0.9


def test_dox_field_labels_cover_pii_categories():
    from repro.corpus.identity import PII_CATEGORIES

    for category in PII_CATEGORIES:
        assert category in vocab.DOX_FIELD_LABELS, category
        assert vocab.DOX_FIELD_LABELS[category]


def test_no_real_domains_in_banks():
    """Everything synthetic resolves under .example (or fictional names)."""
    for snippet in vocab.PASTE_CODE_SNIPPETS:
        assert ".com" not in snippet or "example" in snippet
    from repro.corpus.identity import EMAIL_DOMAINS

    assert all(domain.endswith(".example") for domain in EMAIL_DOMAINS)
