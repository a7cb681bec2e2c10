"""Per-platform generation profiles derived from the paper's numbers.

The generator plants positives according to these profiles so that a
correct pipeline *recovers* the paper's distributions.  All derivations
read from :mod:`repro.paper` (the transcription of the paper's tables);
nothing here is invented except smoothing of empty cells.

Scaling (see DESIGN.md §4): background/negative volume is generated at
``NEGATIVE_SCALE`` of paper scale, planted positives at ``POSITIVE_SCALE``.
Positives keep a larger scale because every downstream analysis (attack
taxonomy, PII prevalence, thread dynamics) is a distributional recovery
that needs hundreds of examples per platform; this raises the positive
*rate* above the paper's but leaves every share-valued result comparable.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

import numpy as np

from repro import paper
from repro.taxonomy.attack_types import PARENT_OF, AttackSubtype, AttackType
from repro.types import Gender, Platform, Source, Task
from repro.util.rng import Weights, weighted

NEGATIVE_SCALE = 1.0 / 1000.0
POSITIVE_SCALE = 1.0 / 2.0
BLOG_SCALE = 1.0 / 10.0

#: Share of chat volume attributed to each chat sub-source.
CHAT_SPLIT = {Source.TELEGRAM: 0.6, Source.DISCORD: 0.4}

#: Number of distinct domains/channels per platform (paper §4).
DOMAIN_COUNTS = {
    Platform.BOARDS: paper.CORPUS_FACTS["board_domains"],
    Platform.PASTES: paper.CORPUS_FACTS["paste_domains"],
    Platform.GAB: 1,
    Platform.BLOGS: 3,
}
TELEGRAM_CHANNELS = 60  # 2,916 at paper scale, scaled to corpus size
DISCORD_SERVERS = 40

#: Board-thread size model: lognormal, truncated.  Tuned so that the
#: size-biased position statistics land near the paper's (§6.3: median 70,
#: mean 145, std 263 for CTH positions).
THREAD_SIZE_MU = 2.4
THREAD_SIZE_SIGMA = 1.5
THREAD_SIZE_MAX = 3_000

#: Probability a planted board CTH/dox is the first or last post of its
#: thread (paper §6.3 / §7.4).
CTH_FIRST_POST_P = paper.CTH_THREAD_STATS["first_post_share"]
CTH_LAST_POST_P = paper.CTH_THREAD_STATS["last_post_share"]
DOX_FIRST_POST_P = paper.DOX_THREAD_STATS["first_post_share"]
DOX_LAST_POST_P = paper.DOX_THREAD_STATS["last_post_share"]

#: Probability a board CTH shares its thread with a planted dox (§6.3).
CTH_DOX_SHARED_THREAD_P = paper.THREAD_OVERLAP_STATS["cth_with_dox_share"]

#: Probability a CTH document itself embeds a dox (the "95 posts detected
#: by both pipelines" in §1).
CTH_EMBEDS_DOX_P = paper.DETECTED_BY_BOTH / paper.TOTAL_DETECTED_POSTS

#: Distribution of the number of attack types per CTH (§6.2).
_multi = paper.COOCCURRENCE_STATS
_total_cth = sum(paper.TABLE5_SIZES.values())
N_TYPES_DISTRIBUTION = {
    1: 1.0 - _multi["multi_type_count"] / _total_cth,
    2: _multi["two_types"] / _total_cth,
    3: _multi["three_types"] / _total_cth,
    4: _multi["four_plus_types"] / _total_cth,
}

#: Conditional co-occurrence boosts the paper calls out (§6.2).
SURVEILLANCE_WITH_LEAKAGE_P = paper.COOCCURRENCE_STATS["surveillance_with_leakage"]
IMPERSONATION_WITH_POM_P = paper.COOCCURRENCE_STATS["impersonation_with_pom"]

#: Repeated-dox planting: probability a new dox on a platform re-uses an
#: earlier target from the same platform's pool (§7.3: 20.1% overall,
#: 89.64% of repeats on pastes, 98% same data set).
REPEAT_TARGET_P = {
    Platform.PASTES: 0.28,
    Platform.BOARDS: 0.075,
    Platform.CHAT: 0.04,
    Platform.GAB: 0.02,
    Platform.BLOGS: 0.0,
}
CROSS_PLATFORM_REPEAT_P = 0.017  # 250 / 14,587 repeats are cross-posted

#: Probability a dox on each platform carries reputation info (employer /
#: family names).  Calibrated from Figure 2: reputation total 3,601 of
#: 8,425 annotated doxes (42.7%), with chat higher (Telegram political
#: exposure doxes, §7.2).
REPUTATION_INFO_P = {
    Platform.PASTES: 0.52,
    Platform.BOARDS: 0.33,
    Platform.GAB: 0.30,
    Platform.CHAT: 0.48,
    Platform.BLOGS: 0.80,
}

#: Discord-specific: >50% of Discord doxes contain no extractable PII at
#: all (birthday/age/nickname instead; §7.2).
DISCORD_NO_PII_P = 0.52

#: Telegram-specific: a slice of Telegram doxes expose an individual's
#: participation in political/ideological organisations — reputation risk
#: with no extractable PII (§7.2: reputation occurs alone in 23 % of chat
#: doxes).
TELEGRAM_REPUTATION_ONLY_P = 0.20

#: Dox "richness" correlation: a per-document Gamma multiplier applied to
#: all PII inclusion probabilities, inducing the positive co-occurrence the
#: paper reports in §7.1 (addresses/phones/emails co-occur > 35%).
RICHNESS_SHAPE = 2.2

#: Per-platform rate of deliberately confusable negatives among background
#: documents.  Boards and Gab get the highest rates (heavy benign
#: mobilising traffic: gaming raids, political calls to action), which is
#: what pushes their classifier thresholds up in Table 4.
HARD_NEGATIVE_RATE = {
    Platform.BOARDS: 0.07,
    Platform.CHAT: 0.02,
    Platform.GAB: 0.06,
    Platform.PASTES: 0.05,
    Platform.BLOGS: 0.0,
}

#: Fraction of CTH/dox texts that use gendered pronouns for the target.
#: From §6.2: 2,383 male + 1,160 female vs 2,711 unknown.
_gtotal = sum(paper.CTH_GENDER_COUNTS.values())
GENDER_VISIBLE_P = 1.0 - paper.CTH_GENDER_COUNTS[Gender.UNKNOWN] / _gtotal


def raw_document_counts() -> dict[Platform, int]:
    """Background (negative) document volume per platform, scaled."""
    counts = {}
    for platform, row in paper.TABLE1_RAW_DATASETS.items():
        scale = BLOG_SCALE if platform is Platform.BLOGS else NEGATIVE_SCALE
        counts[platform] = max(int(row["posts"] * scale), 50)
    return counts


def planted_positive_counts(task: Task) -> dict[Source, int]:
    """How many true positives to plant per source for ``task``.

    Derived from the paper's above-threshold counts (Table 4), which are
    the best available estimate of in-corpus positive volume, scaled by
    ``POSITIVE_SCALE``.
    """
    counts = {}
    for source, row in paper.TABLE4_THRESHOLDS[task].items():
        counts[source] = max(int(row["above"] * POSITIVE_SCALE), 20)
    return counts


def annotation_caps(task: Task) -> dict[Source, int]:
    """Expert-annotation sample caps per source (paper Table 4 'annotated').

    Sources the paper annotated exhaustively get an unbounded cap here too.
    """
    caps = {}
    for source, row in paper.TABLE4_THRESHOLDS[task].items():
        caps[source] = int(1e12) if row["full"] else int(row["annotated"])
    return caps


def _normalise(weights: Mapping[AttackSubtype, float]) -> dict[AttackSubtype, float]:
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("attack-subtype weights sum to zero")
    return {k: v / total for k, v in weights.items()}


def subtype_weights(platform: Platform) -> dict[AttackSubtype, float]:
    """P(primary subtype | platform) from Table 11 counts, smoothed.

    Empty cells get a small epsilon so every subtype remains reachable on
    every platform (the paper's zeros are sampling zeros, not structural).
    """
    weights = {}
    for subtype, per_platform in paper.TABLE11_TAXONOMY.items():
        share, _count = per_platform[platform]
        weights[subtype] = max(share, 0.0005)
    return _normalise(weights)


def gender_weights_for_subtype(subtype: AttackSubtype) -> dict[Gender, float]:
    """P(target gender | subtype) from Table 10 counts, smoothed."""
    row = paper.TABLE10_GENDER[subtype]
    weights = {gender: max(count, 0.25) for gender, (_share, count) in row.items()}
    total = sum(weights.values())
    return {g: w / total for g, w in weights.items()}


def pii_inclusion_probs(platform: Platform) -> dict[str, float]:
    """P(PII category in a dox | platform) from Table 6."""
    return {
        category: per_platform[platform][0]
        for category, per_platform in paper.TABLE6_PII.items()
    }


@dataclasses.dataclass(frozen=True)
class SourceVolume:
    """Background volume split for a platform's sources."""

    source: Source
    documents: int


def chat_volumes(total_chat: int) -> Sequence[SourceVolume]:
    return (
        SourceVolume(Source.TELEGRAM, int(total_chat * CHAT_SPLIT[Source.TELEGRAM])),
        SourceVolume(Source.DISCORD, total_chat - int(total_chat * CHAT_SPLIT[Source.TELEGRAM])),
    )


def sample_n_attack_types(rng: np.random.Generator) -> int:
    roll = rng.random()
    acc = 0.0
    for n, p in N_TYPES_DISTRIBUTION.items():
        acc += p
        if roll < acc:
            return n
    return 1


def _weights(probs: Mapping[object, float]) -> Weights:
    return Weights(probs, list(probs.values()))


#: The weighted draws below, built once: P(primary subtype | platform),
#: P(target gender | subtype), and the single PII category of a dox that
#: drew none, proportional to the platform's Table-6 marginals.
_SUBTYPE_DRAWS = {
    platform: _weights(subtype_weights(platform))
    for platform in (Platform.BOARDS, Platform.CHAT, Platform.GAB)
}
_GENDER_DRAWS = {
    subtype: _weights(gender_weights_for_subtype(subtype))
    for subtype in paper.TABLE10_GENDER
}


def _pii_fallback(platform: Platform) -> Weights:
    probs = pii_inclusion_probs(platform)
    weights = np.array(list(probs.values()))
    weights /= weights.sum()
    return Weights(probs, weights)


_PII_FALLBACK_DRAWS = {
    platform: _pii_fallback(platform)
    for platform in (Platform.BOARDS, Platform.CHAT, Platform.GAB, Platform.PASTES)
}


def sample_subtypes(rng: np.random.Generator, platform: Platform) -> tuple[AttackSubtype, ...]:
    """Sample a coherent set of attack subtypes for one CTH.

    The first subtype is drawn from the platform's marginal distribution;
    additional subtypes follow the multi-type count distribution, with the
    paper's documented conditional boosts (surveillance→content leakage,
    impersonation→public opinion manipulation).
    """
    draws = _SUBTYPE_DRAWS[platform]
    chosen: list[AttackSubtype] = []
    primary = weighted(rng, draws)
    chosen.append(primary)
    n_types = sample_n_attack_types(rng)
    # Documented conditional co-occurrences override the generic count draw.
    primary_parent = PARENT_OF[primary]
    if primary_parent is AttackType.SURVEILLANCE and rng.random() < SURVEILLANCE_WITH_LEAKAGE_P:
        chosen.append(AttackSubtype.DOXING)
    elif primary_parent is AttackType.IMPERSONATION and rng.random() < IMPERSONATION_WITH_POM_P:
        chosen.append(AttackSubtype.PUBLIC_OPINION_MISC)
    attempts = 0
    while len(chosen) < n_types and attempts < 8:
        attempts += 1
        extra = weighted(rng, draws)
        if extra not in chosen and PARENT_OF[extra] not in {PARENT_OF[c] for c in chosen}:
            chosen.append(extra)
    return tuple(dict.fromkeys(chosen))


def sample_gender(rng: np.random.Generator, primary: AttackSubtype) -> Gender:
    """Sample target gender conditioned on the primary subtype (Table 10)."""
    return weighted(rng, _GENDER_DRAWS[primary])


def sample_pii_types(
    rng: np.random.Generator, platform: Platform, source: Source | None
) -> tuple[str, ...]:
    """Sample the PII categories of one dox with richness correlation."""
    if source is Source.DISCORD and rng.random() < DISCORD_NO_PII_P:
        return ()
    probs = pii_inclusion_probs(platform)
    richness = rng.gamma(RICHNESS_SHAPE, 1.0 / RICHNESS_SHAPE)
    chosen = tuple(
        category for category, p in probs.items() if rng.random() < min(p * richness, 0.97)
    )
    if not chosen:
        # A dox with no PII at all defeats its purpose outside Discord;
        # draw one category proportionally to the platform's marginals so
        # the Table-6 shares stay calibrated.
        chosen = (weighted(rng, _PII_FALLBACK_DRAWS[platform]),)
    return chosen


def sample_thread_size(rng: np.random.Generator) -> int:
    size = int(np.exp(rng.normal(THREAD_SIZE_MU, THREAD_SIZE_SIGMA)))
    return int(np.clip(size, 1, THREAD_SIZE_MAX))
