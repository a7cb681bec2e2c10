"""End-to-end synthetic corpus construction.

:class:`CorpusBuilder` assembles the five-platform corpus: background
volume per platform (Table 1, scaled), planted calls to harassment and
doxes per source (calibrated to Table 4 volumes and the Table 5/6/10/11
mixtures), board thread structure with the paper's positional behaviour,
repeated-dox target pools, hard negatives, and the three-blog substrate.

The builder is deterministic given its config: every component draws from
a named child RNG (see :mod:`repro.util.rng`).
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from repro import paper
from repro.corpus import profiles, templates
from repro.corpus.documents import Corpus, Document, GroundTruth
from repro.corpus.identity import PersonFactory, Person
from repro.corpus.platforms import blogs as blogmod
from repro.corpus.platforms.boards import BoardsPlanner
from repro.corpus.platforms.flat import (
    FlatPlatformBuilder,
    chat_channels,
    date_range_seconds,
    paste_domains,
)
from repro.taxonomy.attack_types import PARENT_OF, AttackSubtype, AttackType
from repro.types import Gender, Platform, Source, Task
from repro.util.rng import child_rng, integer


@dataclasses.dataclass(frozen=True)
class CorpusConfig:
    """Knobs for corpus construction.

    The defaults reproduce the paper at DESIGN.md's scaling convention
    (background at 1/1000, positives at 1/2, blogs at 1/10).  ``tiny()``
    returns a configuration small enough for unit tests.
    """

    seed: int = 7
    negative_scale: float = profiles.NEGATIVE_SCALE
    positive_scale: float = profiles.POSITIVE_SCALE
    blog_scale: float = profiles.BLOG_SCALE
    #: Multiplier on the per-platform confusable-negative rates
    #: (:data:`repro.corpus.profiles.HARD_NEGATIVE_RATE`).
    hard_negative_scale: float = 1.0
    include_blogs: bool = True
    #: Probability that a gender-visible dox/CTH uses the wrong pronouns
    #: for the target (§5.6 reports 94.3 % extraction accuracy; the error
    #: budget includes attacker mistakes and deliberate misgendering).
    wrong_pronoun_rate: float = 0.057
    min_background: int = 50
    min_planted: int = 8

    @classmethod
    def tiny(cls, seed: int = 7) -> "CorpusConfig":
        """A corpus small enough for unit tests (a few thousand docs)."""
        return cls(
            seed=seed,
            negative_scale=1.0 / 50_000.0,
            positive_scale=1.0 / 50.0,
            blog_scale=1.0 / 40.0,
        )

    def __post_init__(self) -> None:
        for name in ("negative_scale", "positive_scale", "blog_scale"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.hard_negative_scale < 0:
            raise ValueError("hard_negative_scale must be non-negative")


class CorpusBuilder:
    """Builds the full synthetic corpus for one configuration."""

    def __init__(self, config: CorpusConfig | None = None) -> None:
        self.config = config or CorpusConfig()
        self._doc_counter = itertools.count()
        self._thread_counter = itertools.count()
        self._people = PersonFactory(child_rng(self.config.seed, "people"))
        #: platform -> list of (person, osn categories used in their doxes)
        self._repeat_pools: dict[Platform, list[tuple[Person, tuple[str, ...]]]] = {
            p: [] for p in Platform
        }

    # -- public API ---------------------------------------------------------

    def build(self) -> Corpus:
        """Generate the entire corpus (all platforms)."""
        documents: list[Document] = []
        documents.extend(self._build_boards())
        documents.extend(self._build_flat_source(Source.TELEGRAM))
        documents.extend(self._build_flat_source(Source.DISCORD))
        documents.extend(self._build_flat_source(Source.GAB))
        documents.extend(self._build_flat_source(Source.PASTES))
        if self.config.include_blogs:
            documents.extend(self._build_blogs())
        return Corpus(documents)

    # -- shared helpers -----------------------------------------------------

    def _background_count(self, platform: Platform) -> int:
        row = paper.TABLE1_RAW_DATASETS[platform]
        scale = (
            self.config.blog_scale if platform is Platform.BLOGS else self.config.negative_scale
        )
        return max(int(row["posts"] * scale), self.config.min_background)

    def _planted_count(self, task: Task, source: Source) -> int:
        row = paper.TABLE4_THRESHOLDS[task].get(source)
        if row is None:
            return 0
        return max(int(row["above"] * self.config.positive_scale), self.config.min_planted)

    def _time_range(self, platform: Platform) -> tuple[float, float]:
        row = paper.TABLE1_RAW_DATASETS[platform]
        return date_range_seconds(str(row["min_date"]), str(row["max_date"]))

    def _make_cth(
        self, rng: np.random.Generator, platform: Platform
    ) -> tuple[str, GroundTruth]:
        """Render one call to harassment and its ground truth."""
        subtypes = profiles.sample_subtypes(rng, platform)
        gender = profiles.sample_gender(rng, subtypes[0])
        gender_visible = gender is not Gender.UNKNOWN
        person = self._people.make(gender if gender_visible else None)
        render_person = self._maybe_misgender(rng, person)
        text = templates.render_cth(rng, subtypes, render_person, gender_visible, platform)
        truth_kwargs: dict[str, object] = {
            "is_cth": True,
            "cth_subtypes": subtypes,
            "target_id": person.person_id,
            "target_gender": gender if gender_visible else Gender.UNKNOWN,
        }
        if rng.random() < profiles.CTH_EMBEDS_DOX_P:
            pii = profiles.sample_pii_types(rng, platform, None)
            text = text + "\n" + templates.render_dox(
                rng, render_person, pii, platform,
                reputation_info=False, gender_visible=False, narrative=False,
            )
            truth_kwargs["is_dox"] = True
            truth_kwargs["pii_planted"] = pii
        return text, GroundTruth(**truth_kwargs)

    def _make_dox(
        self, rng: np.random.Generator, platform: Platform, source: Source | None
    ) -> tuple[str, GroundTruth]:
        """Render one dox and its ground truth, honouring repeat pools."""
        pool = self._repeat_pools[platform]
        forced_osn: str | None = None
        person: Person | None = None
        if pool and rng.random() < profiles.REPEAT_TARGET_P[platform]:
            if rng.random() < profiles.CROSS_PLATFORM_REPEAT_P:
                other_pools = [p for p in self._repeat_pools.values() if p]
                pool = other_pools[integer(rng, 0, len(other_pools))]
            person, prior_osn = pool[integer(rng, 0, len(pool))]
            # Repeats must share an OSN handle with the prior dox so the
            # §7.3 linker can find them.
            forced_osn = prior_osn[integer(rng, 0, len(prior_osn))] if prior_osn else "twitter"
        if person is None:
            person = self._people.make()
        if source is Source.TELEGRAM and rng.random() < profiles.TELEGRAM_REPUTATION_ONLY_P:
            # Telegram's political-exposure doxes: reputation info only,
            # no extractable PII (§7.2).
            pii: tuple[str, ...] = ()
            reputation = True
        else:
            pii = profiles.sample_pii_types(rng, platform, source)
            if forced_osn is not None and forced_osn not in pii:
                pii = pii + (forced_osn,)
            # Discord's characteristic no-PII doxes carry no risk indicator
            # at all (§7.2: >50 % of Discord samples).
            if source is Source.DISCORD and not pii:
                reputation = False
            else:
                reputation = rng.random() < profiles.REPUTATION_INFO_P[platform]
        gender_visible = rng.random() < profiles.GENDER_VISIBLE_P
        render_person = self._maybe_misgender(rng, person)
        text = templates.render_dox(
            rng, render_person, pii, platform,
            reputation_info=reputation, gender_visible=gender_visible,
        )
        osn_used = tuple(c for c in pii if c in ("facebook", "instagram", "twitter", "youtube"))
        self._repeat_pools[platform].append((person, osn_used))
        truth = GroundTruth(
            is_dox=True,
            target_id=person.person_id,
            target_gender=person.gender if gender_visible else Gender.UNKNOWN,
            pii_planted=pii,
            reputation_info=reputation,
        )
        return text, truth

    def _maybe_misgender(self, rng: np.random.Generator, person: Person) -> Person:
        """Occasionally render with flipped pronouns (§5.6 error budget)."""
        if rng.random() >= self.config.wrong_pronoun_rate:
            return person
        flipped = Gender.FEMALE if person.gender is Gender.MALE else Gender.MALE
        return dataclasses.replace(person, gender=flipped)

    # -- boards -------------------------------------------------------------

    def _build_boards(self) -> list[Document]:
        cfg = self.config
        rng = child_rng(cfg.seed, "boards")
        planner = BoardsPlanner(
            rng,
            total_posts=self._background_count(Platform.BOARDS),
            n_domains=paper.CORPUS_FACTS["board_domains"],
            time_range=self._time_range(Platform.BOARDS),
        )
        n_cth = self._planted_count(Task.CTH, Source.BOARDS)
        n_dox = self._planted_count(Task.DOX, Source.BOARDS)
        dox_budget = n_dox

        for _ in range(n_cth):
            text, truth = self._make_cth(rng, Platform.BOARDS)
            prefer_large = any(
                PARENT_OF[s] is AttackType.TOXIC_CONTENT for s in truth.cth_subtypes
            )
            slot = planner.choose_slot(
                profiles.CTH_FIRST_POST_P, profiles.CTH_LAST_POST_P, prefer_large=prefer_large
            )
            planner.fill_slot(slot, text, truth)
            if dox_budget > 0 and rng.random() < profiles.CTH_DOX_SHARED_THREAD_P:
                dox_text, dox_truth = self._make_dox(rng, Platform.BOARDS, Source.BOARDS)
                try:
                    dox_slot = planner.choose_slot(
                        profiles.DOX_FIRST_POST_P,
                        profiles.DOX_LAST_POST_P,
                        thread_index=slot.thread_index,
                    )
                except RuntimeError:
                    continue
                planner.fill_slot(dox_slot, dox_text, dox_truth)
                dox_budget -= 1

        for _ in range(dox_budget):
            text, truth = self._make_dox(rng, Platform.BOARDS, Source.BOARDS)
            slot = planner.choose_slot(profiles.DOX_FIRST_POST_P, profiles.DOX_LAST_POST_P)
            planner.fill_slot(slot, text, truth)

        hard_rate = profiles.HARD_NEGATIVE_RATE[Platform.BOARDS] * cfg.hard_negative_scale
        n_hard = int(planner.total_posts * hard_rate)
        for _ in range(n_hard):
            text = templates.render_hard_negative(rng, Platform.BOARDS, self._people.make())
            try:
                slot = planner.choose_slot(0.02, 0.02)
            except RuntimeError:
                break
            planner.fill_slot(slot, text, GroundTruth(hard_negative=True))

        return planner.materialize(
            render_benign=lambda: templates.render_benign(rng, Platform.BOARDS),
            next_doc_id=lambda: next(self._doc_counter),
            next_thread_id=lambda: next(self._thread_counter),
        )

    # -- flat platforms -----------------------------------------------------

    def _build_flat_source(self, source: Source) -> list[Document]:
        cfg = self.config
        platform = source.platform
        rng = child_rng(cfg.seed, "flat", source.value)
        if platform is Platform.CHAT:
            share = profiles.CHAT_SPLIT[source]
            background = int(self._background_count(platform) * share)
            channels = chat_channels(
                source,
                profiles.TELEGRAM_CHANNELS if source is Source.TELEGRAM else profiles.DISCORD_SERVERS,
            )
        elif platform is Platform.GAB:
            background = self._background_count(platform)
            channels = ("gab.example",)
        elif platform is Platform.PASTES:
            background = self._background_count(platform)
            channels = paste_domains(paper.CORPUS_FACTS["paste_domains"])
        else:  # pragma: no cover - guarded by callers
            raise ValueError(f"unsupported flat source: {source}")

        builder = FlatPlatformBuilder(
            rng, platform, source, channels, self._time_range(platform)
        )
        hard_rate = profiles.HARD_NEGATIVE_RATE[platform] * cfg.hard_negative_scale
        n_hard = int(background * hard_rate)
        builder.add_background(max(background - n_hard, 0))
        for _ in range(n_hard):
            builder.plant(
                templates.render_hard_negative(rng, platform, self._people.make()),
                GroundTruth(hard_negative=True),
            )
        for _ in range(self._planted_count(Task.CTH, source)):
            text, truth = self._make_cth(rng, platform)
            builder.plant(text, truth)
        for _ in range(self._planted_count(Task.DOX, source)):
            text, truth = self._make_dox(rng, platform, source)
            builder.plant(text, truth)
        return builder.materialize(
            render_benign=lambda: templates.render_benign(rng, platform),
            next_doc_id=lambda: next(self._doc_counter),
        )

    # -- blogs --------------------------------------------------------------

    def _build_blogs(self) -> list[Document]:
        """Generate the three-blog substrate calibrated to Table 8."""
        cfg = self.config
        rng = child_rng(cfg.seed, "blogs")
        documents: list[Document] = []
        time_range = self._time_range(Platform.BLOGS)

        plans = {
            "daily_stormer": paper.TABLE8_BLOGS["daily_stormer"],
            "noblogs": paper.TABLE8_BLOGS["noblogs"],
            "the_torch": paper.TABLE8_BLOGS["the_torch"],
        }
        for blog_name, row in plans.items():
            domain = blogmod.BLOG_DOMAINS[blog_name]
            if blog_name == "the_torch":
                n_posts = int(row["posts"])  # already tiny; keep at paper scale
            else:
                n_posts = max(int(row["posts"] * cfg.blog_scale), 30)
            # Keyword-bearing true doxes are the paper's "actual" count; the
            # generator also plants keyword-free doxes the keyword search
            # misses (calibrated from the Torch ground-truth check, §8.1).
            n_actual_kw = max(int(round(row["actual_doxes"] * n_posts / row["posts"])), 2)
            n_actual_free = max(
                int(round(n_actual_kw * blogmod.KEYWORD_FREE_DOX_P / (1 - blogmod.KEYWORD_FREE_DOX_P))),
                1,
            )
            n_relevant = max(
                int(round(row["relevant"] * n_posts / row["posts"])), n_actual_kw
            )
            n_relevant_benign = max(n_relevant - n_actual_kw, 0)
            n_foreign = 0
            if blog_name == "noblogs":
                with_foreign = int(row["relevant_with_foreign"])
                n_foreign = max(
                    int(round((with_foreign - row["relevant"]) * n_posts / row["posts"])), 0
                )
            n_benign = max(n_posts - n_actual_kw - n_actual_free - n_relevant_benign - n_foreign, 0)

            def emit(text: str, truth: GroundTruth) -> None:
                documents.append(
                    Document(
                        doc_id=next(self._doc_counter),
                        platform=Platform.BLOGS,
                        source=None,
                        domain=domain,
                        text=text,
                        timestamp=float(rng.uniform(*time_range)),
                        author=blog_name,
                        truth=truth,
                    )
                )

            for keyword_free, count in ((False, n_actual_kw), (True, n_actual_free)):
                for _ in range(count):
                    person = self._people.make()
                    if blog_name == "daily_stormer":
                        with_overload = rng.random() < paper.BLOG_STATS["stormer_overload_share"]
                        text, pii = blogmod.render_stormer_dox(rng, person, with_overload, keyword_free)
                        subtypes: tuple[AttackSubtype, ...] = (
                            (AttackSubtype.RAIDING,) if with_overload else ()
                        )
                        reputation = False
                    else:
                        text, pii = blogmod.render_farleft_dox(rng, person, keyword_free)
                        subtypes = (AttackSubtype.REPUTATIONAL_HARM_PUBLIC,)
                        reputation = True
                    emit(
                        text,
                        GroundTruth(
                            is_dox=True,
                            is_cth=bool(subtypes),
                            cth_subtypes=subtypes,
                            target_id=person.person_id,
                            target_gender=Gender.UNKNOWN,
                            pii_planted=pii,
                            reputation_info=reputation,
                        ),
                    )
            for _ in range(n_relevant_benign):
                base = blogmod.render_benign_blog_post(rng)
                emit(
                    base + "\n\ncontact the editors by email for corrections.",
                    GroundTruth(hard_negative=True),
                )
            for _ in range(n_foreign):
                emit(
                    blogmod.render_foreign_blog_post(rng, relevant_keyword=True),
                    GroundTruth(hard_negative=True),
                )
            for _ in range(n_benign):
                emit(blogmod.render_benign_blog_post(rng), GroundTruth())
        return documents
