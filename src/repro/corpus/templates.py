"""Text rendering for benign posts, calls to harassment, and doxes.

Each of the 28 taxonomy subcategories has its own bank of tactic sentences
written with mobilising openers so that (a) the Fig.-4 seed keyword query
finds a biased-but-real subset of them, and (b) the classifiers have real
signal to learn, with benign mobilising posts as hard negatives.  The
phrasing is deliberately mild — see ``vocab.py``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.corpus import vocab
from repro.corpus.identity import Person
from repro.taxonomy.attack_types import AttackSubtype
from repro.types import Gender, Platform
from repro.util.rng import integer, pick

# ---------------------------------------------------------------------------
# Tactic sentence banks, one per taxonomy subcategory.
#
# Placeholders: {obj} object pronoun or name, {poss} possessive, {subj}
# subject pronoun, {name} target full name, {handle} a platform handle,
# {employer} the target's employer, {family} a family member's name.
# ---------------------------------------------------------------------------

TACTIC_SENTENCES: Mapping[AttackSubtype, Sequence[str]] = {
    AttackSubtype.DOXING: (
        "dig up {poss} phone number and home address and post it here",
        "find out where {subj} lives and drop the info in this thread",
        "get {poss} real name and address, someone here knows {obj}",
        "pull {poss} info together, full name, number, the works",
    ),
    AttackSubtype.LEAKED_CHATS_PROFILE: (
        "leak {poss} private server logs, the screenshots are enough to bury {obj}",
        "dump the chat history from {poss} old account for everyone to see",
        "post the DMs {subj} sent, people deserve to see the logs",
    ),
    AttackSubtype.NON_CONSENSUAL_MEDIA_EXPOSURE: (
        "share the private pictures of {obj} everywhere {subj} posts",
        "post {poss} private photos so everyone {subj} knows sees them",
        "send the private pics to everyone in {poss} follower list",
    ),
    AttackSubtype.OUTING_DEADNAMING: (
        "post {poss} old name everywhere so nobody forgets who {subj} used to be",
        "make sure everyone calls {obj} by the old name in every thread",
    ),
    AttackSubtype.DOX_PROPAGATION: (
        "repost {poss} info from the last thread before it gets pruned",
        "spread the file on {obj} to every channel you are in",
        "mirror the dox on {obj} everywhere, do not let it disappear",
    ),
    AttackSubtype.CONTENT_LEAKAGE_MISC: (
        "get everything on {obj} out in the open, whatever you can find",
        "leak whatever {subj} is hiding, all of it",
    ),
    AttackSubtype.IMPERSONATED_PROFILES: (
        "make accounts in {poss} name and post garbage until people hate {obj}",
        "set up a fake profile of {obj} and friend {poss} coworkers",
        "clone {poss} account and reply to everyone as {obj}",
    ),
    AttackSubtype.SYNTHETIC_PORNOGRAPHY: (
        "make fake explicit edits of {obj} and send them to {poss} family",
        "photoshop {obj} into explicit pictures and spread them around",
    ),
    AttackSubtype.IMPERSONATION_MISC: (
        "pretend to be {obj} in the replies and make {obj} look unhinged",
        "pose as {poss} assistant and cancel all {poss} bookings",
    ),
    AttackSubtype.ACCOUNT_LOCKOUT: (
        "phish {poss} email and lock {obj} out of everything",
        "get into {poss} account, reset the password, and keep {obj} out",
    ),
    AttackSubtype.LOCKOUT_MISC: (
        "take over whatever {subj} runs and shut it down from the inside",
        "get control of {poss} pages one way or another",
    ),
    AttackSubtype.NEGATIVE_RATINGS_REVIEWS: (
        "flood {poss} shop page with one star reviews until the rating tanks",
        "leave bad reviews on {poss} business listing, every single one of us",
    ),
    AttackSubtype.RAIDING: (
        "raid {poss} stream tonight and flood the comments until {subj} quits",
        "everyone pile into {poss} thread at 9 and bury it",
        "swarm the comment section on {poss} channel until mods give up",
        "hit {poss} discord all at once, overwhelm the mods",
    ),
    AttackSubtype.SPAMMING: (
        "spam {poss} inbox until {subj} cannot find a single real message",
        "blast {poss} phone with texts all night",
        "post FB & Twitter accounts so we can spam {obj} nonstop",
    ),
    AttackSubtype.OVERLOADING_MISC: (
        "bury {obj} in notifications until {subj} gives up and logs off",
        "keep {poss} mentions unusable for the rest of the week",
    ),
    AttackSubtype.HASHTAG_HIJACKING: (
        "hijack {poss} hashtag and flood it with our posts until the tag is ours",
        "take over the tag {subj} started, drown the original message",
    ),
    AttackSubtype.PUBLIC_OPINION_MISC: (
        "keep pushing the story about {obj} even though we know it is fake",
        "push the made up version everywhere until people believe it about {obj}",
        "seed the fake quote in every thread about {obj}",
    ),
    AttackSubtype.FALSE_REPORTING_TO_AUTHORITIES: (
        "report {obj} to {poss} landlord and to the police with the made up story",
        "call {poss} employer and tell them what {subj} posts, get {obj} fired",
        "file a false complaint about {obj} with the city, paper {obj} in reports",
        "tip off immigration about {obj} even if there is nothing there",
    ),
    AttackSubtype.MASS_FLAGGING: (
        "mass report {poss} account until the platform bans {obj}",
        "everyone flag {poss} videos for policy violations, true or not",
        "report every post {subj} makes until the account is gone",
        "mass-report {poss} twitter and youtube until both are suspended",
    ),
    AttackSubtype.REPORTING_MISC: (
        "report {obj} everywhere {subj} has an account, all of us, today",
        "get {obj} reported to anyone who will listen",
    ),
    AttackSubtype.REPUTATIONAL_HARM_PRIVATE: (
        "message {poss} family about what {subj} posts, let {family} know everything",
        "email {poss} boss at {employer} with the screenshots",
        "contact {poss} coworkers privately and show them who {subj} really is",
    ),
    AttackSubtype.REPUTATIONAL_HARM_PUBLIC: (
        "post about {obj} in {poss} neighborhood group so everyone local knows",
        "put up flyers about {obj} around {poss} block",
        "make {poss} name trend so {poss} whole town sees it",
    ),
    AttackSubtype.REPUTATIONAL_HARM_MISC: (
        "ruin {poss} reputation however you can, every angle",
        "make sure nobody in {poss} circle trusts {obj} again",
    ),
    AttackSubtype.STALKING_OR_TRACKING: (
        "track where {subj} goes after work and post the schedule here",
        "follow {poss} car and report back where {subj} parks, keep a log on {obj}",
    ),
    AttackSubtype.SURVEILLANCE_MISC: (
        "watch everything {subj} does online and keep the receipts on {obj}",
        "monitor {poss} accounts around the clock and log it all",
    ),
    AttackSubtype.HATE_SPEECH: (
        "message {obj} with the worst insults you have, do not stop",
        "fill {poss} replies with abuse until {subj} deletes the account",
    ),
    AttackSubtype.UNWANTED_EXPLICIT_CONTENT: (
        "send {obj} explicit images {subj} never asked for, all day",
        "flood {poss} DMs with graphic content until {subj} locks the account",
    ),
    AttackSubtype.TOXIC_CONTENT_MISC: (
        "make every interaction {subj} has here miserable",
        "pile abuse on {obj} wherever {subj} shows up",
    ),
    AttackSubtype.GENERIC: (
        "make {poss} life online hell, you know what to do",
        "go after {obj}, whatever it takes",
        "do your thing to {obj}, no specifics needed",
        "bully {obj} off the internet",
    ),
}

#: Subcategories whose text should also mention a platform account handle
#: (they interact with the PII extraction pipeline).
HANDLE_BEARING = frozenset(
    {
        AttackSubtype.MASS_FLAGGING,
        AttackSubtype.RAIDING,
        AttackSubtype.SPAMMING,
        AttackSubtype.DOX_PROPAGATION,
    }
)


def render_benign(rng: np.random.Generator, platform: Platform) -> str:
    """A filler post in the platform's register."""
    opener = pick(rng, vocab.BENIGN_OPENERS)
    topic = pick(rng, vocab.BENIGN_TOPICS)
    closer = pick(rng, vocab.BENIGN_CLOSERS)
    body = f"{opener} {topic}. {closer}"
    if platform is Platform.BOARDS and rng.random() < 0.3:
        body = f"{pick(rng, vocab.BOARD_FILLER)} {body}"
    elif platform is Platform.GAB and rng.random() < 0.4:
        body = f"{body} {pick(rng, vocab.GAB_HASHTAGS)}"
    elif platform is Platform.CHAT and rng.random() < 0.4:
        body = f"{body} {pick(rng, vocab.CHAT_FILLER)}"
    elif platform is Platform.PASTES:
        snippet = pick(rng, vocab.PASTE_CODE_SNIPPETS)
        body = f"# {topic}\n{snippet}\n# {closer}"
    return body


#: Justification clauses.  Both legitimate counter-reporting negatives and
#: a fraction of true calls to harassment carry these (harassers also claim
#: justification), which makes the two classes overlap irreducibly.
JUSTIFICATIONS = (
    "receipts are in the archive from yesterday",
    "there are screenshots of everything already",
    "three people here got burned by this already",
    "the evidence thread has it all documented",
    "you have all seen what got posted last night",
)

#: Shared "act on the target" verbs — used by positives and mirrors alike
#: so the opener carries no class signal.
DEAL_PHRASES = ("deal with", "do something about", "handle", "sort out", "take care of")

#: Subtypes whose tactics have a legitimate counter-abuse reading.
_MIRRORABLE = (
    AttackSubtype.MASS_FLAGGING,
    AttackSubtype.REPORTING_MISC,
    AttackSubtype.RAIDING,
    AttackSubtype.SPAMMING,
    AttackSubtype.NEGATIVE_RATINGS_REVIEWS,
    AttackSubtype.STALKING_OR_TRACKING,
)


def render_tactic_mirror(rng: np.random.Generator) -> str:
    """A legitimate counter-abuse mobilisation using real tactic language.

    Same sentence skeletons, openers, mention formats, and (usually) the
    same justification clauses as true calls to harassment — only the
    nature of the target (an abusive account/operation, or a person who
    demonstrably scammed the community) makes it legitimate.  The expert
    labels these negative; a bag-of-ngrams model cannot fully separate
    them (the paper's §5.4 false-positive class, generalised).
    """
    roll = rng.random()
    handle = f"{pick(rng, ('spam', 'bot', 'shill', 'scam'))}watch{integer(rng, 10, 9999)}"
    if roll < 0.4:
        mention = f"the account @{handle}"
        subj, obj, poss = "they", "them", "their"
    elif roll < 0.7:
        noun = pick(rng, ("bot", "phishing account", "spam ring", "scraper network"))
        mention = f"this {noun}"
        subj, obj, poss = "it", "it", "its"
    else:
        # A person — but one who demonstrably abused the community.
        who = pick(rng, ("guy", "seller", "reseller", "woman"))
        deed = pick(rng, ("scamming the group buy", "reposting malware links",
                             "stealing commissions", "running the fake raffle"))
        mention = f"this {who} {deed}"
        subj, obj, poss = ("she", "her", "her") if who in ("seller", "woman") else ("he", "him", "his")
    subtype = _MIRRORABLE[integer(rng, 0, len(_MIRRORABLE))]
    tactic = pick(rng, TACTIC_SENTENCES[subtype]).format(
        subj=subj, obj=obj, poss=poss,
        name=mention, handle=handle, employer="the hosting company",
        family="the operator",
    )
    opener = pick(rng, vocab.MOBILIZING_OPENERS)
    deal = pick(rng, DEAL_PHRASES)
    sentences = [f"{opener} {deal} {mention}.", f"{pick(rng, vocab.MOBILIZING_OPENERS)} {tactic}."]
    if rng.random() < 0.6:
        sentences.append(f"{pick(rng, JUSTIFICATIONS)}.")
    return " ".join(sentences)


def _render_self_disclosure(rng: np.random.Generator) -> str:
    """Voluntary contact sharing — PII-bearing but not a dox."""
    handle = f"user{integer(rng, 100, 99999)}"
    variants = (
        f"dm me or mail {handle}@mailhaven.example if you want the files",
        f"selling the spare ticket, text me at ({integer(rng, 200, 989)}) "
        f"555-01{integer(rng, 0, 99):02d}",
        f"new here, my twitter is @{handle} if anyone wants to follow",
        f"commissions open! email {handle}@postbox.example for rates",
        f"moving sale this weekend, {integer(rng, 100, 9999)} "
        f"{pick(rng, ('Maple', 'Oakwood', 'Cedarbrook'))} St, everything must go",
    )
    return pick(rng, variants)


def _render_roster(rng: np.random.Generator) -> str:
    """A legitimate contact roster — long, email-bearing, not a dox."""
    lines = ["team roster and contacts for the spring league:"]
    for _ in range(integer(rng, 3, 8)):
        handle = f"player{integer(rng, 1, 999)}"
        lines.append(f"{handle} - {handle}@webmail.example - division {integer(rng, 1, 5)}")
    return "\n".join(lines)


_FICTION_MARKERS = (
    "character sheet for tonight's session:",
    "npc file for the campaign wiki:",
    "posting my own old info since the account is deleted anyway:",
    "filled out the fake example form for the tutorial:",
    "press kit contact block, repost freely:",
)


def render_hard_negative(
    rng: np.random.Generator, platform: Platform, person: Person | None = None
) -> str:
    """A deliberately confusable negative for one of the two tasks.

    For the CTH task: benign mobilising posts (the paper's canonical false
    positive), legitimate counter-abuse mobilisation, and hostile-but-not-
    inciting posts.  For the dox task: database dumps (which the paper
    excludes from the doxing category), contact rosters, voluntary
    self-disclosures, and fiction/self-dox posts that reuse the exact dox
    format (``person`` supplies the rendered identity).
    """
    roll = rng.random()
    if platform is Platform.PASTES:
        if roll < 0.4:
            header = pick(rng, vocab.PASTE_DB_DUMP_HEADER)
            rows = "\n".join(
                f"({integer(rng, 1, 99999)}, 'user{integer(rng, 1, 9999)}"
                f"@dumpsite.example', '{integer(rng, 0, 2**32):08x}'),"
                for _ in range(integer(rng, 3, 9))
            )
            return f"{header}\n{rows}"
        if roll < 0.6:
            return _render_roster(rng)
        if roll < 0.75:
            return _render_self_disclosure(rng)
        return pick(rng, vocab.BENIGN_MOBILIZING)
    if platform in (Platform.BOARDS, Platform.GAB):
        if roll < 0.35:
            return render_tactic_mirror(rng)
        if roll < 0.45:
            return pick(rng, vocab.TACTIC_MIRROR_NEGATIVES)
        if roll < 0.55:
            return pick(rng, vocab.BORDERLINE_NEGATIVES)
        if platform is Platform.BOARDS and roll < 0.62:
            if person is not None and rng.random() < 0.6:
                # Exact dox format, fictional/consenting context.
                body = render_dox(
                    rng, person,
                    pii_types=("address", "phone", "email"),
                    platform=platform, reputation_info=False,
                    gender_visible=False, narrative=False,
                )
                return f"{pick(rng, _FICTION_MARKERS)} {body}"
            return pick(rng, vocab.DOX_MIRROR_NEGATIVES)
        if roll < 0.75:
            return _render_self_disclosure(rng)
        if roll < 0.85:
            return pick(rng, vocab.HOSTILE_FILLER)
        return pick(rng, vocab.BENIGN_MOBILIZING)
    if roll < 0.15:
        return _render_self_disclosure(rng)
    if roll < 0.40:
        return pick(rng, vocab.HOSTILE_FILLER)
    return pick(rng, vocab.BENIGN_MOBILIZING)


def render_cth(
    rng: np.random.Generator,
    subtypes: Sequence[AttackSubtype],
    person: Person,
    gender_visible: bool,
    platform: Platform,
) -> str:
    """A call to harassment covering ``subtypes`` against ``person``.

    When ``gender_visible`` the text uses the target's gendered pronouns
    (feeding the §5.6 pronoun extractor); otherwise the target is referred
    to by a neutral handle/name so the inferred gender is unknown.
    """
    if not subtypes:
        raise ValueError("a call to harassment needs at least one subtype")
    if gender_visible:
        subj, obj, poss = person.pronouns
        mention = f"this {'woman' if person.gender is Gender.FEMALE else 'guy'} {person.last_name}"
    else:
        subj, obj, poss = "they", "them", "their"
        mention = f"the account @{person.twitter}"
    # Purely GENERIC calls are sometimes oblique one-liners with no
    # mobilising opener at all — the hardest positives (§5.4 edge cases).
    if tuple(subtypes) == (AttackSubtype.GENERIC,) and rng.random() < 0.5:
        weak = pick(rng, vocab.WEAK_CTH).format(handle=f"@{person.twitter}")
        return weak
    opener = pick(rng, vocab.MOBILIZING_OPENERS)
    sentences = [f"{opener} {pick(rng, DEAL_PHRASES)} {mention}."]
    for subtype in subtypes:
        tactic = pick(rng, TACTIC_SENTENCES[subtype]).format(
            subj=subj,
            obj=obj,
            poss=poss,
            name=person.full_name,
            handle=person.twitter,
            employer=person.employer,
            family=person.family_member,
        )
        mobilizer = pick(rng, vocab.MOBILIZING_OPENERS)
        sentences.append(f"{mobilizer} {tactic}.")
        if subtype in HANDLE_BEARING and rng.random() < 0.5:
            site = pick(rng, ("twitter", "youtube", "instagram"))
            handle = {
                "twitter": person.twitter,
                "youtube": person.youtube,
                "instagram": person.instagram,
            }[site]
            sentences.append(f"{site}: {handle}")
    # Harassers also claim justification (~20 % of the time), overlapping
    # with the legitimate counter-reporting negatives.
    if rng.random() < 0.2:
        sentences.append(f"{pick(rng, JUSTIFICATIONS)}.")
    body = " ".join(sentences)
    if platform is Platform.GAB and rng.random() < 0.5:
        body = f"{body} {pick(rng, vocab.GAB_HASHTAGS)}"
    elif platform is Platform.CHAT and rng.random() < 0.3:
        body = f"{body} {pick(rng, vocab.CHAT_FILLER)}"
    return body


def render_dox(
    rng: np.random.Generator,
    person: Person,
    pii_types: Sequence[str],
    platform: Platform,
    reputation_info: bool,
    gender_visible: bool,
    narrative: bool | None = None,
) -> str:
    """A dox of ``person`` containing exactly the ``pii_types`` categories.

    Pastes and blogs get the long-form structure (header, narrative, field
    block, sign-off); boards/chat/Gab doxes are shorter, often partial.
    """
    long_form = platform in (Platform.PASTES, Platform.BLOGS)
    if narrative is None:
        narrative = long_form or rng.random() < 0.3
    lines: list[str] = []
    if long_form:
        lines.append(pick(rng, vocab.DOX_HEADERS))
    if narrative:
        story = pick(rng, vocab.DOX_NARRATIVES)
        if gender_visible:
            subj, _obj, poss = person.pronouns
            story = f"{story}. {subj} thought {poss} accounts were separate. {subj} was wrong"
        lines.append(story)
    name_label = pick(rng, vocab.DOX_FIELD_LABELS["name"])
    lines.append(f"{name_label}: {person.full_name}")
    for category in pii_types:
        label = pick(rng, vocab.DOX_FIELD_LABELS[category])
        lines.append(f"{label}: {person.pii_value(category)}")
    if reputation_info:
        employer_label = pick(rng, vocab.DOX_FIELD_LABELS["employer"])
        family_label = pick(rng, vocab.DOX_FIELD_LABELS["family"])
        lines.append(f"{employer_label}: {person.employer}")
        lines.append(f"{family_label}: {person.family_member}")
    signoff = pick(rng, vocab.DOX_SIGNOFFS)
    if long_form and signoff:
        lines.append(signoff)
    separator = "\n" if long_form else " | "
    return separator.join(lines)
