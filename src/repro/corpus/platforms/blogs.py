"""Ideological-blog substrate (paper §8, Tables 8 and 9).

Three blogs with distinct dox styles:

* **The Torch** / **NoBlogs** (far-left, antifascist): long narrative doxes
  of alleged far-right participants — narration, photos-from-rallies
  references, physical location, and public/private reputational-harm
  framing ("alert neighbours, landlords, employers").
* **Daily Stormer** (far-right): shorter doxes that co-occur with calls to
  overload (raiding/spamming), usually carrying only a contact channel
  (email or Twitter handle).

The paper analysed blogs with keyword relevance queries ("phone", "email",
"dox", "dob:") rather than the classifiers, and found the keywords missed
~30 % of true doxes (10 of 33 on the Torch) — so this generator plants a
controlled fraction of keyword-free doxes.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.identity import Person
from repro.util.rng import pick

BLOG_DOMAINS = {
    "daily_stormer": "stormblog.example",
    "noblogs": "freepress-collective.example",
    "the_torch": "torchnetwork.example",
}

#: Fraction of true blog doxes that avoid all relevance keywords
#: (Torch: 10 missed of 33 total => ~0.30).
KEYWORD_FREE_DOX_P = 10 / 33

#: Fraction of NoBlogs entries written in a non-English language (§8.1:
#: 1,389 relevant entries minus 668 analysable => ~52 % of relevant).
NOBLOGS_FOREIGN_P = (1_389 - 668) / 1_389

_FARLEFT_NARRATIONS = (
    "the following individual attended the rally downtown on saturday and "
    "was photographed with organizers of the group",
    "we have confirmed this person's participation in the leaked chat "
    "server and their role in planning the march",
    "community alert: this individual has been distributing propaganda "
    "around the east side and recruiting at the gym on fifth",
)
_FARLEFT_CALLS = (
    "alert the community about the threat. neighbors, landlords and "
    "employers deserve to know who lives among them",
    "if you recognize this person, inform their workplace and their "
    "building. print the flyer below and post it around their block",
    "send any additional information you have. we will keep this page "
    "updated as the community responds",
)
_STORMER_NARRATIONS = (
    "this journalist wrote another smear piece about our readers this week",
    "the professor below has been pushing the usual nonsense at the college",
    "this account spent the weekend mocking our guys, time to return the favor",
)
_STORMER_CALLS = (
    "you know what to do. flood the inbox, bury the mentions, make it rain",
    "let them hear from all of us at once. do not let up for a week",
    "raid the replies, spam the forms, overwhelm everything they run",
)
_FOREIGN_FILLER = (
    "la situazione politica attuale richiede la nostra attenzione collettiva",
    "die lage in der stadt hat sich in den letzten wochen verschlechtert",
    "la manifestación del sábado reunió a cientos de personas en la plaza",
    "le collectif publiera bientôt un nouveau rapport sur les événements",
)
_BENIGN_BLOG_TOPICS = (
    "movement history and the lessons of the last decade",
    "a report back from the weekend's organizing meeting",
    "media criticism: how the press covered the demonstrations",
    "mutual aid logistics for the winter season",
    "commentary on the latest platform moderation policies",
    "a long essay on ideology and online culture",
)


def render_benign_blog_post(rng: np.random.Generator) -> str:
    topic = pick(rng, _BENIGN_BLOG_TOPICS)
    paras = [
        f"editorial: {topic}.",
        "this week's developments deserve a longer treatment than a single "
        "post allows, but the outline is clear enough.",
        "as always, comments are open and corrections are welcome.",
    ]
    return "\n\n".join(paras)


def render_foreign_blog_post(rng: np.random.Generator, relevant_keyword: bool) -> str:
    """A non-English NoBlogs entry; optionally contains a relevance keyword."""
    body = f"{pick(rng, _FOREIGN_FILLER)}. {pick(rng, _FOREIGN_FILLER)}."
    if relevant_keyword:
        body += " contatto email della redazione: redazione@collettivo.example"
    return body


def render_farleft_dox(
    rng: np.random.Generator, person: Person, keyword_free: bool
) -> tuple[str, tuple[str, ...]]:
    """A Torch/NoBlogs-style dox: narration + location + reputation call.

    Returns the text and the tuple of PII categories it actually contains.
    """
    lines = [
        pick(rng, _FARLEFT_NARRATIONS),
        f"name: {person.full_name}",
        "photos from the rally are archived below the fold.",
    ]
    if keyword_free:
        # Avoid every relevance keyword; give location in prose instead.
        lines.append(
            f"currently residing near {person.city}, {person.state}, and "
            f"working at {person.employer}."
        )
        pii: tuple[str, ...] = ()
    else:
        lines.append(f"address: {person.full_address}")
        lines.append(f"phone: {person.phone}")
        lines.append(f"email: {person.email}")
        lines.append("dob: 04/12/1988")
        lines.append(f"employer: {person.employer}")
        pii = ("address", "phone", "email")
    lines.append(pick(rng, _FARLEFT_CALLS))
    return "\n".join(lines), pii


def render_stormer_dox(
    rng: np.random.Generator, person: Person, with_overload_call: bool, keyword_free: bool
) -> tuple[str, tuple[str, ...]]:
    """A Daily Stormer-style dox: narration + contact channel (+ raid call).

    Returns the text and the tuple of PII categories it actually contains.
    """
    lines = [pick(rng, _STORMER_NARRATIONS)]
    contact_is_email = rng.random() < 0.5
    if keyword_free:
        lines.append(f"find them on twitter as @{person.twitter}")
        pii: tuple[str, ...] = ("twitter",)
    elif contact_is_email:
        lines.append(f"email: {person.email}")
        pii = ("email",)
    else:
        lines.append(
            f"their twitter: https://twitter.com/{person.twitter} "
            f"(dox thread archived)"
        )
        pii = ("twitter",)
    if with_overload_call:
        lines.append(pick(rng, _STORMER_CALLS))
    return "\n".join(lines), pii
