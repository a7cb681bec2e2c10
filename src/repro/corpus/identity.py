"""Synthetic identities whose PII is format-valid but guaranteed fake.

All generated PII uses reserved or fictional ranges:

* phone numbers use the reserved 555-01xx exchange block,
* SSNs use the 987-65-43xx block reserved for advertising,
* credit-card numbers use documented test prefixes and are Luhn-valid,
* street addresses and employers are drawn from fictional word banks,
* email and social-media handles are derived from fictional names.

This keeps the extraction regexes honest (they must match realistic
formats) while making it impossible for generated text to identify a real
person.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.types import Gender
from repro.util.rng import integer, pick

FIRST_NAMES_MALE = (
    "Alder", "Bram", "Caspian", "Dorian", "Edmund", "Fenwick", "Garrick",
    "Hadrian", "Ivo", "Jasper", "Kendrick", "Leopold", "Magnus", "Nikolai",
    "Osric", "Percival", "Quentin", "Roderick", "Silas", "Thaddeus",
    "Ulric", "Varian", "Wendell", "Xander", "Yorick", "Zebulon",
)
FIRST_NAMES_FEMALE = (
    "Amaryllis", "Briony", "Celestine", "Delphine", "Elowen", "Fiora",
    "Ginevra", "Hestia", "Isolde", "Junia", "Kerensa", "Liriope",
    "Morwenna", "Nerissa", "Ophelie", "Petronella", "Quilla", "Rosalind",
    "Seraphine", "Tamsin", "Undine", "Verity", "Wilhelmina", "Xanthe",
    "Ysolde", "Zinnia",
)
LAST_NAMES = (
    "Ashgrove", "Blackmere", "Coldwater", "Dunmore", "Eastwick", "Fairburn",
    "Greyson", "Hollowell", "Ironwood", "Jessop", "Kingsley", "Larkspur",
    "Mossbridge", "Nightingale", "Oakhurst", "Pemberton", "Quickwater",
    "Ravenscroft", "Stonefield", "Thornbury", "Umberfield", "Vanecourt",
    "Westerly", "Yarrow", "Zellner",
)
STREET_NAMES = (
    "Maple", "Oakwood", "Birchfield", "Cedarbrook", "Elmhurst", "Foxglove",
    "Glenview", "Hawthorn", "Ivystone", "Juniper", "Kestrel", "Lindenwood",
    "Meadowlark", "Nettlecombe", "Orchard", "Pinecrest", "Quailridge",
    "Rosewood", "Sycamore", "Thistledown",
)
STREET_TYPES = ("St", "Ave", "Blvd", "Dr", "Ln", "Rd", "Ct", "Way")
CITIES = (
    "Fairhaven", "Greenport", "Harrowgate", "Ironvale", "Juniper Falls",
    "Kingsbridge", "Lakemont", "Marrowstone", "Northfield", "Oakbluff",
    "Pinehollow", "Quartzburg", "Riverbend", "Stonegate", "Thornwood",
)
STATES = ("NY", "CA", "TX", "WA", "OR", "IL", "OH", "GA", "PA", "MI", "FL", "NC", "CO", "AZ", "MN")
EMPLOYERS = (
    "Harrowgate Logistics", "Bluepine Hardware", "Vextel Systems",
    "Northfield Community College", "Quartzburg Auto Group",
    "Lakemont Medical Center", "Stonegate Insurance", "Coppervale Foods",
    "Riverbend Utilities", "Thornwood Press",
)
EMAIL_DOMAINS = ("mailhaven.example", "postbox.example", "webmail.example", "inbox.example")

#: Documented test prefixes per card issuer (Luhn-completed at generation).
CARD_ISSUER_PREFIXES = {
    "visa": "4111 1111 1111 111",
    "mastercard": "5555 5555 5555 444",
    "amex": "3782 822463 1000",
    "discover": "6011 1111 1111 111",
}
_CARD_ISSUERS = tuple(CARD_ISSUER_PREFIXES)

#: All PII categories the extraction pipeline knows about (paper §5.6).
PII_CATEGORIES = (
    "address",
    "credit_card",
    "email",
    "facebook",
    "instagram",
    "phone",
    "ssn",
    "twitter",
    "youtube",
)


def luhn_check_digit(digits: str) -> str:
    """Compute the Luhn check digit for a numeric string."""
    total = 0
    # The check digit will be appended, so positions are counted from it.
    for i, ch in enumerate(reversed(digits)):
        d = int(ch)
        if i % 2 == 0:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return str((10 - total % 10) % 10)


@dataclasses.dataclass(frozen=True, slots=True)
class Person:
    """A synthetic individual with a full complement of fake PII."""

    person_id: int
    first_name: str
    last_name: str
    gender: Gender
    street_address: str
    city: str
    state: str
    zip_code: str
    phone: str
    ssn: str
    email: str
    credit_card: str
    card_issuer: str
    facebook: str
    instagram: str
    twitter: str
    youtube: str
    employer: str
    family_member: str

    @property
    def full_name(self) -> str:
        return f"{self.first_name} {self.last_name}"

    @property
    def full_address(self) -> str:
        return f"{self.street_address}, {self.city}, {self.state} {self.zip_code}"

    @property
    def pronouns(self) -> tuple[str, str, str]:
        """(subject, object, possessive) pronouns for the target."""
        if self.gender is Gender.FEMALE:
            return ("she", "her", "her")
        if self.gender is Gender.MALE:
            return ("he", "him", "his")
        return ("they", "them", "their")

    def pii_value(self, category: str) -> str:
        """Render the PII value of ``category`` as it appears in a dox."""
        if category == "address":
            return self.full_address
        if category == "credit_card":
            return self.credit_card
        if category == "email":
            return self.email
        if category == "facebook":
            return f"https://facebook.com/{self.facebook}"
        if category == "instagram":
            return f"https://instagram.com/{self.instagram}"
        if category == "phone":
            return self.phone
        if category == "ssn":
            return self.ssn
        if category == "twitter":
            return f"https://twitter.com/{self.twitter}"
        if category == "youtube":
            return f"https://youtube.com/c/{self.youtube}"
        raise KeyError(f"unknown PII category: {category}")


class PersonFactory:
    """Deterministic generator of synthetic :class:`Person` records."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._next_id = 0

    def make(self, gender: Gender | None = None) -> Person:
        rng = self._rng
        if gender is None:
            gender = Gender.MALE if rng.random() < 0.55 else Gender.FEMALE
        if gender is Gender.FEMALE:
            first = pick(rng, FIRST_NAMES_FEMALE)
        else:
            first = pick(rng, FIRST_NAMES_MALE)
        last = pick(rng, LAST_NAMES)
        person_id = self._next_id
        self._next_id += 1
        handle = f"{first.lower()}{last.lower()}{integer(rng, 10, 9999)}"
        issuer = pick(rng, _CARD_ISSUERS)
        prefix_digits = CARD_ISSUER_PREFIXES[issuer].replace(" ", "")
        card_digits = prefix_digits + luhn_check_digit(prefix_digits)
        # Re-group with issuer-typical spacing.
        if issuer == "amex":
            card = f"{card_digits[:4]} {card_digits[4:10]} {card_digits[10:]}"
        else:
            card = " ".join(card_digits[i : i + 4] for i in range(0, 16, 4))
        family_first = pick(
            rng, FIRST_NAMES_FEMALE if rng.random() < 0.5 else FIRST_NAMES_MALE
        )
        return Person(
            person_id=person_id,
            first_name=first,
            last_name=last,
            gender=gender,
            street_address=(
                f"{integer(rng, 100, 9999)} "
                f"{pick(rng, STREET_NAMES)} {pick(rng, STREET_TYPES)}"
            ),
            city=pick(rng, CITIES),
            state=pick(rng, STATES),
            zip_code=f"{integer(rng, 10000, 99999):05d}",
            phone=f"({integer(rng, 200, 989)}) 555-01{integer(rng, 0, 99):02d}",
            ssn=f"987-65-43{integer(rng, 0, 99):02d}",
            email=f"{handle}@{pick(rng, EMAIL_DOMAINS)}",
            credit_card=card,
            card_issuer=issuer,
            # Handles carry digits so distinct synthetic people never share
            # one — §7.3 repeated-dox linking keys on exact handle matches.
            facebook=f"{first.lower()}.{last.lower()}.{integer(rng, 1, 9999)}",
            instagram=f"{first.lower()}_{last.lower()}_{integer(rng, 1, 9999)}",
            twitter=(f"{first.lower()}{last.lower()}"[:10] + str(integer(rng, 10, 99999))),
            youtube=f"{first}{last}Ch{integer(rng, 1, 9999)}",
            employer=pick(rng, EMPLOYERS),
            family_member=f"{family_first} {last}",
        )
