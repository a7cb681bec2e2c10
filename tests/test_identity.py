"""Unit and property tests for synthetic identities."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.identity import (
    CARD_ISSUER_PREFIXES,
    PII_CATEGORIES,
    PersonFactory,
    luhn_check_digit,
)
from repro.types import Gender


@pytest.fixture()
def factory():
    return PersonFactory(np.random.default_rng(0))


def test_person_ids_increment(factory):
    a, b = factory.make(), factory.make()
    assert b.person_id == a.person_id + 1


def test_gender_respected(factory):
    assert factory.make(Gender.FEMALE).gender is Gender.FEMALE
    assert factory.make(Gender.MALE).gender is Gender.MALE


def test_phone_uses_reserved_555_block(factory):
    for _ in range(50):
        person = factory.make()
        assert re.fullmatch(r"\(\d{3}\) 555-01\d{2}", person.phone)


def test_ssn_uses_reserved_block(factory):
    for _ in range(50):
        assert factory.make().ssn.startswith("987-65-43")


def test_credit_card_is_luhn_valid(factory):
    for _ in range(50):
        person = factory.make()
        digits = person.credit_card.replace(" ", "")
        assert luhn_check_digit(digits[:-1]) == digits[-1]
        assert person.card_issuer in CARD_ISSUER_PREFIXES


def test_amex_grouping(factory):
    for _ in range(100):
        person = factory.make()
        if person.card_issuer == "amex":
            parts = person.credit_card.split(" ")
            assert [len(p) for p in parts] == [4, 6, 5]
            return
    pytest.skip("no amex sampled in 100 draws")


def test_full_address_format(factory):
    person = factory.make()
    assert re.search(r", [A-Z]{2} \d{5}$", person.full_address)


def test_pronouns(factory):
    assert factory.make(Gender.FEMALE).pronouns == ("she", "her", "her")
    assert factory.make(Gender.MALE).pronouns == ("he", "him", "his")


def test_pii_value_covers_all_categories(factory):
    person = factory.make()
    for category in PII_CATEGORIES:
        value = person.pii_value(category)
        assert isinstance(value, str) and value


def test_pii_value_unknown_category_raises(factory):
    with pytest.raises(KeyError):
        factory.make().pii_value("shoe_size")


def test_email_contains_example_domain(factory):
    assert factory.make().email.endswith(".example")


def test_twitter_handle_length_limit(factory):
    for _ in range(50):
        assert len(factory.make().twitter) <= 15


def test_determinism_same_seed():
    a = PersonFactory(np.random.default_rng(5)).make()
    b = PersonFactory(np.random.default_rng(5)).make()
    assert a == b


@given(st.text(alphabet="0123456789", min_size=1, max_size=19))
@settings(max_examples=200)
def test_luhn_check_digit_validates(digits):
    check = luhn_check_digit(digits)
    full = digits + check
    # Standard Luhn validation of the completed number.
    total = 0
    for i, ch in enumerate(reversed(full)):
        d = int(ch)
        if i % 2 == 1:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    assert total % 10 == 0
