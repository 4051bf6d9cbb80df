"""Columnar profile storage: struct-of-arrays with lazy object views.

``ProfileStore`` holds every user attribute as one NumPy column, rows
addressed by dense integer ids (``user_id = id_base + row``).  String
attributes (country, towns, cohort) are interned to small int codes via
a shared :class:`repro.osn.columns.StringInterner`.

The per-object :class:`repro.osn.profile.UserProfile` API survives as
:class:`ProfileView` — a two-word proxy whose properties read and write
the columns directly.  Views are created lazily and cached per id, so
``network.user(uid) is network.user(uid)`` holds (tests and monitors
rely on object identity) while a million untouched rows cost only their
column storage.

Copy/view rules (see docs/architecture.md): column accessors
(``ages()``, ``country_codes()``, ...) return zero-copy views that are
invalidated by the next ``add``; ``ProfileView`` reads are single-element
copies; nothing in this module hands out a mutable alias of a column.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.osn.columns import StringInterner, TypedVector
from repro.osn.ids import UserId
from repro.osn.profile import (
    _BRACKET_BOUNDS,
    AGE_BRACKETS,
    COHORT_ORGANIC,
    Gender,
    ProfileProperties,
)
from repro.util.validation import require

__all__ = ["ProfileStore", "ProfileView"]

_GENDER_BY_CODE = (Gender.FEMALE, Gender.MALE)
_GENDER_VALUES = tuple(gender.value for gender in _GENDER_BY_CODE)
_ALIVE = -1  # terminated_at sentinel
_BRACKET_LOWS = np.array([low for low, _ in _BRACKET_BOUNDS], dtype=np.int16)


def _gender_code(gender: Gender) -> int:
    return 1 if gender is Gender.MALE else 0


class ProfileView(ProfileProperties):
    """A :class:`UserProfile`-shaped window onto one ``ProfileStore`` row.

    Attribute reads pull from the columns; the mutable attributes the
    generators and tests assign (``background_friend_count``,
    ``background_like_count``) write straight back.

    Reads go straight at each column's backing array (``_data``) rather
    than through ``TypedVector.__getitem__``: the view's row is always a
    live row, so the live-prefix slice the vector would build per access
    is pure overhead — and the crawler reads these properties hundreds of
    thousands of times per collect phase.
    """

    __slots__ = ("_store", "_row")

    def __init__(self, store: "ProfileStore", row: int) -> None:
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "_row", row)

    # -- identity ------------------------------------------------------------

    @property
    def user_id(self) -> UserId:
        return UserId(self._store.id_base + self._row)

    # -- demographics --------------------------------------------------------

    @property
    def gender(self) -> Gender:
        return _GENDER_BY_CODE[int(self._store._gender._data[self._row])]

    @property
    def age(self) -> int:
        return int(self._store._age._data[self._row])

    @property
    def country(self) -> str:
        return self._store.strings.value(self._store._country._data[self._row])

    @property
    def home_town(self) -> str:
        return self._store.strings.value(self._store._home_town._data[self._row])

    @property
    def current_town(self) -> str:
        return self._store.strings.value(self._store._current_town._data[self._row])

    # -- flags and labels ----------------------------------------------------

    @property
    def friend_list_public(self) -> bool:
        return bool(self._store._friend_list_public._data[self._row])

    @friend_list_public.setter
    def friend_list_public(self, value: bool) -> None:
        self._store._friend_list_public[self._row] = bool(value)

    @property
    def searchable(self) -> bool:
        return bool(self._store._searchable._data[self._row])

    @property
    def cohort(self) -> str:
        return self._store.strings.value(self._store._cohort._data[self._row])

    @property
    def created_at(self) -> int:
        return int(self._store._created_at._data[self._row])

    @property
    def terminated_at(self) -> Optional[int]:
        value = int(self._store._terminated_at._data[self._row])
        return None if value == _ALIVE else value

    @property
    def is_terminated(self) -> bool:
        # overrides the ProfileProperties derivation to skip the Optional
        # boxing of ``terminated_at`` — the single hottest view read
        # (privacy checks hit it once per crawled endpoint)
        return bool(self._store._terminated_at._data[self._row] != _ALIVE)

    # -- background (small-world) counts, mutable by generators/tests --------

    @property
    def background_friend_count(self) -> int:
        return int(self._store._background_friends._data[self._row])

    @background_friend_count.setter
    def background_friend_count(self, value: int) -> None:
        require(value >= 0, "background_friend_count must be >= 0")
        self._store._background_friends[self._row] = int(value)

    @property
    def background_like_count(self) -> int:
        return int(self._store._background_likes._data[self._row])

    @background_like_count.setter
    def background_like_count(self, value: int) -> None:
        require(value >= 0, "background_like_count must be >= 0")
        self._store._background_likes[self._row] = int(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProfileView(user_id={self.user_id}, gender={self.gender}, "
            f"age={self.age}, country={self.country!r}, cohort={self.cohort!r})"
        )


class ProfileStore:
    """Struct-of-arrays store for user profiles, dense ids from ``id_base``."""

    def __init__(self, id_base: int) -> None:
        self.id_base = int(id_base)
        self.strings = StringInterner()
        self._gender = TypedVector(np.int8)
        self._age = TypedVector(np.int16)
        self._country = TypedVector(np.int32)
        self._home_town = TypedVector(np.int32)
        self._current_town = TypedVector(np.int32)
        self._friend_list_public = TypedVector(np.bool_)
        self._searchable = TypedVector(np.bool_)
        self._cohort = TypedVector(np.int32)
        self._created_at = TypedVector(np.int64)
        self._terminated_at = TypedVector(np.int64)
        self._background_friends = TypedVector(np.int64)
        self._background_likes = TypedVector(np.int64)
        self._views: Dict[int, ProfileView] = {}

    # -- rows ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._gender)

    @property
    def count(self) -> int:
        return len(self._gender)

    def has(self, user_id: int) -> bool:
        row = int(user_id) - self.id_base
        return 0 <= row < len(self._gender)

    def row_of(self, user_id: int) -> int:
        """Row for ``user_id``; raises ``KeyError`` for unknown ids."""
        row = int(user_id) - self.id_base
        if not 0 <= row < len(self._gender):
            raise KeyError(user_id)
        return row

    def view(self, user_id: int) -> ProfileView:
        """The cached object view for ``user_id`` (KeyError if unknown)."""
        uid = int(user_id)
        cached = self._views.get(uid)
        if cached is None:
            cached = ProfileView(self, self.row_of(uid))
            self._views[uid] = cached
        return cached

    def iter_views(self) -> Iterator[ProfileView]:
        """Views for every row, in creation (id) order."""
        base = self.id_base
        for row in range(len(self._gender)):
            yield self.view(base + row)

    # -- writes --------------------------------------------------------------

    def add(
        self,
        *,
        gender: Gender,
        age: int,
        country: str,
        friend_list_public: bool = True,
        searchable: bool = True,
        cohort: str = COHORT_ORGANIC,
        created_at: int = 0,
        home_town: Optional[str] = None,
        current_town: Optional[str] = None,
        background_friend_count: int = 0,
        background_like_count: int = 0,
    ) -> UserId:
        """Append one profile row; scalar twin of :meth:`add_many`."""
        require(age >= 13, f"platform minimum age is 13, got {age}")
        require(bool(country), "country must be non-empty")
        require(background_friend_count >= 0, "background_friend_count must be >= 0")
        require(background_like_count >= 0, "background_like_count must be >= 0")
        country_code = self.strings.code(country)
        self._gender.append(_gender_code(gender))
        self._age.append(age)
        self._country.append(country_code)
        self._home_town.append(
            country_code if home_town is None else self.strings.code(home_town)
        )
        self._current_town.append(
            country_code if current_town is None else self.strings.code(current_town)
        )
        self._friend_list_public.append(bool(friend_list_public))
        self._searchable.append(bool(searchable))
        self._cohort.append(self.strings.code(cohort))
        self._created_at.append(created_at)
        self._terminated_at.append(_ALIVE)
        self._background_friends.append(background_friend_count)
        self._background_likes.append(background_like_count)
        return UserId(self.id_base + len(self._gender) - 1)

    def add_many(
        self,
        count: int,
        *,
        gender_codes,
        ages,
        countries,
        friend_list_public,
        searchable,
        cohort: str,
        created_at: int = 0,
    ) -> List[UserId]:
        """Append ``count`` rows in one shot.

        ``gender_codes``/``ages``/``friend_list_public``/``searchable``
        may each be a scalar or an array-like of length ``count``;
        ``countries`` is a sequence of strings (interned here); the
        cohort and creation time are per-batch scalars, matching how the
        generators create whole cohorts at once.
        """
        count = int(count)
        if count == 0:
            return []
        ages_arr = np.broadcast_to(
            np.asarray(ages, dtype=np.int16), (count,)
        )
        require(bool(np.all(ages_arr >= 13)), "platform minimum age is 13")
        country_codes = self.strings.codes_for(countries)
        require(country_codes.shape[0] == count, "countries length mismatch")
        self._gender.extend(
            np.broadcast_to(np.asarray(gender_codes, dtype=np.int8), (count,))
        )
        self._age.extend(ages_arr)
        self._country.extend(country_codes)
        self._home_town.extend(country_codes)
        self._current_town.extend(country_codes)
        self._friend_list_public.extend(
            np.broadcast_to(np.asarray(friend_list_public, dtype=np.bool_), (count,))
        )
        self._searchable.extend(
            np.broadcast_to(np.asarray(searchable, dtype=np.bool_), (count,))
        )
        cohort_code = self.strings.code(cohort)
        self._cohort.extend_full(count, cohort_code)
        self._created_at.extend_full(count, created_at)
        self._terminated_at.extend_full(count, _ALIVE)
        self._background_friends.extend_full(count, 0)
        self._background_likes.extend_full(count, 0)
        first = self.id_base + len(self._gender) - count
        return [UserId(first + i) for i in range(count)]

    def terminate(self, user_id: int, time: int) -> None:
        self._terminated_at[self.row_of(user_id)] = int(time)

    def set_background_friend_counts(self, user_ids, values) -> None:
        rows = np.asarray(user_ids, dtype=np.int64) - self.id_base
        self._background_friends[rows] = np.asarray(values, dtype=np.int64)

    def set_background_like_counts(self, user_ids, values) -> None:
        rows = np.asarray(user_ids, dtype=np.int64) - self.id_base
        self._background_likes[rows] = np.asarray(values, dtype=np.int64)

    # -- column reads (zero-copy, invalidated by the next add) ---------------

    def user_ids(self) -> np.ndarray:
        return self.id_base + np.arange(len(self._gender), dtype=np.int64)

    def ages(self) -> np.ndarray:
        return self._age.values()

    def age_bracket_indices(self, rows=slice(None)) -> np.ndarray:
        """The index into ``AGE_BRACKETS`` of each of ``rows`` (default:
        every row), as a fresh array."""
        return np.searchsorted(_BRACKET_LOWS, self._age.values()[rows], side="right") - 1

    def gender_codes(self) -> np.ndarray:
        return self._gender.values()

    def country_codes(self) -> np.ndarray:
        return self._country.values()

    def cohort_codes(self) -> np.ndarray:
        return self._cohort.values()

    def searchable_mask(self) -> np.ndarray:
        return self._searchable.values()

    def friend_list_public_mask(self) -> np.ndarray:
        return self._friend_list_public.values()

    def terminated_at_values(self) -> np.ndarray:
        return self._terminated_at.values()

    def alive_mask(self) -> np.ndarray:
        return self._terminated_at.values() == _ALIVE

    def background_friend_counts(self) -> np.ndarray:
        return self._background_friends.values()

    def background_like_counts(self) -> np.ndarray:
        return self._background_likes.values()

    def demographics(self, user_ids) -> Tuple[List[str], List[str], List[str]]:
        """Each user's gender value, age bracket and country, as lists.

        What the page-insights reports and a public profile show, read
        from the columns in one pass; ``KeyError`` for an unknown id.
        """
        rows = np.asarray(user_ids, dtype=np.int64) - self.id_base
        unknown = (rows < 0) | (rows >= len(self._gender))
        if unknown.any():
            raise KeyError(int(rows[unknown][0]) + self.id_base)
        value = self.strings.value
        return (
            [_GENDER_VALUES[code] for code in self._gender.values()[rows].tolist()],
            [AGE_BRACKETS[index] for index in self.age_bracket_indices(rows).tolist()],
            [value(code) for code in self._country.values()[rows].tolist()],
        )

    def is_terminated(self, user_id: int) -> bool:
        # direct backing-array read, same rationale as the ProfileView
        # accessors: this sits on the scalar like/friendship hot paths
        return self._terminated_at._data[self.row_of(user_id)] != _ALIVE

    def cohort_code(self, user_id: int) -> int:
        """The interned cohort code of ``user_id`` (KeyError if unknown)."""
        return int(self._cohort._data[self.row_of(user_id)])

    def cohort_code_of(self, cohort: str) -> Optional[int]:
        """The interned code for ``cohort`` if any row ever used it."""
        return self.strings.lookup(cohort)
