"""Visibility rules the crawler must respect.

The paper could only read friend lists that users left public (~80 % of the
Facebook-ads likers hid theirs), and could not see friends who opted out of
appearing in friend lists.  Centralising the rules here keeps the crawler
honest: it asks :class:`PrivacyPolicy` instead of reaching into ground truth.
"""

from __future__ import annotations

from typing import Optional

from repro.osn.ids import UserId
from repro.osn.profile import UserProfile


class PrivacyPolicy:
    """Evaluates what an (unauthenticated) crawler may see about a profile."""

    def can_view_friend_list(self, owner: UserProfile, viewer: Optional[UserId] = None) -> bool:
        """Whether ``viewer`` (None = anonymous crawler) may read the friend list.

        Terminated accounts expose nothing; otherwise visibility follows the
        owner's ``friend_list_public`` flag.  Friends always see each other's
        lists on the real platform, but the study crawled anonymously, so
        non-public lists are opaque to it.
        """
        if owner.is_terminated:
            return False
        if owner.friend_list_public:
            return True
        return False

    def can_view_page_likes(self, owner: UserProfile, viewer: Optional[UserId] = None) -> bool:
        """Whether the list of pages ``owner`` likes is crawlable.

        Page likes were effectively public in 2014 (they were part of the
        public profile), which is what allowed the paper's Section 4.4
        analysis; only terminated accounts disappear.
        """
        return not owner.is_terminated
