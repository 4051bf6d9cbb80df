"""Visibility rules the crawler must respect.

The paper could only read friend lists that users left public (~80 % of the
Facebook-ads likers hid theirs), and could not see friends who opted out of
appearing in friend lists.  Centralising the rules here keeps the crawler
honest: it asks :class:`PrivacyPolicy` instead of reaching into ground truth.

Each rule is defined once, over columns: the platform API's columnar
profile read (:mod:`repro.osn.profileread`) applies it as a mask to many
users at a time, and the per-profile checks apply the same rule to one.
"""

from __future__ import annotations

import numpy as np

from repro.osn.profile import UserProfile


class PrivacyPolicy:
    """Evaluates what an (unauthenticated) crawler may see about a profile."""

    def friend_lists_visible(self, public, terminated) -> np.ndarray:
        """Which friend lists the anonymous crawler may read.

        Terminated accounts expose nothing; otherwise visibility follows
        the owner's ``friend_list_public`` flag.  Friends always see each
        other's lists on the real platform, but the study crawled
        anonymously, so non-public lists are opaque to it.  Takes and
        returns boolean columns (or scalars).
        """
        return np.logical_and(public, np.logical_not(terminated))

    def page_likes_visible(self, terminated) -> np.ndarray:
        """Which lists of liked pages are crawlable.

        Page likes were effectively public in 2014 (they were part of the
        public profile), which is what allowed the paper's Section 4.4
        analysis; only terminated accounts disappear.
        """
        return np.logical_not(terminated)

    def can_view_friend_list(self, owner: UserProfile) -> bool:
        """Whether the anonymous crawler may read ``owner``'s friend list."""
        return bool(
            self.friend_lists_visible(owner.friend_list_public, owner.is_terminated)
        )

    def can_view_page_likes(self, owner: UserProfile) -> bool:
        """Whether the list of pages ``owner`` likes is crawlable."""
        return bool(self.page_likes_visible(owner.is_terminated))
