"""Like-farm simulators.

The paper bought likes from four services and found two modi operandi:

* **Burst farms** (SocialFormula, AuthenticLikes, MammothSocials): bot-driven
  pools of disposable accounts that deliver a whole order in a few
  two-hour bursts, keep few or no friends, and form isolated pairs/triplets
  in the liker social graph.
* **Stealth farms** (BoostLikes): accounts with rich profiles and a large,
  well-connected friendship network that trickle likes over the full order
  window at a rate indistinguishable from a legitimate ad campaign.

This package generates both behaviours from configuration: an account
factory (:mod:`repro.farms.accounts`), social-topology builders
(:mod:`repro.farms.topology`), delivery schedulers
(:mod:`repro.farms.scheduler`), operators that own reusable account pools —
including one operator running two storefronts, reproducing the paper's
AuthenticLikes/MammothSocials overlap — (:mod:`repro.farms.operator`), and a
catalog of the four farms calibrated to the paper (:mod:`repro.farms.catalog`).
"""
