"""The simulated online social network (the "Facebook" substrate).

This package models everything the paper's measurement pipeline touched on
the platform side: user profiles with demographics and privacy settings, a
bidirectional friendship graph, pages and timestamped page likes, a public
directory of searchable profiles, organic-population generation, and the
platform's fraud-enforcement (account termination) process.
"""
