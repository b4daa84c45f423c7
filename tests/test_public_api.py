"""The package's public surface: every exported name resolves, once."""

import collections

import cflevels


def test_every_exported_name_resolves():
    missing = [name for name in cflevels.__all__ if not hasattr(cflevels, name)]
    assert missing == []


def test_no_name_exported_twice():
    counts = collections.Counter(cflevels.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_star_import_runs():
    namespace = {}
    exec("from cflevels import *", namespace)
    assert set(cflevels.__all__) <= namespace.keys()
