"""The package's export list names what the package really has."""

import artinfib


def test_all_names_exported_once():
    names = artinfib.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(artinfib, name), name
