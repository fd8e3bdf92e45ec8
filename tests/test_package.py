"""The package's export list."""

import types

import mvnsdde


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(mvnsdde).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert mvnsdde.__all__ == sorted(public)
