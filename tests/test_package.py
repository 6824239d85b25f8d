import inspect

import nlskdv as nk


def test_all_lists_every_public_name():
    # __all__ names exactly the public, non-module names the package
    # binds, so a deleted name cannot stay exported
    public = {name for name, value in vars(nk).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(nk.__all__) == len(set(nk.__all__))
    assert set(nk.__all__) == public
