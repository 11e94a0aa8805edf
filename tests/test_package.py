from types import ModuleType

import maskcov


def test_all_names_resolve_to_objects_not_modules():
    exported = [getattr(maskcov, name) for name in maskcov.__all__]
    assert not [obj for obj in exported if isinstance(obj, ModuleType)]
