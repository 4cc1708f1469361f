"""Every device-configuration field is read by the model.

A field that nothing reads is an option a caller can set to no effect.
This scans every module under ``src/repro`` for attribute loads
(``config.name``, ``cfg.name``, ``self.name``) and requires each
``VillarsConfig`` and ``SsdConfig`` field name to appear among them.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.core.config import VillarsConfig
from repro.ssd.device import SsdConfig

SOURCE_ROOT = Path(repro.__file__).parent


def _attributes_read():
    names = set()
    for path in SOURCE_ROOT.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("config_class", [VillarsConfig, SsdConfig],
                         ids=lambda cls: cls.__name__)
def test_every_field_is_read(config_class):
    read = _attributes_read()
    unread = [field.name for field in dataclasses.fields(config_class)
              if field.name not in read]
    assert unread == [], (
        f"{config_class.__name__} fields never read under {SOURCE_ROOT}: "
        f"{unread}"
    )
