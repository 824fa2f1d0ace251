from pathlib import Path

import pytest

from godelgen import sigmodel

DATA = Path(__file__).parent / "data"

SIG_NAMES = [
    "nat",
    "natlist",
    "rat",
    "ratflip",
    "lambda",
    "termfam",
    "bool",
    "exists",
    "mixed",
]


def sig_path(name: str) -> Path:
    return DATA / f"{name}.sig"


def sig_text(name: str) -> str:
    return sig_path(name).read_text()


@pytest.fixture(scope="session")
def vsigs() -> dict[str, sigmodel.ValidatedSignature]:
    out = {}
    for name in SIG_NAMES:
        out[name] = sigmodel.validate(sigmodel.parse_signature(sig_text(name)))
    return out


@pytest.fixture(scope="session")
def plans(vsigs):
    from godelgen import codec

    return {name: codec.assign_tags(v) for name, v in vsigs.items()}
