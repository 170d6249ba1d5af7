"""The simulator's output is pinned byte for byte.

``repro-logs generate --model M --seed 7 --instances 200 --out -`` must
print exactly the log these digests were recorded from, so a change to
how ``WorkflowEngine.run`` picks the next instance cannot move a single
random draw unnoticed.
"""

import hashlib

import pytest

from repro.cli import main

DIGESTS = {
    "clinic": "b64ee469d80e92e2b5a2d432dcf12a419be571440db6fd5062036aad77944ee8",
    "order": "f351003127a0845722aca21a26c86f5d0b053da2ae957f4e89d93b05542413e3",
    "loan": "edddce9eb9d931e49c1c1a046c7b332bf05fb765fadb5f8f05c65c7ac83ef2c9",
}


@pytest.mark.parametrize("model", sorted(DIGESTS))
def test_generate_output_is_byte_identical(model, capsys):
    argv = ["generate", "--model", model, "--seed", "7", "--instances", "200", "--out", "-"]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == DIGESTS[model]
