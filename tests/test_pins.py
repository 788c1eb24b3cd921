"""The writers of the pinned files under tests/data, and the script that runs them."""

import pins


def test_every_data_file_has_one_writer():
    # The networks file is checked by the generator pin instead.
    files = sorted(path.name for path in pins.DATA.iterdir())
    assert files == sorted([*pins.WRITERS, pins.NETWORKS_FILE])


def test_write_puts_the_writers_text_in_the_file(tmp_path, monkeypatch):
    want = pins.pinned("pinned_configuration_model.json")
    monkeypatch.setattr(pins, "DATA", tmp_path)
    assert pins.main(["--write", "pinned_configuration_model.json"]) == 0
    assert (tmp_path / "pinned_configuration_model.json").read_text() == want


def test_write_refuses_an_unknown_name(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pins, "DATA", tmp_path)
    assert pins.main(["--write", "pinned_nothing.json"]) == 2
    known = ", ".join([*pins.WRITERS, pins.NETWORKS_FILE])
    assert capsys.readouterr().err == f"error: unknown pin 'pinned_nothing.json'; known pins: {known}\n"
    assert not any(tmp_path.iterdir())
