import pytest


@pytest.fixture(scope="session")
def preset_config():
    """The config ``<command> --preset <name>`` resolves to."""
    import constbandit.cli as cli  # here, so a missing package fails only the tests that use it

    def resolve(name, command="verify"):
        return cli.resolve_config(cli.build_parser().parse_args([command, "--preset", name]))

    return resolve
